//! Barrier tree topologies shared by the simulator and the threaded
//! runtime.
//!
//! The paper studies three families of counter trees:
//!
//! * **Combining trees** (Yew, Tzeng & Lawrie): processors are split
//!   into groups of `d` attached to leaf counters; internal counters
//!   combine `d` children. Built by [`Topology::combining`], with
//!   [`Topology::flat`] as the degenerate single-counter case.
//! * **MCS-style owner trees** (Mellor-Crummey & Scott): one processor
//!   is attached to *every* counter; node `i`'s children are nodes
//!   `d·i+1 ..= d·i+d`. Built by [`Topology::mcs`]. These are the
//!   substrate of the paper's dynamic placement barrier (Section 5).
//! * **Ring-constrained trees** for the KSR1 (Section 7): one MCS
//!   subtree per ring of processors, merged by one extra root counter;
//!   dynamic placement never crosses ring boundaries. Built by
//!   [`Topology::ring_mcs`].
//!
//! [`placement::Placement`] tracks which processor is attached to which
//! counter and implements the victor/victim swap of the dynamic
//! placement barrier (paper Figures 6–7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod placement;

pub use placement::{Placement, Swap};

/// Identifier of a counter node within a [`Topology`].
pub type CounterId = u32;

/// Identifier of a processor.
pub type ProcId = u32;

/// Which construction produced a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Single counter updated by every processor.
    Flat,
    /// Classic combining tree with processors at the leaves.
    Combining,
    /// MCS-style tree with one owner processor per counter.
    Mcs,
    /// Per-ring MCS subtrees merged by one extra root counter.
    RingMcs,
    /// A live-membership restriction of another topology (see
    /// [`Topology::prune`]); child counts may exceed the base degree
    /// because orphaned children are re-parented onto grandparents.
    Pruned,
}

/// One counter node in a barrier tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterNode {
    /// This node's id (equal to its index in [`Topology::nodes`]).
    pub id: CounterId,
    /// Parent counter, `None` for the root.
    pub parent: Option<CounterId>,
    /// Child counters that propagate into this node.
    pub children: Vec<CounterId>,
    /// Processors initially attached to this node (leaf groups for
    /// combining trees; exactly one owner for MCS nodes; empty for the
    /// merge root of a ring topology).
    pub procs: Vec<ProcId>,
    /// Number of counters on the path from this node to the root,
    /// inclusive (root has `path_len == 1`).
    pub path_len: u32,
    /// Ring this node belongs to (ring topologies only).
    pub ring: Option<u32>,
}

impl CounterNode {
    /// Total number of updates this counter expects before its last
    /// updater propagates: child-counter propagations plus attached
    /// processors.
    pub fn fan_in(&self) -> u32 {
        (self.children.len() + self.procs.len()) as u32
    }
}

/// A barrier tree: counters, their wiring, and the initial assignment
/// of processors to counters.
///
/// # Examples
///
/// ```
/// use combar_topo::Topology;
///
/// // the paper's Figure 2 trees over 4096 processors
/// assert_eq!(Topology::combining(4096, 4).depth(), 6);
/// assert_eq!(Topology::combining(4096, 64).depth(), 2);
/// // the KSR1 tree: two rings of 32 merged by one extra counter
/// let ksr = Topology::ring_mcs(56, 16, 32);
/// assert_eq!(ksr.depth(), 3);
/// ksr.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    degree: u32,
    num_procs: u32,
    nodes: Vec<CounterNode>,
    root: CounterId,
    /// Initial home counter of each processor.
    home: Vec<CounterId>,
}

impl Topology {
    /// A single counter updated by all `p` processors — the naive
    /// lock-and-counter barrier, and the optimal "tree" under extreme
    /// load imbalance (the paper's 64-processor, σ = 25·t_c entry).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn flat(p: u32) -> Self {
        assert!(p > 0, "need at least one processor");
        let node = CounterNode {
            id: 0,
            parent: None,
            children: vec![],
            procs: (0..p).collect(),
            path_len: 1,
            ring: None,
        };
        Self {
            kind: TopologyKind::Flat,
            degree: p,
            num_procs: p,
            nodes: vec![node],
            root: 0,
            home: vec![0; p as usize],
        }
    }

    /// A combining tree of degree `d` over `p` processors.
    ///
    /// Processors are split into `⌈p/d⌉` leaf groups; counters are then
    /// grouped by `d` level by level until a single root remains. When
    /// `p = d^L` the result is the paper's *full tree* with `L` levels;
    /// other `p` yield partial trees (e.g. the paper's degree-32 tree
    /// over 4096 processors has depth 3).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `d < 2` (use [`Topology::flat`] for a
    /// single counter).
    pub fn combining(p: u32, d: u32) -> Self {
        assert!(p > 0, "need at least one processor");
        assert!(
            d >= 2,
            "combining tree degree must be >= 2 (use flat for one counter)"
        );
        if d >= p {
            let mut t = Self::flat(p);
            t.kind = TopologyKind::Combining;
            t.degree = d;
            return t;
        }
        let mut nodes: Vec<CounterNode> = Vec::new();
        let mut home = vec![0u32; p as usize];

        // Leaf level: groups of up to d processors.
        let mut level: Vec<CounterId> = Vec::new();
        for (g, chunk) in (0..p).collect::<Vec<_>>().chunks(d as usize).enumerate() {
            let id = nodes.len() as CounterId;
            for &proc in chunk {
                home[proc as usize] = id;
            }
            nodes.push(CounterNode {
                id,
                parent: None,
                children: vec![],
                procs: chunk.to_vec(),
                path_len: 0,
                ring: None,
            });
            level.push(id);
            let _ = g;
        }
        // Internal levels: group counters by d until one remains.
        while level.len() > 1 {
            let mut next: Vec<CounterId> = Vec::new();
            for chunk in level.chunks(d as usize) {
                let id = nodes.len() as CounterId;
                for &c in chunk {
                    nodes[c as usize].parent = Some(id);
                }
                nodes.push(CounterNode {
                    id,
                    parent: None,
                    children: chunk.to_vec(),
                    procs: vec![],
                    path_len: 0,
                    ring: None,
                });
                next.push(id);
            }
            level = next;
        }
        let root = level[0];
        let mut topo = Self {
            kind: TopologyKind::Combining,
            degree: d,
            num_procs: p,
            nodes,
            root,
            home,
        };
        topo.fill_path_lens();
        topo
    }

    /// An MCS-style owner tree of degree `d` over `p` processors,
    /// following the paper's Section 5 description: every *internal*
    /// counter has `d` child counters plus exactly one attached
    /// processor, and *leaf* counters hold up to `d+1` processors.
    ///
    /// The construction is top-down with even splits, which reproduces
    /// the depths behind the paper's Figure 8 (4096 processors: degree 4
    /// → depth 6, degree 16 → depth 3).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `d == 0`.
    pub fn mcs(p: u32, d: u32) -> Self {
        assert!(p > 0, "need at least one processor");
        assert!(d > 0, "MCS tree degree must be >= 1");
        let mut nodes: Vec<CounterNode> = Vec::new();
        let mut home = vec![0u32; p as usize];
        let procs: Vec<u32> = (0..p).collect();
        let root = Self::build_owner_subtree(&mut nodes, &mut home, &procs, d, None);
        let mut topo = Self {
            kind: TopologyKind::Mcs,
            degree: d,
            num_procs: p,
            nodes,
            root,
            home,
        };
        topo.fill_path_lens();
        topo
    }

    /// Builds one owner subtree over `procs`; returns its root id.
    fn build_owner_subtree(
        nodes: &mut Vec<CounterNode>,
        home: &mut [CounterId],
        procs: &[u32],
        d: u32,
        ring: Option<u32>,
    ) -> CounterId {
        debug_assert!(!procs.is_empty());
        let id = nodes.len() as CounterId;
        if procs.len() <= d as usize + 1 {
            // Leaf counter: all processors attach here.
            for &p in procs {
                home[p as usize] = id;
            }
            nodes.push(CounterNode {
                id,
                parent: None,
                children: vec![],
                procs: procs.to_vec(),
                path_len: 0,
                ring,
            });
            return id;
        }
        // Internal counter: first processor is the owner, the rest are
        // split evenly among up to d child subtrees.
        home[procs[0] as usize] = id;
        nodes.push(CounterNode {
            id,
            parent: None,
            children: vec![],
            procs: vec![procs[0]],
            path_len: 0,
            ring,
        });
        let rest = &procs[1..];
        let k = (d as usize).min(rest.len());
        let base = rest.len() / k;
        let extra = rest.len() % k;
        let mut children = Vec::with_capacity(k);
        let mut offset = 0usize;
        for i in 0..k {
            let take = base + usize::from(i < extra);
            let chunk = &rest[offset..offset + take];
            offset += take;
            let child = Self::build_owner_subtree(nodes, home, chunk, d, ring);
            nodes[child as usize].parent = Some(id);
            children.push(child);
        }
        nodes[id as usize].children = children;
        id
    }

    /// KSR1-style ring-constrained tree: processors are split into rings
    /// of `ring_size`, each ring gets its own MCS tree of degree `d`,
    /// and the ring roots feed one extra merge counter (which owns no
    /// processor). Dynamic placement never crosses ring boundaries (the
    /// merge counter is unswappable).
    ///
    /// With one ring this degenerates to a plain MCS tree (no merge
    /// counter is added).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`, `d == 0`, or `ring_size == 0`.
    pub fn ring_mcs(p: u32, d: u32, ring_size: u32) -> Self {
        assert!(p > 0, "need at least one processor");
        assert!(d > 0, "degree must be >= 1");
        assert!(ring_size > 0, "ring size must be >= 1");
        if ring_size >= p {
            let mut t = Self::mcs(p, d);
            for n in &mut t.nodes {
                n.ring = Some(0);
            }
            t.kind = TopologyKind::RingMcs;
            return t;
        }
        let mut nodes: Vec<CounterNode> = Vec::new();
        let mut home = vec![0u32; p as usize];
        let mut ring_roots: Vec<CounterId> = Vec::new();
        let mut ring_idx = 0u32;
        let mut start = 0u32;
        while start < p {
            let count = ring_size.min(p - start);
            let procs: Vec<u32> = (start..start + count).collect();
            let subtree_root =
                Self::build_owner_subtree(&mut nodes, &mut home, &procs, d, Some(ring_idx));
            ring_roots.push(subtree_root);
            ring_idx += 1;
            start += count;
        }
        // Merge counter at the top.
        let root = nodes.len() as CounterId;
        for &r in &ring_roots {
            nodes[r as usize].parent = Some(root);
        }
        nodes.push(CounterNode {
            id: root,
            parent: None,
            children: ring_roots,
            procs: vec![],
            path_len: 0,
            ring: None,
        });
        let mut topo = Self {
            kind: TopologyKind::RingMcs,
            degree: d,
            num_procs: p,
            nodes,
            root,
            home,
        };
        topo.fill_path_lens();
        topo
    }

    fn fill_path_lens(&mut self) {
        // BFS from the root; path_len(root) = 1.
        let mut stack = vec![self.root];
        self.nodes[self.root as usize].path_len = 1;
        while let Some(id) = stack.pop() {
            let len = self.nodes[id as usize].path_len + 1;
            for i in 0..self.nodes[id as usize].children.len() {
                let c = self.nodes[id as usize].children[i];
                self.nodes[c as usize].path_len = len;
                stack.push(c);
            }
        }
    }

    /// Which construction produced this topology.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The construction degree.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Number of processors.
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// All counter nodes, indexed by id.
    pub fn nodes(&self) -> &[CounterNode] {
        &self.nodes
    }

    /// One counter node.
    pub fn node(&self, id: CounterId) -> &CounterNode {
        &self.nodes[id as usize]
    }

    /// The root counter.
    pub fn root(&self) -> CounterId {
        self.root
    }

    /// Number of counters.
    pub fn num_counters(&self) -> usize {
        self.nodes.len()
    }

    /// The initial home counter of processor `p`.
    pub fn home_of(&self, p: ProcId) -> CounterId {
        self.home[p as usize]
    }

    /// Initial home counters, indexed by processor.
    pub fn homes(&self) -> &[CounterId] {
        &self.home
    }

    /// Depth of the tree: the longest root path over all counters.
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.path_len).max().unwrap_or(0)
    }

    /// Number of counters on the path from `c` to the root, inclusive.
    pub fn path_len(&self, c: CounterId) -> u32 {
        self.nodes[c as usize].path_len
    }

    /// Iterator over the counters from `c` to the root, inclusive.
    pub fn path_to_root(&self, c: CounterId) -> PathToRoot<'_> {
        PathToRoot {
            topo: self,
            next: Some(c),
        }
    }

    /// The *processor* neighbour graph induced by the counter tree,
    /// as an undirected edge list: processors attached to the same
    /// counter are chained in attachment order, and each counter's
    /// representative processor (its first attached processor, or its
    /// first descendant's for processor-less merge roots) connects to
    /// its parent counter's representative. The result is connected,
    /// has `O(p)` edges, mirrors the tree's communication locality —
    /// exactly the graph a diffusion load balancer should move work
    /// along — and is a pure function of the topology, so it is
    /// identical at any thread count.
    pub fn proc_edges(&self) -> Vec<(ProcId, ProcId)> {
        // Representative processor per counter, resolving
        // processor-less counters through their first child (post-order
        // over path_len guarantees children resolve first).
        let mut rep: Vec<Option<ProcId>> = vec![None; self.nodes.len()];
        let mut order: Vec<CounterId> = (0..self.nodes.len() as u32).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(self.path_len(c)));
        for c in order {
            let n = &self.nodes[c as usize];
            rep[c as usize] = n
                .procs
                .first()
                .copied()
                .or_else(|| n.children.iter().find_map(|&ch| rep[ch as usize]));
        }
        let mut edges = Vec::with_capacity(self.num_procs as usize);
        for n in &self.nodes {
            for w in n.procs.windows(2) {
                edges.push((w[0], w[1]));
            }
            let Some(mine) = rep[n.id as usize] else {
                continue;
            };
            for &ch in &n.children {
                if let Some(theirs) = rep[ch as usize] {
                    if theirs != mine {
                        edges.push((theirs, mine));
                    }
                }
            }
        }
        edges
    }

    /// Checks structural invariants; used by tests and property tests.
    ///
    /// Verifies: parent/child symmetry, a single root, every processor
    /// attached exactly once and its home matching that attachment,
    /// acyclicity (path lengths strictly decrease toward the root), and
    /// child counts bounded by the degree.
    pub fn validate(&self) -> Result<(), String> {
        let mut root_count = 0;
        for n in &self.nodes {
            if n.id as usize >= self.nodes.len() {
                return Err(format!("node id {} out of range", n.id));
            }
            match n.parent {
                None => root_count += 1,
                Some(par) => {
                    let pnode = &self.nodes[par as usize];
                    if !pnode.children.contains(&n.id) {
                        return Err(format!("node {} not listed in parent {}", n.id, par));
                    }
                    if pnode.path_len + 1 != n.path_len {
                        return Err(format!("node {} path_len inconsistent", n.id));
                    }
                }
            }
            for &c in &n.children {
                if self.nodes[c as usize].parent != Some(n.id) {
                    return Err(format!("child {} of {} disagrees about parent", c, n.id));
                }
            }
            let degree_bounded = matches!(self.kind, TopologyKind::Combining | TopologyKind::Mcs)
                || (self.kind == TopologyKind::RingMcs && n.ring.is_some());
            if degree_bounded && n.children.len() > self.degree as usize {
                return Err(format!("node {} exceeds degree", n.id));
            }
            if n.fan_in() == 0 {
                return Err(format!("node {} has zero fan-in", n.id));
            }
        }
        if root_count != 1 {
            return Err(format!("expected 1 root, found {root_count}"));
        }
        let mut seen = vec![false; self.num_procs as usize];
        for n in &self.nodes {
            for &p in &n.procs {
                if p >= self.num_procs {
                    return Err(format!("proc {p} out of range"));
                }
                if seen[p as usize] {
                    return Err(format!("proc {p} attached twice"));
                }
                seen[p as usize] = true;
                if self.home[p as usize] != n.id {
                    return Err(format!("proc {p} home mismatch"));
                }
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("some processor is unattached".into());
        }
        Ok(())
    }

    /// The live shape of this topology after removing dead processors,
    /// with counter ids preserved.
    ///
    /// The pruning rule, used verbatim by the self-healing runtime
    /// barriers when they reconfigure at an episode boundary:
    ///
    /// * a counter whose subtree holds no live processor is dropped;
    /// * a counter whose *attached* processors all died (a dead MCS
    ///   owner) is spliced out — its orphaned children re-parent onto
    ///   the nearest retained ancestor (the grandparent, when that is
    ///   retained);
    /// * a counter left with a single live contributor (processors plus
    ///   retained children) below a death is spliced out too, so chains
    ///   created by deaths do not cost depth — but counters whose
    ///   subtree saw **no** death keep their base shape exactly, which
    ///   makes `prune_shape` of a fully live set the identity;
    /// * the root is never spliced (the runtime's release point).
    ///
    /// Each processor's effective home is the nearest retained ancestor
    /// of its base home, so a processor that rejoins after full
    /// membership is restored grafts back at its original leaf.
    ///
    /// # Panics
    ///
    /// Panics if `live.len() != num_procs()`.
    pub fn prune_shape(&self, live: &[bool]) -> PrunedShape {
        assert_eq!(live.len(), self.num_procs as usize, "live mask length");
        let n = self.nodes.len();
        let mut retained = vec![false; n];
        let mut has_live = vec![false; n];
        let mut dead_below = vec![false; n];
        // Children before parents: base path lengths strictly decrease
        // toward the root, so descending path_len is a reverse
        // topological order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.nodes[b].path_len.cmp(&self.nodes[a].path_len));
        for &c in &order {
            let node = &self.nodes[c];
            let live_here = node.procs.iter().filter(|&&p| live[p as usize]).count();
            let mut hl = live_here > 0;
            let mut db = node.procs.iter().any(|&p| !live[p as usize]);
            let mut retained_children = 0u32;
            for &ch in &node.children {
                hl |= has_live[ch as usize];
                db |= dead_below[ch as usize];
                retained_children += u32::from(retained[ch as usize]);
            }
            has_live[c] = hl;
            dead_below[c] = db;
            let owner_dead = !node.procs.is_empty() && live_here == 0;
            retained[c] = hl
                && if c == self.root as usize {
                    true
                } else if owner_dead {
                    false
                } else {
                    !db || live_here as u32 + retained_children >= 2
                };
        }
        // Effective parent: nearest retained proper ancestor.
        let mut parent = vec![None; n];
        for c in 0..n {
            if !retained[c] {
                continue;
            }
            let mut up = self.nodes[c].parent;
            while let Some(a) = up {
                if retained[a as usize] {
                    parent[c] = Some(a);
                    break;
                }
                up = self.nodes[a as usize].parent;
            }
        }
        // Effective home: nearest retained ancestor of the base home.
        let mut home = vec![None; self.num_procs as usize];
        let mut live_procs = 0u32;
        for p in 0..self.num_procs as usize {
            if !live[p] {
                continue;
            }
            live_procs += 1;
            let mut c = self.home[p];
            loop {
                if retained[c as usize] {
                    home[p] = Some(c);
                    break;
                }
                match self.nodes[c as usize].parent {
                    Some(a) => c = a,
                    None => break,
                }
            }
            debug_assert!(home[p].is_some(), "live proc {p} lost its home");
        }
        let mut fan_in = vec![0u32; n];
        for h in home.iter().flatten() {
            fan_in[*h as usize] += 1;
        }
        for par in parent.iter().take(n).copied().flatten() {
            fan_in[par as usize] += 1;
        }
        // Path lengths top-down over the effective edges (ascending
        // base path_len visits effective parents first, since splicing
        // only shortens paths).
        let mut path_len = vec![0u32; n];
        for &c in order.iter().rev() {
            if !retained[c] {
                continue;
            }
            path_len[c] = match parent[c] {
                None => 1,
                Some(par) => path_len[par as usize] + 1,
            };
        }
        let depth = path_len.iter().copied().max().unwrap_or(0);
        PrunedShape {
            retained,
            parent,
            fan_in,
            path_len,
            home,
            live_procs,
            depth,
        }
    }

    /// A compact [`Topology`] over only the live processors, for
    /// simulator use: counters and processors are renumbered densely.
    ///
    /// Returns the pruned topology plus the original id of each
    /// renumbered processor (`procs[new] == old`), or `None` when no
    /// processor is live. The result has kind [`TopologyKind::Pruned`]
    /// and validates structurally.
    pub fn prune(&self, live: &[bool]) -> Option<(Topology, Vec<ProcId>)> {
        let shape = self.prune_shape(live);
        if shape.live_procs == 0 {
            return None;
        }
        let mut new_id = vec![u32::MAX; self.nodes.len()];
        // Renumber in ascending effective path_len so parents come
        // first; ties broken by base id for determinism.
        let mut kept: Vec<usize> = (0..self.nodes.len())
            .filter(|&c| shape.retained[c])
            .collect();
        kept.sort_by_key(|&c| (shape.path_len[c], c));
        for (i, &c) in kept.iter().enumerate() {
            new_id[c] = i as u32;
        }
        let proc_map: Vec<ProcId> = (0..self.num_procs).filter(|&p| live[p as usize]).collect();
        let mut home = vec![0u32; proc_map.len()];
        let mut nodes: Vec<CounterNode> = kept
            .iter()
            .map(|&c| CounterNode {
                id: new_id[c],
                parent: shape.parent[c].map(|a| new_id[a as usize]),
                children: Vec::new(),
                procs: Vec::new(),
                path_len: shape.path_len[c],
                ring: self.nodes[c].ring,
            })
            .collect();
        for (newp, &oldp) in proc_map.iter().enumerate() {
            let h = new_id[shape.home[oldp as usize].expect("live proc home") as usize];
            home[newp] = h;
            nodes[h as usize].procs.push(newp as ProcId);
        }
        for &c in &kept {
            if let Some(par) = shape.parent[c] {
                let child = new_id[c];
                nodes[new_id[par as usize] as usize].children.push(child);
            }
        }
        let topo = Topology {
            kind: TopologyKind::Pruned,
            degree: self.degree,
            num_procs: proc_map.len() as u32,
            root: 0,
            nodes,
            home,
        };
        debug_assert_eq!(topo.nodes[0].parent, None);
        Some((topo, proc_map))
    }
}

/// The live shape computed by [`Topology::prune_shape`]: the base
/// topology restricted to live processors, with counter ids preserved.
///
/// Vectors over counters are indexed by base [`CounterId`]; dropped
/// counters carry `fan_in == 0`, `path_len == 0`, `parent == None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedShape {
    /// Whether each base counter survives in the live shape.
    pub retained: Vec<bool>,
    /// Effective parent: the nearest retained proper ancestor.
    pub parent: Vec<Option<CounterId>>,
    /// Effective fan-in: live processors homed here plus retained
    /// children re-parented here.
    pub fan_in: Vec<u32>,
    /// Counters on the path to the root, inclusive (root = 1).
    pub path_len: Vec<u32>,
    /// Effective home counter of each processor (`None` when dead).
    pub home: Vec<Option<CounterId>>,
    /// Number of live processors.
    pub live_procs: u32,
    /// Depth of the live shape (max effective path length).
    pub depth: u32,
}

impl PrunedShape {
    /// Checks the shape invariants the runtime relies on; returns a
    /// description of the first violation.
    ///
    /// Verifies: every live processor has a retained home; fan-ins sum
    /// to live processors plus retained non-root counters (each
    /// retained non-root counter contributes exactly one propagation);
    /// no retained counter has zero fan-in; exactly one root; path
    /// lengths increase by one along effective edges.
    pub fn validate(&self) -> Result<(), String> {
        if self.live_procs == 0 {
            if self.retained.iter().any(|&r| r) {
                return Err("counters retained with no live procs".into());
            }
            return Ok(());
        }
        let mut roots = 0u32;
        let mut edge_sum = 0u64;
        for c in 0..self.retained.len() {
            if !self.retained[c] {
                if self.fan_in[c] != 0 || self.parent[c].is_some() {
                    return Err(format!("dropped counter {c} still wired"));
                }
                continue;
            }
            if self.fan_in[c] == 0 {
                return Err(format!("retained counter {c} has zero fan-in"));
            }
            match self.parent[c] {
                None => {
                    roots += 1;
                    if self.path_len[c] != 1 {
                        return Err(format!("root {c} path_len != 1"));
                    }
                }
                Some(par) => {
                    edge_sum += 1;
                    if !self.retained[par as usize] {
                        return Err(format!("counter {c} parents dropped counter {par}"));
                    }
                    if self.path_len[c] != self.path_len[par as usize] + 1 {
                        return Err(format!("counter {c} path_len inconsistent"));
                    }
                }
            }
        }
        if roots != 1 {
            return Err(format!("expected 1 root, found {roots}"));
        }
        let mut home_sum = 0u64;
        for (p, h) in self.home.iter().enumerate() {
            if let Some(h) = h {
                if !self.retained[*h as usize] {
                    return Err(format!("proc {p} homed at dropped counter {h}"));
                }
                home_sum += 1;
            }
        }
        if home_sum != self.live_procs as u64 {
            return Err(format!(
                "{home_sum} homed procs but {} live",
                self.live_procs
            ));
        }
        let fan_sum: u64 = self.fan_in.iter().map(|&f| f as u64).sum();
        if fan_sum != home_sum + edge_sum {
            return Err(format!(
                "fan-in sum {fan_sum} != procs {home_sum} + edges {edge_sum}"
            ));
        }
        Ok(())
    }
}

/// Iterator from a counter to the root (see [`Topology::path_to_root`]).
pub struct PathToRoot<'a> {
    topo: &'a Topology,
    next: Option<CounterId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = CounterId;
    fn next(&mut self) -> Option<CounterId> {
        let cur = self.next?;
        self.next = self.topo.node(cur).parent;
        Some(cur)
    }
}

/// Degrees `d ≥ 2` for which a combining tree over `p` processors has
/// only full levels (`d^L = p` for some `L ≥ 1`), in increasing order.
///
/// The paper's analytic model (Equation 8) is derived for full trees,
/// so the estimated optimal degree scans exactly this set.
pub fn full_tree_degrees(p: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for d in 2..=p {
        let mut acc: u64 = 1;
        while acc < p as u64 {
            acc *= d as u64;
        }
        if acc == p as u64 {
            out.push(d);
        }
    }
    out
}

/// The degree sweep used by the exhaustive simulations: powers of two
/// from 2 up to `p`, always including `p` itself (the flat counter).
pub fn default_degree_sweep(p: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut d = 2u32;
    while d < p {
        out.push(d);
        d = d.saturating_mul(2);
    }
    out.push(p);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_has_one_counter() {
        let t = Topology::flat(8);
        t.validate().unwrap();
        assert_eq!(t.num_counters(), 1);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.node(0).fan_in(), 8);
        assert!(t.homes().iter().all(|&h| h == 0));
    }

    #[test]
    fn full_combining_tree_shape() {
        // 64 procs, degree 4: 16 leaves + 4 internal + 1 root = 21,
        // depth 3.
        let t = Topology::combining(64, 4);
        t.validate().unwrap();
        assert_eq!(t.num_counters(), 21);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.node(t.root()).fan_in(), 4);
        // every leaf holds exactly 4 procs
        let leaves: Vec<_> = t.nodes().iter().filter(|n| n.children.is_empty()).collect();
        assert_eq!(leaves.len(), 16);
        assert!(leaves.iter().all(|n| n.procs.len() == 4));
    }

    /// The paper's Figure 2 tree depths for 4096 processors:
    /// degrees 2, 4, 8, 16, 32, 64 → depths 12, 6, 4, 3, 3, 2.
    #[test]
    fn figure2_tree_depths() {
        let cases = [(2u32, 12u32), (4, 6), (8, 4), (16, 3), (32, 3), (64, 2)];
        for (d, depth) in cases {
            let t = Topology::combining(4096, d);
            t.validate().unwrap();
            assert_eq!(t.depth(), depth, "degree {d}");
        }
    }

    #[test]
    fn degenerate_combining_is_flat_shaped() {
        let t = Topology::combining(5, 8);
        t.validate().unwrap();
        assert_eq!(t.num_counters(), 1);
        assert_eq!(t.kind(), TopologyKind::Combining);
    }

    #[test]
    fn mcs_tree_shape() {
        let t = Topology::mcs(10, 2);
        t.validate().unwrap();
        // root owns proc 0, two subtrees over {1..5} and {6..9}:
        // each subtree root owns one proc with two small leaves below.
        let root = t.node(t.root());
        assert_eq!(root.procs, vec![0]);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.fan_in(), 3); // 2 children + owner
        assert_eq!(t.depth(), 3);
        // leaves hold at most d+1 = 3 processors
        for n in t.nodes() {
            if n.children.is_empty() {
                assert!(n.procs.len() <= 3 && !n.procs.is_empty());
            } else {
                assert_eq!(n.procs.len(), 1, "internal counters own one proc");
            }
        }
    }

    #[test]
    fn mcs_internal_counters_own_exactly_one_proc() {
        for (p, d) in [(64u32, 4u32), (100, 3), (4096, 16), (56, 2)] {
            let t = Topology::mcs(p, d);
            t.validate().unwrap();
            for n in t.nodes() {
                if n.children.is_empty() {
                    assert!(
                        (1..=d as usize + 1).contains(&n.procs.len()),
                        "p={p} d={d}: leaf holds {}",
                        n.procs.len()
                    );
                } else {
                    assert_eq!(n.procs.len(), 1);
                    assert!(n.children.len() <= d as usize);
                }
            }
        }
    }

    /// The MCS depths behind the paper's Figure 8: 4096 processors at
    /// degree 4 start at depth 6 (static last-proc depth 5.85) and at
    /// degree 16 start at depth 3 (static 2.99).
    #[test]
    fn figure8_mcs_depths() {
        assert_eq!(Topology::mcs(4096, 4).depth(), 6);
        assert_eq!(Topology::mcs(4096, 16).depth(), 3);
    }

    /// The paper (Section 7, footnote): two rings of 32 merged by one
    /// extra level, so degree 16 gives an initial tree depth of 3.
    #[test]
    fn ring_mcs_ksr_shape() {
        let t = Topology::ring_mcs(64, 16, 32);
        t.validate().unwrap();
        assert_eq!(t.depth(), 3);
        // merge root: no owner, two ring children
        let root = t.node(t.root());
        assert!(root.procs.is_empty());
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.ring, None);
        // both rings cover 32 processors each
        for ring in [0u32, 1] {
            let procs: usize = t
                .nodes()
                .iter()
                .filter(|n| n.ring == Some(ring))
                .map(|n| n.procs.len())
                .sum();
            assert_eq!(procs, 32);
        }
    }

    #[test]
    fn ring_mcs_single_ring_degenerates_to_mcs() {
        let t = Topology::ring_mcs(16, 4, 32);
        t.validate().unwrap();
        assert_eq!(t.num_counters(), Topology::mcs(16, 4).num_counters());
        assert_eq!(t.kind(), TopologyKind::RingMcs);
        assert!(t.nodes().iter().all(|n| n.ring == Some(0)));
    }

    #[test]
    fn ring_mcs_uneven_last_ring() {
        // The paper's measurement platform: 56 processors in rings of 32.
        let t = Topology::ring_mcs(56, 4, 32);
        t.validate().unwrap();
        let ring1_procs: usize = t
            .nodes()
            .iter()
            .filter(|n| n.ring == Some(1))
            .map(|n| n.procs.len())
            .sum();
        assert_eq!(ring1_procs, 24);
        // merge counter has no ring and no owner
        let root = t.node(t.root());
        assert_eq!(root.ring, None);
        assert!(root.procs.is_empty());
    }

    #[test]
    fn path_to_root_walks_upward() {
        let t = Topology::combining(64, 4);
        let leaf = t.home_of(63);
        let path: Vec<_> = t.path_to_root(leaf).collect();
        assert_eq!(path.len() as u32, t.path_len(leaf));
        assert_eq!(*path.last().unwrap(), t.root());
        // path lengths decrease by one each step
        for w in path.windows(2) {
            assert_eq!(t.path_len(w[0]), t.path_len(w[1]) + 1);
        }
    }

    #[test]
    fn full_tree_degrees_examples() {
        assert_eq!(full_tree_degrees(64), vec![2, 4, 8, 64]);
        assert_eq!(full_tree_degrees(256), vec![2, 4, 16, 256]);
        assert_eq!(full_tree_degrees(4096), vec![2, 4, 8, 16, 64, 4096]);
        assert_eq!(full_tree_degrees(6), vec![6]);
    }

    #[test]
    fn default_degree_sweep_covers_powers_and_p() {
        assert_eq!(default_degree_sweep(64), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(default_degree_sweep(56), vec![2, 4, 8, 16, 32, 56]);
        assert_eq!(default_degree_sweep(2), vec![2]);
    }

    #[test]
    fn single_processor_topologies() {
        for t in [
            Topology::flat(1),
            Topology::mcs(1, 4),
            Topology::ring_mcs(1, 4, 32),
        ] {
            t.validate().unwrap();
            assert_eq!(t.depth(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        let _ = Topology::flat(0);
    }

    #[test]
    #[should_panic(expected = "degree must be >= 2")]
    fn degree_one_combining_rejected() {
        let _ = Topology::combining(8, 1);
    }

    #[test]
    fn prune_of_fully_live_set_is_identity() {
        for t in [
            Topology::flat(7),
            Topology::combining(64, 4),
            Topology::combining(5, 2),
            Topology::mcs(10, 2),
            Topology::mcs(100, 3),
            Topology::ring_mcs(56, 4, 32),
        ] {
            let live = vec![true; t.num_procs() as usize];
            let s = t.prune_shape(&live);
            s.validate().unwrap();
            assert!(s.retained.iter().all(|&r| r), "{:?}", t.kind());
            for n in t.nodes() {
                assert_eq!(s.parent[n.id as usize], n.parent);
                assert_eq!(s.fan_in[n.id as usize], n.fan_in());
                assert_eq!(s.path_len[n.id as usize], n.path_len);
            }
            for p in 0..t.num_procs() {
                assert_eq!(s.home[p as usize], Some(t.home_of(p)));
            }
            assert_eq!(s.depth, t.depth());
        }
    }

    #[test]
    fn prune_splices_lone_survivor_up_to_grandparent() {
        // combining(16, 4): four leaves of four procs under the root.
        let t = Topology::combining(16, 4);
        let mut live = vec![true; 16];
        // Kill three of leaf 0's procs: the leaf keeps fan_in 1... no —
        // a single live contributor below a death splices the leaf, so
        // proc 3 re-homes at the root.
        live[0] = false;
        live[1] = false;
        live[2] = false;
        let s = t.prune_shape(&live);
        s.validate().unwrap();
        let leaf0 = t.home_of(0);
        assert!(!s.retained[leaf0 as usize]);
        assert_eq!(s.home[3], Some(t.root()));
        assert_eq!(s.fan_in[t.root() as usize], 4); // 3 leaves + proc 3
        assert_eq!(s.depth, 2);
    }

    #[test]
    fn prune_partial_leaf_death_only_shrinks_fan_in() {
        let t = Topology::combining(16, 4);
        let mut live = vec![true; 16];
        live[0] = false;
        let s = t.prune_shape(&live);
        s.validate().unwrap();
        let leaf0 = t.home_of(0);
        assert!(s.retained[leaf0 as usize]);
        assert_eq!(s.fan_in[leaf0 as usize], 3);
        assert_eq!(s.depth, t.depth());
    }

    #[test]
    fn prune_reparents_orphans_of_dead_mcs_owner() {
        // mcs(10, 2): root owns 0 with two internal children owning
        // 1 and 6; killing owner 1 must re-parent its leaves onto the
        // root (the grandparent).
        let t = Topology::mcs(10, 2);
        let c1 = t.home_of(1);
        let kids = t.node(c1).children.clone();
        assert!(!kids.is_empty());
        let mut live = vec![true; 10];
        live[1] = false;
        let s = t.prune_shape(&live);
        s.validate().unwrap();
        assert!(!s.retained[c1 as usize]);
        for k in kids {
            assert_eq!(s.parent[k as usize], Some(t.root()));
            assert_eq!(s.path_len[k as usize], 2);
        }
    }

    #[test]
    fn prune_dead_root_owner_keeps_root() {
        let t = Topology::mcs(10, 2);
        let mut live = vec![true; 10];
        live[0] = false; // root owner
        let s = t.prune_shape(&live);
        s.validate().unwrap();
        assert!(s.retained[t.root() as usize]);
        assert_eq!(s.fan_in[t.root() as usize], 2);
    }

    #[test]
    fn prune_single_survivor_collapses_to_root() {
        let t = Topology::combining(64, 4);
        let mut live = vec![false; 64];
        live[17] = true;
        let s = t.prune_shape(&live);
        s.validate().unwrap();
        assert_eq!(s.live_procs, 1);
        assert_eq!(s.depth, 1);
        assert_eq!(s.home[17], Some(t.root()));
        assert_eq!(s.fan_in[t.root() as usize], 1);
    }

    #[test]
    fn prune_all_dead_retains_nothing() {
        let t = Topology::combining(8, 2);
        let s = t.prune_shape(&[false; 8]);
        s.validate().unwrap();
        assert_eq!(s.live_procs, 0);
        assert!(t.prune(&[false; 8]).is_none());
    }

    #[test]
    fn prune_compact_topology_validates_and_maps_procs() {
        let t = Topology::mcs(20, 3);
        let mut live = vec![true; 20];
        for dead in [0, 5, 6, 13] {
            live[dead] = false;
        }
        let (pt, map) = t.prune(&live).unwrap();
        pt.validate().unwrap();
        assert_eq!(pt.kind(), TopologyKind::Pruned);
        assert_eq!(pt.num_procs(), 16);
        assert_eq!(map.len(), 16);
        assert!(map.iter().all(|&p| live[p as usize]));
        assert!(pt.depth() <= t.depth());
        // Depth never grows under pruning, for any single death.
        for dead in 0..20 {
            let mut live = vec![true; 20];
            live[dead] = false;
            let (pt, _) = t.prune(&live).unwrap();
            pt.validate().unwrap();
            assert!(pt.depth() <= t.depth(), "death of {dead}");
        }
    }

    /// `proc_edges` is connected, self-loop-free, and in range for
    /// every construction family — including the merge root of a ring
    /// topology, which owns no processor.
    #[test]
    fn proc_edges_connect_every_processor() {
        for topo in [
            Topology::flat(9),
            Topology::combining(64, 4),
            Topology::combining(37, 3),
            Topology::mcs(56, 4),
            Topology::ring_mcs(56, 4, 32),
        ] {
            let p = topo.num_procs() as usize;
            let edges = topo.proc_edges();
            // union-find over the edges
            let mut parent: Vec<usize> = (0..p).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for &(a, b) in &edges {
                assert!(a != b, "self loop {a}");
                assert!((a as usize) < p && (b as usize) < p);
                let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
                parent[ra] = rb;
            }
            let root = find(&mut parent, 0);
            for q in 1..p {
                assert_eq!(find(&mut parent, q), root, "proc {q} disconnected");
            }
            assert!(edges.len() < 2 * p, "edge count stays O(p)");
            // pure function of the topology
            assert_eq!(edges, topo.proc_edges());
        }
    }

    #[test]
    fn prune_shape_depth_monotone_under_cumulative_deaths() {
        let t = Topology::combining(27, 3);
        let mut live = vec![true; 27];
        let mut last_depth = t.depth();
        for dead in [1u32, 4, 9, 10, 11, 20, 26, 0, 2] {
            live[dead as usize] = false;
            let s = t.prune_shape(&live);
            s.validate().unwrap();
            assert!(s.depth <= last_depth, "depth grew at {dead}");
            last_depth = s.depth;
        }
    }
}
