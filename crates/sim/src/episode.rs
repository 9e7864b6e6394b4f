//! Single barrier episode simulation.
//!
//! One *episode* is a single pass of all processors through a barrier:
//! each processor arrives at its home counter at its arrival time,
//! queues behind concurrent updaters (each update holds the counter's
//! lock for `t_c`), and the last updater of each counter propagates to
//! the parent. The completion of the root counter's final update
//! releases the barrier.
//!
//! The paper's key quantity is the **synchronization delay**:
//! `release time − arrival time of the last processor` (Section 1),
//! decomposed into *update delay* (tree depth × `t_c` along the
//! releasing chain) and *contention delay* (everything else).
//!
//! The episode has no event queue. A counter's FIFO law only needs
//! that counter's own requests in the order an event engine would pop
//! them, so one bottom-up pass computes it: the arrivals are validated
//! and sorted once by `(time, proc)` into an [`Arrivals`] (which a
//! degree sweep shares across every tree), bucketed by home counter,
//! and each counter, deepest first, merges its homed arrivals with its
//! completed children and serves them through one [`FifoServer`]. The
//! fan-in-th request wins and climbs to the parent, or releases the
//! barrier at the root. The order used for each merge (and for the
//! trace) is exactly the `(time, seq)` pop order of a
//! `combar_des::Engine` that scheduled every arrival in processor order
//! before the run, so every result field and trace event is
//! bit-identical to that engine's episode.

use combar_des::{Duration, FifoServer, Service, SimTime, Trace, TraceKind};
use combar_topo::{CounterId, ProcId, Topology};
use std::cmp::Ordering;

/// How the barrier release reaches the waiting processors.
///
/// The paper defines synchronization delay at the root counter's final
/// update and assumes "the last processor … releases all the processors
/// by updating a shared variable" — an idealized O(1) broadcast. Real
/// software barriers either spin on that one flag (cheap to model,
/// expensive in invalidations) or propagate the release back down a
/// wakeup tree (Mellor-Crummey & Scott's minimum-communication design).
/// This knob makes the broadcast cost explicit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReleaseModel {
    /// All processors observe the release simultaneously at the root's
    /// final update (the paper's assumption).
    #[default]
    CentralFlag,
    /// The release walks back down the tree: each counter notifies its
    /// child counters and attached processors one at a time, each
    /// notification costing the given time (µs).
    WakeupTree {
        /// Cost of one downward notification (µs).
        notify_us: f64,
    },
}

/// Result of one simulated barrier episode.
#[derive(Debug, Clone)]
pub struct EpisodeResult {
    /// Barrier release time (completion of the root's final update).
    pub release_us: f64,
    /// Arrival time of the last processor.
    pub last_arrival_us: f64,
    /// `release − last arrival` (the paper's synchronization delay).
    pub sync_delay_us: f64,
    /// Update-delay component: the releasing processor's path length
    /// times `t_c`.
    pub update_delay_us: f64,
    /// `sync_delay − update_delay`; queueing behind other updaters.
    pub contention_delay_us: f64,
    /// The processor whose root update released the barrier.
    pub releasing_proc: ProcId,
    /// Number of counters on the releasing processor's path.
    pub releasing_depth: u32,
    /// Identity of the last processor to arrive.
    pub last_arriver: ProcId,
    /// Per-counter winner: the processor whose update completed the
    /// counter and propagated (or released, at the root).
    pub winners: Vec<Option<ProcId>>,
    /// Per-processor time at which its signalling work ended (its final
    /// counter update completed) — the moment it can begin fuzzy slack
    /// work.
    pub signal_done_us: Vec<f64>,
    /// Total counter updates performed (communication events).
    pub total_updates: u64,
    /// Total queueing delay accumulated at each tree level, indexed by
    /// `path_len − 1` (so index 0 is the root). Shows *where* in the
    /// tree contention concentrates — the quantity behind the paper's
    /// "contention increases dramatically after a threshold degree".
    pub level_wait_us: Vec<f64>,
    /// When each processor observes the release (equal to
    /// [`EpisodeResult::release_us`] under [`ReleaseModel::CentralFlag`];
    /// staggered under a wakeup tree).
    pub release_per_proc_us: Vec<f64>,
}

impl EpisodeResult {
    /// Time at which the *last* processor observes the release; the
    /// difference to [`EpisodeResult::release_us`] is the broadcast
    /// cost the paper's definition sets aside.
    pub fn last_release_us(&self) -> f64 {
        self.release_per_proc_us
            .iter()
            .copied()
            .fold(self.release_us, f64::max)
    }
}

impl EpisodeResult {
    /// For each processor, the **highest** counter (shortest root path)
    /// at which it was the winner, together with that counter — the
    /// dynamic placement barrier's swap target. `None` for processors
    /// that won nowhere.
    pub fn top_win_per_proc(&self, topo: &Topology) -> Vec<Option<CounterId>> {
        let mut top: Vec<Option<CounterId>> = vec![None; self.signal_done_us.len()];
        for (c, w) in self.winners.iter().enumerate() {
            if let Some(p) = *w {
                let cand = c as CounterId;
                match top[p as usize] {
                    None => top[p as usize] = Some(cand),
                    Some(prev) => {
                        if topo.path_len(cand) < topo.path_len(prev) {
                            top[p as usize] = Some(cand);
                        }
                    }
                }
            }
        }
        top
    }
}

/// One episode's arrival times, validated and put in the order an event
/// engine pops them: by `(time, proc)`. Build it once per arrival
/// vector and share it across every tree run on those arrivals (the
/// common-random-numbers degree sweep); [`run_episode_sorted`] then
/// sorts nothing.
#[derive(Debug, Clone)]
pub struct Arrivals {
    times: Vec<SimTime>,
    order: Vec<ProcId>,
    last_arrival_us: f64,
    last_arriver: ProcId,
}

impl Arrivals {
    /// Validates one arrival time per processor (µs) and sorts them.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is negative (`-0.0` included), infinite or
    /// NaN.
    pub fn new(arrivals_us: &[f64]) -> Self {
        // Validate in processor order. A -0.0 lies before time zero in
        // `SimTime`'s total order and is rejected, so every key is a
        // non-negative f64, whose bits are `f64::total_cmp`'s integer
        // key.
        let (mut last_arrival_us, mut last_arriver) = (f64::NEG_INFINITY, 0);
        let mut keyed: Vec<(u64, ProcId)> = Vec::with_capacity(arrivals_us.len());
        for (i, &a) in arrivals_us.iter().enumerate() {
            let valid = a.is_finite() && a.is_sign_positive();
            assert!(valid, "arrival {i} invalid: {a}");
            if a >= last_arrival_us {
                last_arrival_us = a;
                last_arriver = i as ProcId;
            }
            keyed.push((a.to_bits(), i as ProcId));
        }
        keyed.sort_unstable();
        Self {
            times: arrivals_us.iter().map(|&a| SimTime::from_us(a)).collect(),
            order: keyed.into_iter().map(|(_, proc)| proc).collect(),
            last_arrival_us,
            last_arriver,
        }
    }
}

/// A request at a counter: a processor's arrival at its home, or the
/// climb of a completed child counter's winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Arrive(ProcId),
    Climb(CounterId),
}

/// What the bottom-up pass knows of the counters completed so far.
struct Pass<'a> {
    times: &'a [SimTime],
    /// When each counter's completing update finished.
    done: Vec<SimTime>,
    /// Each counter's completing request.
    cause: Vec<Request>,
    winners: Vec<Option<ProcId>>,
}

impl Pass<'_> {
    fn time(&self, r: Request) -> SimTime {
        match r {
            Request::Arrive(proc) => self.times[proc as usize],
            Request::Climb(c) => self.done[c as usize],
        }
    }

    fn proc(&self, r: Request) -> ProcId {
        match r {
            Request::Arrive(proc) => proc,
            Request::Climb(c) => self.winners[c as usize].expect("children complete first"),
        }
    }

    /// The engine's `(time, seq)` pop order. Arrival `i` has seq `i`; a
    /// climb has seq `p` + its creation rank, and it is created when its
    /// counter's completing request pops. So on a time tie an arrival
    /// goes first, two arrivals go by proc, and two climbs go by the pop
    /// order of their causes. Each request completes at most one
    /// counter, so distinct climbs have distinct causes one level
    /// further down, and the recursion ends.
    fn pop_order(&self, a: Request, b: Request) -> Ordering {
        self.time(a).cmp(&self.time(b)).then_with(|| match (a, b) {
            (Request::Arrive(x), Request::Arrive(y)) => x.cmp(&y),
            (Request::Arrive(_), Request::Climb(_)) => Ordering::Less,
            (Request::Climb(_), Request::Arrive(_)) => Ordering::Greater,
            (Request::Climb(y), Request::Climb(z)) if y == z => Ordering::Equal,
            (Request::Climb(y), Request::Climb(z)) => {
                self.pop_order(self.cause[y as usize], self.cause[z as usize])
            }
        })
    }
}

/// Runs one barrier episode with the paper's idealized central-flag
/// release (see [`run_episode_with`] for the wakeup-tree variant).
///
/// * `topo` — the counter tree;
/// * `homes` — each processor's current home counter (use
///   [`Topology::homes`] for static placement, or a
///   [`combar_topo::Placement`]'s homes for dynamic placement);
/// * `arrivals_us` — each processor's arrival time in microseconds
///   (must be non-negative);
/// * `tc` — the counter update cost.
///
/// # Panics
///
/// Panics if `homes`/`arrivals_us` lengths disagree with the topology,
/// an arrival is negative (`-0.0` included), infinite or NaN, a home is
/// out of range, or a counter is home to a different number of
/// processors than its node holds.
pub fn run_episode(
    topo: &Topology,
    homes: &[CounterId],
    arrivals_us: &[f64],
    tc: Duration,
) -> EpisodeResult {
    run_episode_with(topo, homes, arrivals_us, tc, ReleaseModel::CentralFlag)
}

/// [`run_episode`] on arrivals validated and sorted beforehand, so a
/// sweep over many trees on the same arrivals sorts them once.
pub fn run_episode_sorted(
    topo: &Topology,
    homes: &[CounterId],
    arrivals: &Arrivals,
    tc: Duration,
) -> EpisodeResult {
    run_kernel(topo, homes, arrivals, tc, ReleaseModel::CentralFlag, None).0
}

/// [`run_episode`] that also records a bounded event trace (arrivals,
/// per-counter update start/end, the release) — for debugging and for
/// rendering episode timelines.
pub fn run_episode_traced(
    topo: &Topology,
    homes: &[CounterId],
    arrivals_us: &[f64],
    tc: Duration,
    capacity: usize,
) -> (EpisodeResult, Trace) {
    let (result, trace) = run_kernel(
        topo,
        homes,
        &Arrivals::new(arrivals_us),
        tc,
        ReleaseModel::CentralFlag,
        Some(Trace::new(capacity)),
    );
    (result, trace.expect("trace requested"))
}

/// [`run_episode`] with an explicit [`ReleaseModel`].
pub fn run_episode_with(
    topo: &Topology,
    homes: &[CounterId],
    arrivals_us: &[f64],
    tc: Duration,
    release_model: ReleaseModel,
) -> EpisodeResult {
    let arrivals = Arrivals::new(arrivals_us);
    run_kernel(topo, homes, &arrivals, tc, release_model, None).0
}

fn run_kernel(
    topo: &Topology,
    homes: &[CounterId],
    arrivals: &Arrivals,
    tc: Duration,
    release_model: ReleaseModel,
    mut trace: Option<Trace>,
) -> (EpisodeResult, Option<Trace>) {
    let p = topo.num_procs() as usize;
    let nodes = topo.nodes();
    let n = nodes.len();
    assert_eq!(homes.len(), p, "homes length mismatch");
    assert_eq!(arrivals.times.len(), p, "arrivals length mismatch");

    // Bucket the (time, proc) order by home with one counting pass. It
    // is stable, so counter c's bucket `homed[first[c]..first[c + 1]]`
    // is in (time, proc) order too.
    let mut first = vec![0usize; n + 1];
    for &h in homes {
        assert!((h as usize) < n, "home {h} out of range for {n} counters");
        first[h as usize + 1] += 1;
    }
    for (c, node) in nodes.iter().enumerate() {
        let (got, want) = (first[c + 1], node.procs.len());
        assert_eq!(
            got, want,
            "counter {c} is home to {got} processors, not {want}"
        );
        first[c + 1] += first[c];
    }
    let mut fill = first.clone();
    let mut homed = vec![0 as ProcId; p];
    for &proc in &arrivals.order {
        let h = homes[proc as usize] as usize;
        homed[fill[h]] = proc;
        fill[h] += 1;
    }

    // Children before parents: deepest `path_len` first, by a second
    // counting pass (MCS trees number parents before children, so index
    // order is not bottom-up).
    let depth = topo.depth() as usize;
    let mut next = vec![0usize; depth + 1];
    for node in nodes {
        next[depth + 1 - node.path_len as usize] += 1;
    }
    for level in 1..=depth {
        next[level] += next[level - 1];
    }
    let mut bottom_up = vec![0 as CounterId; n];
    for node in nodes {
        let slot = &mut next[depth - node.path_len as usize];
        bottom_up[*slot] = node.id;
        *slot += 1;
    }

    let mut pass = Pass {
        times: &arrivals.times,
        done: vec![SimTime::ZERO; n],
        cause: vec![Request::Arrive(0); n],
        winners: vec![None; n],
    };
    let mut signal_done = vec![0.0; p];
    let mut wait_us = vec![0.0f64; n];
    let mut updates = 0u64;
    let mut served: Vec<(Request, CounterId, Service)> = Vec::new();
    let mut climbs: Vec<Request> = Vec::new();
    for &c in &bottom_up {
        let arrives = &homed[first[c as usize]..first[c as usize + 1]];
        climbs.clear();
        climbs.extend(
            nodes[c as usize]
                .children
                .iter()
                .map(|&y| Request::Climb(y)),
        );
        climbs.sort_unstable_by(|&a, &b| pass.pop_order(a, b));
        let mut server = FifoServer::new();
        let mut last = None;
        let (mut i, mut j) = (0, 0);
        while i + j < arrives.len() + climbs.len() {
            let arrive_first = match (arrives.get(i), climbs.get(j)) {
                (Some(&proc), Some(&climb)) => pass.pop_order(Request::Arrive(proc), climb).is_lt(),
                (next_arrival, _) => next_arrival.is_some(),
            };
            let req = if arrive_first {
                i += 1;
                Request::Arrive(arrives[i - 1])
            } else {
                j += 1;
                climbs[j - 1]
            };
            let proc = pass.proc(req);
            let svc = server.serve(pass.time(req), tc);
            // A processor's signalling work ends with its last update; a
            // climbing winner overwrites this at its parent.
            signal_done[proc as usize] = svc.finish.as_us();
            updates += 1;
            if trace.is_some() {
                served.push((req, c, svc));
            }
            last = Some((req, proc, svc.finish));
        }
        // The fan-in-th request completes the counter.
        let (req, proc, finish) = last.expect("every counter has a fan-in");
        pass.done[c as usize] = finish;
        pass.cause[c as usize] = req;
        pass.winners[c as usize] = Some(proc);
        wait_us[c as usize] = server.total_wait().as_us();
    }
    let root = topo.root();
    let release = pass.done[root as usize];
    let releasing_proc = pass.winners[root as usize].expect("the root completes");

    if let Some(trace) = &mut trace {
        // The engine records a request's events when it pops it.
        served.sort_unstable_by(|a, b| pass.pop_order(a.0, b.0));
        for &(req, c, svc) in &served {
            let proc = pass.proc(req);
            if let Request::Arrive(_) = req {
                trace.record(svc.arrival, proc, TraceKind::Arrive);
            }
            trace.record(svc.start, proc, TraceKind::UpdateStart(c));
            trace.record(svc.finish, proc, TraceKind::UpdateEnd(c));
            if c == root && req == pass.cause[root as usize] {
                trace.record(svc.finish, proc, TraceKind::Release);
            }
        }
    }

    let mut level_wait_us = vec![0.0f64; depth];
    for (node, wait) in nodes.iter().zip(&wait_us) {
        level_wait_us[node.path_len as usize - 1] += wait;
    }
    let release_us = release.as_us();
    let release_per_proc_us = match release_model {
        ReleaseModel::CentralFlag => vec![release_us; p],
        ReleaseModel::WakeupTree { notify_us } => {
            // Walk the tree top-down: each node notifies child counters
            // first (waking whole subtrees early), then its attached
            // processors, one notification at a time. Current homes
            // (which may have migrated) determine who is woken where.
            let mut node_release = vec![0.0f64; topo.num_counters()];
            let mut per_proc = vec![0.0f64; p];
            // occupants per counter under the provided homes
            let mut occupants: Vec<Vec<ProcId>> = vec![Vec::new(); topo.num_counters()];
            for (proc, &h) in homes.iter().enumerate() {
                occupants[h as usize].push(proc as ProcId);
            }
            node_release[topo.root() as usize] = release_us;
            let mut stack = vec![topo.root()];
            while let Some(c) = stack.pop() {
                let mut t = node_release[c as usize];
                for &child in &topo.node(c).children {
                    t += notify_us;
                    node_release[child as usize] = t;
                    stack.push(child);
                }
                for &proc in &occupants[c as usize] {
                    t += notify_us;
                    per_proc[proc as usize] = t;
                }
            }
            per_proc
        }
    };
    let sync_delay_us = release_us - arrivals.last_arrival_us;
    let releasing_depth = topo.path_len(homes[releasing_proc as usize]);
    let update_delay_us = releasing_depth as f64 * tc.as_us();
    let result = EpisodeResult {
        release_us,
        last_arrival_us: arrivals.last_arrival_us,
        sync_delay_us,
        update_delay_us,
        contention_delay_us: sync_delay_us - update_delay_us,
        releasing_proc,
        releasing_depth,
        last_arriver: arrivals.last_arriver,
        winners: pass.winners,
        signal_done_us: signal_done,
        total_updates: updates,
        level_wait_us,
        release_per_proc_us,
    };
    (result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_topo::Topology;

    const TC: f64 = 20.0;

    fn tc() -> Duration {
        Duration::from_us(TC)
    }

    #[test]
    fn flat_simultaneous_arrivals_serialize_fully() {
        let topo = Topology::flat(8);
        let arrivals = vec![0.0; 8];
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        // 8 serialized updates: release at 160, sync delay 160.
        assert_eq!(r.release_us, 8.0 * TC);
        assert_eq!(r.sync_delay_us, 8.0 * TC);
        assert_eq!(r.update_delay_us, TC);
        assert_eq!(r.contention_delay_us, 7.0 * TC);
        assert_eq!(r.total_updates, 8);
        assert_eq!(r.releasing_depth, 1);
    }

    #[test]
    fn flat_spread_arrivals_have_no_contention() {
        let topo = Topology::flat(4);
        let arrivals = vec![0.0, 100.0, 200.0, 300.0];
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        assert_eq!(r.release_us, 320.0);
        assert_eq!(r.sync_delay_us, TC);
        assert_eq!(r.contention_delay_us, 0.0);
        assert_eq!(r.last_arriver, 3);
        assert_eq!(r.releasing_proc, 3);
    }

    /// Equation (1) of the paper: with simultaneous arrivals a full
    /// combining tree of degree d and L levels has synchronization
    /// delay L·d·t_c.
    #[test]
    fn simultaneous_full_tree_matches_equation_1() {
        for (p, d, levels) in [(16u32, 4u32, 2u32), (64, 4, 3), (64, 8, 2), (27, 3, 3)] {
            let topo = Topology::combining(p, d);
            assert_eq!(topo.depth(), levels);
            let arrivals = vec![0.0; p as usize];
            let r = run_episode(&topo, topo.homes(), &arrivals, tc());
            let expected = levels as f64 * d as f64 * TC;
            assert_eq!(
                r.sync_delay_us, expected,
                "p={p} d={d}: sync {} vs L·d·tc {}",
                r.sync_delay_us, expected
            );
        }
    }

    /// With one very late processor and everyone else early, the late
    /// processor walks an uncontended path: sync delay = depth·t_c.
    #[test]
    fn single_late_processor_sees_pure_update_delay() {
        let topo = Topology::combining(64, 4);
        let mut arrivals = vec![0.0; 64];
        arrivals[17] = 10_000.0;
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        assert_eq!(r.last_arriver, 17);
        assert_eq!(r.releasing_proc, 17);
        assert_eq!(r.sync_delay_us, 3.0 * TC);
        assert_eq!(r.contention_delay_us, 0.0);
    }

    /// Wider trees help the late-arrival case: degree 64 (flat) beats
    /// degree 2 when one processor is very late.
    #[test]
    fn wide_beats_deep_under_extreme_imbalance() {
        let mut arrivals = vec![0.0; 64];
        arrivals[63] = 50_000.0;
        let deep = Topology::combining(64, 2);
        let wide = Topology::flat(64);
        let rd = run_episode(&deep, deep.homes(), &arrivals, tc());
        let rw = run_episode(&wide, wide.homes(), &arrivals, tc());
        assert_eq!(rd.sync_delay_us, 6.0 * TC);
        assert_eq!(rw.sync_delay_us, TC);
        assert!(rw.sync_delay_us < rd.sync_delay_us);
    }

    /// Deep trees help the simultaneous case: degree 4 beats flat for
    /// 64 simultaneous processors (Eq. 1: 3·4·tc = 240 vs 64·tc = 1280).
    #[test]
    fn deep_beats_wide_under_zero_imbalance() {
        let arrivals = vec![0.0; 64];
        let tree = Topology::combining(64, 4);
        let flat = Topology::flat(64);
        let rt = run_episode(&tree, tree.homes(), &arrivals, tc());
        let rf = run_episode(&flat, flat.homes(), &arrivals, tc());
        assert!(rt.sync_delay_us < rf.sync_delay_us);
        assert_eq!(rt.sync_delay_us, 240.0);
        assert_eq!(rf.sync_delay_us, 1280.0);
    }

    #[test]
    fn winners_form_release_chain() {
        let topo = Topology::combining(16, 4);
        let arrivals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        // root winner is the releasing proc
        assert_eq!(r.winners[topo.root() as usize], Some(r.releasing_proc));
        // every counter has a winner after a complete episode
        assert!(r.winners.iter().all(|w| w.is_some()));
    }

    #[test]
    fn total_updates_equals_procs_plus_internal_edges() {
        // Every processor performs one update at its home, and every
        // non-root counter's winner performs one update at the parent:
        // total = p + (#counters − 1).
        for topo in [
            Topology::combining(64, 4),
            Topology::mcs(64, 4),
            Topology::ring_mcs(56, 4, 32),
            Topology::flat(8),
        ] {
            let p = topo.num_procs() as usize;
            let arrivals: Vec<f64> = (0..p).map(|i| (i as f64) * 3.0).collect();
            let r = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(TC));
            assert_eq!(
                r.total_updates,
                p as u64 + topo.num_counters() as u64 - 1,
                "{:?}",
                topo.kind()
            );
        }
    }

    #[test]
    fn mcs_owner_at_root_releases_quickly_when_last() {
        let topo = Topology::mcs(64, 4);
        let root_owner = topo.node(topo.root()).procs[0];
        let mut arrivals = vec![0.0; 64];
        arrivals[root_owner as usize] = 10_000.0;
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        // The root owner updates exactly one counter: depth 1.
        assert_eq!(r.releasing_proc, root_owner);
        assert_eq!(r.releasing_depth, 1);
        assert_eq!(r.sync_delay_us, TC);
    }

    #[test]
    fn signal_done_set_for_every_proc() {
        let topo = Topology::combining(16, 4);
        let arrivals: Vec<f64> = (0..16).map(|i| i as f64 * 2.0).collect();
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        for (i, &t) in r.signal_done_us.iter().enumerate() {
            assert!(t >= arrivals[i] + TC, "proc {i} signal_done {t} too early");
            assert!(t <= r.release_us, "signalling cannot outlast release");
        }
    }

    #[test]
    fn top_win_prefers_highest_counter() {
        let topo = Topology::mcs(16, 2);
        // Make the processor homed deepest arrive last everywhere.
        let deepest = (0..16u32)
            .max_by_key(|&q| topo.path_len(topo.home_of(q)))
            .unwrap();
        let mut arrivals = vec![0.0; 16];
        arrivals[deepest as usize] = 100_000.0;
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        let tops = r.top_win_per_proc(&topo);
        // It wins everywhere along its path including the root.
        assert_eq!(tops[deepest as usize], Some(topo.root()));
    }

    #[test]
    #[should_panic(expected = "arrival 1 invalid")]
    fn negative_arrival_rejected() {
        let topo = Topology::flat(2);
        let _ = run_episode(&topo, topo.homes(), &[0.0, -1.0], tc());
    }

    /// Homes that give a counter more processors than its node holds
    /// would leave another counter short of its fan-in; they are
    /// refused instead of producing a release before the last arrival.
    #[test]
    #[should_panic(expected = "counter 0 is home to 3 processors, not 2")]
    fn homes_off_the_node_counts_rejected() {
        let topo = Topology::combining(4, 2);
        let _ = run_episode(&topo, &[0, 0, 0, 1], &[0.0, 1.0, 2.0, 3.0], tc());
    }

    /// With simultaneous arrivals on a full tree, queueing concentrates
    /// at the leaves (everyone piles onto them at t = 0) and each level
    /// of the release cascade contends as a block.
    #[test]
    fn level_wait_profile_accounts_all_queueing() {
        let topo = Topology::combining(64, 4);
        let arrivals = vec![0.0; 64];
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        assert_eq!(r.level_wait_us.len(), 3);
        // total queueing across levels is positive and the leaf level
        // (deepest index) dominates: 16 leaves × (0+20+40) vs smaller
        // counts above.
        let leaf_wait = *r.level_wait_us.last().unwrap();
        assert!(leaf_wait >= r.level_wait_us[0]);
        assert!(r.level_wait_us.iter().sum::<f64>() > 0.0);
        // exact leaf-level queueing: each of 16 leaves serializes 4
        // simultaneous updates: waits 0+20+40+60 = 120 each? No — the
        // 4th update propagates, so waits are 0+20+40+60 for the four
        // updaters = 120µs... with t_c = 20: 0+20+40+60 = 120.
        assert_eq!(leaf_wait, 16.0 * 120.0);
    }

    /// A single very late processor produces zero contention anywhere.
    #[test]
    fn level_wait_zero_for_spread_arrivals() {
        let topo = Topology::combining(64, 4);
        let arrivals: Vec<f64> = (0..64).map(|i| i as f64 * 1000.0).collect();
        let r = run_episode(&topo, topo.homes(), &arrivals, tc());
        assert!(
            r.level_wait_us.iter().all(|&w| w == 0.0),
            "{:?}",
            r.level_wait_us
        );
    }

    /// Central flag: everyone released at once; wakeup tree: the root
    /// owner first, deepest leaves last, each step costing notify_us.
    #[test]
    fn wakeup_tree_staggers_the_release() {
        let topo = Topology::mcs(16, 2);
        let arrivals = vec![0.0; 16];
        let flag = run_episode(&topo, topo.homes(), &arrivals, tc());
        assert!(flag
            .release_per_proc_us
            .iter()
            .all(|&r| r == flag.release_us));
        assert_eq!(flag.last_release_us(), flag.release_us);

        let notify = 5.0;
        let wake = run_episode_with(
            &topo,
            topo.homes(),
            &arrivals,
            tc(),
            ReleaseModel::WakeupTree { notify_us: notify },
        );
        assert_eq!(wake.release_us, flag.release_us, "signal phase unchanged");
        // every release is at or after the root completion, staggered
        // by multiples of notify_us
        let mut distinct = std::collections::BTreeSet::new();
        for &r in &wake.release_per_proc_us {
            assert!(r > wake.release_us);
            let steps = (r - wake.release_us) / notify;
            assert!(
                (steps - steps.round()).abs() < 1e-9,
                "non-integral step {steps}"
            );
            distinct.insert(steps.round() as u64);
        }
        assert!(distinct.len() > 4, "releases should be staggered");
        // broadcast cost is bounded by (total notifications)·notify
        let bound = (topo.num_counters() - 1 + 16) as f64 * notify;
        assert!(wake.last_release_us() - wake.release_us <= bound + 1e-9);
    }

    /// The root owner is the first processor woken by the wakeup tree.
    #[test]
    fn wakeup_tree_wakes_subtrees_before_local_procs() {
        let topo = Topology::mcs(64, 4);
        let arrivals = vec![0.0; 64];
        let wake = run_episode_with(
            &topo,
            topo.homes(),
            &arrivals,
            tc(),
            ReleaseModel::WakeupTree { notify_us: 2.0 },
        );
        let root_owner = topo.node(topo.root()).procs[0] as usize;
        // the root owner waits behind its node's child notifications
        let expected = wake.release_us + (topo.node(topo.root()).children.len() as f64 + 1.0) * 2.0;
        assert!((wake.release_per_proc_us[root_owner] - expected).abs() < 1e-9);
    }

    /// Traced episodes record every arrival, 2 records per update, and
    /// exactly one release. (Records are appended in simulation-event
    /// order; update end-stamps carry their future completion times.)
    #[test]
    fn trace_accounts_every_event() {
        use combar_des::TraceKind;
        let topo = Topology::combining(16, 4);
        let arrivals: Vec<f64> = (0..16).map(|i| i as f64 * 3.0).collect();
        let (r, trace) = run_episode_traced(&topo, topo.homes(), &arrivals, tc(), 10_000);
        let events = trace.events();
        assert_eq!(trace.dropped(), 0);
        let arrives = events
            .iter()
            .filter(|e| e.kind == TraceKind::Arrive)
            .count();
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::UpdateStart(_)))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::UpdateEnd(_)))
            .count();
        let releases = events
            .iter()
            .filter(|e| e.kind == TraceKind::Release)
            .count();
        assert_eq!(arrives, 16);
        assert_eq!(starts as u64, r.total_updates);
        assert_eq!(ends as u64, r.total_updates);
        assert_eq!(releases, 1);
        // the release is the last event and matches the result
        let release_ev = events
            .iter()
            .find(|e| e.kind == TraceKind::Release)
            .unwrap();
        assert_eq!(release_ev.time.as_us(), r.release_us);
        assert_eq!(release_ev.subject, r.releasing_proc);
        // renderable
        assert!(trace.render().contains("release"));
    }

    /// Small capacity: the trace drops the overflow instead of growing.
    #[test]
    fn trace_respects_capacity() {
        let topo = Topology::flat(32);
        let arrivals = vec![0.0; 32];
        let (_, trace) = run_episode_traced(&topo, topo.homes(), &arrivals, tc(), 8);
        assert_eq!(trace.events().len(), 8);
        assert!(trace.dropped() > 0);
    }

    #[test]
    fn last_arriver_ties_break_to_highest_index() {
        let topo = Topology::flat(3);
        let r = run_episode(&topo, topo.homes(), &[5.0, 5.0, 5.0], tc());
        assert_eq!(r.last_arriver, 2);
    }
}
