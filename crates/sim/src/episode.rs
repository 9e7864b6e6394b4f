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
//! that counter's own requests in the order an event loop would pop
//! them, so one bottom-up pass computes it: the arrivals are validated
//! and sorted once by `(time, proc)` into an [`Arrivals`] (which a
//! degree sweep shares across every tree), bucketed by home counter,
//! and each counter, deepest first, merges its homed arrivals with its
//! completed children and serves them through one [`FifoServer`](combar_des::FifoServer). The
//! fan-in-th request wins and climbs to the parent, or releases the
//! barrier at the root. The order used for each merge (and for the
//! trace) is exactly the `(time, seq)` pop order of an event loop that
//! queues every arrival in processor order before it starts (seq
//! `0..p`) and each climb as its counter completes, so every result
//! field and trace event is bit-identical to such a loop's episode
//! (`tests/sim_vs_des.rs` keeps one as its oracle).
//!
//! What depends only on the tree and the homes — their checks, the
//! bucket bounds, the bottom-up order and a flat child list — is an
//! [`EpisodePlan`], built once per tree; the buffers one run fills are
//! an [`EpisodeScratch`], reused run after run. [`EpisodePlan::run`]
//! returns the [`EpisodeDelays`] a sweep folds and builds nothing per
//! processor. Each public `run_episode*` is a plan, one run, and then
//! the [`EpisodeResult`] (and trace) built from the scratch.

use combar_des::{Duration, SimTime, Trace, TraceKind};
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
/// loop pops them: by `(time, proc)`. Build it once per arrival
/// vector and share it across every tree run on those arrivals (the
/// common-random-numbers degree sweep); [`EpisodePlan::run`] then
/// sorts nothing.
#[derive(Debug, Clone)]
pub struct Arrivals {
    times: Vec<f64>,
    /// The processors in pop order.
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
        // `SimTime`'s total order and is rejected.
        let (mut last_arrival_us, mut last_arriver) = (f64::NEG_INFINITY, 0);
        let times: Vec<f64> = arrivals_us
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let valid = a.is_finite() && a.is_sign_positive();
                assert!(valid, "arrival {i} invalid: {a}");
                if a >= last_arrival_us {
                    last_arrival_us = a;
                    last_arriver = i as ProcId;
                }
                a
            })
            .collect();
        Self {
            order: pop_order(&times),
            times,
            last_arrival_us,
            last_arriver,
        }
    }
}

/// The processors sorted by time, then proc. Every time is a
/// non-negative f64, whose bits are `f64::total_cmp`'s integer key, so
/// one unstable sort of `bits << 32 | proc` keys gives that order.
fn pop_order(times: &[f64]) -> Vec<ProcId> {
    let mut keys: Vec<u128> = (0..times.len())
        .map(|proc| u128::from(times[proc].to_bits()) << 32 | proc as u128)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| key as ProcId).collect()
}

/// What an episode on one `(topology, homes)` pair needs that no
/// arrival time changes, checked and derived once: each counter's slots
/// for its homed processors, the counters deepest first, and the child
/// lists in one flat array. A degree sweep builds one plan per tree and
/// runs every replication's [`Arrivals`] through it; the plan is
/// immutable, so the replications can share it across threads.
#[derive(Debug, Clone)]
pub struct EpisodePlan<'a> {
    topo: &'a Topology,
    homes: &'a [CounterId],
    /// Counter `c`'s homed processors fill slots `first[c]..first[c + 1]`.
    /// (The offsets here and in the scratch are `u32`, like the ids, to
    /// keep a large tree's plan and scratch small.)
    first: Vec<u32>,
    /// Children before parents: deepest `path_len` first.
    bottom_up: Vec<CounterId>,
    /// Counter `c`'s children are `children[child_first[c]..child_first[c + 1]]`.
    child_first: Vec<u32>,
    children: Vec<CounterId>,
}

/// The buffers [`EpisodePlan::run`] fills: one scratch serves any
/// number of runs, on plans of any size, one run at a time, and stops
/// allocating once it has met the largest. After a run it holds that
/// episode's state, from which the public `run_episode*` functions
/// build their per-processor outputs. Times are plain `f64` µs, one
/// vector per field.
#[derive(Debug, Clone, Default)]
pub struct EpisodeScratch {
    /// The processors bucketed by home counter, each bucket in pop
    /// order, and the start of each one's update there, written as the
    /// merge serves it.
    homed_proc: Vec<ProcId>,
    homed_start: Vec<f64>,
    /// Each bucket's next free slot while bucketing.
    fill: Vec<u32>,
    /// Per counter, after its fan-in-th update: when that update
    /// finished, the request that made it, and the queueing summed over
    /// the counter's requests.
    done: Vec<f64>,
    cause: Vec<Request>,
    wait: Vec<f64>,
    /// Per counter: when its winner's update at the parent started
    /// (written on the parent's turn; unused at the root).
    climb_start: Vec<f64>,
    /// One counter's completed children as `(done, child)`, in pop
    /// order.
    climbs: Vec<(f64, CounterId)>,
}

/// The delays one planned episode produces: the fields of
/// [`EpisodeResult`] a degree sweep folds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeDelays {
    /// Barrier release time (completion of the root's final update).
    pub release_us: f64,
    /// `release − last arrival` (the paper's synchronization delay).
    pub sync_delay_us: f64,
    /// The releasing processor's path length times `t_c`.
    pub update_delay_us: f64,
    /// `sync_delay − update_delay`; queueing behind other updaters.
    pub contention_delay_us: f64,
}

/// A request at a counter: a processor's arrival at its home, or the
/// climb of a completed child counter's winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Arrive(ProcId),
    Climb(CounterId),
}

/// An event loop's `(time, seq)` pop order over the requests of one run.
struct PopOrder<'s> {
    times: &'s [f64],
    done: &'s [f64],
    cause: &'s [Request],
}

impl PopOrder<'_> {
    fn time(&self, r: Request) -> f64 {
        match r {
            Request::Arrive(proc) => self.times[proc as usize],
            Request::Climb(c) => self.done[c as usize],
        }
    }

    /// Arrival `i` has seq `i`; a climb has seq `p` + its creation rank,
    /// and it is created when its counter's completing request pops. So
    /// on a time tie an arrival goes first, two arrivals go by proc, and
    /// two climbs go by the pop order of their causes. Each request
    /// completes at most one counter, so distinct climbs have distinct
    /// causes one level further down, and the recursion ends.
    fn cmp(&self, a: Request, b: Request) -> Ordering {
        let (ta, tb) = (self.time(a), self.time(b));
        ta.total_cmp(&tb).then_with(|| match (a, b) {
            (Request::Arrive(x), Request::Arrive(y)) => x.cmp(&y),
            (Request::Arrive(_), Request::Climb(_)) => Ordering::Less,
            (Request::Climb(_), Request::Arrive(_)) => Ordering::Greater,
            (Request::Climb(y), Request::Climb(z)) if y == z => Ordering::Equal,
            (Request::Climb(y), Request::Climb(z)) => {
                self.cmp(self.cause[y as usize], self.cause[z as usize])
            }
        })
    }
}

impl<'a> EpisodePlan<'a> {
    /// Checks `homes` against `topo` and derives the plan.
    ///
    /// # Panics
    ///
    /// Panics if `homes`' length is not the topology's processor count,
    /// a home is out of range, or a counter is home to a different
    /// number of processors than its node holds.
    pub fn new(topo: &'a Topology, homes: &'a [CounterId]) -> Self {
        let nodes = topo.nodes();
        let n = nodes.len();
        assert_eq!(
            homes.len(),
            topo.num_procs() as usize,
            "homes length mismatch"
        );

        // Slots by home with one counting pass.
        let mut first = vec![0u32; n + 1];
        for &h in homes {
            assert!((h as usize) < n, "home {h} out of range for {n} counters");
            first[h as usize + 1] += 1;
        }
        for (c, node) in nodes.iter().enumerate() {
            let (got, want) = (first[c + 1] as usize, node.procs.len());
            assert_eq!(
                got, want,
                "counter {c} is home to {got} processors, not {want}"
            );
            assert!(node.fan_in() > 0, "every counter has a fan-in");
            first[c + 1] += first[c];
        }

        // Children before parents by a second counting pass (MCS trees
        // number parents before children, so index order is not
        // bottom-up).
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

        let mut child_first = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(n.saturating_sub(1));
        child_first.push(0);
        for node in nodes {
            children.extend_from_slice(&node.children);
            child_first.push(children.len() as u32);
        }
        Self {
            topo,
            homes,
            first,
            bottom_up,
            child_first,
            children,
        }
    }

    /// Runs one episode on `arrivals` with the paper's central-flag
    /// release, leaving its state in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` holds a different number of processors than
    /// the plan's topology.
    pub fn run(
        &self,
        arrivals: &Arrivals,
        tc: Duration,
        scratch: &mut EpisodeScratch,
    ) -> EpisodeDelays {
        let p = self.homes.len();
        assert_eq!(arrivals.times.len(), p, "arrivals length mismatch");
        let EpisodeScratch {
            homed_proc,
            homed_start,
            fill,
            done,
            cause,
            wait,
            climb_start,
            climbs,
        } = scratch;

        // Bucket the pop order by home. It is stable, so each bucket is
        // in pop order too; the merge reads each arrival's time by proc.
        homed_proc.resize(p, 0);
        homed_start.resize(p, 0.0);
        fill.clear();
        fill.extend_from_slice(&self.first);
        for &proc in &arrivals.order {
            let slot = &mut fill[self.homes[proc as usize] as usize];
            homed_proc[*slot as usize] = proc;
            *slot += 1;
        }

        // Every counter is written on its turn, after its children's and
        // before its parent's, so no state of an earlier run is read.
        // Times are plain f64: every one is non-negative and not NaN
        // (the arrivals are checked, and each computed end and wait goes
        // through `SimTime`'s and `Duration`'s constructors and their
        // asserts), so plain comparisons order them as `SimTime` does.
        let n = self.bottom_up.len();
        done.resize(n, 0.0);
        cause.resize(n, Request::Arrive(0));
        wait.resize(n, 0.0);
        climb_start.resize(n, 0.0);
        let tc = tc.as_us();
        for &c in &self.bottom_up {
            let c = c as usize;
            // Insert each completed child by its done time as it is
            // read; only an exact tie asks the pop order.
            let order = PopOrder {
                times: &arrivals.times,
                done,
                cause,
            };
            let pops_after = |(ta, a): (f64, CounterId), (tb, b): (f64, CounterId)| {
                ta > tb || (ta == tb && order.cmp(Request::Climb(a), Request::Climb(b)).is_gt())
            };
            climbs.clear();
            let children =
                &self.children[self.child_first[c] as usize..self.child_first[c + 1] as usize];
            for &y in children {
                let climb = (done[y as usize], y);
                let mut k = climbs.len();
                climbs.push(climb);
                while k > 0 && pops_after(climbs[k - 1], climb) {
                    climbs[k] = climbs[k - 1];
                    k -= 1;
                }
                climbs[k] = climb;
            }

            // Merge the homed arrivals with the climbs (an arrival pops
            // before a climb at the same time) under `FifoServer`'s law
            // and its debug order check, inline: a server struct per
            // counter made the degree sweep about 15 % slower.
            let (mut free, mut queued, mut last) = (0.0f64, 0.0f64, 0.0f64);
            let mut serve = |time: f64| {
                debug_assert!(time >= last, "merge out of order: {time} after {last}");
                last = time;
                // `SimTime::max`, written the way round that x86-64
                // compiles to one `maxsd` instead of a masked select.
                let start = if free > time { free } else { time };
                free = SimTime::from_us(start + tc).as_us();
                queued += Duration::from_us(start - time).as_us();
                start
            };
            let arrival = |i: usize| arrivals.times[homed_proc[i] as usize];
            let (mut i, end, mut j) = (self.first[c] as usize, self.first[c + 1] as usize, 0);
            let mut arrive_last = false;
            while i < end || j < climbs.len() {
                arrive_last = j == climbs.len() || (i < end && arrival(i) <= climbs[j].0);
                if arrive_last {
                    homed_start[i] = serve(arrival(i));
                    i += 1;
                } else {
                    climb_start[climbs[j].1 as usize] = serve(climbs[j].0);
                    j += 1;
                }
            }
            // The fan-in-th request completes the counter.
            cause[c] = if arrive_last {
                Request::Arrive(homed_proc[i - 1])
            } else {
                Request::Climb(climbs[j - 1].1)
            };
            done[c] = free;
            wait[c] = queued;
        }

        // The releasing processor is the arrival at the bottom of the
        // root's chain of completing climbs.
        let root = self.topo.root() as usize;
        let mut last_cause = cause[root];
        let releasing_proc = loop {
            match last_cause {
                Request::Arrive(proc) => break proc,
                Request::Climb(y) => last_cause = cause[y as usize],
            }
        };
        let release_us = done[root];
        let releasing_depth = self.topo.path_len(self.homes[releasing_proc as usize]);
        let sync_delay_us = release_us - arrivals.last_arrival_us;
        let update_delay_us = releasing_depth as f64 * tc;
        EpisodeDelays {
            release_us,
            sync_delay_us,
            update_delay_us,
            contention_delay_us: sync_delay_us - update_delay_us,
        }
    }
}

/// One episode run through a fresh plan and scratch, kept for building
/// the public outputs from.
struct Episode<'a> {
    plan: EpisodePlan<'a>,
    arrivals: Arrivals,
    tc: Duration,
    scratch: EpisodeScratch,
    delays: EpisodeDelays,
    /// Each counter's winner: the processor of its completing request.
    winners: Vec<ProcId>,
}

impl<'a> Episode<'a> {
    fn run(topo: &'a Topology, homes: &'a [CounterId], arrivals_us: &[f64], tc: Duration) -> Self {
        let arrivals = Arrivals::new(arrivals_us);
        let plan = EpisodePlan::new(topo, homes);
        let mut scratch = EpisodeScratch::default();
        let delays = plan.run(&arrivals, tc, &mut scratch);
        // A climb's processor is its child's winner: children first.
        let mut winners = vec![0 as ProcId; plan.bottom_up.len()];
        for &c in &plan.bottom_up {
            winners[c as usize] = match scratch.cause[c as usize] {
                Request::Arrive(proc) => proc,
                Request::Climb(y) => winners[y as usize],
            };
        }
        Self {
            plan,
            arrivals,
            tc,
            scratch,
            delays,
            winners,
        }
    }

    fn result(&self, release_model: ReleaseModel) -> EpisodeResult {
        let Self {
            plan,
            arrivals,
            tc,
            scratch,
            delays,
            winners,
        } = self;
        let (topo, homes) = (plan.topo, plan.homes);
        let p = homes.len();
        let nodes = topo.nodes();
        let root = topo.root();
        let finish = |start: f64| SimTime::from_us(start + tc.as_us()).as_us();

        // A processor's signalling work ends with its last update: its
        // arrival's at home, overwritten by each climb it wins, children
        // before parents.
        let mut signal_done_us = vec![0.0; p];
        for (&start, &proc) in scratch.homed_start.iter().zip(&scratch.homed_proc) {
            signal_done_us[proc as usize] = finish(start);
        }
        for &y in plan.bottom_up.iter().filter(|&&y| y != root) {
            let start = scratch.climb_start[y as usize];
            signal_done_us[winners[y as usize] as usize] = finish(start);
        }

        let mut level_wait_us = vec![0.0f64; topo.depth() as usize];
        for (node, &wait) in nodes.iter().zip(&scratch.wait) {
            level_wait_us[node.path_len as usize - 1] += wait;
        }
        let release_us = delays.release_us;
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
                node_release[root as usize] = release_us;
                let mut stack = vec![root];
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
        let releasing_proc = winners[root as usize];
        let releasing_depth = topo.path_len(homes[releasing_proc as usize]);
        EpisodeResult {
            release_us,
            last_arrival_us: arrivals.last_arrival_us,
            sync_delay_us: delays.sync_delay_us,
            update_delay_us: delays.update_delay_us,
            contention_delay_us: delays.contention_delay_us,
            releasing_proc,
            releasing_depth,
            last_arriver: arrivals.last_arriver,
            winners: winners.iter().map(|&w| Some(w)).collect(),
            signal_done_us,
            // Every processor updates its home and every non-root
            // counter's winner updates the parent.
            total_updates: (p + nodes.len() - 1) as u64,
            level_wait_us,
            release_per_proc_us,
        }
    }

    /// The bounded event trace: every served request's events, recorded
    /// in the order an event loop pops them.
    fn trace(&self, capacity: usize) -> Trace {
        let (plan, scratch) = (&self.plan, &self.scratch);
        let n = scratch.done.len();
        let root = plan.topo.root();
        // (request, counter, arrival at it, start of its update)
        let mut served: Vec<(Request, CounterId, f64, f64)> =
            Vec::with_capacity(scratch.homed_proc.len() + n);
        for (&start, &proc) in scratch.homed_start.iter().zip(&scratch.homed_proc) {
            let (home, arrival) = (
                plan.homes[proc as usize],
                self.arrivals.times[proc as usize],
            );
            served.push((Request::Arrive(proc), home, arrival, start));
        }
        for y in 0..n {
            if let Some(parent) = plan.topo.node(y as CounterId).parent {
                let req = Request::Climb(y as CounterId);
                served.push((req, parent, scratch.done[y], scratch.climb_start[y]));
            }
        }
        let order = PopOrder {
            times: &self.arrivals.times,
            done: &scratch.done,
            cause: &scratch.cause,
        };
        served.sort_unstable_by(|a, b| order.cmp(a.0, b.0));

        let mut trace = Trace::new(capacity);
        for (req, c, arrival, start) in served {
            let start = SimTime::from_us(start);
            let finish = start + self.tc;
            let proc = match req {
                Request::Arrive(proc) => {
                    trace.record(SimTime::from_us(arrival), proc, TraceKind::Arrive);
                    proc
                }
                Request::Climb(y) => self.winners[y as usize],
            };
            trace.record(start, proc, TraceKind::UpdateStart(c));
            trace.record(finish, proc, TraceKind::UpdateEnd(c));
            if c == root && req == scratch.cause[root as usize] {
                trace.record(finish, proc, TraceKind::Release);
            }
        }
        trace
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
    let episode = Episode::run(topo, homes, arrivals_us, tc);
    (
        episode.result(ReleaseModel::CentralFlag),
        episode.trace(capacity),
    )
}

/// [`run_episode`] with an explicit [`ReleaseModel`].
pub fn run_episode_with(
    topo: &Topology,
    homes: &[CounterId],
    arrivals_us: &[f64],
    tc: Duration,
    release_model: ReleaseModel,
) -> EpisodeResult {
    Episode::run(topo, homes, arrivals_us, tc).result(release_model)
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

    /// The packed-key order is the `(bits, proc)` comparison sort's on
    /// vectors built to trip it: zeros, heavy duplicates, subnormals,
    /// `0.0` beside the largest values, keys differing in one byte only,
    /// and a vector past 2¹⁷ arrivals.
    #[test]
    fn radix_order_equals_a_bits_then_proc_sort() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut pick = |values: &[f64]| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values[(state % values.len() as u64) as usize]
        };
        let sub = f64::from_bits;
        let low = |b: u64| f64::from_bits(100.0f64.to_bits() + b);
        let high = |b: u64| f64::from_bits(b << 56 | 0x00ff_ffff);
        let vectors: Vec<Vec<f64>> = vec![
            vec![],
            vec![5.0],
            vec![0.0; 300],
            (0..300).map(|_| pick(&[0.0, 1.0, 20.0, 40.5])).collect(),
            (0..300)
                .map(|_| pick(&[0.0, sub(1), sub(2), sub(0x100), f64::MIN_POSITIVE]))
                .collect(),
            (0..300)
                .map(|_| pick(&[0.0, 1e300, f64::MAX, 2f64.powi(60)]))
                .collect(),
            (0..300)
                .map(|_| pick(&[low(0), low(1), low(255), low(256)]))
                .collect(),
            (0..300)
                .map(|_| pick(&[high(0), high(1), high(0x3f), high(0x7f)]))
                .collect(),
            (0..4096)
                .map(|i| ((i * 7919) % 4099) as f64 * 0.37)
                .collect(),
            (0..(1 << 17) + 1)
                .map(|_| pick(&[0.0, sub(1), 3.5, 1e300]))
                .collect(),
        ];
        for arrivals in vectors {
            let mut want: Vec<(u64, ProcId)> = arrivals
                .iter()
                .enumerate()
                .map(|(i, a)| (a.to_bits(), i as ProcId))
                .collect();
            want.sort();
            let want: Vec<ProcId> = want.into_iter().map(|(_, proc)| proc).collect();
            assert_eq!(Arrivals::new(&arrivals).order, want, "{arrivals:?}");
        }
    }

    /// One scratch run on plans that grow, shrink and change shape
    /// gives what a fresh `run_episode` gives.
    #[test]
    fn one_scratch_serves_plans_of_any_size() {
        let mut scratch = EpisodeScratch::default();
        for topo in [
            Topology::mcs(256, 2),
            Topology::combining(16, 4),
            Topology::ring_mcs(56, 4, 32),
            Topology::flat(256),
            Topology::combining(64, 3),
        ] {
            let p = topo.num_procs() as usize;
            let arrivals: Vec<f64> = (0..p).map(|i| ((i * 37) % 11) as f64 * 7.0).collect();
            let plan = EpisodePlan::new(&topo, topo.homes());
            let got = plan.run(&Arrivals::new(&arrivals), tc(), &mut scratch);
            let want = run_episode(&topo, topo.homes(), &arrivals, tc());
            assert_eq!(got.release_us, want.release_us);
            assert_eq!(got.sync_delay_us, want.sync_delay_us);
            assert_eq!(got.update_delay_us, want.update_delay_us);
            assert_eq!(got.contention_delay_us, want.contention_delay_us);
        }
    }

    #[test]
    fn last_arriver_ties_break_to_highest_index() {
        let topo = Topology::flat(3);
        let r = run_episode(&topo, topo.homes(), &[5.0, 5.0, 5.0], tc());
        assert_eq!(r.last_arriver, 2);
    }
}
