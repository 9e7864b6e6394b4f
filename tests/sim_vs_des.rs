//! Cross-validation of `combar-sim`'s barrier episode, against two
//! independent models.
//!
//! `combar_sim::run_episode` is one bottom-up pass over the counter
//! tree: the arrivals are sorted once by `(time, proc)` and bucketed by
//! home, and each counter, deepest first, merges its homed arrivals
//! with its completed children and serves them through one FIFO server.
//! Its merge order claims to be the `(time, seq)` pop order of an event
//! loop: an arrival before a propagation on a time tie, arrivals by
//! proc, propagations by creation order, which is the pop order of the
//! requests that completed their counters, recursively.
//!
//! The first model recomputes the release with only the FIFO service
//! law (`finish = max(request, server_free) + t_c`) and a plain sort of
//! each counter's request times. The grid tests demand the two agree on
//! every release time and synchronization delay. A second anchor ties
//! the flat topology straight to a raw `combar_des::FifoServer`
//! timeline, and a third to the paper's Equation (1) closed form at
//! zero spread.
//!
//! The second model is an event loop kept here as an oracle: every
//! arrival and every propagation is a `Step` popped from a
//! `combar_des::EventQueue` in `(time, seq)` order, on both queues (the
//! binary heap and the timing wheel). The differential tests demand
//! bit-for-bit equality with each on every `EpisodeResult` field and on
//! the traced event stream, over ties, `t_c`-lattice arrivals and
//! migrated homes, so the kernel's tie rules and the queues' `(time,
//! seq)` contract are both checked end to end.

use combar_des::{
    Duration, Event, EventQueue, FifoServer, HeapQueue, SimTime, Trace, TraceKind, WheelQueue,
};
use combar_rng::stats::OnlineStats;
use combar_rng::{Distribution, Normal, Rng, SeedableRng, Xoshiro256pp};
use combar_sim::{
    build_tree, normal_arrivals, run_episode, run_episode_traced, run_episode_with, sweep_degrees,
    Arrivals, EpisodePlan, EpisodeResult, EpisodeScratch, ReleaseModel, SweepConfig, TreeStyle,
};
use combar_topo::{CounterId, ProcId, Topology};
use std::panic::AssertUnwindSafe;

const TC_US: f64 = 20.0;
/// Agreement bound (µs). Both sides do the same f64 arithmetic in
/// slightly different orders, so demand near-exactness, not exactness.
const TOL_US: f64 = 1e-6;

/// Independent episode model: processes counters children-first; each
/// counter FIFO-serializes its requests (attached processors' arrivals
/// plus completed child counters) at `t_c` per update, and its own
/// completion time becomes a request at the parent. The root's
/// completion is the barrier release.
fn reference_release_us(
    topo: &Topology,
    homes: &[CounterId],
    arrivals_us: &[f64],
    tc_us: f64,
) -> f64 {
    let mut requests: Vec<Vec<f64>> = vec![Vec::new(); topo.num_counters()];
    for (proc, &home) in homes.iter().enumerate() {
        requests[home as usize].push(arrivals_us[proc]);
    }
    let mut order: Vec<CounterId> = (0..topo.num_counters() as CounterId).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(topo.path_len(c)));
    let mut release = 0.0f64;
    for &c in &order {
        let mut reqs = std::mem::take(&mut requests[c as usize]);
        reqs.sort_by(f64::total_cmp);
        let mut free = 0.0f64;
        for r in reqs {
            free = free.max(r) + tc_us;
        }
        match topo.node(c).parent {
            Some(parent) => requests[parent as usize].push(free),
            None => release = free,
        }
    }
    release
}

fn grid_arrivals(p: u32, sigma_us: f64, rng: &mut impl Rng) -> Vec<f64> {
    // Mean far enough from zero that clamping is rare even at the
    // widest spread of the grid.
    let mean = 4.0 * sigma_us + 100.0;
    if sigma_us == 0.0 {
        return vec![mean; p as usize];
    }
    let dist = Normal::new(mean, sigma_us).expect("valid sigma");
    (0..p).map(|_| dist.sample(rng).max(0.0)).collect()
}

fn topologies(p: u32) -> Vec<Topology> {
    vec![
        Topology::flat(p),
        Topology::combining(p, 2),
        Topology::combining(p, 4),
        Topology::combining(p, 8),
        Topology::mcs(p, 4),
    ]
}

/// The full grid: every (p, topology, σ/t_c) cell, several seeded
/// replications each, agreeing on release time and sync delay.
#[test]
fn episode_release_matches_reference_on_grid() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xc805_5e11);
    for p in [16u32, 64, 256] {
        for topo in topologies(p) {
            for sigma_tc in [0.0f64, 1.6, 12.5, 50.0] {
                let sigma_us = sigma_tc * TC_US;
                for rep in 0..5 {
                    let arrivals = grid_arrivals(p, sigma_us, &mut rng);
                    let sim = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(TC_US));
                    let reference = reference_release_us(&topo, topo.homes(), &arrivals, TC_US);
                    let last = arrivals.iter().copied().fold(f64::MIN, f64::max);
                    assert!(
                        (sim.release_us - reference).abs() < TOL_US,
                        "{:?} p={p} σ/t_c={sigma_tc} rep={rep}: \
                         sim release {} vs reference {}",
                        topo.kind(),
                        sim.release_us,
                        reference
                    );
                    assert!(
                        (sim.sync_delay_us - (reference - last)).abs() < TOL_US,
                        "{:?} p={p} σ/t_c={sigma_tc} rep={rep}: \
                         sim sync delay {} vs reference {}",
                        topo.kind(),
                        sim.sync_delay_us,
                        reference - last
                    );
                }
            }
        }
    }
}

/// Migrated placements (homes differing from the static default) stay
/// in agreement — the cross-check is not specific to the identity
/// placement the other grid cells use.
#[test]
fn episode_matches_reference_under_migrated_homes() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x51ac_ed01);
    let topo = Topology::mcs(64, 4);
    let sigma_us = 12.5 * TC_US;
    for rep in 0..10 {
        // Random transposition of two processors' homes per episode.
        let mut homes = topo.homes().to_vec();
        let a = (rng.next_u64() % 64) as usize;
        let b = (rng.next_u64() % 64) as usize;
        homes.swap(a, b);
        let arrivals = grid_arrivals(64, sigma_us, &mut rng);
        let sim = run_episode(&topo, &homes, &arrivals, Duration::from_us(TC_US));
        let reference = reference_release_us(&topo, &homes, &arrivals, TC_US);
        assert!(
            (sim.release_us - reference).abs() < TOL_US,
            "rep {rep} (swap {a}<->{b}): sim {} vs reference {}",
            sim.release_us,
            reference
        );
    }
}

/// Flat topology against a *raw* `combar-des` FIFO timeline: the whole
/// barrier is one server, so serving the sorted arrivals directly must
/// reproduce the simulated release.
#[test]
fn flat_topology_matches_direct_fifo_timeline() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xf1a7_0001);
    for p in [4u32, 32, 128] {
        let topo = Topology::flat(p);
        let mut arrivals = grid_arrivals(p, 6.2 * TC_US, &mut rng);
        let sim = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(TC_US));
        let mut server = FifoServer::new();
        arrivals.sort_by(f64::total_cmp);
        let mut finish = SimTime::ZERO;
        for &a in &arrivals {
            finish = server
                .serve(SimTime::from_us(a), Duration::from_us(TC_US))
                .finish;
        }
        assert!(
            (sim.release_us - finish.as_us()).abs() < TOL_US,
            "p={p}: sim {} vs direct timeline {}",
            sim.release_us,
            finish.as_us()
        );
    }
}

/// Zero spread on full combining trees: both the simulator and the
/// reference must land on the paper's Equation (1), `L·d·t_c`.
#[test]
fn zero_spread_full_trees_match_equation_1() {
    for (p, d, levels) in [(16u32, 4u32, 2u32), (64, 4, 3), (64, 8, 2), (256, 2, 8)] {
        let topo = Topology::combining(p, d);
        assert_eq!(topo.depth(), levels);
        let arrivals = vec![0.0; p as usize];
        let sim = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(TC_US));
        let reference = reference_release_us(&topo, topo.homes(), &arrivals, TC_US);
        let eq1 = levels as f64 * d as f64 * TC_US;
        assert!((sim.sync_delay_us - eq1).abs() < TOL_US, "sim vs Eq.1");
        assert!((reference - eq1).abs() < TOL_US, "reference vs Eq.1");
    }
}

struct OracleCounter {
    server: FifoServer,
    count: u32,
    fan_in: u32,
    parent: Option<CounterId>,
}

/// One pending event of the oracle: a processor arriving at its home
/// counter, or a counter's last updater climbing to `counter`, the
/// parent.
enum Step {
    Arrive(ProcId),
    Climb(ProcId, CounterId),
}

/// Queues `step` at `at` under the next `seq`. Nothing may be scheduled
/// before the current time: the wheel relies on it, and the kernel's
/// `-0.0` check mirrors it.
fn schedule(
    queue: &mut impl EventQueue<Step>,
    seq: &mut u64,
    now: SimTime,
    at: SimTime,
    step: Step,
) {
    assert!(
        at >= now,
        "cannot schedule into the past: now = {now}, at = {at}"
    );
    queue.schedule(at, *seq, Event::new(step));
    *seq += 1;
}

/// The event-driven episode under the central-flag release, on any
/// [`EventQueue`]: every arrival is queued in processor order (`seq`
/// `0..p`) before the loop, and each climb takes the next `seq` when
/// its counter completes. Each popped step is one update of a counter
/// at the popped time; the counter's last updater queues its climb to
/// the parent.
fn oracle_episode(
    topo: &Topology,
    homes: &[CounterId],
    arrivals_us: &[f64],
    tc: Duration,
    mut queue: impl EventQueue<Step>,
    trace_capacity: usize,
) -> (EpisodeResult, Trace) {
    let p = arrivals_us.len();
    let counters = topo.nodes().iter().map(|n| OracleCounter {
        server: FifoServer::new(),
        count: 0,
        fan_in: n.fan_in(),
        parent: n.parent,
    });
    let mut counters: Vec<OracleCounter> = counters.collect();
    let mut winners = vec![None; topo.num_counters()];
    let mut signal_done = vec![0.0; p];
    let (mut release, mut releasing_proc, mut updates) = (SimTime::ZERO, 0, 0u64);
    let mut trace = Trace::new(trace_capacity);
    let (mut now, mut seq) = (SimTime::ZERO, 0u64);
    let (mut last_arrival, mut last_arriver) = (f64::NEG_INFINITY, 0);
    for (i, &a) in arrivals_us.iter().enumerate() {
        if a >= last_arrival {
            (last_arrival, last_arriver) = (a, i as ProcId);
        }
        let step = Step::Arrive(i as ProcId);
        schedule(&mut queue, &mut seq, now, SimTime::from_us(a), step);
    }
    while let Some((at, _, step)) = queue.pop_next() {
        now = at;
        let (proc, counter) = match step {
            Step::Arrive(proc) => {
                trace.record(now, proc, TraceKind::Arrive);
                (proc, homes[proc as usize])
            }
            Step::Climb(proc, counter) => (proc, counter),
        };
        let c = &mut counters[counter as usize];
        let svc = c.server.serve(now, tc);
        c.count += 1;
        updates += 1;
        trace.record(svc.start, proc, TraceKind::UpdateStart(counter));
        trace.record(svc.finish, proc, TraceKind::UpdateEnd(counter));
        if c.count < c.fan_in {
            signal_done[proc as usize] = svc.finish.as_us();
            continue;
        }
        winners[counter as usize] = Some(proc);
        match c.parent {
            Some(parent) => {
                let step = Step::Climb(proc, parent);
                schedule(&mut queue, &mut seq, now, svc.finish, step);
            }
            None => {
                (release, releasing_proc) = (svc.finish, proc);
                signal_done[proc as usize] = svc.finish.as_us();
                trace.record(svc.finish, proc, TraceKind::Release);
            }
        }
    }
    let mut level_wait_us = vec![0.0; topo.depth() as usize];
    for (c, counter) in counters.iter().enumerate() {
        level_wait_us[topo.path_len(c as CounterId) as usize - 1] +=
            counter.server.total_wait().as_us();
    }
    let release_us = release.as_us();
    let releasing_depth = topo.path_len(homes[releasing_proc as usize]);
    let sync_delay_us = release_us - last_arrival;
    let update_delay_us = releasing_depth as f64 * tc.as_us();
    let result = EpisodeResult {
        release_us,
        last_arrival_us: last_arrival,
        sync_delay_us,
        update_delay_us,
        contention_delay_us: sync_delay_us - update_delay_us,
        releasing_proc,
        releasing_depth,
        last_arriver,
        winners,
        signal_done_us: signal_done,
        total_updates: updates,
        level_wait_us,
        release_per_proc_us: vec![release_us; p],
    };
    (result, trace)
}

/// The wakeup-tree release from the root down: each counter notifies
/// its child counters, then its occupants, one `notify_us` apart.
fn oracle_wakeup(
    topo: &Topology,
    homes: &[CounterId],
    release_us: f64,
    notify_us: f64,
) -> Vec<f64> {
    let mut occupants = vec![Vec::new(); topo.num_counters()];
    for (proc, &home) in homes.iter().enumerate() {
        occupants[home as usize].push(proc);
    }
    let mut out = vec![0.0; homes.len()];
    let mut pending = vec![(topo.root(), release_us)];
    while let Some((c, mut t)) = pending.pop() {
        for &child in &topo.node(c).children {
            t += notify_us;
            pending.push((child, t));
        }
        for &proc in &occupants[c as usize] {
            t += notify_us;
            out[proc] = t;
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every field equal, f64s by their bits.
fn assert_same(got: &EpisodeResult, want: &EpisodeResult, cell: &str) {
    let scalars = |r: &EpisodeResult| {
        [
            r.release_us,
            r.last_arrival_us,
            r.sync_delay_us,
            r.update_delay_us,
            r.contention_delay_us,
        ]
    };
    assert_eq!(bits(&scalars(got)), bits(&scalars(want)), "{cell}: times");
    assert_eq!(got.releasing_proc, want.releasing_proc, "{cell}: releaser");
    assert_eq!(got.releasing_depth, want.releasing_depth, "{cell}: depth");
    assert_eq!(got.last_arriver, want.last_arriver, "{cell}: last arriver");
    assert_eq!(got.winners, want.winners, "{cell}: winners");
    assert_eq!(
        bits(&got.signal_done_us),
        bits(&want.signal_done_us),
        "{cell}: signal done"
    );
    assert_eq!(got.total_updates, want.total_updates, "{cell}: updates");
    assert_eq!(
        bits(&got.level_wait_us),
        bits(&want.level_wait_us),
        "{cell}: level waits"
    );
    assert_eq!(
        bits(&got.release_per_proc_us),
        bits(&want.release_per_proc_us),
        "{cell}: per-proc release"
    );
}

fn trace_bits(t: &Trace) -> (Vec<(u64, u32, TraceKind)>, u64) {
    let events = t.events().iter();
    let events = events.map(|e| (e.time.as_us().to_bits(), e.subject, e.kind));
    (events.collect(), t.dropped())
}

/// Runs every public entry point on one episode and compares each with
/// the oracle on both queue kinds: the plain, planned, traced and
/// wakeup-tree entry points.
fn assert_matches_oracle(topo: &Topology, homes: &[CounterId], arrivals: &[f64], cell: &str) {
    assert_matches_oracle_at(topo, homes, arrivals, Duration::from_us(TC_US), cell);
}

/// [`assert_matches_oracle`] at an update cost other than `t_c`.
fn assert_matches_oracle_at(
    topo: &Topology,
    homes: &[CounterId],
    arrivals: &[f64],
    tc: Duration,
    cell: &str,
) {
    let capacity = 3 * (arrivals.len() + topo.num_counters());
    let (got, got_trace) = run_episode_traced(topo, homes, arrivals, tc, capacity);
    let plain = run_episode(topo, homes, arrivals, tc);
    let planned = EpisodePlan::new(topo, homes).run(
        &Arrivals::new(arrivals),
        tc,
        &mut EpisodeScratch::default(),
    );
    let planned = [
        planned.release_us,
        planned.sync_delay_us,
        planned.update_delay_us,
        planned.contention_delay_us,
    ];
    let notify_us = 1.5;
    let wakeup = ReleaseModel::WakeupTree { notify_us };
    let woken = run_episode_with(topo, homes, arrivals, tc, wakeup);
    let heap = oracle_episode(topo, homes, arrivals, tc, HeapQueue::new(), capacity);
    let wheel = oracle_episode(topo, homes, arrivals, tc, WheelQueue::new(), capacity);
    for (queue, (want, want_trace)) in [("heap", heap), ("wheel", wheel)] {
        let cell = format!("{cell} {queue}");
        assert_same(&got, &want, &cell);
        assert_eq!(
            trace_bits(&got_trace),
            trace_bits(&want_trace),
            "{cell}: trace"
        );
        assert_same(&plain, &want, &cell);
        let want_delays = [
            want.release_us,
            want.sync_delay_us,
            want.update_delay_us,
            want.contention_delay_us,
        ];
        assert_eq!(bits(&planned), bits(&want_delays), "{cell} planned");
        let want = EpisodeResult {
            release_per_proc_us: oracle_wakeup(topo, homes, want.release_us, notify_us),
            ..want
        };
        assert_same(&woken, &want, &format!("{cell} wakeup"));
    }
}

/// Every topology family at d ∈ {2, 3, 4, 8, p}.
fn differential_topologies(p: u32) -> Vec<Topology> {
    let mut topos = vec![Topology::flat(p)];
    let ring = (p / 4).max(1);
    for d in [2, 3, 4, 8, p] {
        topos.push(Topology::combining(p, d.max(2)));
        topos.push(Topology::mcs(p, d));
        topos.push(Topology::ring_mcs(p, d, ring));
    }
    topos
}

/// The kernel against the event-loop oracle over p × topology × σ/t_c,
/// bit for bit.
#[test]
fn kernel_matches_engine_oracle_on_grid() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xd1ff_0001);
    for p in [1u32, 7, 64, 4096] {
        for topo in differential_topologies(p) {
            for sigma_tc in [0.0f64, 1.0, 6.2, 25.0] {
                let arrivals = grid_arrivals(p, sigma_tc * TC_US, &mut rng);
                let cell = format!(
                    "{:?} d={} p={p} σ/t_c={sigma_tc}",
                    topo.kind(),
                    topo.degree()
                );
                assert_matches_oracle(&topo, topo.homes(), &arrivals, &cell);
            }
        }
    }
}

/// The corner cases of the arrival order: migrated homes, all-equal
/// ties, arrivals clamped to zero, and arrivals on whole multiples of
/// `t_c`, which tie with propagations (an arrival must go first). Then
/// the cells where a merge on plain `f64` and `SimTime`'s total order
/// could part: free updates (`t_c = 0`, every time ties), arrivals of
/// `1e300` and `f64::MAX` beside `0.0` (an update there adds nothing),
/// and an episode whose times overflow to infinity, which must still
/// panic on the `∞ − ∞` wait.
#[test]
fn kernel_matches_engine_oracle_on_edge_cases() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xd1ff_0002);
    for topo in [
        Topology::combining(64, 4),
        Topology::mcs(64, 3),
        Topology::ring_mcs(64, 2, 16),
    ] {
        let kind = topo.kind();
        let mut homes = topo.homes().to_vec();
        for _ in 0..8 {
            let a = (rng.next_u64() % 64) as usize;
            let b = (rng.next_u64() % 64) as usize;
            homes.swap(a, b);
        }
        let arrivals = grid_arrivals(64, 6.2 * TC_US, &mut rng);
        assert_matches_oracle(&topo, &homes, &arrivals, &format!("{kind:?} migrated"));

        assert_matches_oracle(&topo, topo.homes(), &[3.0; 64], &format!("{kind:?} ties"));

        let dist = Normal::new(0.0, 25.0 * TC_US).expect("valid sigma");
        let clamped: Vec<f64> = (0..64).map(|_| dist.sample(&mut rng).max(0.0)).collect();
        assert!(clamped.iter().filter(|&&a| a == 0.0).count() > 8);
        assert_matches_oracle(&topo, topo.homes(), &clamped, &format!("{kind:?} zeros"));

        let lattice: Vec<f64> = (0..64)
            .map(|_| (rng.next_u64() % 8) as f64 * TC_US)
            .collect();
        assert_matches_oracle(&topo, topo.homes(), &lattice, &format!("{kind:?} lattice"));

        let free = Duration::from_us(0.0);
        assert_matches_oracle_at(&topo, &homes, &lattice, free, &format!("{kind:?} tc=0"));

        let huge: Vec<f64> = (0..64)
            .map(|_| [0.0, 1e300, f64::MAX][(rng.next_u64() % 3) as usize])
            .collect();
        assert_matches_oracle(&topo, topo.homes(), &huge, &format!("{kind:?} huge"));
    }

    let topo = Topology::combining(4, 2);
    let overflow = Duration::from_us(1e308);
    let nan_wait = "Duration must be non-negative, got NaN";
    let public = panic_of(&|| {
        run_episode(&topo, topo.homes(), &[0.0; 4], overflow);
    });
    assert!(public.contains(nan_wait), "run_episode: {public}");
    let planned = panic_of(&|| {
        let plan = EpisodePlan::new(&topo, topo.homes());
        plan.run(
            &Arrivals::new(&[0.0; 4]),
            overflow,
            &mut EpisodeScratch::default(),
        );
    });
    assert!(planned.contains(nan_wait), "plan: {planned}");
    let oracle = panic_of(&|| {
        oracle_episode(
            &topo,
            topo.homes(),
            &[0.0; 4],
            overflow,
            HeapQueue::new(),
            0,
        );
    });
    assert!(oracle.contains(nan_wait), "oracle: {oracle}");
}

/// Arrival vectors built to trip a byte-wise radix sort: all zeros, a
/// few values repeated many times, subnormals, `0.0` beside values
/// whose high bytes differ, and values that differ in their lowest byte
/// only. On the flat tree every arrival pops at the one counter, so the
/// traced `Arrive` events list the kernel's arrival order, which must
/// be the oracle's `(time, proc)` order; the trees check the merges.
#[test]
fn adversarial_arrival_vectors_pop_in_engine_order() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xd1ff_0003);
    let mut pick = |values: &[f64]| values[(rng.next_u64() % values.len() as u64) as usize];
    let subnormal = |bits: u64| f64::from_bits(bits);
    let hundred = 100.0f64.to_bits();
    let vectors: [(&str, Vec<f64>); 5] = [
        ("zeros", vec![0.0; 64]),
        (
            "duplicates",
            (0..64).map(|_| pick(&[0.0, 1.0, 20.0, 40.5])).collect(),
        ),
        (
            "subnormals",
            (0..64)
                .map(|_| {
                    pick(&[
                        0.0,
                        subnormal(1),
                        subnormal(2),
                        subnormal(0xff),
                        f64::MIN_POSITIVE,
                    ])
                })
                .collect(),
        ),
        (
            "zero beside large",
            (0..64)
                .map(|_| pick(&[0.0, 1e6, 2f64.powi(40), 1e15]))
                .collect(),
        ),
        (
            "lowest byte",
            (0..64)
                .map(|_| f64::from_bits(hundred + pick(&[0.0, 1.0, 2.0, 255.0]) as u64))
                .collect(),
        ),
    ];
    for (name, arrivals) in &vectors {
        for topo in [
            Topology::flat(64),
            Topology::combining(64, 4),
            Topology::mcs(64, 3),
        ] {
            let cell = format!("{name} {:?}", topo.kind());
            assert_matches_oracle(&topo, topo.homes(), arrivals, &cell);
        }
    }
}

/// `sweep_degrees` against a serial loop of public `run_episode` calls
/// on the same seeded arrivals: every statistic of every degree, bit
/// for bit, over both tree styles, degrees that fill no full tree, and
/// degrees at or past `p` (the flat tree).
#[test]
fn sweep_matches_public_run_episode_bit_for_bit() {
    let tc = Duration::from_us(TC_US);
    for style in [TreeStyle::Combining, TreeStyle::Mcs] {
        for p in [7u32, 64, 1000, 4096] {
            let degrees = [2, 3, 4, 5, 16, p, p + 1];
            let topos: Vec<Topology> = degrees.iter().map(|&d| build_tree(style, p, d)).collect();
            for sigma_tc in [0.0, 6.2, 25.0] {
                let cfg = SweepConfig {
                    tc,
                    sigma_us: sigma_tc * TC_US,
                    reps: 3,
                    seed: 0x5eed_0036 ^ u64::from(p),
                    style,
                };
                let mut want =
                    vec![[OnlineStats::new(), OnlineStats::new(), OnlineStats::new()]; 7];
                let reps = if sigma_tc == 0.0 { 1 } else { cfg.reps };
                for rep in 0..reps {
                    let mut rng = Xoshiro256pp::split(cfg.seed, rep as u64);
                    let arrivals = normal_arrivals(p as usize, cfg.sigma_us, &mut rng);
                    for (topo, [sync, update, contention]) in topos.iter().zip(&mut want) {
                        let r = run_episode(topo, topo.homes(), &arrivals, tc);
                        sync.push(r.sync_delay_us);
                        update.push(r.update_delay_us);
                        contention.push(r.contention_delay_us);
                    }
                }
                let swept = sweep_degrees(p, &degrees, &cfg);
                for ((got, want), topo) in swept.iter().zip(&want).zip(&topos) {
                    let cell = format!("{style:?} p={p} d={} σ/t_c={sigma_tc}", got.degree);
                    assert_eq!(got.depth, topo.depth(), "{cell}: depth");
                    let got = [&got.sync_delay, &got.update_delay, &got.contention_delay];
                    let fold =
                        |s: &OnlineStats| (s.mean().to_bits(), s.variance().to_bits(), s.count());
                    assert_eq!(got.map(fold), want.each_ref().map(fold), "{cell}");
                }
            }
        }
    }
}

fn panic_of(run: &dyn Fn()) -> String {
    let err = std::panic::catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
    err.downcast::<String>()
        .map(|s| *s)
        .or_else(|err| err.downcast::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The tree's checks run when a plan is built, with the messages the
/// episode has always given, and the public path still gives them.
#[test]
fn plan_rejects_bad_homes_with_the_episode_messages() {
    let topo = Topology::combining(4, 2);
    let arrivals = [0.0, 1.0, 2.0, 3.0];
    let cases: [(&[CounterId], &str); 3] = [
        (&[0, 1, 2], "homes length mismatch"),
        (&[0, 1, 9, 1], "home 9 out of range for 3 counters"),
        (&[0, 0, 0, 1], "counter 0 is home to 3 processors, not 2"),
    ];
    for (homes, want) in cases {
        let planned = panic_of(&|| {
            EpisodePlan::new(&topo, homes);
        });
        assert!(planned.contains(want), "plan: {planned} lacks {want}");
        let public = panic_of(&|| {
            run_episode(&topo, homes, &arrivals, Duration::from_us(TC_US));
        });
        assert!(public.contains(want), "run_episode: {public} lacks {want}");
    }
    let short = panic_of(&|| {
        EpisodePlan::new(&topo, topo.homes()).run(
            &Arrivals::new(&arrivals[..3]),
            Duration::from_us(TC_US),
            &mut EpisodeScratch::default(),
        );
    });
    assert!(short.contains("arrivals length mismatch"), "{short}");
}

/// One `-0.0` beside `+0.0`s: the oracle refuses to schedule it (in its
/// total order it lies before time zero), and the kernel rejects the
/// same processor's arrival.
#[test]
fn negative_zero_arrival_is_rejected_like_the_engine() {
    let topo = Topology::combining(64, 4);
    let mut arrivals = vec![0.0; 64];
    arrivals[5] = -0.0;
    arrivals[40] = 7.0;
    let oracle = panic_of(&|| {
        let tc = Duration::from_us(TC_US);
        oracle_episode(&topo, topo.homes(), &arrivals, tc, HeapQueue::new(), 0);
    });
    assert!(oracle.contains("cannot schedule into the past"), "{oracle}");
    let kernel = panic_of(&|| {
        run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(TC_US));
    });
    assert!(kernel.contains("arrival 5 invalid"), "{kernel}");
    let sorted = panic_of(&|| {
        Arrivals::new(&arrivals);
    });
    assert!(sorted.contains("arrival 5 invalid"), "{sorted}");
}
