//! `sim_sweep`: the paper's Figure 3 cell on the host.
//!
//! One pass is `sweep_degrees(4096, 2¹…2¹², σ, reps 20)` for
//! σ ∈ {0, 6.2, 25}·t_c on the `combar-exec` pool at `T` threads, plus
//! `BarrierModel::estimate_optimal_degree` per σ: 492 simulated
//! episodes. `episodes_per_s` counts those per second of host time.
//!
//! Nothing crosses a real barrier here, so `sync_delay_p50_ns` is the
//! nearest thing the host offers: the time one `run_episode` call takes
//! to produce one simulated synchronization delay, stamped call by call
//! in a serial loop of the benchmark's own (a stamped round after every
//! pass).

use combar::BarrierModel;
use combar_des::{Duration, Event, EventQueue, HeapQueue, SimTime, WheelQueue};
use combar_exec::{par_map_indexed, with_thread_count};
use combar_rng::{OnlineStats, SeedableRng, Xoshiro256pp};
use combar_sim::optimal::{
    build_tree, optimal_degree, sweep_degrees, DegreeResult, SweepConfig, TreeStyle,
};
use combar_sim::{normal_arrivals, run_episode};
use combar_topo::{default_degree_sweep, Topology};
use combar_work::mix;

use crate::run::{Blocks, Ctx, Report};
use crate::spans::SpanLog;
use crate::stamps::now_ns;
use crate::stats::{percentile_of, Summary};

const PROCS: u32 = 4096;
const TC_US: f64 = 20.0;
const SIGMAS_TC: [f64; 3] = [0.0, 6.2, 25.0];
const REPS: usize = 20;
/// Arrival vectors the stamped rounds take turns with.
const STAMPED_REPS: u64 = 4;
const SETUP_REPS_PER_BLOCK: usize = 6;
/// The paper reports the model's optimum within about 7% of the
/// simulated one; beyond this the run fails.
const MODEL_ERR_LIMIT_PCT: f64 = 10.0;

fn sweep_config(seed: u64, sigma: usize) -> SweepConfig {
    SweepConfig {
        tc: Duration::from_us(TC_US),
        sigma_us: SIGMAS_TC[sigma] * TC_US,
        reps: REPS,
        seed: seed ^ (sigma as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        style: TreeStyle::Combining,
    }
}

/// Simulated episodes in one pass (σ = 0 runs its single deterministic
/// replication).
fn episodes_per_pass(degrees: usize) -> u64 {
    (SIGMAS_TC
        .iter()
        .map(|&s| if s == 0.0 { 1 } else { REPS })
        .sum::<usize>()
        * degrees) as u64
}

struct Pass {
    checksum: u64,
    /// Estimated optimum's simulated delay over the simulated
    /// optimum's, worst σ, in percent.
    model_err_pct: f64,
}

fn fold_results(mut checksum: u64, results: &[DegreeResult]) -> u64 {
    for r in results {
        for stats in [&r.sync_delay, &r.update_delay, &r.contention_delay] {
            checksum = mix(checksum ^ stats.mean().to_bits());
            checksum = mix(checksum ^ stats.variance().to_bits() ^ stats.count());
        }
    }
    checksum
}

fn model_err_pct(results: &[DegreeResult], sigma: usize) -> f64 {
    let model = BarrierModel::new(PROCS, SIGMAS_TC[sigma] * TC_US, TC_US).expect("valid model");
    let estimated = model.estimate_optimal_degree().degree;
    let at_estimate = results
        .iter()
        .find(|r| r.degree == estimated)
        .expect("every full-tree degree of 4096 is in the sweep")
        .sync_delay
        .mean();
    let best = optimal_degree(results).sync_delay.mean();
    (at_estimate - best) / best * 100.0
}

/// One pass through the public entry points: what a reader reproducing
/// the figure calls.
fn pass(seed: u64, degrees: &[u32]) -> Pass {
    let mut checksum = 0;
    let mut worst: f64 = 0.0;
    for sigma in 0..SIGMAS_TC.len() {
        let results = sweep_degrees(PROCS, degrees, &sweep_config(seed, sigma));
        checksum = fold_results(checksum, &results);
        worst = worst.max(model_err_pct(&results, sigma));
    }
    Pass {
        checksum,
        model_err_pct: worst,
    }
}

/// The same pass written out serially from the public pieces, with a
/// span around each: `pass → {topo, rng, run_episode, fold, model}`.
/// Its checksum must equal `pass`'s bit for bit.
fn spanned_pass(seed: u64, degrees: &[u32], log: &mut SpanLog) -> u64 {
    let t0 = now_ns();
    // Children are collected first and pushed under the root once its
    // end is known.
    let mut spans: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    let mut checksum = 0;
    let mut episode = 0u64;
    for sigma in 0..SIGMAS_TC.len() {
        let cfg = sweep_config(seed, sigma);
        let t = now_ns();
        let topos: Vec<Topology> = degrees
            .iter()
            .map(|&d| build_tree(cfg.style, PROCS, d))
            .collect();
        let mut out: Vec<DegreeResult> = degrees
            .iter()
            .map(|&d| DegreeResult {
                degree: d,
                depth: build_tree(cfg.style, PROCS, d).depth(),
                sync_delay: OnlineStats::new(),
                update_delay: OnlineStats::new(),
                contention_delay: OnlineStats::new(),
            })
            .collect();
        spans.push(("topo", t, now_ns(), episode));
        let reps = if cfg.sigma_us == 0.0 { 1 } else { cfg.reps };
        for rep in 0..reps {
            let t = now_ns();
            let mut rng = Xoshiro256pp::split(cfg.seed, rep as u64);
            let arrivals = normal_arrivals(PROCS as usize, cfg.sigma_us, &mut rng);
            spans.push(("rng", t, now_ns(), episode));
            for (topo, res) in topos.iter().zip(&mut out) {
                let t = now_ns();
                let r = run_episode(topo, topo.homes(), &arrivals, cfg.tc);
                let t1 = now_ns();
                spans.push(("run_episode", t, t1, episode));
                res.sync_delay.push(r.sync_delay_us);
                res.update_delay.push(r.update_delay_us);
                res.contention_delay.push(r.contention_delay_us);
                spans.push(("fold", t1, now_ns(), episode));
                episode += 1;
            }
        }
        let t = now_ns();
        checksum = fold_results(checksum, &out);
        let t1 = now_ns();
        spans.push(("fold", t, t1, episode));
        std::hint::black_box(model_err_pct(&out, sigma));
        spans.push(("model", t1, now_ns(), episode));
    }
    let root = log.push("pass", (t0, now_ns()), None, 0, 0);
    for (name, start, end, episode) in spans {
        log.push(name, (start, end), Some(root), episode, 0);
    }
    checksum
}

struct Prepared {
    degrees: Vec<u32>,
    topos: Vec<Topology>,
    /// Arrival vectors for the stamped part, σ = 6.2·t_c.
    arrivals: Vec<Vec<f64>>,
}

/// Set-up: the degree list, its topologies and the stamped part's
/// arrival vectors.
fn set_up(seed: u64) -> Prepared {
    let degrees = default_degree_sweep(PROCS);
    let topos = degrees
        .iter()
        .map(|&d| build_tree(TreeStyle::Combining, PROCS, d))
        .collect();
    let arrivals = (0..STAMPED_REPS)
        .map(|rep| {
            let mut rng = Xoshiro256pp::split(seed, 1_000 + rep);
            normal_arrivals(PROCS as usize, SIGMAS_TC[1] * TC_US, &mut rng)
        })
        .collect();
    Prepared {
        degrees,
        topos,
        arrivals,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let threads = ctx.host.threads;
    ctx.host.admit("sim_sweep", threads);
    // The measuring runs on a thread of its own so the main thread only
    // joins; the pool's workers do the work while that thread waits.
    std::thread::scope(|s| {
        s.spawn(|| with_thread_count(threads, || measure(ctx)))
            .join()
            .expect("sim_sweep panicked")
    })
}

fn measure(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut timed_set_up = || {
        let t0 = now_ns();
        let prepared = set_up(ctx.seed);
        setups.push((now_ns() - t0) as f64 * 1e-9);
        prepared
    };
    let mut prepared = timed_set_up();

    let per_pass = episodes_per_pass(prepared.degrees.len());
    let tc = Duration::from_us(TC_US);
    let block_ns = (ctx.block_seconds() * 1e9) as u64;
    let mut blocks = Blocks::default();
    let mut all_calls = Vec::new();
    let mut first: Option<Pass> = None;
    // Block 0 is the warm-up: measured like the rest, then dropped.
    for block in 0..=ctx.blocks() {
        // Set-up is repeated a few times before every block and not a
        // hundred times at the start: a set-up takes under a millisecond
        // and this host's speed drifts by a fifth from second to second,
        // so repetitions packed into 80 ms all see one speed.
        for _ in 0..SETUP_REPS_PER_BLOCK {
            prepared = timed_set_up();
        }
        // Passes until the block's time is up, and after each pass one
        // stamped round: one `run_episode` call per degree. The rounds
        // are spread over the block because this host's single-thread
        // speed drifts within a second; bunched at the block's end they
        // sampled 40 ms of it.
        let t0 = now_ns();
        let (mut passes, mut plain_ns, mut stamped_ns) = (0, 0, 0);
        let mut calls = Vec::new();
        while passes == 0 || now_ns() - t0 < block_ns {
            let t = now_ns();
            let p = pass(ctx.seed, &prepared.degrees);
            plain_ns += now_ns() - t;
            report.attempted += per_pass;
            match &first {
                None => first = Some(p),
                Some(f) if f.checksum != p.checksum => report.fail(
                    per_pass,
                    format!(
                        "pass checksum {:#x} differs from the first pass's {:#x}",
                        p.checksum, f.checksum
                    ),
                ),
                Some(_) => {}
            }

            let round_t0 = now_ns();
            let arrivals = &prepared.arrivals[passes % prepared.arrivals.len()];
            for topo in &prepared.topos {
                let t = now_ns();
                std::hint::black_box(run_episode(topo, topo.homes(), arrivals, tc));
                calls.push(now_ns() - t);
            }
            stamped_ns += now_ns() - round_t0;
            passes += 1;
        }
        report.attempted += calls.len() as u64;
        if block > 0 {
            blocks.unstamped(passes as u64 * per_pass, plain_ns);
            blocks.stamped(&calls, stamped_ns);
            all_calls.extend(calls);
        }
    }
    // No stamping_overhead_pct here: the stamped part runs serially and
    // the passes on T threads, so their rates do not compare.
    blocks.report(&mut report);
    report.set("setup_s", Summary::of_blocks(&setups));

    let first = first.expect("at least one pass");
    if first.model_err_pct > MODEL_ERR_LIMIT_PCT {
        report.fail(
            per_pass,
            format!(
                "model optimum is {:.2}% off the simulated optimum",
                first.model_err_pct
            ),
        );
    }
    report.set_value("core.model_err_pct", first.model_err_pct);
    report.set_value("sim.checksum", (first.checksum & 0xffff_ffff) as f64);

    if ctx.traced {
        report.set_value(
            "sim.run_episode_ns_p50",
            percentile_of(&mut all_calls, 50.0) as f64,
        );
        let mean = all_calls.iter().sum::<u64>() as f64 / all_calls.len() as f64;
        report.set_value("sim.run_episode_ns_per_proc", mean / f64::from(PROCS));
        layer_rungs(ctx, &prepared, &mut report);
        let t0 = now_ns();
        let spanned = spanned_pass(ctx.seed, &prepared.degrees, &mut report.spans);
        report.span_wall_ns = now_ns() - t0;
        if spanned != first.checksum {
            report.fail(
                per_pass,
                "the serial spanned pass does not reproduce sweep_degrees bit for bit",
            );
        }
        report.check_spans();
    }
    report
}

/// Hold-model churn through the `EventQueue` trait at the sweep's size:
/// pop the earliest of 4096 pending events, reschedule it later.
fn hold_ns_per_event<Q: EventQueue<u64>>(mut q: Q) -> f64 {
    const ROUNDS: u64 = 64;
    let pending = u64::from(PROCS);
    let mut seq = 0;
    for i in 0..pending {
        q.schedule(SimTime::from_us((mix(i) % 4096) as f64), seq, Event::new(i));
        seq += 1;
    }
    let t0 = now_ns();
    for _ in 0..pending * ROUNDS {
        let (t, s, id) = q.pop_next().expect("the queue never drains");
        let hold = 1 + mix(s) % 1024;
        q.schedule(t + Duration::from_us(hold as f64), seq, Event::new(id));
        seq += 1;
    }
    (now_ns() - t0) as f64 / (pending * ROUNDS) as f64
}

/// The rungs under the sweep, each priced on this host in this process.
fn layer_rungs(ctx: &Ctx, prepared: &Prepared, report: &mut Report) {
    const DRAW_REPS: u64 = 100;
    let t0 = now_ns();
    for rep in 0..DRAW_REPS {
        let mut rng = Xoshiro256pp::split(ctx.seed, rep);
        std::hint::black_box(normal_arrivals(PROCS as usize, 124.0, &mut rng));
    }
    report.set_value(
        "rng.arrivals_ns_per_draw",
        (now_ns() - t0) as f64 / (DRAW_REPS * u64::from(PROCS)) as f64,
    );

    // A pass builds every degree's tree twice per σ.
    let t0 = now_ns();
    for _ in 0..2 * SIGMAS_TC.len() {
        for &d in &prepared.degrees {
            std::hint::black_box(build_tree(TreeStyle::Combining, PROCS, d));
        }
    }
    report.set_value("topo.build_ns_per_pass", (now_ns() - t0) as f64);

    report.set_value(
        "des.heap_ns_per_event",
        hold_ns_per_event(HeapQueue::with_capacity(PROCS as usize)),
    );
    report.set_value(
        "des.wheel_ns_per_event",
        hold_ns_per_event(WheelQueue::new()),
    );

    let timed_passes = |threads: usize| {
        with_thread_count(threads, || {
            let t0 = now_ns();
            for _ in 0..2 {
                std::hint::black_box(pass(ctx.seed, &prepared.degrees).checksum);
            }
            (now_ns() - t0) as f64
        })
    };
    let serial = timed_passes(1);
    report.set_value("exec.par_speedup", serial / timed_passes(ctx.host.threads));

    const MAPS: u64 = 200;
    let t0 = now_ns();
    for _ in 0..MAPS {
        std::hint::black_box(par_map_indexed(REPS, |i| i));
    }
    report.set_value(
        "exec.par_map_overhead_ns_per_item",
        (now_ns() - t0) as f64 / (MAPS * REPS as u64) as f64,
    );

    const ESTIMATES: u64 = 20;
    let t0 = now_ns();
    for _ in 0..ESTIMATES {
        for s in SIGMAS_TC {
            let model = BarrierModel::new(PROCS, s * TC_US, TC_US).expect("valid model");
            std::hint::black_box(model.estimate_optimal_degree());
        }
    }
    report.set_value(
        "core.model_estimate_ns",
        (now_ns() - t0) as f64 / (ESTIMATES * SIGMAS_TC.len() as u64) as f64,
    );
}
