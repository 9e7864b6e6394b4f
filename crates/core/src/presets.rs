//! Experiment presets: the exact parameter grids behind every table and
//! figure of the paper, shared by the `experiments` binary, the
//! Criterion benches, and the integration tests so they can never
//! drift apart.
//!
//! OCR repairs to the source's parameters are documented in DESIGN.md
//! (σ of Figures 2/8 is 250 µs = 12.5·t_c, not "250 ms"; Figure 10's σ
//! of 3.14 ms is "very small" relative to the iteration time, not to
//! t_c).

/// The counter update cost measured on the KSR1 (µs).
pub const TC_US: f64 = 20.0;

pub mod seeds {
    //! The single seed table for every experiment in the workspace.
    //!
    //! Each experiment derives its per-cell RNG seed from [`BASE`] and
    //! the cell's own parameters — never from loop position or worker
    //! identity — so any cell can be recomputed in isolation and grids
    //! can be evaluated in parallel. The exact derivations are frozen:
    //! the golden snapshots under `crates/bench/tests/golden/` encode
    //! their outputs byte-for-byte. Changing the base seed is a
    //! one-line edit here; changing a derivation requires re-blessing
    //! the snapshots.

    /// Repository-wide base seed.
    pub const BASE: u64 = 0x1995_1ccc;

    /// Figure 2 single-grid sweep (4096 processors, σ = 12.5·t_c).
    pub fn fig2() -> u64 {
        BASE
    }

    /// Figures 3/4 optimal-degree cell for `p` processors (all σ
    /// columns share the seed: common random numbers across σ is not
    /// needed, but across degrees it is, and `sweep_degrees` handles
    /// that internally).
    pub fn fig34(p: u32) -> u64 {
        BASE ^ p as u64
    }

    /// Figure 5 persistence run at one slack value.
    pub fn fig5(slack_us: f64) -> u64 {
        BASE ^ slack_us.to_bits()
    }

    /// Figure 8 dynamic-placement cell at `(degree, slack)`.
    pub fn fig8(degree: u32, slack_us: f64) -> u64 {
        BASE ^ ((degree as u64) << 32) ^ slack_us.to_bits()
    }

    /// Figure 9 scaling point at `p` processors.
    pub fn fig9(p: u32) -> u64 {
        BASE ^ 0x9 ^ p as u64
    }

    /// Figures 10/11 placement scaling point at `(degree, p)`.
    pub fn placement(degree: u32, p: u32) -> u64 {
        BASE ^ 0x10 ^ ((degree as u64) << 40) ^ p as u64
    }

    /// Section 4 MCS-vs-combining comparison.
    pub fn mcs() -> u64 {
        BASE ^ 0xabcd
    }

    /// Centralized/tree baseline sweep at `p` processors.
    pub fn baseline(p: u32) -> u64 {
        BASE ^ 0xba5e ^ p as u64
    }

    /// Dissemination-barrier baseline at `p` processors.
    pub fn dissemination(p: u32) -> u64 {
        BASE ^ 0xd155 ^ p as u64
    }

    /// Release-model comparison at `p` processors (shared by every
    /// degree column: the comparison is paired across release models).
    pub fn release(p: u32) -> u64 {
        BASE ^ 0x3e1ea5e ^ p as u64
    }

    /// Fuzzy-barrier idle profile at one slack value.
    pub fn fuzzy_idle(slack_us: f64) -> u64 {
        BASE ^ 0xf1d1e ^ slack_us.to_bits()
    }

    /// Distribution-shape ablation at one σ/t_c (shared by all shapes:
    /// the comparison is paired across distributions).
    pub fn ablate_shape(sigma_tc: f64) -> u64 {
        BASE ^ sigma_tc.to_bits()
    }

    /// Analytic-model error scan.
    pub fn model_error() -> u64 {
        BASE ^ 0xe44
    }

    /// Partial-vs-full tree comparison.
    pub fn partial() -> u64 {
        BASE ^ 0xf0f0
    }

    /// Per-level contention profile at one degree.
    pub fn level_profile(degree: u32) -> u64 {
        BASE ^ 0x1e7e1 ^ degree as u64
    }

    /// Optimal-degree check under the exact normal model.
    pub fn optimal_under_normal() -> u64 {
        BASE
    }

    /// Adaptive-degree controller phase script.
    pub fn adaptive() -> u64 {
        BASE ^ 0xada
    }

    /// Oracle sweep for one adaptive phase at σ/t_c.
    pub fn adaptive_oracle(sigma_tc: f64) -> u64 {
        BASE ^ sigma_tc.to_bits()
    }

    /// KSR1 SOR optimal degree (Figure 12) at grid height `dy` (shared
    /// by all degrees: paired comparison).
    pub fn fig12(dy: u32) -> u64 {
        BASE ^ dy as u64
    }

    /// KSR1 SOR dynamic placement (Figure 13) at `(degree, slack)`.
    pub fn fig13(degree: u32, slack_us: f64) -> u64 {
        BASE ^ 0x13 ^ ((degree as u64) << 32) ^ slack_us.to_bits()
    }

    /// Figure 13 correlation ablation at correlation `rho`.
    pub fn fig13_correlation(rho: f64) -> u64 {
        BASE ^ 0xc0 ^ rho.to_bits()
    }

    /// Fault-injection (chaos) experiments.
    pub fn chaos() -> u64 {
        BASE
    }

    /// Churn experiment cell killing (and rejoining) `k` participants.
    pub fn churn(k: u32) -> u64 {
        BASE ^ 0xc4a0 ^ ((k as u64) << 8)
    }

    /// Networked epoch-server scenario at wire-fault probability `loss`
    /// with `k` sessions killed mid-run (the same seed drives the
    /// scenario's `NetFaultPlan` and its arrival stream).
    pub fn server(loss: f64, k: u32) -> u64 {
        BASE ^ 0x5e41e4 ^ ((k as u64) << 8) ^ loss.to_bits()
    }

    /// Crash-recovery scenario: epoch server journaling under wire
    /// loss `loss` with `k` whole-server crashes mid-soak (the same
    /// seed drives the `ServerFaultPlan` crash script, the wire
    /// `NetFaultPlan`, and the virtual-time replay's arrival stream).
    pub fn restart(loss: f64, k: u32) -> u64 {
        BASE ^ 0x5e57a1 ^ ((k as u64) << 8) ^ loss.to_bits()
    }

    /// Async logical-scale load cell for `p` participants at relative
    /// imbalance `sigma` (drives the deterministic per-(participant,
    /// epoch) work schedule).
    pub fn async_load(p: u32, sigma: f64) -> u64 {
        BASE ^ 0xa5c ^ (u64::from(p) << 16) ^ sigma.to_bits()
    }

    /// Balance experiment cell: one seed per imbalance shape, shared by
    /// all three regimes of that shape so they face identical work
    /// streams (the `combar_work::WorkModel` is a pure function of this
    /// seed, so the cell is thread-count invariant by construction).
    pub fn balance(shape: &str) -> u64 {
        let tag = shape
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        BASE ^ 0xba1a ^ tag
    }

    /// Scale experiment cell at `(p, k)`: `p` processors under
    /// redundancy degree `k`. The seed drives the cell's redundant
    /// Pareto work draws (replica `r` of the `Redundant` source
    /// XOR-splits off it) and is shared by every degree column and
    /// both placement regimes of the cell, so comparisons are paired
    /// on identical straggler streams.
    pub fn scale(p: u32, k: u32) -> u64 {
        BASE ^ 0x5ca1e ^ ((k as u64) << 32) ^ p as u64
    }
}

use combar_exec::Sweep;

/// Figure 2: synchronization delay vs degree at 4096 processors.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Processor count (4096).
    pub p: u32,
    /// Arrival spread in µs (250 = 12.5·t_c).
    pub sigma_us: f64,
    /// Degrees on the x-axis.
    pub degrees: Vec<u32>,
    /// Replications per bar.
    pub reps: usize,
}

impl Default for Fig2 {
    fn default() -> Self {
        Self {
            p: 4096,
            sigma_us: 250.0,
            degrees: vec![2, 4, 8, 16, 32, 64],
            reps: 30,
        }
    }
}

impl Fig2 {
    /// Shrunk run for smoke passes: the full axis at 5 replications.
    pub fn quick() -> Self {
        Self {
            reps: 5,
            ..Self::default()
        }
    }
}

/// Figures 3 and 4: the optimal-degree grid.
#[derive(Debug, Clone)]
pub struct Fig3Grid {
    /// Processor counts (rows).
    pub procs: Vec<u32>,
    /// Arrival spreads in units of t_c (columns); chosen to include
    /// every anchor legible in the OCR (0, 6.2, 25).
    pub sigma_tc: Vec<f64>,
    /// Replications per cell.
    pub reps: usize,
}

impl Default for Fig3Grid {
    fn default() -> Self {
        Self {
            procs: vec![64, 256, 4096],
            sigma_tc: vec![0.0, 1.6, 6.2, 12.5, 25.0, 50.0, 100.0],
            reps: 30,
        }
    }
}

impl Fig3Grid {
    /// Shrunk grid for smoke passes: the two small machines, 6
    /// replications per cell.
    pub fn quick() -> Self {
        Self {
            reps: 6,
            procs: vec![64, 256],
            ..Self::default()
        }
    }

    /// The `(p, σ/t_c)` grid as a parallel sweep, row-major in the
    /// order the Figure 3/4 tables print (processors outer, σ inner).
    /// Cell seeds come from [`seeds::fig34`], not the sweep's streams.
    pub fn sweep(&self) -> Sweep<(u32, f64)> {
        Sweep::grid2(seeds::BASE, &self.procs, &self.sigma_tc)
    }
}

/// Figure 8: dynamic placement at 4096 processors.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Processor count (4096).
    pub p: u32,
    /// Arrival spread per iteration (0.25 ms).
    pub sigma_us: f64,
    /// Fuzzy slack values in µs (the paper's 0–16 ms row).
    pub slacks_us: Vec<f64>,
    /// Tree degrees (4 and 16).
    pub degrees: Vec<u32>,
    /// Measured iterations (the paper's measurements use 200).
    pub iterations: usize,
    /// Warm-up iterations.
    pub warmup: usize,
    /// Mean work per iteration (µs); any value ≫ σ works, the paper's
    /// SOR iterations are ~9.5 ms.
    pub work_mean_us: f64,
}

impl Default for Fig8 {
    fn default() -> Self {
        Self {
            p: 4096,
            sigma_us: 250.0,
            slacks_us: vec![0.0, 1_000.0, 2_000.0, 4_000.0, 16_000.0],
            degrees: vec![4, 16],
            iterations: 200,
            warmup: 20,
            work_mean_us: 9_500.0,
        }
    }
}

impl Fig8 {
    /// Shrunk run for smoke passes: 256 processors, 60 iterations.
    pub fn quick() -> Self {
        Self {
            p: 256,
            iterations: 60,
            warmup: 10,
            ..Self::default()
        }
    }

    /// The `(degree, slack)` grid as a parallel sweep, row-major in the
    /// order the Figure 8 blocks print (degree outer, slack inner).
    /// Cell seeds come from [`seeds::fig8`].
    pub fn sweep(&self) -> Sweep<(u32, f64)> {
        Sweep::grid2(seeds::BASE, &self.degrees, &self.slacks_us)
    }
}

/// Figures 9–11: delay vs processor count.
#[derive(Debug, Clone)]
pub struct ScalingSweep {
    /// Processor counts on the x-axis (powers of two keep every degree
    /// buildable).
    pub procs: Vec<u32>,
    /// σ for Figure 9's two curves, in t_c units.
    pub fig9_sigma_tc: Vec<f64>,
    /// σ for Figures 10/11 (µs): the paper's 3.14 ms — "very small"
    /// relative to the ~9.5 ms iteration time (not to t_c; at 157·t_c
    /// it is wide enough that degree-4 trees see zero contention,
    /// which is exactly what the paper's Figure 10 curves show).
    pub small_sigma_us: f64,
    /// Slack for the dynamic placement runs (µs) — ample, so placement
    /// predictions hold.
    pub slack_us: f64,
    /// Iterations per point for the placement runs.
    pub iterations: usize,
    /// Replications per point for the episode sweeps.
    pub reps: usize,
}

impl Default for ScalingSweep {
    fn default() -> Self {
        Self {
            procs: vec![16, 64, 256, 1024, 4096],
            fig9_sigma_tc: vec![12.5, 50.0],
            small_sigma_us: 3_140.0,
            slack_us: 16_000.0,
            iterations: 100,
            reps: 20,
        }
    }
}

impl ScalingSweep {
    /// Shrunk sweep for smoke passes: up to 256 processors.
    pub fn quick() -> Self {
        Self {
            procs: vec![16, 64, 256],
            iterations: 30,
            reps: 6,
            ..Self::default()
        }
    }

    /// Figure 9's `(p, σ/t_c)` grid as a parallel sweep (processors
    /// outer, σ inner). Cell seeds come from [`seeds::fig9`].
    pub fn fig9_sweep(&self) -> Sweep<(u32, f64)> {
        Sweep::grid2(seeds::BASE, &self.procs, &self.fig9_sigma_tc)
    }

    /// Figures 10/11's processor axis as a parallel sweep; each cell
    /// runs a paired static/dynamic comparison seeded by
    /// [`seeds::placement`].
    pub fn placement_sweep(&self) -> Sweep<u32> {
        Sweep::new(seeds::BASE, self.procs.clone())
    }
}

/// Figure 12: optimal degree for SOR on the modelled KSR1.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// y-dimension sweep (the paper varies d_y to scale the variance;
    /// 210 is its reference point).
    pub dy: Vec<u32>,
    /// Degrees to try (the paper reports optima from 4 to 32).
    pub degrees: Vec<u32>,
    /// Iterations per measurement (the paper: 200 relaxations).
    pub iterations: usize,
    /// Warm-up iterations.
    pub warmup: usize,
}

impl Default for Fig12 {
    fn default() -> Self {
        Self {
            dy: vec![30, 60, 120, 210, 420, 840],
            degrees: vec![2, 4, 8, 16, 32, 56],
            iterations: 200,
            warmup: 10,
        }
    }
}

impl Fig12 {
    /// Shrunk run for smoke passes: 60 relaxations per measurement.
    pub fn quick() -> Self {
        Self {
            iterations: 60,
            warmup: 5,
            ..Self::default()
        }
    }

    /// Figure 12's `d_y` axis as a parallel sweep. Each cell scans all
    /// degrees with the shared [`seeds::fig12`] stream (the degree
    /// comparison is paired, so it stays inside the cell).
    pub fn sweep(&self) -> Sweep<u32> {
        Sweep::new(seeds::BASE, self.dy.clone())
    }
}

/// Figure 13: dynamic placement for SOR on the modelled KSR1.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// The paper's d_y = 210 configuration.
    pub dy: u32,
    /// Slack sweep in µs (the paper spans 0 to a few ms).
    pub slacks_us: Vec<f64>,
    /// Degrees 2, 4 and 16 (the paper's rows).
    pub degrees: Vec<u32>,
    /// Iterations (200 relaxations).
    pub iterations: usize,
    /// Warm-up iterations.
    pub warmup: usize,
}

impl Default for Fig13 {
    fn default() -> Self {
        Self {
            dy: 210,
            slacks_us: vec![0.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0],
            degrees: vec![2, 4, 16],
            iterations: 200,
            warmup: 10,
        }
    }
}

impl Fig13 {
    /// Shrunk run for smoke passes: 60 relaxations per measurement.
    pub fn quick() -> Self {
        Self {
            iterations: 60,
            warmup: 5,
            ..Self::default()
        }
    }

    /// The `(degree, slack)` grid as a parallel sweep (degree outer,
    /// slack inner). Cell seeds come from [`seeds::fig13`].
    pub fn sweep(&self) -> Sweep<(u32, f64)> {
        Sweep::grid2(seeds::BASE, &self.degrees, &self.slacks_us)
    }
}

/// Beyond-paper: the networked epoch server (`combar-net`) replayed in
/// virtual time — barrier-as-a-service under wire loss and session
/// churn.
///
/// The simulated mode exists so the `server` experiment row is
/// byte-deterministic (golden-snapshotable, thread-count invariant);
/// the wall-clock companions are `benchmark/`'s `served_clean` and
/// `served_lossy` workloads against the real [`combar-net`] server.
#[derive(Debug, Clone)]
pub struct ServerSim {
    /// Client sessions crossing the barrier together.
    pub sessions: u32,
    /// Server shards (leaf aggregation points; sessions hash across
    /// them by `sid % shards`).
    pub shards: u32,
    /// Episodes every scenario completes.
    pub episodes: u32,
    /// Mean inter-episode work per session, µs.
    pub work_mean_us: f64,
    /// Arrival spread (σ of the work), µs.
    pub sigma_us: f64,
    /// One aggregation/broadcast hop (session→shard, shard→root,
    /// root→session), µs.
    pub hop_us: f64,
    /// Client retransmission timeout after a lost frame, µs.
    pub rto_us: f64,
    /// Lease grace the server pays before evicting a silent session,
    /// µs.
    pub detect_us: f64,
    /// Wire-fault probability of the lossy scenarios (drop and
    /// duplicate each at this rate, the acceptance mix).
    pub loss: f64,
    /// Sessions killed in the churn scenario.
    pub kill: u32,
    /// Episode at which the victims go silent.
    pub kill_episode: u32,
    /// Episode at which the victims rejoin.
    pub rejoin_episode: u32,
}

impl ServerSim {
    /// Full-size run: 64 sessions on 4 shards, 200 episodes, 5% loss,
    /// k = 4 killed — the acceptance scenario of the networked server.
    pub fn full() -> Self {
        Self {
            sessions: 64,
            shards: 4,
            episodes: 200,
            work_mean_us: 1_000.0,
            sigma_us: 250.0,
            hop_us: TC_US,
            rto_us: 2_000.0,
            detect_us: 5_000.0,
            loss: 0.05,
            kill: 4,
            kill_episode: 40,
            rejoin_episode: 120,
        }
    }

    /// Shrunk run for smoke passes and the golden snapshot.
    pub fn quick() -> Self {
        Self {
            sessions: 16,
            episodes: 60,
            kill_episode: 10,
            rejoin_episode: 30,
            ..Self::full()
        }
    }

    /// The killed sessions for the churn scenario: odd ids, so the
    /// victims spread across shards instead of clustering on one.
    pub fn victims(&self) -> Vec<u32> {
        (0..self.kill)
            .map(|i| (2 * i + 1) % self.sessions)
            .collect()
    }
}

impl Default for ServerSim {
    fn default() -> Self {
        Self::full()
    }
}

/// Beyond-paper preset: crash recovery of the journaled epoch server
/// (`experiments -- restart`). The wire/latency model is [`ServerSim`]'s;
/// this preset adds the authority-failure axis — whole-server crashes
/// whose cost is failure *detection* plus journal *replay* (bounded by
/// the snapshot cadence) plus the per-session resume handshake. The
/// wall-clock companion against the real journaled server is
/// `benches/restart_recovery.rs` → `BENCH_restart.json`.
#[derive(Debug, Clone)]
pub struct RestartSim {
    /// Client sessions crossing the barrier together.
    pub sessions: u32,
    /// Server shards.
    pub shards: u32,
    /// Episodes every scenario completes.
    pub episodes: u32,
    /// Mean inter-episode work per session, µs.
    pub work_mean_us: f64,
    /// Arrival spread (σ of the work), µs.
    pub sigma_us: f64,
    /// One aggregation/broadcast hop, µs.
    pub hop_us: f64,
    /// Client retransmission timeout, µs.
    pub rto_us: f64,
    /// Failure-detection grace (lease lapse for a cold restart, standby
    /// liveness grace for a promotion), µs.
    pub detect_us: f64,
    /// Journal replay cost per record, µs (dominates cold recovery of
    /// a long-lived server without snapshots).
    pub replay_us_per_record: f64,
    /// Per-session resume-handshake cost paid after every recovery, µs.
    pub resume_us: f64,
    /// Wire-fault probability of the lossy scenarios.
    pub loss: f64,
    /// Whole-server crashes per crashy scenario.
    pub kills: u32,
    /// Snapshot cadence in episodes (bounds the replay tail for the
    /// snapshotting scenarios).
    pub snapshot_every: u32,
}

impl RestartSim {
    /// Full-size run: the net acceptance scale (64 sessions, 4 shards,
    /// 200 episodes, 5% loss) with 3 whole-server crashes.
    pub fn full() -> Self {
        Self {
            sessions: 64,
            shards: 4,
            episodes: 200,
            work_mean_us: 1_000.0,
            sigma_us: 250.0,
            hop_us: TC_US,
            rto_us: 2_000.0,
            detect_us: 5_000.0,
            replay_us_per_record: 2.0,
            resume_us: 50.0,
            loss: 0.05,
            kills: 3,
            snapshot_every: 50,
        }
    }

    /// Shrunk run for smoke passes and the golden snapshot.
    pub fn quick() -> Self {
        Self {
            sessions: 16,
            episodes: 60,
            kills: 2,
            snapshot_every: 20,
            ..Self::full()
        }
    }

    /// The crash epochs: `kills` crashes spread evenly across the run
    /// (at `episodes·(i+1)/(kills+1)`), so no crash lands in the warmup
    /// or drain edge. Pure arithmetic — the threaded soak uses the
    /// seeded `ServerFaultPlan` script instead; this grid is for the
    /// virtual-time replay, where even spacing keeps the table legible.
    pub fn crash_epochs(&self) -> Vec<u32> {
        (1..=self.kills)
            .map(|i| self.episodes * i / (self.kills + 1))
            .collect()
    }
}

impl Default for RestartSim {
    fn default() -> Self {
        Self::full()
    }
}

/// Beyond-paper preset: the async epoch runtime's logical-scale grid
/// (`experiments -- async`). Participants are parked wakers multiplexed
/// by a few driver threads, so the participant axis reaches scales no
/// thread-per-participant experiment can; the σ axis is the paper's
/// load-imbalance knob applied per (participant, epoch). The rendered
/// columns are schedule *invariants* (arrival totals, final epoch,
/// deterministic work-schedule statistics), so the table is
/// byte-identical under any `COMBAR_THREADS`. The wall-clock companion
/// is `benchmark/`'s `async_64k` workload.
#[derive(Debug, Clone)]
pub struct AsyncLoad {
    /// Logical participant counts, one table row each per σ.
    pub participants: Vec<u32>,
    /// Arrival shards in the barrier's combining layer.
    pub shards: u32,
    /// Epochs every participant crosses.
    pub episodes: u32,
    /// Mean busy-work iterations per participant per epoch.
    pub work_mean: u32,
    /// Relative imbalance values (σ / mean of the work draw).
    pub sigmas: Vec<f64>,
}

impl AsyncLoad {
    /// Full grid: up to 16k logical participants on the release
    /// experiment runner.
    pub fn full() -> Self {
        Self {
            participants: vec![1_024, 4_096, 16_384],
            shards: 16,
            episodes: 20,
            work_mean: 64,
            sigmas: vec![0.0, 0.5, 1.0],
        }
    }

    /// Shrunk grid for smoke passes and the golden snapshot.
    pub fn quick() -> Self {
        Self {
            participants: vec![256, 1_024],
            episodes: 10,
            sigmas: vec![0.0, 1.0],
            ..Self::full()
        }
    }
}

impl Default for AsyncLoad {
    fn default() -> Self {
        Self::full()
    }
}

/// The `balance` experiment: static placement vs the paper's dynamic
/// placement vs placement + trace-fed work diffusion, under systemic
/// and evolving imbalance.
#[derive(Debug, Clone)]
pub struct Balance {
    /// Processor count.
    pub p: u32,
    /// MCS owner-tree degree.
    pub degree: u32,
    /// Measured episodes per cell.
    pub episodes: usize,
    /// Warm-up episodes excluded from statistics.
    pub warmup: usize,
    /// Mean per-episode work (µs).
    pub mean_us: f64,
    /// Per-processor fixed bias σ for the systemic shape (µs).
    pub bias_sigma_us: f64,
    /// Per-episode random-walk σ for the evolving shape (µs).
    pub walk_sigma_us: f64,
    /// Episode-to-episode noise σ on top of either bias (µs).
    pub noise_sigma_us: f64,
    /// Diffusion damping α ∈ (0, 1].
    pub alpha: f64,
    /// Fuzzy-barrier slack between signal and enforce (µs).
    pub slack_us: f64,
}

impl Balance {
    /// Full grid: 256 processors, 200 measured episodes per cell.
    pub fn full() -> Self {
        Self {
            p: 256,
            degree: 4,
            episodes: 200,
            warmup: 20,
            mean_us: 1_000.0,
            bias_sigma_us: 200.0,
            walk_sigma_us: 30.0,
            noise_sigma_us: 20.0,
            alpha: 0.5,
            slack_us: 2_000.0,
        }
    }

    /// Shrunk grid for smoke passes and the golden snapshot.
    pub fn quick() -> Self {
        Self {
            p: 64,
            episodes: 80,
            ..Self::full()
        }
    }
}

impl Default for Balance {
    fn default() -> Self {
        Self::full()
    }
}

/// The `scale` experiment: optimal degree and dynamic placement at
/// p ∈ {2¹⁴ … 2²⁰} under heavy-tailed (Pareto) stragglers with
/// first-completion redundancy k ∈ {1, 2, 3}.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Processor counts (powers of two up to 2²⁰).
    pub procs: Vec<u32>,
    /// Redundancy degrees k (1 = no replication).
    pub redundancy: Vec<u32>,
    /// Candidate tree degrees for the optimal-degree sweep.
    pub degrees: Vec<u32>,
    /// Replications per (p, k, degree) cell.
    pub reps: usize,
    /// Nominal mean work per copy (µs).
    pub mean_us: f64,
    /// Pareto scale parameter (µs) — the distribution's left edge.
    pub pareto_scale_us: f64,
    /// Pareto tail index α (< 2 ⇒ infinite variance: real stragglers).
    pub pareto_shape: f64,
    /// Episodes of the dynamic-placement loop per (p, k) cell.
    pub placement_episodes: usize,
    /// Leading placement episodes excluded from statistics.
    pub warmup: usize,
    /// σ of the fixed per-processor bias in the placement loop's
    /// systemic regime (µs) — the persistent lateness dynamic
    /// placement exploits.
    pub bias_sigma_us: f64,
    /// σ of the per-episode normal noise in the placement loop (µs).
    pub noise_sigma_us: f64,
    /// Fuzzy-barrier slack between signal and enforce (µs).
    pub slack_us: f64,
}

impl Scale {
    /// Full grid: up to 2²⁰ processors, k ∈ {1, 2, 3}.
    pub fn full() -> Self {
        Self {
            procs: vec![1 << 14, 1 << 16, 1 << 18, 1 << 20],
            redundancy: vec![1, 2, 3],
            degrees: vec![4, 16, 64, 256],
            reps: 2,
            mean_us: 10_000.0,
            pareto_scale_us: 500.0,
            pareto_shape: 1.6,
            placement_episodes: 6,
            warmup: 2,
            bias_sigma_us: 1_000.0,
            noise_sigma_us: 250.0,
            slack_us: 2_000.0,
        }
    }

    /// Shrunk grid for smoke passes and the golden snapshot.
    pub fn quick() -> Self {
        Self {
            procs: vec![1 << 10, 1 << 12],
            redundancy: vec![1, 2],
            placement_episodes: 4,
            warmup: 1,
            ..Self::full()
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::full()
    }
}

/// Figure 5 (reconstructed from the Section 5 text): persistence of
/// arrival order under slack.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Processor count.
    pub p: u32,
    /// Arrival spread (0.25 ms, as in Figure 8).
    pub sigma_us: f64,
    /// Slack values compared.
    pub slacks_us: Vec<f64>,
    /// Iteration lags at which persistence is evaluated (the text:
    /// "remain significantly slower for the next 20 iterations").
    pub lags: Vec<usize>,
    /// Measured iterations.
    pub iterations: usize,
    /// Mean work per iteration (µs).
    pub work_mean_us: f64,
}

impl Default for Fig5 {
    fn default() -> Self {
        Self {
            p: 4096,
            sigma_us: 250.0,
            slacks_us: vec![0.0, 500.0, 2_000.0, 16_000.0],
            lags: vec![1, 5, 10, 20],
            iterations: 120,
            work_mean_us: 9_500.0,
        }
    }
}

impl Fig5 {
    /// Shrunk run for smoke passes: 256 processors, 60 iterations.
    pub fn quick() -> Self {
        Self {
            p: 256,
            iterations: 60,
            ..Self::default()
        }
    }

    /// The slack axis as a parallel sweep; cell seeds come from
    /// [`seeds::fig5`].
    pub fn sweep(&self) -> Sweep<f64> {
        Sweep::new(seeds::BASE, self.slacks_us.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_paper_axis() {
        let f = Fig2::default();
        assert_eq!(f.p, 4096);
        assert_eq!(f.degrees, vec![2, 4, 8, 16, 32, 64]);
        assert!((f.sigma_us / TC_US - 12.5).abs() < 1e-12);
    }

    #[test]
    fn fig3_grid_includes_legible_anchors() {
        let g = Fig3Grid::default();
        assert!(g.procs.contains(&64) && g.procs.contains(&256) && g.procs.contains(&4096));
        for anchor in [0.0, 6.2, 25.0] {
            assert!(g.sigma_tc.contains(&anchor), "missing σ = {anchor}·t_c");
        }
    }

    #[test]
    fn fig8_matches_paper_rows() {
        let f = Fig8::default();
        assert_eq!(f.degrees, vec![4, 16]);
        assert_eq!(f.slacks_us, vec![0.0, 1_000.0, 2_000.0, 4_000.0, 16_000.0]);
        assert_eq!(f.iterations, 200);
    }

    #[test]
    fn fig12_contains_reference_dy() {
        let f = Fig12::default();
        assert!(f.dy.contains(&210));
        assert!(f.degrees.contains(&4) && f.degrees.contains(&32));
    }

    #[test]
    fn fig13_matches_paper_degrees() {
        assert_eq!(Fig13::default().degrees, vec![2, 4, 16]);
    }

    /// Sweep grids must match the nesting order of the historical
    /// experiment loops (outer axis first), or table row order — and
    /// with it the golden snapshots — would change.
    #[test]
    fn sweeps_are_row_major_in_table_order() {
        let g = Fig3Grid {
            procs: vec![64, 256],
            sigma_tc: vec![0.0, 25.0],
            reps: 1,
        };
        assert_eq!(
            g.sweep().params(),
            &[(64, 0.0), (64, 25.0), (256, 0.0), (256, 25.0)]
        );
        let f8 = Fig8 {
            degrees: vec![4, 16],
            slacks_us: vec![0.0, 1.0],
            ..Fig8::default()
        };
        assert_eq!(
            f8.sweep().params(),
            &[(4, 0.0), (4, 1.0), (16, 0.0), (16, 1.0)]
        );
        assert_eq!(Fig12::default().sweep().params(), &Fig12::default().dy[..]);
    }

    #[test]
    fn seed_table_matches_frozen_derivations() {
        use super::seeds;
        assert_eq!(seeds::BASE, 0x1995_1ccc);
        assert_eq!(seeds::fig2(), seeds::BASE);
        assert_eq!(seeds::fig34(64), seeds::BASE ^ 64);
        assert_eq!(seeds::fig9(256), seeds::BASE ^ 0x9 ^ 256);
        assert_eq!(
            seeds::fig8(4, 250.0),
            seeds::BASE ^ (4u64 << 32) ^ 250.0f64.to_bits()
        );
        assert_eq!(
            seeds::placement(16, 1024),
            seeds::BASE ^ 0x10 ^ (16u64 << 40) ^ 1024
        );
        assert_eq!(
            seeds::fig13(2, 500.0),
            seeds::BASE ^ 0x13 ^ (2u64 << 32) ^ 500.0f64.to_bits()
        );
        assert_eq!(
            seeds::server(0.05, 4),
            seeds::BASE ^ 0x5e41e4 ^ (4u64 << 8) ^ 0.05f64.to_bits()
        );
        assert_eq!(
            seeds::scale(1 << 20, 2),
            seeds::BASE ^ 0x5ca1e ^ (2u64 << 32) ^ (1u64 << 20)
        );
        // distinct experiments never collide on the same parameters
        let all = [
            seeds::fig2(),
            seeds::mcs(),
            seeds::model_error(),
            seeds::partial(),
            seeds::adaptive(),
            seeds::server(0.0, 0),
        ];
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
