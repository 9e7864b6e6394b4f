//! Beyond-paper experiment: barrier survival and latency degradation
//! under deterministic fault injection.
//!
//! The paper designs barriers for load *imbalance*; this experiment
//! pushes one step further, to load *loss*: a seeded `combar-chaos`
//! plan kills one participant mid-run and the chaos harness measures,
//! per barrier kind, whether the survivors can evict the corpse and
//! keep synchronizing — and at what per-episode cost. The counter
//! barriers (central, combining, MCS, dynamic, adaptive, blocking,
//! tournament) degrade gracefully through the roster eviction protocol:
//! a proxy delivers the corpse's arrival, on the tournament its flag
//! store, and a loser that signals a dead winner plays on for it; only
//! dissemination cannot recover, because every participant is a unique
//! signaller in every round, and its survivors give up after exhausting
//! the retry budget.
//!
//! A DES companion replays the same fault timeline against the
//! simulated central counter, separating the *protocol* cost of
//! eviction (detection timeout) from the *steady-state* effect of
//! running one participant short.

use crate::table::Table;
use combar::model_policy;
use combar_chaos::{DeathMode, FaultKind, FaultPlan};
use combar_des::fault::{FaultSpec, FaultTimeline, SimFault};
use combar_des::{Duration as SimDuration, FifoServer, SimTime};
use combar_rng::{Distribution, Normal, SeedableRng, Xoshiro256pp};
use combar_rt::harness::chaos_torture_on;
use combar_rt::{BarrierBuilder, BarrierKind, ChaosReport};
use std::time::Duration;

/// Shape of one chaos run: one scripted death, everything else quiet.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPreset {
    /// Participating threads.
    pub p: u32,
    /// Episodes each thread attempts.
    pub episodes: u32,
    /// Thread the plan kills.
    pub death_tid: u32,
    /// Episode (0-based) at which it dies.
    pub death_episode: u32,
    /// Per-attempt wait timeout; rescue triggers after two of these.
    pub step: Duration,
    /// Plan seed.
    pub seed: u64,
}

impl ChaosPreset {
    /// Full-size run: ≥ 120 post-death episodes.
    pub fn full(seed: u64) -> Self {
        Self {
            p: 6,
            episodes: 140,
            death_tid: 2,
            death_episode: 20,
            step: Duration::from_millis(100),
            seed,
        }
    }

    /// Shrunk run for smoke passes.
    pub fn quick(seed: u64) -> Self {
        Self {
            episodes: 40,
            death_episode: 10,
            step: Duration::from_millis(40),
            ..Self::full(seed)
        }
    }

    fn death_plan(&self) -> FaultPlan {
        FaultPlan::quiet(self.seed).with_death(self.death_tid, self.death_episode, DeathMode::Stall)
    }
}

/// One barrier kind's survival measurements.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Barrier kind label.
    pub kind: &'static str,
    /// Whether the kind supports eviction at all.
    pub evictable: bool,
    /// Survivors at the end of the death run.
    pub survivors: u32,
    /// Episodes the slowest survivor completed beyond the death point.
    pub after_death: u32,
    /// Evictions the rescue closures performed.
    pub evictions: u64,
    /// Timeouts observed (detection + retries).
    pub timeouts: u64,
    /// Threads that exhausted the retry budget.
    pub gave_up: u32,
    /// Mean wall time per episode with no faults, in µs.
    pub baseline_us: f64,
    /// Mean wall time per episode across the death run, in µs.
    pub degraded_us: f64,
}

impl ChaosRow {
    /// Whether the survivors finished every requested episode.
    pub fn recovered(&self, preset: &ChaosPreset) -> bool {
        self.survivors == preset.p - 1
            && self.after_death == preset.episodes - preset.death_episode
            && self.gave_up == 0
    }
}

/// DES companion numbers: simulated central-counter sync delay.
#[derive(Debug, Clone, Copy)]
pub struct SimDegradation {
    /// Mean sync delay before the death, µs.
    pub healthy_us: f64,
    /// Sync delay of the death episode itself (includes the detection
    /// timeout the eviction protocol pays), µs.
    pub detect_us: f64,
    /// Mean sync delay after the eviction, µs.
    pub degraded_us: f64,
}

/// Everything the `chaos` experiment produces.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The run shape.
    pub preset: ChaosPreset,
    /// One row per barrier kind.
    pub rows: Vec<ChaosRow>,
    /// The DES replay of the same timeline.
    pub sim: SimDegradation,
}

fn row(
    preset: &ChaosPreset,
    kind: &'static str,
    evictable: bool,
    baseline: ChaosReport,
    faulted: ChaosReport,
) -> ChaosRow {
    assert_eq!(
        baseline.survivors, preset.p,
        "{kind}: baseline lost threads"
    );
    let after_death = (0..preset.p as usize)
        .filter(|&t| t as u32 != preset.death_tid && !faulted_gave_up(&faulted, t))
        .map(|t| faulted.completed[t].saturating_sub(preset.death_episode))
        .min()
        .unwrap_or(0);
    ChaosRow {
        kind,
        evictable,
        survivors: faulted.survivors,
        after_death,
        evictions: faulted.evictions,
        timeouts: faulted.timeouts,
        gave_up: faulted.gave_up,
        baseline_us: baseline.elapsed.as_secs_f64() * 1e6 / preset.episodes as f64,
        degraded_us: faulted.elapsed.as_secs_f64() * 1e6 / preset.episodes as f64,
    }
}

/// Whether thread `t` is among the ones that gave up (approximated:
/// when any thread gave up, every non-dead thread short of the full
/// episode count did).
fn faulted_gave_up(rep: &ChaosReport, t: usize) -> bool {
    rep.gave_up > 0 && rep.completed[t] < rep.episodes
}

/// The survival matrix, in presentation order: label, kind, whether
/// the kind supports eviction at all.
const MATRIX: &[(&str, BarrierKind, bool)] = &[
    ("central", BarrierKind::Central, true),
    ("tree-d2", BarrierKind::CombiningTree { degree: 2 }, true),
    ("tree-d4", BarrierKind::CombiningTree { degree: 4 }, true),
    ("mcs-d2", BarrierKind::McsTree { degree: 2 }, true),
    ("dynamic-d2", BarrierKind::Dynamic { degree: 2 }, true),
    ("adaptive", BarrierKind::Adaptive, true),
    ("blocking", BarrierKind::Blocking, true),
    ("dissemination", BarrierKind::Dissemination, false),
    ("tournament", BarrierKind::Tournament, true),
];

/// Runs the threaded survival matrix plus the DES companion.
///
/// Every kind is built through [`BarrierBuilder`] and soaked through
/// the trait-object harness entry ([`chaos_torture_on`]) — the same
/// unified surface downstream embedders get, so the matrix doubles as
/// a conformance check on the trait path. A non-evictable kind
/// (dissemination) simply evicts nobody through the waiter trait's
/// default rescue.
pub fn run(preset: &ChaosPreset) -> ChaosResult {
    let p = preset.p;
    let episodes = preset.episodes;
    let quiet = FaultPlan::quiet(preset.seed);
    let death = preset.death_plan();
    let mut rows = Vec::new();

    for &(kind, bk, evictable) in MATRIX {
        let soak = |plan: FaultPlan| {
            let builder = BarrierBuilder::new(bk, p);
            let builder = if bk == BarrierKind::Adaptive {
                builder.policy(model_policy(20.0))
            } else {
                builder
            };
            let b = builder.build();
            chaos_torture_on(b.as_dyn(), episodes, plan, preset.step)
        };
        rows.push(row(preset, kind, evictable, soak(quiet), soak(death)));
    }

    let sim = simulate(preset);
    ChaosResult {
        preset: *preset,
        rows,
        sim,
    }
}

/// Bridges a chaos plan into the DES fault-timeline types, including
/// scheduled rejoins (`SimFault::Rejoin` closes the dead window).
pub fn timeline_of(plan: &FaultPlan, p: u32, episodes: u32) -> FaultTimeline {
    let mut specs: Vec<FaultSpec> = plan
        .schedule(p, episodes)
        .into_iter()
        .filter_map(|(tid, ep, f)| {
            let fault = match f {
                FaultKind::Stall(us) => SimFault::Stall(SimDuration::from_us(us as f64)),
                FaultKind::Die(_) => SimFault::Death,
                // control-flow faults have no simulated duration
                FaultKind::YieldStorm(_) | FaultKind::SpuriousWake => return None,
            };
            Some(FaultSpec {
                proc: tid,
                episode: ep,
                fault,
            })
        })
        .collect();
    for d in plan.deaths().filter(|d| d.tid < p) {
        if let Some(back) = d.rejoin {
            specs.push(FaultSpec {
                proc: d.tid,
                episode: back,
                fault: SimFault::Rejoin,
            });
        }
    }
    FaultTimeline::new(specs)
}

/// Replays the death timeline against the simulated central counter:
/// per episode, alive processors arrive with N(1000, 250) µs spread
/// and serialize `t_c = 20 µs` updates through one FIFO counter. The
/// death episode additionally pays the detection timeout before the
/// eviction lands.
pub fn simulate(preset: &ChaosPreset) -> SimDegradation {
    let tc = SimDuration::from_us(20.0);
    let timeline = timeline_of(&preset.death_plan(), preset.p, preset.episodes);
    let spread = Normal::new(1_000.0, 250.0).expect("valid sigma");
    let mut rng = Xoshiro256pp::seed_from_u64(preset.seed);
    let detect = preset.step.as_secs_f64() * 1e6;

    let (mut healthy, mut degraded) = ((0.0, 0u32), (0.0, 0u32));
    let mut detect_us = 0.0;
    let mut arrivals = Vec::with_capacity(preset.p as usize);
    for ep in 0..preset.episodes {
        arrivals.clear();
        for q in 0..preset.p {
            if timeline.alive(q, ep) {
                let base = spread.sample(&mut rng).max(0.0);
                arrivals.push(SimTime::from_us(base) + timeline.stall(q, ep));
            }
        }
        // Every update costs the same `t_c`, so the order of equal
        // arrival times does not change the last finish.
        arrivals.sort_unstable();
        let (mut counter, mut release) = (FifoServer::new(), SimTime::ZERO);
        for &at in &arrivals {
            release = counter.serve(at, tc).finish;
        }
        let last_arrival = arrivals.last().copied().unwrap_or(SimTime::ZERO);
        let mut sync = (release - last_arrival).as_us();
        if ep == preset.death_episode {
            // survivors only notice the corpse after a full timeout
            sync += detect;
            detect_us = sync;
        } else if ep < preset.death_episode {
            healthy = (healthy.0 + sync, healthy.1 + 1);
        } else {
            degraded = (degraded.0 + sync, degraded.1 + 1);
        }
    }
    SimDegradation {
        healthy_us: healthy.0 / healthy.1.max(1) as f64,
        detect_us,
        degraded_us: degraded.0 / degraded.1.max(1) as f64,
    }
}

impl ChaosResult {
    /// Renders both tables.
    pub fn render(&self) -> String {
        let p = &self.preset;
        let mut t = Table::new(
            format!(
                "chaos: survival after killing tid {} at episode {} (p={}, {} episodes, seed {:#x})",
                p.death_tid, p.death_episode, p.p, p.episodes, p.seed
            ),
            &[
                "barrier",
                "evictable",
                "survivors",
                "after-death",
                "evictions",
                "timeouts",
                "gave-up",
                "base/ep",
                "faulted/ep",
                "recovered",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.kind.to_string(),
                if r.evictable { "yes" } else { "no" }.into(),
                format!("{}/{}", r.survivors, p.p - 1),
                r.after_death.to_string(),
                r.evictions.to_string(),
                r.timeouts.to_string(),
                r.gave_up.to_string(),
                format!("{:.0}µs", r.baseline_us),
                format!("{:.0}µs", r.degraded_us),
                if r.recovered(p) { "yes" } else { "no" }.into(),
            ]);
        }
        let mut s = t.render();
        s.push('\n');
        s.push_str(&render_des(&self.sim));
        s
    }
}

/// Renders the DES-companion table on its own. Unlike the threaded
/// survival matrix this half is a pure function of the preset (seeded
/// RNG, virtual time), which is what makes it snapshot-testable.
pub fn render_des(sim: &SimDegradation) -> String {
    let mut d = Table::new(
        "chaos: DES replay, central counter sync delay (t_c = 20µs)",
        &["phase", "sync delay"],
    );
    d.row(vec![
        "healthy (pre-death)".into(),
        format!("{:.1}µs", sim.healthy_us),
    ]);
    d.row(vec![
        "death episode (detection)".into(),
        format!("{:.1}µs", sim.detect_us),
    ]);
    d.row(vec![
        "evicted (post-death)".into(),
        format!("{:.1}µs", sim.degraded_us),
    ]);
    d.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_bridge_keeps_deaths_and_stalls() {
        let plan = FaultPlan::new(combar_chaos::ChaosConfig {
            seed: 5,
            stall_prob: 0.3,
            max_stall_us: 40,
            ..combar_chaos::ChaosConfig::default()
        })
        .with_death(1, 7, DeathMode::Stall);
        let t = timeline_of(&plan, 4, 32);
        assert_eq!(t.death_episode(1), Some(7));
        assert!(t
            .specs()
            .iter()
            .any(|s| matches!(s.fault, SimFault::Stall(_))));
        // deterministic bridge: same plan, same timeline
        assert_eq!(t, timeline_of(&plan, 4, 32));
    }

    #[test]
    fn timeline_bridge_carries_rejoins() {
        let plan = FaultPlan::quiet(9).with_churn(2, 5, DeathMode::Stall, 11);
        let t = timeline_of(&plan, 4, 32);
        assert_eq!(t.death_episode(2), Some(5));
        assert_eq!(t.rejoin_episode(2), Some(11));
        assert!(!t.alive(2, 7));
        assert!(t.alive(2, 11));
    }

    #[test]
    fn sim_death_episode_pays_detection_and_then_recovers() {
        let preset = ChaosPreset {
            step: Duration::from_millis(10),
            ..ChaosPreset::quick(3)
        };
        let sim = simulate(&preset);
        assert!(
            sim.detect_us > sim.healthy_us,
            "detection timeout must dominate"
        );
        // one fewer counter update shortens the post-eviction episodes
        assert!(sim.degraded_us < sim.detect_us);
    }
}
