//! Fault timelines for simulated barrier studies.
//!
//! The runtime side of the repository injects faults with
//! `combar-chaos`; this module is its DES mirror: a passive,
//! deterministic description of *when* simulated processors stall or
//! die, consumable by any episode-structured model (the `combar-sim`
//! episode runner, the bench experiments' degradation tables).
//!
//! The types are deliberately independent of `combar-chaos` — the DES
//! crates stay dependency-light — and a bridge (chaos plan → fault
//! timeline) lives with the experiments that need both sides.

use crate::time::Duration;

/// What happens to a simulated processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimFault {
    /// Extra service delay before the processor's barrier arrival.
    Stall(Duration),
    /// The processor stops participating from this episode on.
    Death,
    /// The processor resumes participating from this episode on; pairs
    /// with an earlier [`SimFault::Death`] on the same processor to
    /// model churn (dead only on `[death, rejoin)`).
    Rejoin,
}

/// One fault on one processor's episode timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Target processor.
    pub proc: u32,
    /// Episode index at which the fault applies.
    pub episode: u32,
    /// The fault.
    pub fault: SimFault,
}

/// A deterministic set of [`FaultSpec`]s, queryable per (processor,
/// episode) — the shape an episode-driven simulation consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    specs: Vec<FaultSpec>,
}

impl FaultTimeline {
    /// Builds a timeline from arbitrary specs (order irrelevant).
    pub fn new(mut specs: Vec<FaultSpec>) -> Self {
        specs.sort_by_key(|s| (s.proc, s.episode));
        Self { specs }
    }

    /// The specs, sorted by `(proc, episode)`.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Total extra stall delay injected into `proc` at `episode`.
    pub fn stall(&self, proc: u32, episode: u32) -> Duration {
        let mut total = Duration::ZERO;
        for s in &self.specs {
            if s.proc == proc && s.episode == episode {
                if let SimFault::Stall(d) = s.fault {
                    total += d;
                }
            }
        }
        total
    }

    /// The episode at which `proc` dies, if the timeline kills it.
    pub fn death_episode(&self, proc: u32) -> Option<u32> {
        self.specs
            .iter()
            .filter(|s| s.proc == proc && s.fault == SimFault::Death)
            .map(|s| s.episode)
            .min()
    }

    /// The episode at which `proc` comes back after its death, if the
    /// timeline kills it and schedules a rejoin. A rejoin spec at or
    /// before the death episode is ignored — a processor cannot rejoin
    /// before it died.
    pub fn rejoin_episode(&self, proc: u32) -> Option<u32> {
        let died = self.death_episode(proc)?;
        self.specs
            .iter()
            .filter(|s| s.proc == proc && s.fault == SimFault::Rejoin && s.episode > died)
            .map(|s| s.episode)
            .min()
    }

    /// Whether `proc` still participates in `episode`: dead exactly on
    /// `[death, rejoin)`, alive everywhere else.
    pub fn alive(&self, proc: u32, episode: u32) -> bool {
        let Some(died) = self.death_episode(proc) else {
            return true;
        };
        if episode < died {
            return true;
        }
        self.rejoin_episode(proc).is_some_and(|r| episode >= r)
    }

    /// Processors alive in `episode`, out of `p` total.
    pub fn survivors(&self, p: u32, episode: u32) -> u32 {
        (0..p).filter(|&q| self.alive(q, episode)).count() as u32
    }

    /// Derives a stall timeline from a shared-seam work source: for
    /// each of the first `episodes` episodes, every processor whose
    /// sampled work exceeds the source's nominal mean gets a
    /// [`SimFault::Stall`] of the excess. This is the DES-side port of
    /// the repository-wide `combar_work::WorkSource` refactor — the
    /// same seeded model that drives the simulator's episode loop and
    /// the runtime torture harness expresses itself here as
    /// deterministic fault injection, so fault timelines and
    /// episode-driven runs see one consistent notion of "who is slow".
    pub fn from_work_model(
        source: &mut dyn combar_work::WorkSource,
        p: u32,
        episodes: u32,
    ) -> Self {
        let mean = source.mean_us();
        let mut works = vec![0.0f64; p as usize];
        let mut specs = Vec::new();
        for e in 0..episodes {
            source.sample_episode(e, &mut works);
            for (proc, &w) in works.iter().enumerate() {
                if w > mean {
                    specs.push(FaultSpec {
                        proc: proc as u32,
                        episode: e,
                        fault: SimFault::Stall(Duration::from_us(w - mean)),
                    });
                }
            }
        }
        Self::new(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> FaultTimeline {
        FaultTimeline::new(vec![
            FaultSpec {
                proc: 2,
                episode: 3,
                fault: SimFault::Death,
            },
            FaultSpec {
                proc: 0,
                episode: 1,
                fault: SimFault::Stall(Duration::from_us(5.0)),
            },
            FaultSpec {
                proc: 0,
                episode: 1,
                fault: SimFault::Stall(Duration::from_us(2.0)),
            },
        ])
    }

    #[test]
    fn stalls_accumulate_per_episode() {
        let t = timeline();
        assert_eq!(t.stall(0, 1), Duration::from_us(7.0));
        assert_eq!(t.stall(0, 2), Duration::ZERO);
        assert_eq!(t.stall(1, 1), Duration::ZERO);
    }

    #[test]
    fn death_bounds_aliveness() {
        let t = timeline();
        assert_eq!(t.death_episode(2), Some(3));
        assert!(t.alive(2, 2));
        assert!(!t.alive(2, 3));
        assert_eq!(t.survivors(4, 2), 4);
        assert_eq!(t.survivors(4, 3), 3);
    }

    #[test]
    fn rejoin_closes_the_dead_window() {
        let t = FaultTimeline::new(vec![
            FaultSpec {
                proc: 1,
                episode: 2,
                fault: SimFault::Death,
            },
            FaultSpec {
                proc: 1,
                episode: 6,
                fault: SimFault::Rejoin,
            },
        ]);
        assert_eq!(t.rejoin_episode(1), Some(6));
        assert!(t.alive(1, 1));
        assert!(!t.alive(1, 2));
        assert!(!t.alive(1, 5));
        assert!(t.alive(1, 6));
        assert_eq!(t.survivors(3, 4), 2);
        assert_eq!(t.survivors(3, 7), 3);
    }

    #[test]
    fn rejoin_without_death_is_inert() {
        let t = FaultTimeline::new(vec![FaultSpec {
            proc: 0,
            episode: 4,
            fault: SimFault::Rejoin,
        }]);
        assert_eq!(t.rejoin_episode(0), None);
        assert!(t.alive(0, 4));
        // A rejoin at or before the death episode is equally inert.
        let t = FaultTimeline::new(vec![
            FaultSpec {
                proc: 0,
                episode: 4,
                fault: SimFault::Death,
            },
            FaultSpec {
                proc: 0,
                episode: 4,
                fault: SimFault::Rejoin,
            },
        ]);
        assert_eq!(t.rejoin_episode(0), None);
        assert!(!t.alive(0, 9));
    }

    /// The bridge from the shared work seam: systemic slow processors
    /// become recurring stalls, and the stall magnitudes are exactly
    /// the work excess over the mean.
    #[test]
    fn from_work_model_stalls_the_slow_processors() {
        use combar_work::WorkSource as _;
        let p = 16u32;
        let mut model = combar_work::WorkModel::systemic(p, 0xde5f, 1000.0, 200.0, 0.0);
        let t = FaultTimeline::from_work_model(&mut model, p, 4);
        assert!(!t.specs().is_empty());
        assert!(t
            .specs()
            .iter()
            .all(|s| matches!(s.fault, SimFault::Stall(_))));
        // With zero noise the systemic bias is constant: a processor
        // stalled in episode 0 is stalled in every episode, by the
        // same amount.
        let mut works = vec![0.0f64; p as usize];
        model.sample_episode(0, &mut works);
        for (proc, &w) in works.iter().enumerate() {
            let expect = Duration::from_us((w - 1000.0).max(0.0));
            for e in 0..4 {
                assert_eq!(t.stall(proc as u32, e), expect, "proc {proc} ep {e}");
            }
        }
        // Everyone stays alive: this bridge only slows, never kills.
        assert_eq!(t.survivors(p, 3), p);
    }
}
