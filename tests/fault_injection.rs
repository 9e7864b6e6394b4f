//! Integration: the fault model across every barrier of `combar-rt` —
//! bounded timeouts, panic poisoning, graceful degradation through
//! eviction, and deterministic chaos soaks driven by `combar-chaos`.

use combar_chaos::{ChaosConfig, DeathMode, FaultPlan};
use combar_rt::harness::{chaos_torture_on, churn_torture_on, lockstep_torture_on, Stagger};
use combar_rt::{
    AdaptiveBarrier, BarrierBuilder, BarrierError, BarrierKind, DynamicBarrier, TreeBarrier,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const SHORT: Duration = Duration::from_millis(20);
const STEP: Duration = Duration::from_millis(100);
const LONG: Duration = Duration::from_secs(10);

fn transient_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(ChaosConfig {
        seed,
        stall_prob: 0.10,
        max_stall_us: 150,
        yield_prob: 0.15,
        max_yields: 6,
        spurious_prob: 0.10,
        ..ChaosConfig::default()
    })
}

/// A deadline must surface as `Timeout` on every barrier kind when a
/// peer never arrives — and leave the arrival intact for a retry.
#[test]
fn wait_timeout_reports_timeout_on_every_kind() {
    for kind in BarrierKind::all() {
        let b = BarrierBuilder::new(kind, 3).build();
        assert_eq!(
            b.waiter(0).wait_timeout(SHORT),
            Err(BarrierError::Timeout),
            "{}",
            kind.label()
        );
    }
}

/// A timed-out arrival stays registered: once the peer shows up, the
/// retried wait completes the same episode (no double arrival).
#[test]
fn timeout_then_retry_resumes_the_same_episode() {
    let b = TreeBarrier::combining(2, 2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut w = b.waiter(0);
            assert_eq!(w.wait_timeout(SHORT), Err(BarrierError::Timeout));
            assert_eq!(w.wait_timeout(LONG), Ok(()));
        });
        s.spawn(|| {
            let mut w = b.waiter(1);
            std::thread::sleep(SHORT * 3);
            assert_eq!(w.wait_timeout(LONG), Ok(()));
        });
    });
}

/// Dropping a waiter mid-episode (what an unwinding panic does)
/// poisons the barrier for every peer, on every kind.
#[test]
fn dropped_mid_episode_waiter_poisons_every_kind() {
    for kind in BarrierKind::all() {
        if matches!(kind, BarrierKind::Async { .. }) {
            continue; // by design a dropped async session leaves instead
        }
        let label = kind.label();
        let b = BarrierBuilder::new(kind, 3).build();
        {
            let mut w = b.waiter(0);
            assert_eq!(w.wait_timeout(SHORT), Err(BarrierError::Timeout), "{label}");
        }
        assert!(b.is_poisoned(), "{label}");
        assert_eq!(
            b.waiter(1).wait_timeout(SHORT),
            Err(BarrierError::Poisoned),
            "{label}"
        );
    }
}

/// Graceful degradation: with one participant silent from the start,
/// the survivors evict it and complete 100 further episodes — on every
/// kind that can evict.
#[test]
fn eviction_lets_survivors_complete_100_episodes() {
    const P: u32 = 3;
    const EPISODES: u32 = 100;

    for kind in BarrierKind::all() {
        let label = kind.label();
        let b = BarrierBuilder::new(kind, P).build();
        if b.stragglers().is_empty() {
            continue; // no arrival tracking, so nobody to evict
        }
        std::thread::scope(|s| {
            for tid in 0..P - 1 {
                let (b, label) = (&b, &label);
                s.spawn(move || {
                    let mut w = b.waiter(tid);
                    for _ in 0..EPISODES {
                        loop {
                            match w.wait_timeout(STEP) {
                                Ok(()) => break,
                                Err(BarrierError::Timeout) => {
                                    w.evict_stragglers();
                                }
                                Err(e) => panic!("{label}: survivor hit {e}"),
                            }
                        }
                    }
                });
            }
        });
        assert!(
            !b.stragglers().contains(&(P - 1)) && !b.evict(P - 1),
            "{label}: the silent thread stays evicted"
        );
    }
}

/// The kinds that can evict: the ones that track arrivals.
fn evicting_kinds() -> impl Iterator<Item = BarrierKind> {
    BarrierKind::all()
        .into_iter()
        .filter(|kind| !kind.build(2).stragglers().is_empty())
}

/// A rescue is bound to the episode its waiter timed out on. Run late —
/// after a peer's arrival has released that episode — it finds both
/// threads missing from the *next* one and must touch neither: they are
/// merely late, and a barrier exists to wait for late threads.
#[test]
fn late_rescue_evicts_nobody_on_every_evicting_kind() {
    for kind in evicting_kinds() {
        let label = kind.label();
        let b = BarrierBuilder::new(kind, 2).build();
        // The rescuer is tid 1: the tournament's tid 0 is its champion,
        // the one thread no episode releases without.
        let mut rescuer = b.waiter(1);
        let mut peer = b.waiter(0);
        assert_eq!(
            rescuer.wait_timeout(SHORT),
            Err(BarrierError::Timeout),
            "{label}"
        );
        assert_eq!(
            peer.wait_timeout(LONG),
            Ok(()),
            "{label}: episode 1 releases"
        );
        assert_eq!(b.stragglers(), [0, 1], "{label}: both late for episode 2");
        assert_eq!(rescuer.evict_stragglers(), [], "{label}: episode 1 is over");
        assert_eq!(
            rescuer.wait_timeout(LONG),
            Ok(()),
            "{label}: merely departs"
        );
        std::thread::scope(|s| {
            for w in [&mut rescuer, &mut peer] {
                let label = &label;
                s.spawn(move || {
                    for e in 2..12 {
                        assert_eq!(w.wait_timeout(LONG), Ok(()), "{label}: episode {e}");
                    }
                });
            }
        });
    }
}

/// Evicting everyone is refused at the last participant still counted:
/// with nobody left to arrive, episodes would release themselves.
#[test]
fn evicting_everyone_spares_the_last_participant_on_every_evicting_kind() {
    for kind in evicting_kinds() {
        let label = kind.label();
        let b = BarrierBuilder::new(kind, 2).build();
        assert!(b.evict(0), "{label}");
        assert!(!b.evict(1), "{label}: nobody would be left to arrive");
        assert_eq!(
            b.waiter(0).wait_timeout(SHORT),
            Err(BarrierError::Evicted),
            "{label}"
        );
        let mut spared = b.waiter(1);
        for e in 1..=3 {
            assert_eq!(spared.wait_timeout(LONG), Ok(()), "{label}: episode {e}");
        }
    }
}

/// An evicted thread can re-admit itself and the barrier returns to
/// full strength (counter-tree kinds with rejoin support).
#[test]
fn evicted_thread_rejoins_at_full_strength() {
    let b = TreeBarrier::combining(2, 2);
    let mut w1 = b.waiter(1);
    assert_eq!(w1.wait_timeout(SHORT), Err(BarrierError::Timeout));
    // survivor evicts the straggler (tid 0, which never arrived)
    assert_eq!(w1.evict_stragglers(), vec![0]);
    assert_eq!(w1.wait_timeout(LONG), Ok(()));
    for _ in 0..10 {
        assert_eq!(w1.wait_timeout(LONG), Ok(()));
    }
    // the corpse revives and rejoins; both now required again
    let mut w0 = b.waiter(0);
    assert!(w0.rejoin().expect("rejoin"));
    assert_eq!(b.evicted_count(), 0);
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..10 {
                assert_eq!(w0.wait_timeout(LONG), Ok(()));
            }
        });
        s.spawn(move || {
            for _ in 0..10 {
                assert_eq!(w1.wait_timeout(LONG), Ok(()));
            }
        });
    });
}

/// Fixed-seed transient chaos soak: stalls, yield storms, and spurious
/// wakeups over every barrier kind, asserting lockstep throughout.
#[test]
fn chaos_soak_keeps_lockstep_on_every_kind() {
    let chaos = Stagger::Chaos(transient_plan(0x50AC));
    for kind in BarrierKind::all() {
        let b = BarrierBuilder::new(kind, 4).build();
        lockstep_torture_on(b.as_dyn(), 60, chaos, LONG);
    }
}

/// Chaos soak with a scripted death: survivors stay in lockstep and
/// finish every episode after evicting the corpse.
#[test]
fn chaos_soak_with_death_keeps_survivors_in_lockstep() {
    const P: u32 = 4;
    const EPISODES: u32 = 50;
    let plan = FaultPlan::quiet(0xDEAD).with_death(1, 12, DeathMode::Stall);

    let b = TreeBarrier::combining(P, 2);
    let report = chaos_torture_on(&b, EPISODES, plan, STEP);
    assert_eq!(report.survivors, P - 1);
    assert_eq!(report.completed[1], 12);
    for tid in [0usize, 2, 3] {
        assert_eq!(report.completed[tid], EPISODES, "tid {tid}");
    }
    assert!(report.evictions >= 1);
    assert!(report.max_skew <= 1);
    assert!(!report.poisoned);

    let b = DynamicBarrier::mcs(P, 2);
    let report = chaos_torture_on(&b, EPISODES, plan, STEP);
    assert_eq!(report.survivors, P - 1);
    for tid in [0usize, 2, 3] {
        assert_eq!(report.completed[tid], EPISODES, "tid {tid}");
    }
}

/// The acceptance scenario for the self-healing runtime: a churn plan
/// kills k ∈ {1, 2, 4} of p = 16 threads mid-run, survivors detect and
/// detach them, the corpses come back through the rejoin protocol, and
/// the run completes with no poisoning. The harness samples
/// `critical_depth()` at the instant membership is provably full
/// again, so the healed shape is checked against the fault-free one.
#[test]
fn churn_kill_and_rejoin_restores_critical_depth() {
    const P: u32 = 16;
    const MIN_EPISODES: u32 = 30;

    for k in [1u32, 2, 4] {
        let mut plan = FaultPlan::quiet(0xC4A0 + u64::from(k));
        for i in 0..k {
            // odd tids die staggered around episode 8, all back by 24
            plan = plan.with_churn(2 * i + 1, 8 + i, DeathMode::Stall, 20 + 2 * i);
        }

        let b = TreeBarrier::combining(P, 2);
        let healthy_depth = b.critical_depth();
        let report = churn_torture_on(&b, MIN_EPISODES, plan, STEP);
        assert!(!report.poisoned, "k={k}: barrier poisoned");
        assert_eq!(report.gave_up, 0, "k={k}: a thread gave up");
        assert_eq!(report.planned_rejoins, k, "k={k}");
        assert!(
            report.rejoins >= k,
            "k={k}: only {} of {k} scheduled rejoins landed",
            report.rejoins
        );
        let healed_depth = report
            .depth_at_full
            .unwrap_or_else(|| panic!("k={k}: membership never returned to full"));
        assert!(
            healed_depth.abs_diff(healthy_depth) <= 1,
            "k={k}: healed critical depth {healed_depth} vs fault-free {healthy_depth}"
        );
    }
}

/// The same churn scenario on the dynamic (migrating-home) barrier:
/// detect → detach → rejoin must hold while placement migrates.
#[test]
fn churn_kill_and_rejoin_heals_the_dynamic_barrier() {
    const P: u32 = 16;
    let plan = FaultPlan::quiet(0xC4A1)
        .with_churn(3, 8, DeathMode::Stall, 20)
        .with_churn(9, 10, DeathMode::Stall, 22);

    let b = DynamicBarrier::mcs(P, 2);
    let report = churn_torture_on(&b, 30, plan, STEP);
    assert!(!report.poisoned);
    assert!(report.rejoins >= 2);
    assert_eq!(report.live_at_full, Some(P));
}

/// An adaptive barrier whose policy answers degree 2 and the flat degree
/// in turn, so every window boundary switches trees under the churn.
fn flipping_adaptive(p: u32) -> AdaptiveBarrier {
    let wide = AtomicBool::new(false);
    AdaptiveBarrier::new(
        p,
        Box::new(move |_, p| {
            if wide.fetch_xor(true, Ordering::Relaxed) {
                p
            } else {
                2
            }
        }),
    )
}

/// The same churn scenario on the adaptive barrier: every detach and
/// every granted rejoin rewrites all candidate trees, so the corpses
/// come back at full strength whichever degree is current when they do.
#[test]
fn churn_kill_and_rejoin_heals_the_adaptive_barrier() {
    const P: u32 = 16;
    let plan = FaultPlan::quiet(0xC4A2)
        .with_churn(3, 8, DeathMode::Stall, 20)
        .with_churn(9, 10, DeathMode::Stall, 22);

    let b = flipping_adaptive(P);
    let report = churn_torture_on(&b, 30, plan, STEP);
    assert!(!report.poisoned);
    assert_eq!(report.gave_up, 0);
    assert!(report.rejoins >= 2);
    assert_eq!(report.live_at_full, Some(P));
}

/// Bounded churn soak for CI (`COMBAR_SOAK=1`; skipped otherwise so
/// the default test run stays fast). Repeated kill/rejoin rounds over
/// the tree, dynamic and adaptive barriers at two thread counts,
/// failing on poisoning, give-ups, unhealed membership, or a healed
/// critical depth off the fault-free one by more than a level. Each
/// round is a full `churn_torture_on` run, so lockstep violations panic
/// inside.
#[test]
fn churn_soak_bounded() {
    if std::env::var_os("COMBAR_SOAK").is_none() {
        eprintln!("skipping: set COMBAR_SOAK=1 to run the churn soak");
        return;
    }
    const ROUNDS: u64 = 6;
    for p in [8u32, 16] {
        for round in 0..ROUNDS {
            let k = 1 + (round % 3) as u32; // 1..=3 victims per round
            let mut plan = FaultPlan::quiet(0x50AC_0000 + u64::from(p) * 100 + round);
            for i in 0..k {
                plan = plan.with_churn((2 * i + 1) % p, 6 + i, DeathMode::Stall, 16 + 2 * i);
            }

            let b = TreeBarrier::combining(p, 2);
            let healthy = b.critical_depth();
            let report = churn_torture_on(&b, 25, plan, STEP);
            assert!(!report.poisoned, "p={p} round={round}: poisoned");
            assert_eq!(report.gave_up, 0, "p={p} round={round}: give-up");
            assert!(report.rejoins >= k, "p={p} round={round}: unhealed");
            let healed = report.depth_at_full.expect("membership never refilled");
            assert!(
                healed.abs_diff(healthy) <= 1,
                "p={p} round={round}: depth {healed} vs {healthy}"
            );

            let b = DynamicBarrier::mcs(p, 2);
            let report = churn_torture_on(&b, 25, plan, STEP);
            assert!(!report.poisoned, "dynamic p={p} round={round}: poisoned");
            assert_eq!(report.live_at_full, Some(p), "dynamic p={p} round={round}");

            let b = flipping_adaptive(p);
            let report = churn_torture_on(&b, 25, plan, STEP);
            assert!(!report.poisoned, "adaptive p={p} round={round}: poisoned");
            assert_eq!(report.live_at_full, Some(p), "adaptive p={p} round={round}");
        }
    }
}

/// Determinism: the same plan replayed twice yields bit-identical
/// fault schedules, and distinct seeds diverge.
#[test]
fn fault_plans_replay_identically() {
    let cfg = ChaosConfig {
        seed: 0xBEEF,
        stall_prob: 0.15,
        max_stall_us: 300,
        yield_prob: 0.15,
        max_yields: 10,
        spurious_prob: 0.05,
        ..ChaosConfig::default()
    };
    let a = FaultPlan::new(cfg).with_death(3, 40, DeathMode::Panic);
    let b = FaultPlan::new(cfg).with_death(3, 40, DeathMode::Panic);
    assert_eq!(a.schedule(8, 128), b.schedule(8, 128));
    assert_eq!(a.death_episode(3), Some(40));
    let c = FaultPlan::new(ChaosConfig {
        seed: 0xBEF0,
        ..cfg
    });
    assert_ne!(a.schedule(8, 128), c.schedule(8, 128));
}
