//! Dissemination-barrier simulation.
//!
//! The dissemination barrier (Hensgen/Finkel/Manber) completes in
//! `⌈log₂ p⌉` rounds of pairwise signalling with no shared counters at
//! all. Its round structure is synchronous — processor `i` finishes
//! round `r` at `max(own, partner's) + t_msg` — so no event queue is
//! needed; the recurrence is evaluated directly.
//!
//! Including it lets the experiments answer a question the paper's
//! framework raises but never runs: **how do counter trees compare to
//! counter-free barriers as load imbalance grows?** Dissemination's
//! critical path is `⌈log₂ p⌉·t_msg` *regardless* of σ — it can never
//! exploit imbalance the way a wide tree (delay → `t_c`) does, but it
//! also never suffers contention.

use combar_rng::stats::OnlineStats;

/// Result of one dissemination episode.
#[derive(Debug, Clone)]
pub struct DisseminationResult {
    /// Completion time of each processor (µs). In dissemination every
    /// processor completes the final round individually; the barrier is
    /// globally complete at the maximum.
    pub finish_us: Vec<f64>,
    /// Completion of the whole barrier (µs).
    pub complete_us: f64,
    /// `complete − last arrival`: the synchronization delay under the
    /// paper's definition.
    pub sync_delay_us: f64,
    /// Rounds executed, `⌈log₂ p⌉`.
    pub rounds: u32,
}

/// Simulates one dissemination episode.
///
/// * `arrivals_us` — per-processor arrival times (µs);
/// * `t_msg_us` — cost of one signal+check round step (µs); comparable
///   to the counter update cost `t_c` in the tree barriers.
///
/// # Panics
///
/// Panics if `arrivals_us` is empty or contains negatives/NaN.
pub fn run_dissemination(arrivals_us: &[f64], t_msg_us: f64) -> DisseminationResult {
    let p = arrivals_us.len();
    assert!(p > 0, "need at least one processor");
    assert!(
        arrivals_us.iter().all(|a| a.is_finite() && *a >= 0.0),
        "arrivals must be non-negative"
    );
    let rounds = if p == 1 { 0 } else { (p - 1).ilog2() + 1 };
    let mut t: Vec<f64> = arrivals_us.to_vec();
    let mut next = vec![0.0f64; p];
    for r in 0..rounds {
        let dist = 1usize << r;
        for i in 0..p {
            // i waits for the signal from (i − 2^r) mod p; both sides
            // pay one message step.
            let from = (i + p - dist % p) % p;
            next[i] = t[i].max(t[from]) + t_msg_us;
        }
        std::mem::swap(&mut t, &mut next);
    }
    let last_arrival = arrivals_us
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let complete = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    DisseminationResult {
        finish_us: t,
        complete_us: complete,
        sync_delay_us: complete - last_arrival,
        rounds,
    }
}

/// Mean dissemination sync delay over `reps` normal arrival draws
/// (convenience for the baselines experiment).
pub fn mean_dissemination_delay<R: combar_rng::Rng>(
    p: usize,
    sigma_us: f64,
    t_msg_us: f64,
    reps: usize,
    rng: &mut R,
) -> OnlineStats {
    let mut stats = OnlineStats::new();
    for _ in 0..reps.max(1) {
        let arrivals = combar_work::normal_arrivals(p, sigma_us, rng);
        stats.push(run_dissemination(&arrivals, t_msg_us).sync_delay_us);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_rng::{SeedableRng, Xoshiro256pp};

    /// Simultaneous arrivals: everyone finishes after exactly
    /// ⌈log₂ p⌉ rounds.
    #[test]
    fn simultaneous_arrivals_cost_log2_rounds() {
        for p in [2usize, 3, 8, 9, 64, 1000] {
            let arrivals = vec![0.0; p];
            let r = run_dissemination(&arrivals, 20.0);
            let rounds = (p - 1).ilog2() + 1;
            assert_eq!(r.rounds, rounds);
            assert_eq!(r.sync_delay_us, rounds as f64 * 20.0, "p = {p}");
            assert!(r.finish_us.iter().all(|&f| f == r.complete_us));
        }
    }

    /// One very late processor: dissemination still pays the full
    /// log₂ p after its arrival — it cannot exploit imbalance.
    #[test]
    fn late_processor_still_pays_log_p() {
        let p = 64usize;
        let mut arrivals = vec![0.0; p];
        arrivals[17] = 100_000.0;
        let r = run_dissemination(&arrivals, 20.0);
        assert_eq!(r.sync_delay_us, 6.0 * 20.0);
    }

    /// Dissemination is insensitive to σ: delays at σ = 0 and σ = 25·t_c
    /// differ by at most one round's worth.
    #[test]
    fn delay_is_insensitive_to_spread() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let quiet = mean_dissemination_delay(256, 0.0, 20.0, 5, &mut rng);
        let busy = mean_dissemination_delay(256, 500.0, 20.0, 20, &mut rng);
        assert!(
            (busy.mean() - quiet.mean()).abs() <= quiet.mean() * 0.25 + 20.0,
            "quiet {} vs busy {}",
            quiet.mean(),
            busy.mean()
        );
    }

    /// Correctness of the recurrence: every processor's finish time is
    /// at least every arrival plus one message (information must reach
    /// it), and at least its own arrival + rounds·t_msg.
    #[test]
    fn finish_times_dominate_all_arrivals() {
        let arrivals: Vec<f64> = (0..32).map(|i| (i * 37 % 11) as f64 * 30.0).collect();
        let t_msg = 20.0;
        let r = run_dissemination(&arrivals, t_msg);
        let max_arrival = arrivals.iter().copied().fold(0.0f64, f64::max);
        for (i, &f) in r.finish_us.iter().enumerate() {
            assert!(
                f >= max_arrival + t_msg,
                "proc {i} finished before the last arrival"
            );
            assert!(f >= arrivals[i] + r.rounds as f64 * t_msg);
        }
    }

    #[test]
    fn single_processor_is_free() {
        let r = run_dissemination(&[5.0], 20.0);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.sync_delay_us, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_arrival_rejected() {
        let _ = run_dissemination(&[0.0, -1.0], 20.0);
    }
}
