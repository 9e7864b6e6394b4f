//! Validation of the DES substrate against closed-form queueing
//! theory: if the FIFO server is correct, an M/M/1 queue simulated
//! through it must reproduce the textbook formulas. This
//! independently validates the machinery that produces every barrier
//! result in the repository.

use combar_des::{Duration, FifoServer, SimTime};
use combar_rng::{Distribution, Exponential, SeedableRng, Xoshiro256pp};

/// Simulates an M/M/1 queue; returns (mean wait in queue, mean number
/// served per unit time).
fn mm1_mean_wait(lambda: f64, mu: f64, customers: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let inter = Exponential::new(lambda).unwrap();
    let service = Exponential::new(mu).unwrap();
    let mut server = FifoServer::new();
    let mut t = 0.0f64;
    let mut total_wait = 0.0f64;
    // skip a warm-up prefix so the estimate is steady-state
    let warmup = customers / 10;
    for i in 0..customers {
        t += inter.sample(&mut rng);
        let svc = server.serve(
            SimTime::from_us(t),
            Duration::from_us(service.sample(&mut rng)),
        );
        if i >= warmup {
            total_wait += svc.queueing_delay().as_us();
        }
    }
    total_wait / (customers - warmup) as f64
}

/// M/M/1: `Wq = ρ / (µ − λ)` with `ρ = λ/µ`.
#[test]
fn mm1_wait_matches_theory() {
    for (lambda, mu) in [(0.5f64, 1.0f64), (0.7, 1.0), (0.4, 0.8)] {
        let rho = lambda / mu;
        let theory = rho / (mu - lambda);
        let measured = mm1_mean_wait(lambda, mu, 400_000, 42);
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "λ={lambda} µ={mu}: Wq measured {measured:.3} vs theory {theory:.3} ({rel:.1}%)"
        );
    }
}

/// M/D/1 (deterministic service): `Wq = ρ/(2(µ−λ)) · 1` — half the
/// M/M/1 wait. The barrier counters are exactly deterministic-service
/// queues, so this case is the one the study leans on.
#[test]
fn md1_wait_is_half_of_mm1() {
    let lambda = 0.6f64;
    let mu = 1.0f64;
    let rho = lambda / mu;
    let theory = rho / (2.0 * (mu - lambda)); // 0.75
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let inter = Exponential::new(lambda).unwrap();
    let mut server = FifoServer::new();
    let mut t = 0.0f64;
    let mut total_wait = 0.0f64;
    let n = 400_000usize;
    let warmup = n / 10;
    for i in 0..n {
        t += inter.sample(&mut rng);
        let svc = server.serve(SimTime::from_us(t), Duration::from_us(1.0 / mu));
        if i >= warmup {
            total_wait += svc.queueing_delay().as_us();
        }
    }
    let measured = total_wait / (n - warmup) as f64;
    let rel = (measured - theory).abs() / theory;
    assert!(rel < 0.05, "M/D/1 Wq {measured:.3} vs {theory:.3}");
}

/// Little's law on a FIFO server: serve an open M/M/1 stream, merge
/// the arrival and finish times into one timeline of N(t), and check
/// L = λ·W on the time-average number in system.
#[test]
fn littles_law_holds_on_a_fifo_server() {
    let lambda = 0.5f64;
    let mu = 1.0f64;
    let n = 120_000usize;

    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let inter = Exponential::new(lambda).unwrap();
    let service = Exponential::new(mu).unwrap();
    let mut server = FifoServer::new();
    let (mut arrivals, mut finishes) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut total_sojourn = 0.0f64;
    let mut t = 0.0f64;
    for _ in 0..n {
        t += inter.sample(&mut rng);
        let svc_time = Duration::from_us(service.sample(&mut rng));
        let svc = server.serve(SimTime::from_us(t), svc_time);
        arrivals.push(t);
        finishes.push(svc.finish.as_us());
        total_sojourn += svc.sojourn().as_us();
    }
    // Both lists are in time order (FIFO finishes never decrease), and
    // a finish never precedes its own arrival: merge them, an arrival
    // first on a tie, integrating ∫ N(t) dt.
    let (mut area, mut in_system, mut end) = (0.0f64, 0u32, 0.0f64);
    let (mut i, mut j) = (0, 0);
    while j < n {
        let arrive = i < n && arrivals[i] <= finishes[j];
        let now = if arrive { arrivals[i] } else { finishes[j] };
        area += in_system as f64 * (now - end);
        end = now;
        if arrive {
            (in_system, i) = (in_system + 1, i + 1);
        } else {
            (in_system, j) = (in_system - 1, j + 1);
        }
    }
    let l = area / end; // time-average number in system
    let w = total_sojourn / n as f64; // mean sojourn
    let lambda_hat = n as f64 / end;
    let little_gap = (l - lambda_hat * w).abs() / l;
    assert!(
        little_gap < 0.02,
        "L = {l:.4} vs λW = {:.4}",
        lambda_hat * w
    );
    // and the M/M/1 sojourn W = 1/(µ−λ) = 2
    assert!((w - 2.0).abs() / 2.0 < 0.05, "W = {w:.3}");
}
