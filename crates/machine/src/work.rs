//! SOR iteration-time model: turning the machine parameters into a
//! [`WorkSource`] for the barrier simulator. Like
//! [`combar_work::Workload`], it owns its RNG stream and draws one
//! episode per call, in call order.
//!
//! Per the authors' companion study (their reference \[13\]), the
//! variance of a processor's iteration time on the KSR1 comes from
//! contention on its communication events; with `n = 4·⌈d_y/16⌉`
//! independent events the standard deviation grows like `√n`. We model
//! each event as `base + Exp(jitter)`, so
//!
//! ```text
//! mean  = d_x·d_y·point_time + n·(base + jitter)
//! σ     ≈ jitter·√n
//! ```
//!
//! and the default [`KsrParams`] calibration pins the paper's measured
//! operating point (d_y = 210 → 9.5 ms, σ ≈ 110 µs).

use crate::params::KsrParams;
use combar_rng::{Distribution, Exponential, Normal, SeedableRng, Xoshiro256pp};
use combar_work::WorkSource;

/// Per-processor SOR iteration-time generator on the modelled KSR1.
#[derive(Debug, Clone)]
pub struct SorWork {
    params: KsrParams,
    /// Grid rows per processor (the paper: 60).
    pub dx_per_proc: u32,
    /// Grid columns (the paper sweeps this to scale the variance).
    pub dy: u32,
    events: u32,
    compute_us: f64,
    /// Fraction of the communication-jitter *variance* shared by all
    /// processors of a ring (0 = fully independent, the default).
    ring_correlation: f64,
    rng: Xoshiro256pp,
}

impl SorWork {
    /// Creates the work model for a `d_x`-rows-per-processor by `d_y`
    /// SOR partition, drawing from the RNG stream `seed` starts.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(params: KsrParams, dx_per_proc: u32, dy: u32, seed: u64) -> Self {
        assert!(
            dx_per_proc > 0 && dy > 0,
            "grid dimensions must be positive"
        );
        let events = params.comm_events(dy);
        let compute_us = dx_per_proc as f64 * dy as f64 * params.point_time_us;
        Self {
            params,
            dx_per_proc,
            dy,
            events,
            compute_us,
            ring_correlation: 0.0,
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Makes a fraction `rho ∈ [0, 1)` of the communication-jitter
    /// variance *shared* within each ring — modelling the fact that on
    /// a real KSR1, contention on a ring segment delays every processor
    /// of that ring together (Durand et al.'s NUMA-contention
    /// observation). The total per-processor σ stays calibrated; only
    /// the cross-processor correlation structure changes. Used by the
    /// Figure 13 correlation ablation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rho < 1`.
    pub fn with_ring_correlation(mut self, rho: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "correlation must be in [0, 1)");
        self.ring_correlation = rho;
        self
    }

    /// The configured within-ring jitter-variance share.
    pub fn ring_correlation(&self) -> f64 {
        self.ring_correlation
    }

    /// The paper's measurement configuration: `d_x = 60` rows per
    /// processor on the default machine.
    pub fn paper_config(dy: u32, seed: u64) -> Self {
        Self::new(KsrParams::default(), 60, dy, seed)
    }

    /// Communication events per iteration (`4·⌈d_y/16⌉`).
    pub fn comm_events(&self) -> u32 {
        self.events
    }

    /// Analytic mean iteration time (µs).
    pub fn analytic_mean_us(&self) -> f64 {
        self.compute_us
            + self.events as f64 * (self.params.comm_base_us + self.params.comm_jitter_us)
    }

    /// Analytic standard deviation of the iteration time (µs):
    /// `jitter·√events` (each exponential event has σ = jitter).
    pub fn analytic_sigma_us(&self) -> f64 {
        self.params.comm_jitter_us * (self.events as f64).sqrt()
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &KsrParams {
        &self.params
    }
}

impl WorkSource for SorWork {
    fn mean_us(&self) -> f64 {
        self.analytic_mean_us()
    }

    fn sample_episode(&mut self, _episode: u32, out: &mut [f64]) {
        let base = self.compute_us + self.events as f64 * self.params.comm_base_us;
        if self.ring_correlation == 0.0 {
            // Calibration path: independent exponential jitter per
            // communication event (a Gamma(events) total).
            let jitter = Exponential::with_mean(self.params.comm_jitter_us)
                .expect("calibrated jitter is positive");
            for w in out.iter_mut() {
                let mut t = base;
                for _ in 0..self.events {
                    t += jitter.sample(&mut self.rng);
                }
                *w = t;
            }
            return;
        }
        // Correlated path: keep the mean (events·jitter) and total σ
        // (jitter·√events) but split the zero-mean fluctuation into a
        // per-ring shared part and a private part (Gaussian — with ≥ 4
        // events the Gamma total is already close to normal).
        let rho = self.ring_correlation;
        let sigma = self.analytic_sigma_us();
        let mean_noise = self.events as f64 * self.params.comm_jitter_us;
        let unit = Normal::standard();
        let ring_size = self.params.ring_size as usize;
        let num_rings = out.len().div_ceil(ring_size.max(1));
        let shared: Vec<f64> = (0..num_rings).map(|_| unit.sample(&mut self.rng)).collect();
        for (i, w) in out.iter_mut().enumerate() {
            let ring = i / ring_size.max(1);
            let z = rho.sqrt() * shared[ring] + (1.0 - rho).sqrt() * unit.sample(&mut self.rng);
            *w = (base + mean_noise + sigma * z).max(self.compute_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_rng::stats;

    /// The paper's measured operating point: d_y = 210 → mean 9.5 ms,
    /// σ ≈ 110 µs. The calibration should land within a few percent.
    #[test]
    fn calibration_matches_paper_operating_point() {
        let w = SorWork::paper_config(210, 0);
        let mean_ms = w.analytic_mean_us() / 1000.0;
        let sigma_us = w.analytic_sigma_us();
        assert!(
            (mean_ms - 9.5).abs() < 0.2,
            "mean = {mean_ms} ms, want ≈ 9.5"
        );
        assert!(
            (sigma_us - 110.0).abs() < 5.0,
            "σ = {sigma_us} µs, want ≈ 110"
        );
    }

    #[test]
    fn sampled_moments_match_analytic() {
        let mut w = SorWork::paper_config(210, 1);
        let mut buf = vec![0.0; 4000];
        w.sample_episode(0, &mut buf);
        let mean = stats::mean(&buf);
        let sd = stats::std_dev(&buf);
        assert!(
            ((mean - w.analytic_mean_us()) / w.analytic_mean_us()).abs() < 0.01,
            "mean {mean} vs {}",
            w.analytic_mean_us()
        );
        assert!(
            ((sd - w.analytic_sigma_us()) / w.analytic_sigma_us()).abs() < 0.1,
            "σ {sd} vs {}",
            w.analytic_sigma_us()
        );
    }

    /// σ grows with d_y (the paper's Figure 12 mechanism: more data →
    /// more communications → more variance).
    #[test]
    fn sigma_grows_with_dy() {
        let mut prev = 0.0;
        for dy in [30u32, 60, 120, 210, 420, 840] {
            let w = SorWork::paper_config(dy, 0);
            assert!(w.analytic_sigma_us() > prev, "dy = {dy}");
            prev = w.analytic_sigma_us();
        }
    }

    #[test]
    fn work_is_always_above_pure_compute() {
        let mut w = SorWork::paper_config(64, 2);
        let mut buf = vec![0.0; 1000];
        w.sample_episode(0, &mut buf);
        let floor = 60.0 * 64.0 * w.params().point_time_us;
        assert!(buf.iter().all(|&x| x > floor));
    }

    /// The correlated variant keeps the calibration (mean and total σ)
    /// while inducing the requested within-ring correlation and ~zero
    /// cross-ring correlation.
    #[test]
    fn ring_correlation_is_induced_without_breaking_calibration() {
        let rho = 0.6;
        let mut w = SorWork::paper_config(210, 9).with_ring_correlation(rho);
        assert_eq!(w.ring_correlation(), rho);
        let iters = 4000;
        let p = 56usize;
        // track two in-ring procs (3, 17) and one cross-ring pair (3, 40)
        let mut a = Vec::with_capacity(iters);
        let mut b = Vec::with_capacity(iters);
        let mut c = Vec::with_capacity(iters);
        let mut all = Vec::with_capacity(iters * p);
        let mut buf = vec![0.0; p];
        for e in 0..iters {
            w.sample_episode(e as u32, &mut buf);
            a.push(buf[3]);
            b.push(buf[17]);
            c.push(buf[40]);
            all.extend_from_slice(&buf);
        }
        let within = stats::pearson(&a, &b);
        let cross = stats::pearson(&a, &c);
        assert!(
            (within - rho).abs() < 0.06,
            "within-ring corr {within} vs {rho}"
        );
        assert!(cross.abs() < 0.06, "cross-ring corr {cross}");
        let sd = stats::std_dev(&all);
        assert!(
            ((sd - w.analytic_sigma_us()) / w.analytic_sigma_us()).abs() < 0.05,
            "total σ {sd} vs {}",
            w.analytic_sigma_us()
        );
        let mean = stats::mean(&all);
        assert!(((mean - w.analytic_mean_us()) / w.analytic_mean_us()).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "correlation must be in")]
    fn correlation_of_one_rejected() {
        let _ = SorWork::paper_config(210, 0).with_ring_correlation(1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dy_rejected() {
        let _ = SorWork::paper_config(0, 0);
    }
}
