//! RNG-driven work models: how processor work times fluctuate.
//!
//! The paper distinguishes (Section 1) **non-deterministic** imbalance
//! (the slow processor changes every iteration), **systemic** imbalance
//! (the same processors are always slow, e.g. uneven partitioning) and
//! **evolving** imbalance (the workload drifts slowly). All three are
//! modelled here, plus heavier-tailed alternatives used by the
//! distribution-shape ablation.
//!
//! A [`Workload`] owns its RNG stream and draws **sequentially**: each
//! [`WorkSource::sample_episode`] call continues the stream in call
//! order and ignores the episode index, so the simulator's episode
//! loops reproduce one seeded run exactly. The pure, episode-keyed
//! counterpart is [`crate::WorkModel`].

use crate::WorkSource;
use combar_rng::{Distribution, Exponential, Normal, Pareto, Rng, SeedableRng, Xoshiro256pp};

/// Per-iteration work-time generator for `p` processors, drawing from
/// its own `Xoshiro256pp` stream.
#[derive(Debug, Clone)]
pub struct Workload {
    mean_us: f64,
    kind: Kind,
    rng: Xoshiro256pp,
}

#[derive(Debug, Clone)]
enum Kind {
    /// Independent `N(mean, σ²)` every iteration for every processor.
    IidNormal { sigma_us: f64 },
    /// Fixed per-processor bias plus i.i.d. noise:
    /// `mean + bias_i + N(0, σ_n²)`.
    Systemic { noise_sigma_us: f64, bias: Vec<f64> },
    /// Per-processor bias performing a random walk with step `σ_w`,
    /// plus i.i.d. noise.
    Evolving {
        noise_sigma_us: f64,
        walk_sigma_us: f64,
        bias: Vec<f64>,
    },
    /// `mean + (Exp(1/σ) − σ)`: exponential right tail, mean `mean`,
    /// standard deviation `σ`.
    IidExponential { sigma_us: f64 },
    /// `mean − m(α,s) + Pareto(s, α)`: power-law right tail with the
    /// requested mean.
    IidPareto { scale_us: f64, shape: f64 },
}

impl Workload {
    fn new(mean_us: f64, kind: Kind, seed: u64) -> Self {
        Self {
            mean_us,
            kind,
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// I.i.d. normal work times `N(mean, σ²)` — the paper's main model.
    pub fn iid_normal(mean_us: f64, sigma_us: f64, seed: u64) -> Self {
        assert!(sigma_us >= 0.0, "sigma must be non-negative");
        Self::new(mean_us, Kind::IidNormal { sigma_us }, seed)
    }

    /// Systemic imbalance: biases drawn once from `N(0, σ_b²)` out of
    /// `bias_rng` (a stream apart from the one `seed` starts), then
    /// every iteration adds fresh `N(0, σ_n²)` noise.
    pub fn systemic<R: Rng>(
        p: usize,
        mean_us: f64,
        bias_sigma_us: f64,
        noise_sigma_us: f64,
        bias_rng: &mut R,
        seed: u64,
    ) -> Self {
        let normal = Normal::new(0.0, bias_sigma_us).expect("valid bias sigma");
        let bias = normal.sample_vec(bias_rng, p);
        Self::new(
            mean_us,
            Kind::Systemic {
                noise_sigma_us,
                bias,
            },
            seed,
        )
    }

    /// Evolving imbalance: biases start at 0 and random-walk with step
    /// `σ_w` each iteration, plus `N(0, σ_n²)` noise.
    pub fn evolving(
        p: usize,
        mean_us: f64,
        walk_sigma_us: f64,
        noise_sigma_us: f64,
        seed: u64,
    ) -> Self {
        let kind = Kind::Evolving {
            noise_sigma_us,
            walk_sigma_us,
            bias: vec![0.0; p],
        };
        Self::new(mean_us, kind, seed)
    }

    /// Exponential-tailed work times with the given mean and standard
    /// deviation σ.
    pub fn iid_exponential(mean_us: f64, sigma_us: f64, seed: u64) -> Self {
        assert!(sigma_us > 0.0, "sigma must be positive");
        Self::new(mean_us, Kind::IidExponential { sigma_us }, seed)
    }

    /// Pareto-tailed work times: `shape > 2` keeps the variance finite.
    pub fn iid_pareto(mean_us: f64, scale_us: f64, shape: f64, seed: u64) -> Self {
        assert!(
            scale_us > 0.0 && shape > 1.0,
            "need scale > 0 and shape > 1"
        );
        Self::new(mean_us, Kind::IidPareto { scale_us, shape }, seed)
    }
}

impl WorkSource for Workload {
    fn mean_us(&self) -> f64 {
        self.mean_us
    }

    /// Draws the next iteration's work times into `out` (clamped at 0:
    /// a processor cannot take negative time).
    fn sample_episode(&mut self, _episode: u32, out: &mut [f64]) {
        let rng = &mut self.rng;
        match &mut self.kind {
            Kind::IidNormal { sigma_us } => {
                let normal = Normal::new(self.mean_us, *sigma_us).expect("valid sigma");
                for w in out.iter_mut() {
                    *w = normal.sample(rng).max(0.0);
                }
            }
            Kind::Systemic {
                noise_sigma_us,
                bias,
            } => {
                assert_eq!(out.len(), bias.len(), "processor count mismatch");
                let noise = Normal::new(0.0, *noise_sigma_us).expect("valid sigma");
                for (w, &b) in out.iter_mut().zip(bias.iter()) {
                    *w = (self.mean_us + b + noise.sample(rng)).max(0.0);
                }
            }
            Kind::Evolving {
                noise_sigma_us,
                walk_sigma_us,
                bias,
            } => {
                assert_eq!(out.len(), bias.len(), "processor count mismatch");
                let step = Normal::new(0.0, *walk_sigma_us).expect("valid sigma");
                let noise = Normal::new(0.0, *noise_sigma_us).expect("valid sigma");
                for (w, b) in out.iter_mut().zip(bias.iter_mut()) {
                    *b += step.sample(rng);
                    *w = (self.mean_us + *b + noise.sample(rng)).max(0.0);
                }
            }
            Kind::IidExponential { sigma_us } => {
                let exp = Exponential::with_mean(*sigma_us).expect("valid sigma");
                let base = self.mean_us - *sigma_us;
                for w in out.iter_mut() {
                    *w = (base + exp.sample(rng)).max(0.0);
                }
            }
            Kind::IidPareto { scale_us, shape } => {
                let par = Pareto::new(*scale_us, *shape).expect("valid parameters");
                let base = self.mean_us - par.mean();
                for w in out.iter_mut() {
                    *w = (base + par.sample(rng)).max(0.0);
                }
            }
        }
    }
}

/// Draws arrival *offsets* for a single episode: `N(0, σ²)` shifted so
/// the earliest arrival is at time 0 (synchronization delay is
/// shift-invariant, and the simulator requires non-negative times).
pub fn normal_arrivals<R: Rng>(p: usize, sigma_us: f64, rng: &mut R) -> Vec<f64> {
    if sigma_us == 0.0 {
        return vec![0.0; p];
    }
    let normal = Normal::new(0.0, sigma_us).expect("valid sigma");
    let mut v = normal.sample_vec(rng, p);
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    for x in &mut v {
        *x -= min;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use combar_rng::stats;

    #[test]
    fn iid_normal_moments() {
        let mut w = Workload::iid_normal(1000.0, 50.0, 1);
        let mut buf = vec![0.0; 10_000];
        w.sample_episode(0, &mut buf);
        assert!((stats::mean(&buf) - 1000.0).abs() < 3.0);
        assert!((stats::std_dev(&buf) - 50.0).abs() < 3.0);
    }

    #[test]
    fn systemic_biases_persist_across_iterations() {
        let p = 64;
        let mut bias_rng = Xoshiro256pp::seed_from_u64(2);
        let mut w = Workload::systemic(p, 1000.0, 100.0, 1.0, &mut bias_rng, 2);
        let mut a = vec![0.0; p];
        let mut b = vec![0.0; p];
        w.sample_episode(0, &mut a);
        w.sample_episode(1, &mut b);
        // With tiny noise, iteration-to-iteration correlation is ~1.
        let corr = stats::pearson(&a, &b);
        assert!(corr > 0.99, "systemic correlation = {corr}");
    }

    #[test]
    fn iid_draws_are_uncorrelated() {
        let p = 2000;
        let mut w = Workload::iid_normal(1000.0, 100.0, 3);
        let mut a = vec![0.0; p];
        let mut b = vec![0.0; p];
        w.sample_episode(0, &mut a);
        w.sample_episode(1, &mut b);
        let corr = stats::pearson(&a, &b);
        assert!(corr.abs() < 0.08, "iid correlation = {corr}");
    }

    #[test]
    fn evolving_bias_drifts() {
        let p = 16;
        let mut w = Workload::evolving(p, 1000.0, 10.0, 0.1, 4);
        let mut first = vec![0.0; p];
        w.sample_episode(0, &mut first);
        let mut last = vec![0.0; p];
        for e in 1..=200 {
            w.sample_episode(e, &mut last);
        }
        // After 200 random-walk steps the spread grows ~ 10·√200 ≈ 141.
        let spread = stats::std_dev(&last);
        assert!(spread > 50.0, "evolving spread = {spread}");
    }

    #[test]
    fn exponential_and_pareto_match_requested_mean() {
        let mut buf = vec![0.0; 50_000];
        let mut we = Workload::iid_exponential(1000.0, 100.0, 5);
        we.sample_episode(0, &mut buf);
        assert!((stats::mean(&buf) - 1000.0).abs() < 3.0);
        let mut wp = Workload::iid_pareto(1000.0, 50.0, 3.0, 5);
        wp.sample_episode(0, &mut buf);
        assert!((stats::mean(&buf) - 1000.0).abs() < 3.0);
    }

    #[test]
    fn work_times_never_negative() {
        let mut w = Workload::iid_normal(10.0, 1000.0, 6); // mostly negative draws
        let mut buf = vec![0.0; 1000];
        w.sample_episode(0, &mut buf);
        assert!(buf.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_arrivals_are_shifted_to_zero_min() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let v = normal_arrivals(100, 250.0, &mut rng);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(min, 0.0);
        assert!(v.iter().all(|&x| x >= 0.0));
        let spread = stats::std_dev(&v);
        assert!((spread - 250.0).abs() < 60.0, "spread = {spread}");
    }

    #[test]
    fn zero_sigma_arrivals_are_simultaneous() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let v = normal_arrivals(32, 0.0, &mut rng);
        assert!(v.iter().all(|&x| x == 0.0));
    }
}
