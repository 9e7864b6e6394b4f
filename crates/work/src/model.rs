//! Pure seeded work schedules: every draw is a hash, never RNG state.
//!
//! The sampling style comes from the async load harness (PR 7): a
//! `splitmix64` finalizer keyed by `(seed, stream, tid, episode)`
//! yields uniforms, an Irwin–Hall sum of four approximates a normal,
//! and inverse CDFs produce the heavier tails. Because a draw depends
//! only on its key, two evaluation orders — or two thread counts —
//! produce byte-identical schedules, and a single participant's work
//! can be queried point-wise ([`WorkModel::work_us`]) from a real
//! thread or an async task without touching any shared state.

use crate::WorkSource;

/// `splitmix64`-style finalizer: the hash behind every schedule here.
/// (Moved from the async load harness; its output is pinned by the
/// frozen-seed equivalence test in `combar_rt::load`.)
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Advances `h` and returns a uniform in `[0, 1)` from its 53 high
/// bits.
#[inline]
fn u01(h: &mut u64) -> f64 {
    *h = mix(*h);
    (*h >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard-normal-ish draw: Irwin–Hall sum of four uniforms (mean 2,
/// variance ⅓), standardized by `√3`. Matches [`work_iters`] exactly.
#[inline]
fn std_normal(h: &mut u64) -> f64 {
    let mut s = 0.0_f64;
    for _ in 0..4 {
        s += u01(h);
    }
    (s - 2.0) * 1.732_050_807_568_877_2 // √3
}

/// The deterministic per-(participant, epoch) work draw of the async
/// runtime: approximately normal, scaled to `mean · (1 + sigma · z)`
/// and clamped at zero. Pure in `(seed, tid, epoch)` — the
/// `COMBAR_THREADS` determinism diff depends on that, and
/// `combar_rt::load`'s frozen-seed test pins the exact outputs.
pub fn work_iters(seed: u64, tid: u32, epoch: u32, mean: u32, sigma: f64) -> u32 {
    if mean == 0 {
        return 0;
    }
    let mut h = mix(seed ^ (u64::from(tid) << 32) ^ u64::from(epoch));
    let z = std_normal(&mut h);
    (f64::from(mean) * (1.0 + sigma * z)).max(0.0) as u32
}

/// Burns `iters` iterations of un-optimizable integer work.
#[inline]
pub fn busy_work(iters: u32) {
    let mut acc = 0u64;
    for i in 0..u64::from(iters) {
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        std::hint::black_box(acc);
    }
}

/// Distinct hash streams so a model's noise, bias and walk draws never
/// collide for the same `(tid, episode)` key.
mod stream {
    pub const NOISE: u64 = 0x6e6f_6973_6500;
    pub const BIAS: u64 = 0x6269_6173_0000;
    pub const WALK: u64 = 0x7761_6c6b_0000;
}

/// Per-key hash state for stream `s`, participant `tid`, episode `e`.
#[inline]
fn keyed(seed: u64, s: u64, tid: u32, episode: u32) -> u64 {
    mix(seed ^ s ^ (u64::from(tid) << 32) ^ u64::from(episode))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelKind {
    /// Every participant takes exactly the mean, every episode.
    Uniform,
    /// Independent `N(mean, σ²)` per (participant, episode).
    IidNormal { sigma_us: f64 },
    /// Fixed per-participant bias `N(0, σ_b²)` (keyed by tid alone)
    /// plus fresh `N(0, σ_n²)` noise.
    Systemic {
        bias_sigma_us: f64,
        noise_sigma_us: f64,
    },
    /// Per-participant bias performing a keyed random walk with step
    /// `σ_w` per episode, plus fresh noise.
    Evolving {
        walk_sigma_us: f64,
        noise_sigma_us: f64,
    },
    /// `mean + (Exp(1/σ) − σ)`: exponential right tail, mean `mean`,
    /// standard deviation `σ`.
    IidExponential { sigma_us: f64 },
    /// `mean − m(α,s) + Pareto(s, α)`: power-law right tail with the
    /// requested mean (`m(α,s) = s·α/(α−1)`).
    IidPareto { scale_us: f64, shape: f64 },
}

/// A pure seeded work schedule for `p` participants.
///
/// Mirrors the distribution family of `combar_sim::Workload`
/// (the paper's Section 1 imbalance taxonomy: non-deterministic,
/// systemic, evolving, plus the heavy-tailed ablation shapes) but with
/// hash-derived draws instead of a threaded RNG, so it implements the
/// dyn-compatible [`WorkSource`] *and* supports point queries from
/// concurrent harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkModel {
    seed: u64,
    p: u32,
    mean_us: f64,
    kind: ModelKind,
}

impl WorkModel {
    fn new(p: u32, seed: u64, mean_us: f64, kind: ModelKind) -> Self {
        assert!(p > 0, "need at least one participant");
        assert!(mean_us >= 0.0, "mean must be non-negative");
        Self {
            seed,
            p,
            mean_us,
            kind,
        }
    }

    /// Constant work: every participant takes `mean_us`, always.
    pub fn uniform(p: u32, seed: u64, mean_us: f64) -> Self {
        Self::new(p, seed, mean_us, ModelKind::Uniform)
    }

    /// I.i.d. normal work times `N(mean, σ²)` — the paper's main
    /// model.
    pub fn iid_normal(p: u32, seed: u64, mean_us: f64, sigma_us: f64) -> Self {
        assert!(sigma_us >= 0.0, "sigma must be non-negative");
        Self::new(p, seed, mean_us, ModelKind::IidNormal { sigma_us })
    }

    /// Systemic imbalance: a fixed per-participant bias drawn from
    /// `N(0, σ_b²)` (a pure function of `(seed, tid)`), plus fresh
    /// `N(0, σ_n²)` noise per episode.
    pub fn systemic(
        p: u32,
        seed: u64,
        mean_us: f64,
        bias_sigma_us: f64,
        noise_sigma_us: f64,
    ) -> Self {
        assert!(
            bias_sigma_us >= 0.0 && noise_sigma_us >= 0.0,
            "sigmas must be non-negative"
        );
        Self::new(
            p,
            seed,
            mean_us,
            ModelKind::Systemic {
                bias_sigma_us,
                noise_sigma_us,
            },
        )
    }

    /// Evolving imbalance: biases start at 0 and random-walk with step
    /// `σ_w` per episode (the walk steps are keyed draws, so the bias
    /// at episode `e` is a pure prefix sum), plus fresh noise.
    pub fn evolving(
        p: u32,
        seed: u64,
        mean_us: f64,
        walk_sigma_us: f64,
        noise_sigma_us: f64,
    ) -> Self {
        assert!(
            walk_sigma_us >= 0.0 && noise_sigma_us >= 0.0,
            "sigmas must be non-negative"
        );
        Self::new(
            p,
            seed,
            mean_us,
            ModelKind::Evolving {
                walk_sigma_us,
                noise_sigma_us,
            },
        )
    }

    /// Exponential-tailed work times with the given mean and standard
    /// deviation σ.
    pub fn iid_exponential(p: u32, seed: u64, mean_us: f64, sigma_us: f64) -> Self {
        assert!(sigma_us > 0.0, "sigma must be positive");
        Self::new(p, seed, mean_us, ModelKind::IidExponential { sigma_us })
    }

    /// Pareto-tailed work times: `shape > 2` keeps the variance
    /// finite.
    pub fn iid_pareto(p: u32, seed: u64, mean_us: f64, scale_us: f64, shape: f64) -> Self {
        assert!(
            scale_us > 0.0 && shape > 1.0,
            "need scale > 0 and shape > 1"
        );
        Self::new(p, seed, mean_us, ModelKind::IidPareto { scale_us, shape })
    }

    /// The participant count the schedule was built for.
    pub fn participants(&self) -> u32 {
        self.p
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The persistent bias component (µs) of participant `tid` at
    /// `episode`: the systemic offset or the evolving walk position;
    /// zero for the i.i.d. kinds. Exposed so tests and the balance
    /// controller can compare against ground truth.
    pub fn bias_us(&self, episode: u32, tid: u32) -> f64 {
        match self.kind {
            ModelKind::Systemic { bias_sigma_us, .. } => {
                let mut h = keyed(self.seed, stream::BIAS, tid, 0);
                bias_sigma_us * std_normal(&mut h)
            }
            ModelKind::Evolving { walk_sigma_us, .. } => {
                let mut b = 0.0;
                for k in 0..=episode {
                    let mut h = keyed(self.seed, stream::WALK, tid, k);
                    b += walk_sigma_us * std_normal(&mut h);
                }
                b
            }
            _ => 0.0,
        }
    }

    /// The work time (µs) of participant `tid` in `episode` — a pure
    /// function of `(seed, episode, tid)`, clamped at 0. This is the
    /// point-query twin of [`WorkSource::sample_episode`], usable from
    /// any thread without synchronization.
    pub fn work_us(&self, episode: u32, tid: u32) -> f64 {
        debug_assert!(tid < self.p, "tid {tid} out of {}", self.p);
        let w = match self.kind {
            ModelKind::Uniform => self.mean_us,
            ModelKind::IidNormal { sigma_us } => {
                let mut h = keyed(self.seed, stream::NOISE, tid, episode);
                self.mean_us + sigma_us * std_normal(&mut h)
            }
            ModelKind::Systemic { noise_sigma_us, .. } => {
                let mut h = keyed(self.seed, stream::NOISE, tid, episode);
                self.mean_us + self.bias_us(episode, tid) + noise_sigma_us * std_normal(&mut h)
            }
            ModelKind::Evolving { noise_sigma_us, .. } => {
                let mut h = keyed(self.seed, stream::NOISE, tid, episode);
                self.mean_us + self.bias_us(episode, tid) + noise_sigma_us * std_normal(&mut h)
            }
            ModelKind::IidExponential { sigma_us } => {
                let mut h = keyed(self.seed, stream::NOISE, tid, episode);
                let u = u01(&mut h);
                self.mean_us - sigma_us + sigma_us * -(1.0 - u).ln()
            }
            ModelKind::IidPareto { scale_us, shape } => {
                let mut h = keyed(self.seed, stream::NOISE, tid, episode);
                let u = u01(&mut h);
                let pareto_mean = scale_us * shape / (shape - 1.0);
                self.mean_us - pareto_mean + scale_us * (1.0 - u).powf(-1.0 / shape)
            }
        };
        w.max(0.0)
    }

    /// The busy-work iteration count of `(tid, episode)` for real
    /// harnesses: `work_us` quantized at `iters_per_us` iterations per
    /// microsecond.
    pub fn work_iters(&self, episode: u32, tid: u32, iters_per_us: f64) -> u32 {
        (self.work_us(episode, tid) * iters_per_us).max(0.0) as u32
    }
}

impl WorkSource for WorkModel {
    fn mean_us(&self) -> f64 {
        self.mean_us
    }

    fn sample_episode(&mut self, episode: u32, out: &mut [f64]) {
        assert_eq!(out.len(), self.p as usize, "participant count mismatch");
        for (tid, w) in out.iter_mut().enumerate() {
            *w = self.work_us(episode, tid as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(model: &WorkModel, episodes: u32) -> f64 {
        let mut total = 0.0;
        let mut n = 0u64;
        for e in 0..episodes {
            for t in 0..model.participants() {
                total += model.work_us(e, t);
                n += 1;
            }
        }
        total / n as f64
    }

    /// Satellite coverage: the exponential kind preserves the
    /// requested mean (seeded sample-mean tolerance).
    #[test]
    fn iid_exponential_preserves_requested_mean() {
        let m = WorkModel::iid_exponential(512, 0xE4_90, 1000.0, 100.0);
        let mean = sample_mean(&m, 100);
        assert!((mean - 1000.0).abs() < 3.0, "mean = {mean}");
    }

    /// Satellite coverage: the Pareto kind preserves the requested
    /// mean despite its power-law tail.
    #[test]
    fn iid_pareto_preserves_requested_mean() {
        let m = WorkModel::iid_pareto(512, 0x9a2e, 1000.0, 50.0, 3.0);
        let mean = sample_mean(&m, 200);
        assert!((mean - 1000.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn normal_and_systemic_preserve_mean_too() {
        let n = WorkModel::iid_normal(512, 1, 1000.0, 100.0);
        assert!((sample_mean(&n, 100) - 1000.0).abs() < 3.0);
        let s = WorkModel::systemic(512, 2, 1000.0, 100.0, 10.0);
        assert!((sample_mean(&s, 100) - 1000.0).abs() < 6.0);
    }

    #[test]
    fn draws_are_pure_and_order_free() {
        let m = WorkModel::iid_normal(64, 9, 500.0, 50.0);
        let forward: Vec<f64> = (0..64).map(|t| m.work_us(3, t)).collect();
        let backward: Vec<f64> = (0..64).rev().map(|t| m.work_us(3, t)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "a draw depends only on its key"
        );
        let mut buf = vec![0.0; 64];
        let mut bulk = m.clone();
        bulk.sample_episode(3, &mut buf);
        assert_eq!(buf, forward, "bulk and point sampling agree");
    }

    #[test]
    fn systemic_bias_is_fixed_and_evolving_bias_walks() {
        let s = WorkModel::systemic(32, 5, 1000.0, 200.0, 1.0);
        for t in 0..32 {
            assert_eq!(s.bias_us(0, t), s.bias_us(50, t), "systemic bias is fixed");
        }
        let e = WorkModel::evolving(32, 5, 1000.0, 20.0, 1.0);
        let spread_at = |ep: u32| {
            let biases: Vec<f64> = (0..32).map(|t| e.bias_us(ep, t)).collect();
            let m = biases.iter().sum::<f64>() / 32.0;
            (biases.iter().map(|b| (b - m).powi(2)).sum::<f64>() / 32.0).sqrt()
        };
        assert!(
            spread_at(150) > spread_at(2) * 2.0,
            "walk spread grows: {} vs {}",
            spread_at(150),
            spread_at(2)
        );
    }

    #[test]
    fn uniform_is_exactly_the_mean_and_work_never_negative() {
        let u = WorkModel::uniform(8, 0, 250.0);
        assert!((0..8).all(|t| u.work_us(7, t) == 250.0));
        let wild = WorkModel::iid_normal(128, 3, 10.0, 1000.0);
        for e in 0..20 {
            for t in 0..128 {
                assert!(wild.work_us(e, t) >= 0.0);
            }
        }
    }

    #[test]
    fn work_iters_matches_frozen_async_schedule() {
        // Reference values recorded from the pre-refactor async
        // harness implementation; the full equivalence test lives
        // next to that harness (`combar_rt::load`).
        assert_eq!(work_iters(0xa57c_10ad, 0, 0, 32, 0.5), 24);
        assert_eq!(work_iters(0xa57c_10ad, 1, 0, 32, 0.5), 41);
        assert_eq!(work_iters(7, 3, 5, 1000, 0.5), 1976);
    }
}
