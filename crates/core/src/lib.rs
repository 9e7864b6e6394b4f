//! # combar — software barriers under load imbalance
//!
//! A full reproduction of *“Impact of Load Imbalance on the Design of
//! Software Barriers”* (Eichenberger & Abraham, ICPP 1995) as a Rust
//! library:
//!
//! * [`model`] — the paper's analytic model (Equations 1–8,
//!   Algorithm 1): estimate the synchronization delay of a combining
//!   tree of any full degree under normally distributed arrivals, and
//!   pick the optimal degree, which grows from 4 toward `p` as the
//!   imbalance σ/t_c grows;
//! * [`model_topo`] — Algorithm 1 generalized to arbitrary (partial,
//!   MCS, ring) trees directly from a [`combar_topo::Topology`],
//!   filling the full-tree-only gaps the paper leaves (e.g. Figure 2's
//!   missing degree-32 estimate);
//! * [`policy`] — the model packaged as a compiler/runtime degree
//!   advisor, including a policy for the adaptive barrier;
//! * [`presets`] — the exact parameter grids behind every figure and
//!   table, shared by the benches, tests and the `experiments` binary;
//! * [`paper`] — the paper's reported numbers as data, with
//!   shape-comparison helpers so tests check against the source
//!   programmatically;
//! * re-exported substrates: [`combar_sim`] (event-driven simulator),
//!   [`combar_rt`] (threaded barriers), [`combar_machine`] (KSR1
//!   model + SOR), [`combar_topo`], [`combar_des`], [`combar_rng`].
//!
//! ## Quickstart
//!
//! ```
//! use combar::prelude::*;
//!
//! // A compiler knows p = 256 processors, t_c = 20 µs, and measured
//! // σ = 250 µs of arrival spread. What degree should the barrier use?
//! let model = BarrierModel::new(256, 250.0, 20.0).unwrap();
//! let best = model.estimate_optimal_degree();
//! assert!(best.degree > 4); // degree four is NOT optimal under imbalance
//!
//! // Check the estimate against the event-driven simulator:
//! let cfg = SweepConfig { sigma_us: 250.0, reps: 10, ..SweepConfig::default() };
//! let swept = sweep_degrees(256, &full_tree_degrees(256), &cfg);
//! let simulated = optimal_degree(&swept);
//! assert!(simulated.degree >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod model_topo;
pub mod paper;
pub mod policy;
pub mod presets;

pub use model::{BarrierModel, LastArrival, ModelError, ModelEstimate, SubsetTerm};
pub use model_topo::{estimate_optimal_degree_any, sync_delay_for_topology, TopoEstimate};
pub use policy::{model_policy, DegreeAdvisor};

// Substrates, re-exported for single-dependency consumers.
pub use combar_des;
pub use combar_machine;
pub use combar_rng;
pub use combar_rt;
pub use combar_sim;
pub use combar_topo;

/// Convenience imports for typical use.
pub mod prelude {
    pub use crate::model::{BarrierModel, LastArrival, ModelEstimate};
    pub use crate::policy::{model_policy, DegreeAdvisor};
    pub use crate::presets;
    pub use combar_des::{Duration, SimTime};
    pub use combar_machine::{ring_topology, Grid, KsrParams, SorWork};
    pub use combar_rng::{Distribution, Normal, Rng, SeedableRng, Xoshiro256pp};
    pub use combar_rt::{
        AdaptiveBarrier, AnyBarrier, AnyWaiter, BarrierBuilder, BarrierKind, CentralBarrier,
        DisseminationBarrier, DynamicBarrier, FuzzyWaiter, TreeBarrier,
    };
    pub use combar_sim::{
        full_tree_degrees, optimal_degree, run_balance, run_episode, run_iterations, sweep_degrees,
        BalanceConfig, BalanceRegime, Diffuser, IterateConfig, Placement, PlacementMode,
        SweepConfig, Topology, TreeStyle, WorkModel, WorkSource, Workload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// The model's recommendation should track the simulator's optimum
    /// closely enough to matter (the paper: within 7 % in delay).
    #[test]
    fn model_and_simulator_agree_at_zero_sigma() {
        let model = BarrierModel::new(64, 0.0, 20.0).unwrap();
        let est = model.estimate_optimal_degree();
        let cfg = SweepConfig::default();
        let swept = sweep_degrees(64, &full_tree_degrees(64), &cfg);
        let sim = optimal_degree(&swept);
        assert_eq!(est.degree, sim.degree);
        // And the delay itself matches Eq. 1 exactly in this regime.
        assert!((est.sync_delay_us - sim.sync_delay.mean()).abs() < 1e-9);
    }

    #[test]
    fn prelude_exposes_a_working_stack() {
        // model → recommended degree → topology → simulated episode
        let model = BarrierModel::new(64, 500.0, 20.0).unwrap();
        let d = model.estimate_optimal_degree().degree;
        let topo = if d >= 64 {
            Topology::flat(64)
        } else {
            Topology::combining(64, d)
        };
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let arrivals = combar_sim::normal_arrivals(64, 500.0, &mut rng);
        let r = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(20.0));
        assert!(r.sync_delay_us > 0.0);
    }
}
