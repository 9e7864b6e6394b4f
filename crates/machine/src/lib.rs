//! KSR1-like machine substrate for the `combar` study.
//!
//! The paper validates its results on a 56-processor Kendall Square
//! Research KSR1 running SOR relaxation (Section 7). That hardware is
//! long gone; this crate substitutes a calibrated model (see DESIGN.md
//! for the substitution argument):
//!
//! * [`KsrParams`] — the machine constants the paper reports: 56
//!   processors in rings of 32, `t_c = 20 µs`, 16-word cache sub-lines;
//! * [`SorWork`] — the SOR iteration-time model (`4·⌈d_y/16⌉`
//!   communication events with exponential contention jitter),
//!   calibrated to the paper's measured point (d_y = 210 → 9.5 ms
//!   iterations, σ ≈ 110 µs); it is a `combar_work::WorkSource`, so
//!   `combar-sim`'s iteration runner draws from it directly;
//! * [`sor`] — the actual numeric relaxation kernel (double-buffered
//!   four-neighbour averaging), used by the threaded example and tested
//!   against harmonic-function fixed points;
//! * [`ring_topology`] — the ring-constrained barrier tree the paper
//!   uses on the KSR1 (per-ring subtrees merged by one level).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;
pub mod sor;
pub mod work;

pub use params::KsrParams;
pub use sor::Grid;
pub use work::SorWork;

use combar_topo::Topology;

/// Builds the barrier tree the paper uses on the KSR1: one MCS-style
/// subtree of degree `degree` per ring, merged by one extra counter.
pub fn ring_topology(params: &KsrParams, degree: u32) -> Topology {
    Topology::ring_mcs(params.procs, degree, params.ring_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper footnote 5: on the KSR1 a tree degree of 16 gives an
    /// initial depth of three (two ring subtrees + one merge level).
    #[test]
    fn ring_topology_matches_paper_footnote() {
        let k = KsrParams::default();
        let t = ring_topology(&k, 16);
        t.validate().unwrap();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.num_procs(), 56);
    }

    /// End-to-end: the SOR work model drives a barrier iteration run on
    /// the ring topology and produces a sane synchronization delay.
    #[test]
    fn sor_work_drives_barrier_iterations() {
        use combar_sim::{run_iterations, IterateConfig, PlacementMode};

        let k = KsrParams::default();
        let topo = ring_topology(&k, 4);
        let mut work = SorWork::paper_config(210, 1);
        let cfg = IterateConfig {
            iterations: 50,
            warmup: 5,
            mode: PlacementMode::Static,
            ..IterateConfig::default()
        };
        let rep = run_iterations(&topo, &cfg, &mut work);
        // Sync delay is at least depth·t_c and well below one iteration.
        assert!(rep.sync_delay.mean() >= topo.depth() as f64 * 20.0 - 1e-9);
        assert!(rep.sync_delay.mean() < 9500.0);
    }
}
