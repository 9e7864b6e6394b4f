//! Figure 6's mechanism, rendered: a small owner tree as Graphviz DOT
//! before and after a systemically slow set of processors migrates
//! toward the root. Not part of `all` — the output is a drawing, not a
//! table.

use crate::experiments::Rendered;
use combar::combar_des::Duration;
use combar::combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{apply_dynamic_swaps, run_episode, Placement, Topology, WorkSource, Workload};

/// The `dot` experiment; it has one size.
pub fn rendered(_quick: bool) -> Rendered {
    const P: usize = 16;
    const ITERATIONS: u32 = 30;
    let tc = Duration::from_us(20.0);
    let slack_us = 4_000.0;

    let topo = Topology::mcs(P as u32, 2);
    let before = format!("// initial placement\n{}", topo.to_dot(None));
    let mut seed_rng = Xoshiro256pp::seed_from_u64(2);
    let mut w = Workload::systemic(P, 9_500.0, 300.0, 20.0, &mut seed_rng, 1);
    // The fuzzy-barrier iteration loop, kept here so the converged
    // placement stays in hand for the second drawing.
    let mut placement = Placement::initial(&topo);
    let mut begin = [0.0f64; P];
    let mut works = vec![0.0f64; P];
    for e in 0..ITERATIONS {
        w.sample_episode(e, &mut works);
        let arrivals: Vec<f64> = begin.iter().zip(&works).map(|(b, w)| b + w).collect();
        let homes = placement.homes().to_vec();
        let r = run_episode(&topo, &homes, &arrivals, tc);
        apply_dynamic_swaps(&topo, &mut placement, &r.winners);
        for (b, done) in begin.iter_mut().zip(&r.signal_done_us) {
            *b = (done + slack_us).max(r.release_us);
        }
    }
    Rendered::text(format!(
        "{}\n// after {ITERATIONS} iterations with a systemic slow set\n{}\n",
        before,
        topo.to_dot(Some(&placement))
    ))
}
