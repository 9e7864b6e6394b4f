//! The `scale` experiment: the paper's production questions at
//! p ∈ {2¹⁴ … 2²⁰}.
//!
//! The paper's grids stop at 4096 processors. This experiment re-asks
//! its two central questions — *what is the optimal tree degree?* and
//! *what does dynamic placement buy?* — at up to a million
//! participants, under the workload model of Walker & Fidler's
//! barrier-mode queueing analysis (arXiv 2512.14445): heavy-tailed
//! Pareto work times (real stragglers: tail index α < 2, infinite
//! variance) with **first-completion redundancy** — each task launched
//! as k independent copies, the barrier proceeding on the earliest
//! finisher, modeled by [`combar_sim::Redundant`]'s elementwise-min
//! transform.
//!
//! The two questions probe two different imbalance regimes, so each
//! (p, k) cell runs two workloads off the same cell seed:
//!
//! * **degree sweep** — i.i.d. redundant Pareto. With ~10⁶ fresh
//!   heavy-tail draws the lone straggler dwarfs any contention, sync
//!   delay collapses to `⌈log_d p⌉·t_c`, and the widest tree wins —
//!   while redundancy is what actually shortens the epoch (the
//!   `epoch @4` column: mean barrier-completion time at the reference
//!   degree falls as k trims the tail);
//! * **placement loop** — the paper's *systemic* regime (a fixed
//!   per-processor bias plus redundant per-episode normal noise).
//!   Lateness persists, so the victor/victim protocol hoists the
//!   biased straggler toward the root and dynamic placement beats
//!   static — at 256× the paper's processor count.
//!
//! Each degree-sweep rep validates and sorts its arrival vector once,
//! as one [`combar_sim::Arrivals`] shared by every candidate degree,
//! and each candidate tree is planned once per cell, as one
//! [`combar_sim::EpisodePlan`] shared by every rep.
//!
//! Determinism: each (p, k) cell derives everything from
//! `seeds::scale(p, k)`; cells run as one `combar-exec` sweep and the
//! output is byte-identical at any `COMBAR_THREADS` (covered by the
//! CI determinism diff and `exec_determinism.rs`).

use crate::experiments::seeds;
use crate::table::{fmt_ratio, fmt_us, Table};
use combar::presets::{Scale, TC_US};
use combar_des::Duration;
use combar_exec::Sweep;
use combar_sim::{
    apply_dynamic_swaps, build_tree, run_episode, Arrivals, EpisodePlan, EpisodeScratch, Placement,
    Redundant, Topology, TreeStyle, WorkModel, WorkSource,
};

/// Mean synchronization delay of one candidate degree in a cell.
#[derive(Debug, Clone)]
pub struct DegreeRow {
    /// The tree degree simulated.
    pub degree: u32,
    /// Mean sync delay over the cell's replications (µs).
    pub mean_sync_us: f64,
}

/// One (p, k) cell: optimal-degree sweep plus the static-vs-dynamic
/// placement loop, all on identical redundant-Pareto work streams.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Processor count.
    pub p: u32,
    /// Redundancy degree (copies per task).
    pub k: u32,
    /// Observed mean work time after the min-of-k transform (µs).
    pub realized_mean_us: f64,
    /// Per-degree results, in preset degree order.
    pub degrees: Vec<DegreeRow>,
    /// The winning degree (ties break toward the wider tree, as in
    /// `combar_sim::optimal_degree`).
    pub opt_degree: u32,
    /// Mean sync delay at the winning degree (µs).
    pub opt_sync_us: f64,
    /// Mean sync delay at degree 4, the paper's reference (µs).
    pub sync_at4_us: f64,
    /// Mean barrier-completion (release) time at degree 4 (µs) — the
    /// quantity redundancy improves: the epoch ends when the slowest
    /// first-finisher arrives.
    pub release_at4_us: f64,
    /// Mean sync delay of the static-placement loop at degree 4 (µs).
    pub static_sync_us: f64,
    /// Mean sync delay of the dynamic-placement loop at degree 4 (µs).
    pub dynamic_sync_us: f64,
    /// Victor/victim swaps the dynamic loop applied.
    pub swaps: u64,
}

/// Everything the scale experiment produces.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// The preset that shaped the run.
    pub preset: Scale,
    /// All cells, (p, k) row-major in preset order.
    pub cells: Vec<Cell>,
}

/// Builds the redundant-Pareto work source for one (p, k) cell:
/// replica `r` is an independently seeded Pareto stream split off the
/// cell seed, so the composite is a pure function of `(p, k)`.
pub fn source(preset: &Scale, p: u32, k: u32) -> Redundant<WorkModel> {
    let seed = seeds::scale(p, k);
    Redundant::new(
        (0..k as u64)
            .map(|r| {
                WorkModel::iid_pareto(
                    p,
                    seed ^ (r.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    preset.mean_us,
                    preset.pareto_scale_us,
                    preset.pareto_shape,
                )
            })
            .collect(),
    )
}

/// Candidate degrees for `p`, capped at `p` and deduplicated (a cap
/// can collide with an existing candidate at small `p`).
fn degrees_for(preset: &Scale, p: u32) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for &d in &preset.degrees {
        let d = d.min(p);
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

fn run_cell(preset: &Scale, p: u32, k: u32) -> Cell {
    let tc = Duration::from_us(TC_US);
    let mut src = source(preset, p, k);
    let mut works = vec![0.0f64; p as usize];

    // Optimal-degree sweep: common random numbers across degrees
    // (every degree sees the same arrival vector per rep), the
    // paper's own pairing trick at 256× its scale.
    let degrees = degrees_for(preset, p);
    let topos: Vec<Topology> = degrees
        .iter()
        .map(|&d| build_tree(TreeStyle::Combining, p, d))
        .collect();
    let plans: Vec<EpisodePlan> = topos
        .iter()
        .map(|topo| EpisodePlan::new(topo, topo.homes()))
        .collect();
    let mut scratch = EpisodeScratch::default();
    let d4 = degrees
        .iter()
        .position(|&d| d == 4.min(p))
        .unwrap_or_default();
    let mut sums = vec![0.0f64; degrees.len()];
    let mut release_at4_sum = 0.0f64;
    let mut realized_sum = 0.0f64;
    for rep in 0..preset.reps {
        src.sample_episode(rep as u32, &mut works);
        realized_sum += works.iter().sum::<f64>() / p as f64;
        let arrivals = Arrivals::new(&works);
        for (i, plan) in plans.iter().enumerate() {
            let r = plan.run(&arrivals, tc, &mut scratch);
            sums[i] += r.sync_delay_us;
            if i == d4 {
                release_at4_sum += r.release_us;
            }
        }
    }
    let rows: Vec<DegreeRow> = degrees
        .iter()
        .zip(&sums)
        .map(|(&degree, &s)| DegreeRow {
            degree,
            mean_sync_us: s / preset.reps as f64,
        })
        .collect();
    // Same tie-break as `combar_sim::optimal_degree`: toward the
    // wider tree within a relative epsilon.
    let mut best = &rows[0];
    for r in &rows[1..] {
        let eps = 1e-9 * best.mean_sync_us.abs().max(1.0);
        if r.mean_sync_us < best.mean_sync_us - eps
            || (r.mean_sync_us <= best.mean_sync_us + eps && r.degree > best.degree)
        {
            best = r;
        }
    }
    let sync_at4 = rows
        .iter()
        .find(|r| r.degree == 4.min(p))
        .unwrap_or(&rows[0])
        .mean_sync_us;

    // Static-vs-dynamic placement at degree 4 on the MCS owner tree,
    // in the paper's systemic regime: a fixed per-processor bias
    // (drawn once per cell) plus redundant per-episode normal noise.
    // Episodes chain by fuzzy-barrier timing — a processor's next
    // episode begins at max(its signal done + slack, the release) —
    // so the biased stragglers stay late across episodes, which is
    // the persistence the victor/victim protocol exploits.
    let seed = seeds::scale(p, k);
    let bias_model =
        WorkModel::systemic(p, seed ^ 0xb1a5, preset.mean_us, preset.bias_sigma_us, 0.0);
    let bias: Vec<f64> = (0..p).map(|i| bias_model.bias_us(0, i)).collect();
    let mut noise = Redundant::new(
        (0..k as u64)
            .map(|r| {
                WorkModel::iid_normal(
                    p,
                    seed ^ 0x70_6c61_6365 ^ (r.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    preset.mean_us,
                    preset.noise_sigma_us,
                )
            })
            .collect(),
    );
    let topo4 = Topology::mcs(p, 4.min(p));
    let static_homes: Vec<u32> = topo4.homes().to_vec();
    let mut place = Placement::initial(&topo4);
    let slack = preset.slack_us;
    let mut begin_s = vec![0.0f64; p as usize];
    let mut begin_d = vec![0.0f64; p as usize];
    let mut arr = vec![0.0f64; p as usize];
    let (mut static_sum, mut dynamic_sum, mut measured) = (0.0f64, 0.0f64, 0usize);
    let mut swaps = 0u64;
    for ep in 0..preset.warmup + preset.placement_episodes {
        noise.sample_episode(ep as u32, &mut works);
        for i in 0..p as usize {
            works[i] = (works[i] + bias[i]).max(0.0);
            arr[i] = begin_s[i] + works[i];
        }
        let rs = run_episode(&topo4, &static_homes, &arr, tc);
        for i in 0..p as usize {
            begin_s[i] = (rs.signal_done_us[i] + slack).max(rs.release_us);
            arr[i] = begin_d[i] + works[i];
        }
        let rd = run_episode(&topo4, place.homes(), &arr, tc);
        swaps += apply_dynamic_swaps(&topo4, &mut place, &rd.winners);
        for (b, &done) in begin_d.iter_mut().zip(&rd.signal_done_us) {
            *b = (done + slack).max(rd.release_us);
        }
        if ep >= preset.warmup {
            static_sum += rs.sync_delay_us;
            dynamic_sum += rd.sync_delay_us;
            measured += 1;
        }
    }

    Cell {
        p,
        k,
        realized_mean_us: realized_sum / preset.reps as f64,
        opt_degree: best.degree,
        opt_sync_us: best.mean_sync_us,
        sync_at4_us: sync_at4,
        release_at4_us: release_at4_sum / preset.reps as f64,
        degrees: rows,
        static_sync_us: static_sum / measured as f64,
        dynamic_sync_us: dynamic_sum / measured as f64,
        swaps,
    }
}

/// Runs the full (p, k) grid as one parallel
/// [`Sweep`](combar_exec::Sweep).
pub fn run(preset: &Scale) -> ScaleResult {
    let grid: Vec<(u32, u32)> = preset
        .procs
        .iter()
        .flat_map(|&p| preset.redundancy.iter().map(move |&k| (p, k)))
        .collect();
    let cells = Sweep::new(seeds::BASE, grid).run(|cell| {
        let &(p, k) = cell.param;
        run_cell(preset, p, k)
    });
    ScaleResult {
        preset: preset.clone(),
        cells,
    }
}

fn fmt_p(p: u32) -> String {
    if p.is_power_of_two() {
        format!("2^{}", p.trailing_zeros())
    } else {
        p.to_string()
    }
}

impl ScaleResult {
    /// The cell for one (p, k) pair.
    pub fn cell(&self, p: u32, k: u32) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.p == p && c.k == k)
            .expect("grid covers every (p, k)")
    }

    /// Renders the optimal-degree table and the placement table.
    pub fn render(&self) -> String {
        let pr = &self.preset;
        // "wheel engine" names the queue the episodes once ran on; the
        // title keeps it so the golden snapshot stays byte-identical.
        let mut t = Table::new(
            format!(
                "scale: optimal degree under redundant Pareto stragglers \
                 (α={}, mean {} µs/copy, {} reps, wheel engine)",
                pr.pareto_shape, pr.mean_us, pr.reps
            ),
            &[
                "p",
                "k",
                "realized mean",
                "epoch @4",
                "opt degree",
                "sync @opt",
                "sync @4",
                "speedup vs 4",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                fmt_p(c.p),
                c.k.to_string(),
                fmt_us(c.realized_mean_us),
                fmt_us(c.release_at4_us),
                c.opt_degree.to_string(),
                fmt_us(c.opt_sync_us),
                fmt_us(c.sync_at4_us),
                fmt_ratio(c.sync_at4_us / c.opt_sync_us),
            ]);
        }
        let mut d = Table::new(
            format!(
                "scale: dynamic placement at degree 4, systemic regime \
                 (bias σ {} µs, noise σ {} µs, {} episodes after {} warm-up, slack {} µs)",
                pr.bias_sigma_us, pr.noise_sigma_us, pr.placement_episodes, pr.warmup, pr.slack_us
            ),
            &["p", "k", "static sync", "dynamic sync", "gain", "swaps"],
        );
        for c in &self.cells {
            d.row(vec![
                fmt_p(c.p),
                c.k.to_string(),
                fmt_us(c.static_sync_us),
                fmt_us(c.dynamic_sync_us),
                fmt_ratio(c.static_sync_us / c.dynamic_sync_us),
                c.swaps.to_string(),
            ]);
        }
        format!("{}\n{}", t.render(), d.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> ScaleResult {
        run(&Scale::quick())
    }

    /// Redundancy lightens the straggler tail: the realized mean falls
    /// with k, and with it the epoch-completion time at the reference
    /// degree (sync delay itself collapses to `⌈log₄ p⌉·t_c` in the
    /// lone-straggler regime, so the epoch is the discriminating
    /// quantity).
    #[test]
    fn redundancy_reduces_realized_mean_and_epoch() {
        let r = result();
        for &p in &r.preset.procs {
            let k1 = r.cell(p, 1);
            let k2 = r.cell(p, 2);
            assert!(
                k2.realized_mean_us < k1.realized_mean_us,
                "p={p}: k=2 mean {} vs k=1 {}",
                k2.realized_mean_us,
                k1.realized_mean_us
            );
            assert!(
                k2.release_at4_us < k1.release_at4_us,
                "p={p}: k=2 epoch {} vs k=1 {}",
                k2.release_at4_us,
                k1.release_at4_us
            );
        }
    }

    /// Dynamic placement still earns its keep at scale: sync delay
    /// falls from static to dynamic, with swaps actually applied.
    #[test]
    fn dynamic_placement_wins_at_scale() {
        let r = result();
        for c in &r.cells {
            assert!(c.swaps > 0, "p={}, k={}: no swaps applied", c.p, c.k);
            assert!(
                c.dynamic_sync_us < c.static_sync_us,
                "p={}, k={}: dynamic {} vs static {}",
                c.p,
                c.k,
                c.dynamic_sync_us,
                c.static_sync_us
            );
        }
    }

    /// Degrees are capped at p and never duplicated.
    #[test]
    fn degree_candidates_are_capped_and_unique() {
        let preset = Scale {
            degrees: vec![4, 16, 64, 256],
            ..Scale::quick()
        };
        let d = degrees_for(&preset, 16);
        assert_eq!(d, vec![4, 16]);
    }

    /// Two in-process runs agree byte for byte — pure seeds, no clock.
    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(result().render(), result().render());
    }
}
