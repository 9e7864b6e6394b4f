//! Ablations of the paper's modelling choices (DESIGN.md §6).
//!
//! 1. **Distribution shape** — the paper assumes normal arrival times
//!    (citing empirical support). How does the optimal degree move when
//!    the tails are exponential or Pareto at matched σ?
//! 2. **Model error** — quantify the §3 approximation (subset-ordering
//!    assumption) as the relative error between Algorithm 1 and the
//!    simulator across the (degree, σ) plane.
//! 3. **Partial vs full trees** — the model is derived for full trees;
//!    how much does a partial tree at equal p deviate from the
//!    full-tree model prediction?

use crate::experiments::{ksr, seeds, Rendered};
use crate::table::{fmt_ratio, Table};
use combar::model::BarrierModel;
use combar::presets::TC_US;
use combar_des::Duration;
use combar_exec::Sweep;
use combar_rng::{SeedableRng, Xoshiro256pp};
use combar_sim::{
    build_tree, default_degree_sweep, optimal_degree, run_episode, sweep_degrees, Arrivals,
    EpisodePlan, EpisodeScratch, Sampler, SweepConfig, Topology, TreeStyle, Workload,
};

/// Optimal degree under each arrival-time distribution shape.
#[derive(Debug, Clone)]
pub struct ShapeRow {
    /// Distribution name.
    pub shape: &'static str,
    /// σ in t_c units.
    pub sigma_tc: f64,
    /// Simulated optimal degree.
    pub optimal_degree: u32,
    /// Speedup vs degree 4.
    pub speedup_vs_4: f64,
}

/// Runs the distribution-shape ablation at `p` processors. Every
/// `(σ, shape)` cell draws from its own RNG seeded by σ alone (the
/// shapes are a paired comparison over the same stream), so the grid
/// evaluates as one parallel [`Sweep`].
pub fn run_shapes(p: u32, sigma_tcs: &[f64], reps: usize) -> Vec<ShapeRow> {
    let degrees = default_degree_sweep(p);
    let topos: Vec<Topology> = degrees
        .iter()
        .map(|&d| build_tree(TreeStyle::Combining, p, d))
        .collect();
    let plans: Vec<EpisodePlan> = topos
        .iter()
        .map(|topo| EpisodePlan::new(topo, topo.homes()))
        .collect();
    let shapes = ["normal", "exponential", "pareto"];
    Sweep::grid2(seeds::BASE, sigma_tcs, &shapes).run(|cell| {
        let &(sigma_tc, shape) = cell.param;
        let sigma_us = sigma_tc * TC_US;
        let mut w = match shape {
            "normal" => Workload::iid_normal(10.0 * sigma_us + 100.0, sigma_us),
            "exponential" => Workload::iid_exponential(10.0 * sigma_us + 100.0, sigma_us),
            // shape 2.5 → heavy tail with finite variance; scale
            // chosen so σ matches: σ² = s²·α/((α−1)²(α−2)),
            // α = 2.5 → σ = s·√(2.5/(1.5²·0.5)) = s·1.491
            "pareto" => Workload::iid_pareto(10.0 * sigma_us + 100.0, sigma_us / 1.491, 2.5),
            _ => unreachable!(),
        };
        // build per-rep arrival sets from the workload and sweep
        // degrees with common random numbers: one sorted arrival order
        // per rep, shared by every degree
        let mut rng = Xoshiro256pp::seed_from_u64(seeds::ablate_shape(sigma_tc));
        let mut per_degree: Vec<(u32, f64)> = degrees.iter().map(|&d| (d, 0.0)).collect();
        let mut buf = vec![0.0f64; p as usize];
        let mut scratch = EpisodeScratch::default();
        for _ in 0..reps {
            w.sample_into(&mut rng, &mut buf);
            let min = buf.iter().copied().fold(f64::INFINITY, f64::min);
            let arrivals: Vec<f64> = buf.iter().map(|&x| x - min).collect();
            let arrivals = Arrivals::new(&arrivals);
            for ((_, acc), plan) in per_degree.iter_mut().zip(&plans) {
                let r = plan.run(&arrivals, Duration::from_us(TC_US), &mut scratch);
                *acc += r.sync_delay_us;
            }
        }
        let four = per_degree
            .iter()
            .find(|(d, _)| *d == 4)
            .expect("4 in sweep")
            .1;
        // wider-on-tie argmin
        let mut best = per_degree[0];
        for &(d, v) in &per_degree[1..] {
            let eps = 1e-9 * best.1.max(1.0);
            if v < best.1 - eps || (v <= best.1 + eps && d > best.0) {
                best = (d, v);
            }
        }
        ShapeRow {
            shape,
            sigma_tc,
            optimal_degree: best.0,
            speedup_vs_4: four / best.1,
        }
    })
}

/// Renders the shape ablation.
pub fn render_shapes(rows: &[ShapeRow], p: u32) -> String {
    let mut t = Table::new(
        format!("Ablation: arrival-distribution shape ({p} procs)"),
        &["shape", "σ/tc", "optimal degree", "speedup vs 4"],
    );
    for r in rows {
        t.row(vec![
            r.shape.to_string(),
            format!("{}", r.sigma_tc),
            r.optimal_degree.to_string(),
            fmt_ratio(r.speedup_vs_4),
        ]);
    }
    t.render()
}

/// Model-vs-simulation relative error at one grid point.
#[derive(Debug, Clone)]
pub struct ModelErrorRow {
    /// Processor count.
    pub p: u32,
    /// Tree degree (full-tree).
    pub degree: u32,
    /// σ in t_c units.
    pub sigma_tc: f64,
    /// Simulated mean delay (µs).
    pub sim_us: f64,
    /// Model delay (µs).
    pub model_us: f64,
    /// `(model − sim)/sim`.
    pub rel_err: f64,
}

/// Quantifies the §3 approximation error over full-tree degrees. Each
/// σ column is an independent degree sweep, so the axis evaluates as a
/// parallel [`Sweep`].
pub fn run_model_error(p: u32, sigma_tcs: &[f64], reps: usize) -> Vec<ModelErrorRow> {
    let degrees = combar_sim::full_tree_degrees(p);
    let per_sigma: Vec<Vec<ModelErrorRow>> =
        Sweep::new(seeds::BASE, sigma_tcs.to_vec()).run(|cell| {
            let &sigma_tc = cell.param;
            let cfg = SweepConfig {
                tc: Duration::from_us(TC_US),
                sigma_us: sigma_tc * TC_US,
                reps,
                seed: seeds::model_error(),
                style: TreeStyle::Combining,
            };
            let swept = sweep_degrees(p, &degrees, &cfg);
            let model = BarrierModel::new(p, sigma_tc * TC_US, TC_US).expect("valid");
            swept
                .iter()
                .map(|r| {
                    let m = model
                        .sync_delay(r.degree)
                        .expect("full degree")
                        .sync_delay_us;
                    ModelErrorRow {
                        p,
                        degree: r.degree,
                        sigma_tc,
                        sim_us: r.sync_delay.mean(),
                        model_us: m,
                        rel_err: (m - r.sync_delay.mean()) / r.sync_delay.mean(),
                    }
                })
                .collect()
        });
    per_sigma.into_iter().flatten().collect()
}

/// Renders the model-error ablation.
pub fn render_model_error(rows: &[ModelErrorRow]) -> String {
    let mut t = Table::new(
        "Ablation: Algorithm 1 error vs simulation (full-tree degrees)",
        &["p", "degree", "σ/tc", "sim µs", "model µs", "rel err"],
    );
    for r in rows {
        t.row(vec![
            r.p.to_string(),
            r.degree.to_string(),
            format!("{}", r.sigma_tc),
            format!("{:.1}", r.sim_us),
            format!("{:.1}", r.model_us),
            format!("{:+.1}%", r.rel_err * 100.0),
        ]);
    }
    t.render()
}

/// Partial-vs-full ablation: simulated delay of partial trees between
/// two adjacent full degrees, to show where the model's full-tree
/// restriction bites.
pub fn run_partial_vs_full(p: u32, sigma_tc: f64, reps: usize) -> Vec<(u32, bool, f64)> {
    let full = combar_sim::full_tree_degrees(p);
    let cfg = SweepConfig {
        tc: Duration::from_us(TC_US),
        sigma_us: sigma_tc * TC_US,
        reps,
        seed: seeds::partial(),
        style: TreeStyle::Combining,
    };
    let degrees = default_degree_sweep(p);
    sweep_degrees(p, &degrees, &cfg)
        .into_iter()
        .map(|r| (r.degree, full.contains(&r.degree), r.sync_delay.mean()))
        .collect()
}

/// Per-level contention profile: where in the tree the queueing
/// concentrates, per degree. Explains the paper's threshold behaviour
/// (Figure 2): totals are always leaf-heavy (the leaves see p requests,
/// the root only d), but past the threshold degree the root's queueing
/// explodes — and the root sits on every release path, so that is what
/// drives the synchronization delay.
pub fn run_level_profile(
    p: u32,
    sigma_tc: f64,
    degrees: &[u32],
    reps: usize,
) -> Vec<(u32, Vec<f64>)> {
    Sweep::new(seeds::BASE, degrees.to_vec()).run(|cell| {
        let &d = cell.param;
        let topo = build_tree(TreeStyle::Combining, p, d);
        let mut acc: Vec<f64> = vec![0.0; topo.depth() as usize];
        let mut rng = Xoshiro256pp::seed_from_u64(seeds::level_profile(d));
        for _ in 0..reps {
            let arrivals = combar_sim::normal_arrivals(p as usize, sigma_tc * TC_US, &mut rng);
            let r = run_episode(&topo, topo.homes(), &arrivals, Duration::from_us(TC_US));
            for (a, w) in acc.iter_mut().zip(&r.level_wait_us) {
                *a += w / reps as f64;
            }
        }
        (d, acc)
    })
}

/// Renders the level profile (level 1 = root).
pub fn render_level_profile(rows: &[(u32, Vec<f64>)], p: u32, sigma_tc: f64) -> String {
    let max_levels = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut headers: Vec<String> = vec!["degree".into()];
    headers.extend((1..=max_levels).map(|l| format!("L{l} wait µs")));
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!("Ablation: per-level queueing ({p} procs, σ = {sigma_tc}·t_c; L1 = root)"),
        &hdr_refs,
    );
    for (d, waits) in rows {
        let mut row = vec![d.to_string()];
        for l in 0..max_levels {
            row.push(
                waits
                    .get(l)
                    .map(|w| format!("{w:.0}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        t.row(row);
    }
    t.render()
}

/// One stop of the quantitative comparison: shape statements the
/// ablations check programmatically (used by tests and the binary).
pub fn optimal_under_normal(p: u32, sigma_tc: f64, reps: usize) -> u32 {
    let cfg = SweepConfig {
        tc: Duration::from_us(TC_US),
        sigma_us: sigma_tc * TC_US,
        reps,
        seed: seeds::optimal_under_normal(),
        style: TreeStyle::Combining,
    };
    let swept = sweep_degrees(p, &default_degree_sweep(p), &cfg);
    optimal_degree(&swept).degree
}

/// The `ablate` experiment — tree shapes, model error, level profile
/// and the Figure 13 correlation sweep: 20 replications and 200
/// iterations, or 8 and 80 under `--quick`.
pub fn rendered(quick: bool) -> Rendered {
    let reps = if quick { 8 } else { 20 };
    let iters = if quick { 80 } else { 200 };
    let shapes = run_shapes(256, &[6.2, 25.0], reps);
    let err = run_model_error(256, &[0.0, 6.2, 25.0, 100.0], reps);
    let prof = run_level_profile(4096, 12.5, &[4, 16, 64], reps);
    let corr = ksr::run_fig13_correlation(&[0.0, 0.3, 0.6, 0.9], 2_000.0, iters);
    Rendered::text(format!(
        "{}\n{}\n{}\n{}\n",
        render_shapes(&shapes, 256),
        render_model_error(&err),
        render_level_profile(&prof, 4096, 12.5),
        ksr::render_fig13_correlation(&corr, 2_000.0)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The normality assumption matters: at matched σ, a Pareto
    /// workload concentrates most of its variance in rare stragglers,
    /// so the *bulk* arrives nearly simultaneously and the optimum
    /// moves back toward small degrees — the opposite of what the raw
    /// σ would suggest under the paper's normal model.
    #[test]
    fn heavy_tails_shrink_the_bulk_spread_and_the_optimum() {
        let rows = run_shapes(64, &[12.5], 12);
        let normal = rows.iter().find(|r| r.shape == "normal").unwrap();
        let pareto = rows.iter().find(|r| r.shape == "pareto").unwrap();
        assert!(
            pareto.optimal_degree <= normal.optimal_degree,
            "pareto {} vs normal {}",
            pareto.optimal_degree,
            normal.optimal_degree
        );
        assert!(
            normal.optimal_degree > 4,
            "normal at σ=12.5tc favors wide trees"
        );
    }

    /// The model is exact at σ = 0 (Eq. 1) and stays within a moderate
    /// band on proper trees. Its one known weak point is the *flat*
    /// tree (`d = p`) at large σ: the subset-simultaneity assumption
    /// piles all `p−1` earlier processors onto the single counter at
    /// the median arrival time, ignoring how a wide arrival spread
    /// pipelines the updates — so it overestimates there by multiples.
    /// That bias is inherited from the paper's approximation and is
    /// why its Figure 4 "est" rows occasionally miss the simulated
    /// optimum (the bold entries).
    #[test]
    fn model_error_bounded_on_trees_and_pessimistic_on_flat() {
        let rows = run_model_error(256, &[0.0, 12.5, 50.0], 12);
        for r in &rows {
            if r.degree < r.p {
                assert!(
                    r.rel_err.abs() < 1.0,
                    "p={} d={} σ={}tc: rel err {:.0}%",
                    r.p,
                    r.degree,
                    r.sigma_tc,
                    r.rel_err * 100.0
                );
            } else if r.sigma_tc > 0.0 {
                // flat tree under imbalance: overestimates, never
                // underestimates
                assert!(r.rel_err > -0.05, "flat tree should not be underestimated");
            }
        }
        // and at σ=0 the model is exact everywhere
        for r in rows.iter().filter(|r| r.sigma_tc == 0.0) {
            assert!(r.rel_err.abs() < 1e-9, "σ=0 must be exact (Eq. 1)");
        }
    }

    #[test]
    fn partial_trees_interpolate_between_full_ones() {
        let rows = run_partial_vs_full(64, 6.2, 10);
        assert!(rows.iter().any(|&(_, is_full, _)| is_full));
        assert!(rows.iter().any(|&(_, is_full, _)| !is_full));
        // every partial-tree delay sits within the span of full-tree
        // delays' [min/2, max*2] envelope — nothing pathological
        let full_delays: Vec<f64> = rows.iter().filter(|r| r.1).map(|r| r.2).collect();
        let lo = full_delays.iter().copied().fold(f64::INFINITY, f64::min) / 2.0;
        let hi = full_delays.iter().copied().fold(0.0f64, f64::max) * 2.0;
        for &(d, is_full, delay) in &rows {
            if !is_full {
                assert!(
                    (lo..hi).contains(&delay),
                    "degree {d}: {delay} outside [{lo},{hi}]"
                );
            }
        }
    }

    /// Past the threshold degree total queueing explodes, and the root
    /// level's queueing (the part on every release path) grows by
    /// orders of magnitude — at degree 4 the root is essentially
    /// contention-free.
    #[test]
    fn contention_explodes_past_threshold_and_reaches_the_root() {
        let prof = run_level_profile(4096, 12.5, &[4, 64], 4);
        let (_, narrow) = &prof[0];
        let (_, wide) = &prof[1];
        let narrow_total: f64 = narrow.iter().sum();
        let wide_total: f64 = wide.iter().sum();
        assert!(
            wide_total > narrow_total * 10.0,
            "{wide_total} vs {narrow_total}"
        );
        // the root's queueing grows enormously with the degree
        assert!(
            wide[0] > narrow[0] * 100.0 + 100.0,
            "root wait d64 {} vs d4 {}",
            wide[0],
            narrow[0]
        );
        // per-request root wait at degree 64 exceeds 10·t_c: the root
        // is the bottleneck on the release path
        assert!(
            wide[0] / 64.0 > 10.0 * TC_US,
            "per-request root wait {}",
            wide[0] / 64.0
        );
    }

    #[test]
    fn renders_are_nonempty() {
        let rows = run_shapes(64, &[6.2], 4);
        assert!(render_shapes(&rows, 64).contains("pareto"));
        let err = run_model_error(64, &[6.2], 4);
        assert!(render_model_error(&err).contains("rel err"));
    }
}
