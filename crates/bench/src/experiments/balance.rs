//! The `balance` experiment: what placement can and cannot fix.
//!
//! The paper's dynamic placement (Section 5.1) reacts to load imbalance
//! by migrating slow processors toward the barrier root: the
//! *synchronization delay* collapses, but the imbalance itself — and
//! with it the episode makespan — is untouched. The diffusion
//! literature (Cybenko; Eijkhout) attacks the makespan instead, moving
//! work units from loaded processors to underloaded neighbours along
//! the barrier tree's own edges.
//!
//! This experiment runs three regimes through
//! [`combar_sim::run_balance`] under the two imbalance shapes the paper
//! distinguishes (systemic and evolving), all drawing work through the
//! shared [`combar_work::WorkModel`] pure source:
//!
//! * `static` — fixed homes, fixed work (the MCS baseline);
//! * `dynamic` — the paper's victor/victim swaps, work fixed;
//! * `dyn+diff` — swaps *plus* a trace-fed [`combar_sim::Diffuser`]
//!   step between episodes (the load vector is each processor's
//!   arrival lateness read back from the episode's own
//!   `combar-trace` timeline).
//!
//! The table shows the claim split cleanly: `dynamic` wins on sync
//! delay and critical depth but leaves episode time where `static` put
//! it; `dyn+diff` wins on episode time too. A DES mirror re-derives
//! episode 0 of every shape independently (pure model seed → work
//! vector → one `run_episode`) and checks the balance loop reported
//! the same delay and releaser, so the two timelines stay diffable.
//!
//! Determinism: every cell is a pure function of the seed table —
//! byte-identical output at any `COMBAR_THREADS`, golden-snapshotted
//! as `balance_small.txt`.

use crate::experiments::seeds;
use crate::table::{fmt_us, Table};
use combar::presets::{Balance, TC_US};
use combar_des::Duration;
use combar_exec::Sweep;
use combar_sim::{
    run_balance, run_episode, BalanceConfig, BalanceRegime, BalanceReport, Topology, WorkModel,
    WorkSource,
};

/// The two imbalance shapes under test, in presentation order.
pub const SHAPES: [&str; 2] = ["systemic", "evolving"];

/// The three regimes under test, in presentation order.
pub const REGIMES: [BalanceRegime; 3] = [
    BalanceRegime::Static,
    BalanceRegime::Dynamic,
    BalanceRegime::DynamicDiffusion,
];

/// One (shape, regime) cell's aggregate report.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Imbalance shape label (`systemic` / `evolving`).
    pub shape: &'static str,
    /// The regime that produced [`Self::report`].
    pub regime: BalanceRegime,
    /// The balance loop's aggregate statistics.
    pub report: BalanceReport,
}

/// One shape's DES-mirror check: episode 0 re-derived from the pure
/// model seed alone and compared against what the balance loop saw.
#[derive(Debug, Clone)]
pub struct MirrorRow {
    /// Imbalance shape label.
    pub shape: &'static str,
    /// Episode 0 sync delay the balance loop reported (µs).
    pub measured_delay_us: f64,
    /// The same delay from an independent [`run_episode`] replay (µs).
    pub replay_delay_us: f64,
    /// Episode 0 releasing processor the balance loop reported.
    pub measured_releaser: u32,
    /// The releaser from the independent replay.
    pub replay_releaser: u32,
}

impl MirrorRow {
    /// Whether the two derivations agree exactly.
    pub fn agrees(&self) -> bool {
        self.measured_delay_us == self.replay_delay_us
            && self.measured_releaser == self.replay_releaser
    }
}

/// Everything the balance experiment produces.
#[derive(Debug, Clone)]
pub struct BalanceResult {
    /// The preset that shaped the run.
    pub preset: Balance,
    /// All six cells, shapes × regimes in [`SHAPES`]/[`REGIMES`] order.
    pub cells: Vec<Cell>,
    /// One DES-mirror row per shape.
    pub mirror: Vec<MirrorRow>,
}

/// Builds the pure work model for one shape (the model seed comes from
/// the repository seed table; all regimes of a shape share it, so they
/// face identical work streams).
pub fn model(preset: &Balance, shape: &str) -> WorkModel {
    let seed = seeds::balance(shape);
    match shape {
        "systemic" => WorkModel::systemic(
            preset.p,
            seed,
            preset.mean_us,
            preset.bias_sigma_us,
            preset.noise_sigma_us,
        ),
        "evolving" => WorkModel::evolving(
            preset.p,
            seed,
            preset.mean_us,
            preset.walk_sigma_us,
            preset.noise_sigma_us,
        ),
        other => panic!("unknown balance shape {other:?}"),
    }
}

/// The [`BalanceConfig`] one cell runs under (shared with the
/// `balance_throughput` bench so both measure the same loop).
pub fn config_for(preset: &Balance, regime: BalanceRegime) -> BalanceConfig {
    BalanceConfig {
        tc: Duration::from_us(TC_US),
        slack: Duration::from_us(preset.slack_us),
        episodes: preset.episodes,
        warmup: preset.warmup,
        regime,
        alpha: preset.alpha,
        trace_capacity: 1 << 16,
    }
}

/// Runs the full shapes × regimes grid as one parallel
/// [`Sweep`], then the per-shape DES mirror.
pub fn run(preset: &Balance) -> BalanceResult {
    let topo = Topology::mcs(preset.p, preset.degree);
    let grid: Vec<(&'static str, BalanceRegime)> = SHAPES
        .iter()
        .flat_map(|&s| REGIMES.iter().map(move |&r| (s, r)))
        .collect();
    let cells = Sweep::new(seeds::BASE, grid).run(|cell| {
        let &(shape, regime) = cell.param;
        let report = run_balance(
            &topo,
            &config_for(preset, regime),
            &mut model(preset, shape),
        );
        Cell {
            shape,
            regime,
            report,
        }
    });
    // Episode 0 precedes any swap or diffusion step, so every regime of
    // a shape sees the same first episode; mirror against the static
    // cell and re-derive independently from the pure model.
    let mirror = SHAPES
        .iter()
        .map(|&shape| {
            let measured = cells
                .iter()
                .find(|c| c.shape == shape && c.regime == BalanceRegime::Static)
                .expect("grid covers every shape");
            let mut works = vec![0.0; preset.p as usize];
            model(preset, shape).sample_episode(0, &mut works);
            let r = run_episode(&topo, topo.homes(), &works, Duration::from_us(TC_US));
            MirrorRow {
                shape,
                measured_delay_us: measured.report.first_sync_delay_us,
                replay_delay_us: r.sync_delay_us,
                measured_releaser: measured.report.first_releaser,
                replay_releaser: r.releasing_proc,
            }
        })
        .collect();
    BalanceResult {
        preset: preset.clone(),
        cells,
        mirror,
    }
}

impl BalanceResult {
    /// The cell for one (shape, regime) pair.
    pub fn cell(&self, shape: &str, regime: BalanceRegime) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.shape == shape && c.regime == regime)
            .expect("grid covers every (shape, regime)")
    }

    /// Renders the regime table and the DES-mirror table.
    pub fn render(&self) -> String {
        let p = &self.preset;
        let mut t = Table::new(
            format!(
                "balance: placement vs placement+diffusion (p={}, degree {}, {} episodes, \
                 α={}, slack {} µs)",
                p.p, p.degree, p.episodes, p.alpha, p.slack_us
            ),
            &[
                "shape",
                "regime",
                "episode time",
                "sync delay",
                "crit depth",
                "swaps",
                "units moved",
                "spread",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.shape.to_string(),
                c.regime.label().to_string(),
                fmt_us(c.report.episode_time.mean()),
                fmt_us(c.report.sync_delay.mean()),
                format!("{:.2}", c.report.crit_depth.mean()),
                c.report.swaps.to_string(),
                c.report.units_moved.to_string(),
                format!("{:.2}", c.report.unit_spread),
            ]);
        }
        let mut m = Table::new(
            "balance: DES mirror — episode 0 re-derived from the pure model seed",
            &[
                "shape",
                "measured delay",
                "replay delay",
                "measured releaser",
                "replay releaser",
                "agree",
            ],
        );
        for row in &self.mirror {
            m.row(vec![
                row.shape.to_string(),
                fmt_us(row.measured_delay_us),
                fmt_us(row.replay_delay_us),
                format!("p{}", row.measured_releaser),
                format!("p{}", row.replay_releaser),
                if row.agrees() { "✓" } else { "✗" }.to_string(),
            ]);
        }
        format!("{}\n{}", t.render(), m.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> BalanceResult {
        run(&Balance::quick())
    }

    /// The headline: under systemic bias, diffusion shortens the
    /// episode itself, which placement alone cannot do — and the win
    /// survives under evolving bias too.
    #[test]
    fn diffusion_beats_dynamic_alone_on_episode_time() {
        let r = result();
        for shape in SHAPES {
            let dyn_ = &r.cell(shape, BalanceRegime::Dynamic).report;
            let diff = &r.cell(shape, BalanceRegime::DynamicDiffusion).report;
            assert!(
                diff.episode_time.mean() < dyn_.episode_time.mean(),
                "{shape}: diffusion {} vs dynamic {}",
                diff.episode_time.mean(),
                dyn_.episode_time.mean()
            );
            assert!(diff.units_moved > 0, "{shape}: the controller moved work");
        }
        // Systemic bias is the strong case: demand a real margin there.
        let dyn_ = &r.cell("systemic", BalanceRegime::Dynamic).report;
        let diff = &r.cell("systemic", BalanceRegime::DynamicDiffusion).report;
        assert!(diff.episode_time.mean() < 0.95 * dyn_.episode_time.mean());
    }

    /// Placement still earns its keep on the quantity it targets: sync
    /// delay and measured critical depth fall from static to dynamic.
    #[test]
    fn dynamic_placement_still_wins_on_sync_delay() {
        let r = result();
        for shape in SHAPES {
            let stat = &r.cell(shape, BalanceRegime::Static).report;
            let dyn_ = &r.cell(shape, BalanceRegime::Dynamic).report;
            assert!(
                dyn_.sync_delay.mean() < stat.sync_delay.mean(),
                "{shape}: dynamic {} vs static {}",
                dyn_.sync_delay.mean(),
                stat.sync_delay.mean()
            );
            assert!(dyn_.swaps > 0);
            assert_eq!(stat.swaps, 0);
        }
    }

    /// The DES mirror agrees exactly for every shape.
    #[test]
    fn des_mirror_agrees() {
        let r = result();
        assert_eq!(r.mirror.len(), SHAPES.len());
        for row in &r.mirror {
            assert!(
                row.agrees(),
                "{}: measured ({}, p{}) vs replay ({}, p{})",
                row.shape,
                row.measured_delay_us,
                row.measured_releaser,
                row.replay_delay_us,
                row.replay_releaser
            );
        }
    }

    /// Two in-process runs agree byte for byte — pure seeds, no clock.
    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(result().render(), result().render());
    }
}
