//! Executable verification of the reproduction.
//!
//! `experiments verify` re-derives the paper's headline claims at
//! reduced (but honest) scale and grades each against the reference
//! values in [`combar::paper`]. The point: EXPERIMENTS.md's
//! paper-vs-measured statements are not prose — they are checks that
//! run.

use crate::experiments::{seeds, Rendered};
use crate::table::Table;
use combar::model::BarrierModel;
use combar::paper::{self, compare_trend, Shape};
use combar::presets::{Fig8, TC_US};
use combar_des::Duration;
use combar_machine::SorWork;
use combar_sim::{
    default_degree_sweep, full_tree_degrees, optimal_degree, sweep_degrees, SweepConfig, TreeStyle,
};

/// One verified claim.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// What is being checked.
    pub claim: String,
    /// The paper's value, as text.
    pub paper: String,
    /// Our measured value, as text.
    pub measured: String,
    /// Did it hold?
    pub ok: bool,
}

impl Verdict {
    fn new(claim: &str, paper: impl ToString, measured: impl ToString, ok: bool) -> Self {
        Self {
            claim: claim.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            ok,
        }
    }
}

fn shape_ok(s: Shape) -> bool {
    s == Shape::Matches
}

/// Runs every check; `quick` trims replication counts.
pub fn run(quick: bool) -> Vec<Verdict> {
    let mut out = Vec::new();
    let reps = if quick { 8 } else { 20 };

    // 1. Eq. 1 / classical anchor: σ = 0 optimum is degree 4, model
    //    exact against simulation.
    {
        let p = 256u32;
        let cfg = SweepConfig {
            tc: Duration::from_us(TC_US),
            sigma_us: 0.0,
            reps: 1,
            seed: seeds::optimal_under_normal(),
            style: TreeStyle::Combining,
        };
        let swept = sweep_degrees(p, &full_tree_degrees(p), &cfg);
        let sim_best = optimal_degree(&swept);
        let model = BarrierModel::new(p, 0.0, TC_US).expect("valid");
        let est = model.estimate_optimal_degree();
        let exact = swept.iter().all(|r| {
            (model.sync_delay(r.degree).unwrap().sync_delay_us - r.sync_delay.mean()).abs() < 1e-9
        });
        out.push(Verdict::new(
            "σ=0: optimal degree is 4 (classical result)",
            paper::CLASSICAL_OPTIMAL_DEGREE,
            format!("sim {} / est {}", sim_best.degree, est.degree),
            sim_best.degree == 4 && est.degree == 4,
        ));
        out.push(Verdict::new(
            "σ=0: Algorithm 1 equals simulation exactly (Eq. 1)",
            "exact",
            if exact { "exact" } else { "mismatch" },
            exact,
        ));
    }

    // 2. The optimum grows very wide with imbalance (abstract: 4 → 128
    //    at 4K).
    {
        let p = 4096u32;
        let cfg = SweepConfig {
            tc: Duration::from_us(TC_US),
            sigma_us: 100.0 * TC_US,
            reps,
            seed: seeds::optimal_under_normal(),
            style: TreeStyle::Combining,
        };
        let swept = sweep_degrees(p, &default_degree_sweep(p), &cfg);
        let best = optimal_degree(&swept);
        out.push(Verdict::new(
            "4K procs, σ=100tc: optimum ≥ 128",
            format!("reaches {}", paper::MAX_OPTIMAL_DEGREE_4K),
            best.degree,
            best.degree >= paper::MAX_OPTIMAL_DEGREE_4K,
        ));
        // speedup within the paper's 1.3–4.0 envelope (upper side)
        let four = swept.iter().find(|r| r.degree == 4).expect("4 swept");
        let speedup = four.sync_delay.mean() / best.sync_delay.mean();
        out.push(Verdict::new(
            "speedup of optimal vs degree 4 at extreme σ",
            format!("up to ~{}", paper::SPEEDUP_RANGE.1),
            format!("{speedup:.2}"),
            (paper::SPEEDUP_RANGE.0..=paper::SPEEDUP_RANGE.1 * 1.4).contains(&speedup),
        ));
    }

    // 3. Estimation cost (paper ~7 %).
    {
        let mut gaps = Vec::new();
        for p in [64u32, 256] {
            let degrees = default_degree_sweep(p);
            for sigma_tc in [0.0f64, 6.2, 25.0, 100.0] {
                let cfg = SweepConfig {
                    tc: Duration::from_us(TC_US),
                    sigma_us: sigma_tc * TC_US,
                    reps,
                    seed: seeds::fig34(p),
                    style: TreeStyle::Combining,
                };
                let swept = sweep_degrees(p, &degrees, &cfg);
                let best = optimal_degree(&swept);
                let est = BarrierModel::new(p, sigma_tc * TC_US, TC_US)
                    .expect("valid")
                    .estimate_optimal_degree()
                    .degree;
                let est_delay = swept
                    .iter()
                    .find(|r| r.degree == est)
                    .map(|r| r.sync_delay.mean())
                    .unwrap_or_else(|| sweep_degrees(p, &[est], &cfg)[0].sync_delay.mean());
                gaps.push(est_delay / best.sync_delay.mean() - 1.0);
            }
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        out.push(Verdict::new(
            "mean cost of trusting the estimate",
            format!("~{:.0}%", paper::ESTIMATION_GAP * 100.0),
            format!("{:.1}%", mean * 100.0),
            mean < 3.0 * paper::ESTIMATION_GAP,
        ));
    }

    // 4. Figure 8 trends at full 4096 scale (reduced iterations).
    {
        let preset = Fig8 {
            iterations: if quick { 40 } else { 120 },
            warmup: 10,
            slacks_us: vec![0.0, 16_000.0],
            ..Fig8::default()
        };
        let res = crate::experiments::fig8::run(&preset);
        for (degree, table) in [(4u32, &paper::FIG8_DEGREE4), (16, &paper::FIG8_DEGREE16)] {
            let first = table.first().expect("nonempty");
            let last = table.last().expect("nonempty");
            let m0 = res.cell(degree, 0.0);
            let m1 = res.cell(degree, 16_000.0);
            let depth = compare_trend(
                (first.last_proc_depth, last.last_proc_depth),
                (m0.last_proc_depth, m1.last_proc_depth),
                1.35,
            );
            out.push(Verdict::new(
                &format!("Fig 8 d{degree}: last-proc depth trend"),
                format!("{:.2} → {:.2}", first.last_proc_depth, last.last_proc_depth),
                format!("{:.2} → {:.2}", m0.last_proc_depth, m1.last_proc_depth),
                shape_ok(depth),
            ));
            let speed = compare_trend(
                (first.sync_speedup, last.sync_speedup),
                (m0.sync_speedup, m1.sync_speedup),
                1.35,
            );
            out.push(Verdict::new(
                &format!("Fig 8 d{degree}: dynamic speedup trend"),
                format!("{:.2} → {:.2}", first.sync_speedup, last.sync_speedup),
                format!("{:.2} → {:.2}", m0.sync_speedup, m1.sync_speedup),
                shape_ok(speed),
            ));
            let bound = 1.0 + 1.0 / (degree as f64 + 1.0);
            out.push(Verdict::new(
                &format!("Fig 8 d{degree}: comm overhead ≤ 1 + 1/(d+1)"),
                format!("≤ {bound:.2}"),
                format!("{:.2}", m0.comm_overhead.max(m1.comm_overhead)),
                m0.comm_overhead <= bound + 1e-9 && m1.comm_overhead <= bound + 1e-9,
            ));
        }
    }

    // 5. KSR1 calibration anchors.
    {
        let w = SorWork::paper_config(210);
        let mean_ok = (w.analytic_mean_us() - paper::KSR_SOR_MEAN_US).abs() < 200.0;
        let sigma_ok = (w.analytic_sigma_us() - paper::KSR_SOR_SIGMA_US).abs() < 5.0;
        out.push(Verdict::new(
            "KSR1 SOR calibration: mean(d_y=210)",
            format!("{:.1} ms", paper::KSR_SOR_MEAN_US / 1000.0),
            format!("{:.2} ms", w.analytic_mean_us() / 1000.0),
            mean_ok,
        ));
        out.push(Verdict::new(
            "KSR1 SOR calibration: σ(d_y=210)",
            format!("{:.0} µs", paper::KSR_SOR_SIGMA_US),
            format!("{:.0} µs", w.analytic_sigma_us()),
            sigma_ok,
        ));
    }

    // 6. Figure 12 speedup at the paper's operating point.
    {
        let preset = combar::presets::Fig12 {
            dy: vec![30, 210],
            iterations: if quick { 60 } else { 150 },
            warmup: 5,
            ..combar::presets::Fig12::default()
        };
        let res = crate::experiments::ksr::run_fig12(&preset);
        let at210 = res.rows.iter().find(|r| r.dy == 210).expect("210 present");
        let at30 = res.rows.iter().find(|r| r.dy == 30).expect("30 present");
        out.push(Verdict::new(
            "Fig 12: speedup grows with d_y toward ~23%",
            format!("1.00 → {:.2}", paper::FIG12_MAX_SPEEDUP),
            format!("{:.2} → {:.2}", at30.speedup_vs_4, at210.speedup_vs_4),
            at210.speedup_vs_4 > at30.speedup_vs_4 && (1.05..1.6).contains(&at210.speedup_vs_4),
        ));
    }

    // 7. Figure 13: zero-slack penalty and depth fall (degree 2).
    {
        let preset = combar::presets::Fig13 {
            slacks_us: vec![0.0, 4_000.0],
            degrees: vec![2],
            iterations: if quick { 60 } else { 150 },
            warmup: 10,
            ..combar::presets::Fig13::default()
        };
        let res = crate::experiments::ksr::run_fig13(&preset);
        let none = res.cell(2, 0.0);
        let ample = res.cell(2, 4_000.0);
        out.push(Verdict::new(
            "Fig 13 d2: no speedup at zero slack",
            "≤ ~1.0",
            format!("{:.2}", none.sync_speedup),
            none.sync_speedup < 1.1,
        ));
        let depth = compare_trend(
            (paper::FIG13_DEGREE2_DEPTHS.0, paper::FIG13_DEGREE2_DEPTHS.1),
            (none.last_proc_depth, ample.last_proc_depth),
            1.45,
        );
        out.push(Verdict::new(
            "Fig 13 d2: depth trend",
            format!(
                "{:.2} → {:.2}",
                paper::FIG13_DEGREE2_DEPTHS.0,
                paper::FIG13_DEGREE2_DEPTHS.1
            ),
            format!("{:.2} → {:.2}", none.last_proc_depth, ample.last_proc_depth),
            shape_ok(depth),
        ));
    }

    out
}

/// Renders the verdicts; returns `(table, all_ok)`.
pub fn render(verdicts: &[Verdict]) -> (String, bool) {
    let mut t = Table::new(
        "Verification against the paper",
        &["claim", "paper", "measured", "verdict"],
    );
    let mut all_ok = true;
    for v in verdicts {
        all_ok &= v.ok;
        t.row(vec![
            v.claim.clone(),
            v.paper.clone(),
            v.measured.clone(),
            if v.ok { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    (t.render(), all_ok)
}

/// The `verify` experiment: the graded table, closed by the all-clear
/// line only when every claim held — a failed claim fails the run.
pub fn rendered(quick: bool) -> Rendered {
    graded(&run(quick))
}

fn graded(verdicts: &[Verdict]) -> Rendered {
    let (table, ok) = render(verdicts);
    let verdict = if ok {
        "all claims verified against the paper ✓\n"
    } else {
        ""
    };
    Rendered {
        texts: vec![format!("{table}\n{verdict}")],
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole verification battery passes in quick mode — this is
    /// the repository's self-check that the reproduction holds.
    #[test]
    fn quick_verification_passes() {
        let verdicts = run(true);
        let (table, all_ok) = render(&verdicts);
        assert!(all_ok, "verification failures:\n{table}");
        assert!(
            verdicts.len() >= 12,
            "expected a full battery, got {}",
            verdicts.len()
        );
    }

    #[test]
    fn render_marks_failures() {
        let vs = vec![
            Verdict::new("a", 1, 1, true),
            Verdict::new("b", 2, 3, false),
        ];
        let (s, ok) = render(&vs);
        assert!(!ok);
        assert!(s.contains("PASS") && s.contains("FAIL"));
        // ... and the experiment fails the run without the all-clear.
        let failed = graded(&vs);
        assert!(!failed.ok);
        assert_eq!(failed.texts, [format!("{s}\n")]);
        assert!(graded(&vs[..1]).texts[0].ends_with("✓\n"));
    }
}
