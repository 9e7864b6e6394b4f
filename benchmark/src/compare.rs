//! `compare a.json b.json`: holds set `b` against set `a` (both written
//! by `all`) with each end-to-end metric's bound.
//!
//! A metric regresses when `b`'s median is worse than `a`'s by more
//! than its bound. Where either set's own run-to-run spread (quartile
//! distance over median) is wider than the bound the pair is
//! *unresolved*, not unchanged and not regressed — unless every run of
//! `b` reads better than every run of `a`.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Unresolved,
    Regressed,
}

/// Verdict for one metric on one workload. `a` and `b` are the values
/// of each set's runs.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (med_a, med_b) = (quartiles(a).1, quartiles(b).1);
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE);
    let beats = |y: f64, x: f64| sign * (y - x) < 0.0;
    let verdict = if b.iter().all(|&y| a.iter().all(|&x| beats(y, x))) {
        Verdict::Better
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compares two parsed sets; prints one row per workload and metric.
/// `Ok(false)` when anything regressed.
pub fn sets(a: &Json, b: &Json) -> Result<bool, String> {
    for (label, set) in [("a", a), ("b", b)] {
        if set.get("gateable") != Some(&Json::Bool(true)) {
            return Err(format!(
                "set {label} was recorded on a degraded host (fewer than 2 cores): not comparable"
            ));
        }
    }
    let threads = |s: &Json| {
        s.get("host")
            .and_then(|h| h.get("threads"))
            .and_then(Json::as_f64)
    };
    if threads(a) != threads(b) {
        return Err(format!(
            "sets were recorded at different `threads` ({:?} vs {:?}): numbers compare only at equal threads",
            threads(a),
            threads(b)
        ));
    }
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "spread a", "bound"
    );
    let mut ok = true;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(va), Some(vb)) = (values(a, w.name, m.name), values(b, w.name, m.name))
            else {
                return Err(format!("{}/{} missing from a set", w.name, m.name));
            };
            let (verdict, worse_by) = judge(&va, &vb, m.better, m.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<14} {:<20} {:>16.6} {:>16.6} {:>8.2}% {:>7.2}% {:>7.0}%  {verdict:?}",
                w.name,
                m.name,
                quartiles(&va).1,
                quartiles(&vb).1,
                worse_by * 100.0,
                spread(&va) * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

pub fn files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    sets(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_same_and_beyond_it_regressed() {
        let a = [100.0, 101.0, 99.0];
        let lower = |b: &[f64]| judge(&a, b, Better::Lower, 0.1);
        let higher = |b: &[f64]| judge(&a, b, Better::Higher, 0.1);
        assert_eq!(lower(&[104.0, 105.0, 98.5]).0, Verdict::Same);
        let (verdict, worse) = lower(&[115.0, 116.0, 114.5]);
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worse - 0.15).abs() < 1e-12);
        // Higher-is-better flips the direction.
        assert_eq!(higher(&[85.0, 84.0, 85.5]).0, Verdict::Regressed);
        assert_eq!(higher(&[104.0, 105.0, 99.5]).0, Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 125.0, 90.0, 111.0];
        assert!(spread(&noisy) > 0.1);
        assert_eq!(
            judge(&noisy, &[100.0, 99.0, 101.0], Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
        // Even a large apparent regression is unresolved under that noise.
        assert_eq!(
            judge(&noisy, &[130.0, 131.0, 85.0], Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_run_better_wins_even_when_noisy() {
        let noisy = [80.0, 100.0, 125.0, 90.0, 111.0];
        assert_eq!(
            judge(&noisy, &[70.0, 75.0, 79.0], Better::Lower, 0.1).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&noisy, &[126.0, 130.0], Better::Higher, 0.1).0,
            Verdict::Better
        );
        // A tie counts for neither side.
        assert_ne!(
            judge(&[100.0], &[100.0], Better::Lower, 0.1).0,
            Verdict::Better
        );
    }

    #[test]
    fn degraded_or_differently_sized_sets_are_refused() {
        let set = |gateable: bool, threads: f64| {
            Json::obj([
                ("gateable", Json::Bool(gateable)),
                ("host", Json::obj([("threads", Json::Num(threads))])),
                ("workloads", Json::Obj(vec![])),
            ])
        };
        assert!(sets(&set(false, 2.0), &set(true, 2.0))
            .unwrap_err()
            .contains("degraded"));
        assert!(sets(&set(true, 2.0), &set(true, 4.0))
            .unwrap_err()
            .contains("equal threads"));
        assert!(sets(&set(true, 2.0), &set(true, 2.0))
            .unwrap_err()
            .contains("missing"));
    }
}
