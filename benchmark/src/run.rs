//! What a workload is handed and what it hands back.

use std::collections::BTreeMap;

use crate::host::Host;
use crate::spans::SpanLog;
use crate::spec;
use crate::stats::{percentile_of, Summary};

/// One run's inputs. The seed reaches the code under test only as
/// generated inputs (`WorkModel`, `NetChaosConfig` and `SweepConfig`
/// seeds, the async work schedule).
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub host: Host,
}

impl Ctx {
    /// Measured blocks in this run. A traced run keeps the block length
    /// and measures about a third as many.
    pub fn blocks(&self) -> usize {
        if self.traced {
            spec::TRACED_BLOCKS
        } else {
            spec::BLOCKS
        }
    }

    /// Target length of one block: an unstamped part and a stamped part.
    pub fn block_seconds(&self) -> f64 {
        self.seconds / spec::BLOCKS as f64
    }
}

/// Per-block measurements of one workload (or one barrier kind).
#[derive(Debug, Default, Clone)]
pub struct Blocks {
    /// Unstamped episodes per second, one value per block.
    pub rates: Vec<f64>,
    /// Stamped episodes per second, one value per block.
    pub stamped_rates: Vec<f64>,
    /// Sync-delay p50 of each block's stamped episodes.
    pub p50s: Vec<f64>,
    /// Every stamped sync delay of the run, for the tail.
    pub delays: Vec<u64>,
}

impl Blocks {
    pub fn unstamped(&mut self, episodes: u64, ns: u64) {
        self.rates.push(episodes as f64 / (ns.max(1) as f64 * 1e-9));
    }

    pub fn stamped(&mut self, delays: &[u64], ns: u64) {
        self.stamped_rates
            .push(delays.len() as f64 / (ns.max(1) as f64 * 1e-9));
        self.p50s
            .push(percentile_of(&mut delays.to_vec(), 50.0) as f64);
        self.delays.extend_from_slice(delays);
    }

    pub fn episodes_per_s(&self) -> Summary {
        Summary::of_blocks(&self.rates)
    }

    pub fn sync_delay_p50_ns(&self) -> Summary {
        Summary::of_blocks(&self.p50s)
    }

    /// Sets the metrics every workload reports the same way.
    pub fn report(&mut self, r: &mut Report) {
        r.set("episodes_per_s", self.episodes_per_s());
        r.set("sync_delay_p50_ns", self.sync_delay_p50_ns());
        r.set_value(
            "sync_delay_p99_ns",
            percentile_of(&mut self.delays, 99.0) as f64,
        );
        r.set_value("sync_delay_samples", self.delays.len() as f64);
    }

    /// What the benchmark's own stamps cost: how much slower the
    /// stamped episodes ran than the unstamped ones, in percent.
    pub fn report_stamping_overhead(&self, r: &mut Report) {
        let plain = self.episodes_per_s().median;
        let stamped = Summary::of_blocks(&self.stamped_rates).median;
        r.set_value("stamping_overhead_pct", (plain - stamped) / plain * 100.0);
    }
}

/// What a workload hands back: counts, named metrics, failed checks
/// and (traced) its spans.
#[derive(Debug, Default)]
pub struct Report {
    /// Episodes attempted, in every block, warm-up included.
    pub attempted: u64,
    /// Episodes that failed or broke an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, Summary>,
    pub spans: SpanLog,
    /// Wall time the spans' roots should cover, measured apart from them.
    pub span_wall_ns: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: Summary) {
        let known = spec::END_TO_END.iter().any(|m| m.name == name)
            || spec::PER_LAYER.iter().any(|m| m.name == name);
        assert!(known, "metric {name} is not in spec.rs");
        self.metrics.insert(name, value);
    }

    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics.get(name).copied()
    }

    /// Records `count` failed episodes (at least one) and why.
    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        self.failed += count.max(1);
        self.failures.push(why.into());
    }

    /// Folds the recorded spans into their two metrics and checks that
    /// self times add up to the separately measured wall time within 5%.
    pub fn check_spans(&mut self) {
        let own: u64 = self.spans.self_times().values().sum();
        let wall = self.span_wall_ns.max(1);
        let gap = (own as f64 - wall as f64).abs() / wall as f64 * 100.0;
        self.set_value("spans.recorded", self.spans.len() as f64);
        self.set_value("spans.self_time_gap_pct", gap);
        if gap > 5.0 {
            self.fail(1, format!("span self times miss wall time by {gap:.2}%"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_report_medians_and_pool_the_tail() {
        let mut b = Blocks::default();
        for block in 0..15u64 {
            b.unstamped(1000, 1_000_000 + block * 1000); // ~1e6 episodes/s
            let delays: Vec<u64> = (1..=100).map(|d| d + block).collect();
            b.stamped(&delays, 200_000);
        }
        let mut r = Report::default();
        b.report(&mut r);
        b.report_stamping_overhead(&mut r);
        assert_eq!(r.get("sync_delay_p50_ns").unwrap().median, 57.0);
        assert_eq!(r.get("sync_delay_p50_ns").unwrap().blocks, 15);
        assert_eq!(r.get("sync_delay_samples").unwrap().median, 1500.0);
        // p99 over the pooled 1500 samples, not a median of block p99s.
        assert_eq!(r.get("sync_delay_p99_ns").unwrap().median, 109.0);
        let rate = r.get("episodes_per_s").unwrap();
        assert!(rate.q1 <= rate.median && rate.median <= rate.q3);
        assert!(r.get("stamping_overhead_pct").unwrap().median > 0.0);
    }

    #[test]
    #[should_panic(expected = "not in spec.rs")]
    fn unknown_metric_names_are_refused() {
        Report::default().set_value("made.up", 1.0);
    }

    #[test]
    fn span_gap_over_five_percent_fails_the_run() {
        let mut r = Report::default();
        r.spans.push("workload", (0, 1000), None, 0, 0);
        r.span_wall_ns = 1000;
        r.check_spans();
        assert_eq!(r.failed, 0);
        r.span_wall_ns = 1100;
        r.check_spans();
        assert_eq!(r.failed, 1);
    }
}
