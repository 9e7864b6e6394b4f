//! Beyond-paper experiment: crash recovery of the journaled epoch
//! server replayed in virtual time — what an authority crash *costs*
//! under each recovery design.
//!
//! The threaded soak (`tests/net_restart.rs`) proves the protocol
//! survives real crashes; this model prices them deterministically so
//! the table is byte-identical across runs and `COMBAR_THREADS`
//! settings and can be golden-snapshotted. The wire/arrival model is
//! the `server` experiment's (seeded work draws, faulty uplink and
//! downlink, shard aggregation); this experiment adds the
//! authority-failure axis: at each scripted crash epoch every session
//! stalls for one *outage* —
//!
//! * **detection** — the lease/standby grace before anyone concludes
//!   the primary is dead;
//! * **journal replay** — `replay_us_per_record` × however many
//!   records recovery must read: the full history for a cold restart
//!   without snapshots, the snapshot plus a bounded tail when
//!   compaction runs every [`RestartSim::snapshot_every`] episodes, a
//!   near-empty tail for a warm standby that was tailing the journal
//!   all along;
//! * **resume** — every surviving session re-proves its position
//!   through the `Resume` challenge, serialized per shard.
//!
//! Four scenarios share one preset and one seed (common random
//! numbers — columns differ only by recovery design): `clean` (lossy
//! wire, no crashes), `cold` (full-history replay), `snapshot`
//! (replay bounded by compaction), `failover` (warm standby
//! promotion). Reported per scenario: virtual episodes/sec, p50/p99
//! arrive→release latency, crashes survived, mean recovery cost, and
//! total outage. The wall-clock companion against the real journaled
//! server is `benches/restart_recovery.rs` → `BENCH_restart.json`.

use crate::experiments::seeds;
use crate::experiments::wire::transmit;
use crate::table::{fmt_us, Table};
use combar::presets::RestartSim;
use combar_chaos::{NetChaosConfig, NetFaultPlan};
use combar_exec::Sweep;
use combar_rng::stats::nearest_rank;
use combar_rng::{Distribution, Normal, SeedableRng, Xoshiro256pp};

/// The four recovery designs, one sweep cell each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Lossy wire, but the authority never dies.
    Clean,
    /// Crashes recovered by replaying the full journal history.
    Cold,
    /// Crashes recovered from the latest snapshot plus a bounded tail.
    Snapshot,
    /// Crashes recovered by promoting a warm standby that was tailing
    /// the journal (replay already done; only the tail since its last
    /// heartbeat remains).
    Failover,
}

impl Scenario {
    /// Fixed table order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Clean,
        Scenario::Cold,
        Scenario::Snapshot,
        Scenario::Failover,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Cold => "cold",
            Scenario::Snapshot => "snapshot",
            Scenario::Failover => "failover",
        }
    }

    fn crashes(self, preset: &RestartSim) -> u32 {
        match self {
            Scenario::Clean => 0,
            _ => preset.kills,
        }
    }
}

/// One scenario's aggregate outcome.
#[derive(Debug, Clone)]
pub struct RestartRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Episodes completed (crashes delay, they never wedge).
    pub episodes: u32,
    /// Virtual throughput: episodes per simulated second.
    pub eps_per_sec: f64,
    /// Median arrive→release latency, µs.
    pub p50_us: f64,
    /// Tail arrive→release latency, µs (the crash epochs live here).
    pub p99_us: f64,
    /// Authority crashes survived.
    pub crashes: u32,
    /// Mean recovery cost per crash (detection + replay + resume), µs.
    pub recovery_us: f64,
    /// Total virtual time the service was unavailable, µs.
    pub outage_us: f64,
    /// Client retransmissions forced by dropped frames.
    pub retries: u64,
}

/// Everything the restart experiment produces.
#[derive(Debug, Clone)]
pub struct RestartResult {
    /// The run shape.
    pub preset: RestartSim,
    /// One row per scenario, in [`Scenario::ALL`] order.
    pub rows: Vec<RestartRow>,
}

/// Journal records recovery must replay for a crash at `ep`: the
/// roster (one join/snapshot entry per session) plus one episode
/// record per epoch since the replay base — epoch 0 for a cold
/// restart, the last snapshot for a snapshotting server, the standby's
/// last applied batch (at most one heartbeat interval ≈ 1 episode
/// behind) for a promotion.
fn replay_records(scenario: Scenario, preset: &RestartSim, ep: u32) -> u64 {
    let roster = preset.sessions as u64;
    let tail = match scenario {
        Scenario::Clean => 0,
        Scenario::Cold => ep as u64,
        Scenario::Snapshot => {
            // A crash landing exactly on a compaction boundary cannot
            // assume that boundary's snapshot was durable before the
            // crash — recovery replays the full interval behind it.
            let every = preset.snapshot_every.max(1) as u64;
            let tail = ep as u64 % every;
            if tail == 0 {
                every
            } else {
                tail
            }
        }
        Scenario::Failover => 1,
    };
    roster + tail
}

fn soak(preset: &RestartSim, scenario: Scenario) -> RestartRow {
    let n = preset.sessions as usize;
    let crashes = scenario.crashes(preset);
    let seed = seeds::restart(preset.loss, preset.kills);
    let plan = if preset.loss > 0.0 {
        NetFaultPlan::new(NetChaosConfig::lossy(seed, preset.loss))
    } else {
        NetFaultPlan::quiet(seed)
    };
    let spread = Normal::new(preset.work_mean_us, preset.sigma_us).expect("valid sigma");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let crash_epochs = if crashes > 0 {
        preset.crash_epochs()
    } else {
        Vec::new()
    };

    let mut ready = vec![0.0f64; n];
    let mut send_idx = vec![0u64; n];
    let mut recv_idx = vec![0u64; n];
    let mut latencies: Vec<f64> = Vec::new();
    let mut retries = 0u64;
    let mut outage_us = 0.0f64;
    let mut recoveries: Vec<f64> = Vec::new();

    for ep in 0..preset.episodes {
        // Arrivals: one work sample per (session, episode) in a fixed
        // order keeps the RNG stream aligned across scenarios (common
        // random numbers) — columns differ only by recovery design.
        let mut arrive = vec![0.0f64; n];
        let mut delivered = vec![0.0f64; n];
        for sid in 0..n {
            let work = spread.sample(&mut rng).max(0.0);
            arrive[sid] = ready[sid] + work;
            let (cost, r) = transmit(
                &plan,
                2 * sid as u64,
                &mut send_idx[sid],
                preset.rto_us,
                preset.hop_us,
            );
            retries += r;
            delivered[sid] = arrive[sid] + cost;
        }
        // Shard aggregation, then the root release.
        let mut release = 0.0f64;
        for shard in 0..preset.shards as usize {
            let latest = (0..n)
                .filter(|sid| sid % preset.shards as usize == shard)
                .map(|sid| delivered[sid])
                .fold(f64::NEG_INFINITY, f64::max);
            if latest > f64::NEG_INFINITY {
                release = release.max(latest + preset.hop_us);
            }
        }
        release += preset.hop_us;
        // A crash at this epoch: the release was journaled (WAL before
        // broadcast) but the fan-out dies. Every session pays the
        // outage — detection, journal replay, and the per-shard
        // serialized resume handshakes — before it hears the re-ack.
        if crash_epochs.contains(&ep) {
            let replay = preset.replay_us_per_record * replay_records(scenario, preset, ep) as f64;
            let resumes =
                preset.resume_us * (preset.sessions as f64 / preset.shards.max(1) as f64).ceil();
            let recovery = preset.detect_us + replay + resumes;
            recoveries.push(recovery);
            outage_us += recovery;
            release += recovery;
        }
        // Release broadcast back down the faulty wire.
        for sid in 0..n {
            let (cost, r) = transmit(
                &plan,
                2 * sid as u64 + 1,
                &mut recv_idx[sid],
                preset.rto_us,
                preset.hop_us,
            );
            retries += r;
            let observed = release + cost;
            latencies.push(observed - arrive[sid]);
            ready[sid] = observed;
        }
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let makespan_us = ready.iter().fold(0.0f64, |m, &r| m.max(r));
    RestartRow {
        scenario: scenario.label(),
        episodes: preset.episodes,
        eps_per_sec: preset.episodes as f64 / (makespan_us / 1e6),
        p50_us: nearest_rank(&latencies, 0.50).unwrap_or(0.0),
        p99_us: nearest_rank(&latencies, 0.99).unwrap_or(0.0),
        crashes,
        recovery_us: if recoveries.is_empty() {
            0.0
        } else {
            recoveries.iter().sum::<f64>() / recoveries.len() as f64
        },
        outage_us,
        retries,
    }
}

/// Runs the four scenarios, one parallel [`Sweep`] cell each.
pub fn run(preset: &RestartSim) -> RestartResult {
    let rows: Vec<RestartRow> =
        Sweep::new(seeds::BASE, Scenario::ALL.to_vec()).run(|cell| soak(preset, *cell.param));
    RestartResult {
        preset: preset.clone(),
        rows,
    }
}

impl RestartResult {
    /// Renders the table.
    pub fn render(&self) -> String {
        let p = &self.preset;
        let mut t = Table::new(
            format!(
                "restart: journaled epoch server crash recovery (sessions={}, shards={}, σ={}µs, loss {:.0}%, k={} crashes, detect {}µs, replay {}µs/rec, snapshot every {})",
                p.sessions,
                p.shards,
                p.sigma_us,
                p.loss * 100.0,
                p.kills,
                p.detect_us,
                p.replay_us_per_record,
                p.snapshot_every
            ),
            &[
                "scenario",
                "episodes",
                "eps/sec",
                "p50",
                "p99",
                "crashes",
                "recovery",
                "outage",
                "retries",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.scenario.to_string(),
                r.episodes.to_string(),
                format!("{:.1}", r.eps_per_sec),
                fmt_us(r.p50_us),
                fmt_us(r.p99_us),
                r.crashes.to_string(),
                fmt_us(r.recovery_us),
                fmt_us(r.outage_us),
                r.retries.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RestartResult {
        run(&RestartSim::quick())
    }

    #[test]
    fn run_is_deterministic() {
        let a = result().render();
        let b = result().render();
        assert_eq!(a, b);
    }

    #[test]
    fn clean_has_no_crashes_and_no_outage() {
        let res = result();
        let clean = &res.rows[0];
        assert_eq!(clean.scenario, "clean");
        assert_eq!(clean.crashes, 0);
        assert_eq!(clean.outage_us, 0.0);
    }

    #[test]
    fn recovery_cost_orders_cold_above_snapshot_above_failover() {
        let res = result();
        let by = |label: &str| {
            res.rows
                .iter()
                .find(|r| r.scenario == label)
                .unwrap_or_else(|| panic!("missing scenario {label}"))
                .clone()
        };
        let (cold, snap, fo) = (by("cold"), by("snapshot"), by("failover"));
        assert!(
            cold.recovery_us > snap.recovery_us,
            "full-history replay must cost more than snapshot+tail: {} <= {}",
            cold.recovery_us,
            snap.recovery_us
        );
        assert!(
            snap.recovery_us > fo.recovery_us,
            "snapshot replay must cost more than a warm promotion: {} <= {}",
            snap.recovery_us,
            fo.recovery_us
        );
        assert!(cold.outage_us > 0.0 && fo.outage_us > 0.0);
        // Every crashy scenario still finishes the full schedule.
        for r in &res.rows {
            assert_eq!(r.episodes, res.preset.episodes);
        }
    }

    #[test]
    fn common_random_numbers_make_clean_the_throughput_ceiling() {
        let res = result();
        let clean = res.rows[0].eps_per_sec;
        for r in res.rows.iter().skip(1) {
            assert!(
                r.eps_per_sec < clean,
                "{} at {} eps/sec should sit below clean at {clean}",
                r.scenario,
                r.eps_per_sec
            );
        }
    }
}
