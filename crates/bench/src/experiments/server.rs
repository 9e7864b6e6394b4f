//! Beyond-paper experiment: the networked epoch server (`combar-net`)
//! replayed in virtual time — barrier-as-a-service under wire loss and
//! session churn.
//!
//! The real server is threads and wall clocks; this model replays the
//! same protocol shape deterministically so the experiment table is
//! byte-identical across runs and `COMBAR_THREADS` settings and can be
//! golden-snapshotted:
//!
//! * every session samples its inter-episode work from a seeded normal
//!   stream, then sends its `Arrive` through a [`NetFaultPlan`] on the
//!   exact stream convention the wire harness uses (send = `2·sid`,
//!   receive = `2·sid + 1`) — a dropped frame costs a client
//!   retransmission timeout, a delayed frame extra hops;
//! * shards aggregate their sessions' deliveries (max + one hop), the
//!   root aggregates the shards, and the release broadcast pays the
//!   downlink faults the same way;
//! * the churn scenario kills `k` sessions at one episode — survivors
//!   pay the lease-detection grace once, the victims are evicted and
//!   later rejoin.
//!
//! Three scenarios share one preset: `clean` (no faults), `lossy` (the
//! acceptance mix: drop + duplicate at [`ServerSim::loss`]), and
//! `churn` (lossy plus `k` kills). Reported per scenario: virtual
//! episodes/sec, p50/p99 arrive→release latency, retransmissions,
//! evictions, rejoins. The wall-clock companions against the real
//! server are `benchmark/`'s `served_clean` and `served_lossy`.

use crate::experiments::seeds;
use crate::experiments::wire::transmit;
use crate::table::{fmt_us, Table};
use combar::presets::ServerSim;
use combar_chaos::{NetChaosConfig, NetFaultPlan};
use combar_exec::Sweep;
use combar_rng::stats::nearest_rank;
use combar_rng::{Distribution, Normal, SeedableRng, Xoshiro256pp};

/// The three wire conditions, one sweep cell each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Perfect wire, stable membership.
    Clean,
    /// Drop + duplicate at the preset's loss rate.
    Lossy,
    /// Lossy wire plus `k` sessions killed and later rejoining.
    Churn,
}

impl Scenario {
    /// Fixed table order.
    pub const ALL: [Scenario; 3] = [Scenario::Clean, Scenario::Lossy, Scenario::Churn];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Lossy => "lossy",
            Scenario::Churn => "churn",
        }
    }

    fn loss(self, preset: &ServerSim) -> f64 {
        match self {
            Scenario::Clean => 0.0,
            Scenario::Lossy | Scenario::Churn => preset.loss,
        }
    }

    fn kills(self, preset: &ServerSim) -> u32 {
        match self {
            Scenario::Churn => preset.kill,
            _ => 0,
        }
    }
}

/// One scenario's aggregate outcome.
#[derive(Debug, Clone)]
pub struct ServerRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Episodes the server completed (every scenario runs the full
    /// schedule — degradation folds membership, it never wedges).
    pub episodes: u32,
    /// Virtual throughput: episodes per simulated second.
    pub eps_per_sec: f64,
    /// Median arrive→release latency, µs.
    pub p50_us: f64,
    /// Tail arrive→release latency, µs.
    pub p99_us: f64,
    /// Client retransmissions forced by dropped frames (both
    /// directions).
    pub retries: u64,
    /// Sessions the lease supervisor evicted.
    pub evictions: u32,
    /// Evicted sessions that rejoined.
    pub rejoins: u32,
}

/// Everything the server experiment produces.
#[derive(Debug, Clone)]
pub struct ServerResult {
    /// The run shape.
    pub preset: ServerSim,
    /// One row per scenario, in [`Scenario::ALL`] order.
    pub rows: Vec<ServerRow>,
}

fn soak(preset: &ServerSim, scenario: Scenario) -> ServerRow {
    let n = preset.sessions as usize;
    let loss = scenario.loss(preset);
    let kills = scenario.kills(preset);
    let seed = seeds::server(loss, kills);
    let plan = if loss > 0.0 {
        NetFaultPlan::new(NetChaosConfig::lossy(seed, loss))
    } else {
        NetFaultPlan::quiet(seed)
    };
    let spread = Normal::new(preset.work_mean_us, preset.sigma_us).expect("valid sigma");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let victims = if kills > 0 {
        preset.victims()
    } else {
        Vec::new()
    };

    let mut alive = vec![true; n];
    // When each session can start its next episode's work (the instant
    // it observed the previous release).
    let mut ready = vec![0.0f64; n];
    let mut send_idx = vec![0u64; n];
    let mut recv_idx = vec![0u64; n];
    let mut latencies: Vec<f64> = Vec::new();
    let mut retries = 0u64;
    let mut evictions = 0u32;
    let mut rejoins = 0u32;
    let mut last_release = 0.0f64;

    for ep in 0..preset.episodes {
        if kills > 0 && ep == preset.kill_episode {
            for &v in &victims {
                alive[v as usize] = false;
            }
        }
        if kills > 0 && ep == preset.rejoin_episode {
            for &v in &victims {
                alive[v as usize] = true;
                // A rejoiner catches up at the frontier, not at its
                // stale pre-eviction clock.
                ready[v as usize] = last_release;
                rejoins += 1;
            }
        }
        // Arrivals: one work sample per (session, episode) regardless
        // of liveness keeps the RNG stream aligned across scenarios
        // (common random numbers) — scenario columns differ only by
        // wire faults and membership.
        let mut arrive = vec![0.0f64; n];
        let mut delivered = vec![f64::NEG_INFINITY; n];
        for sid in 0..n {
            let work = spread.sample(&mut rng).max(0.0);
            if !alive[sid] {
                continue;
            }
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
        // Aggregation: shard receipt = max delivery over its sessions
        // plus one shard→root hop; the root releases once the last
        // shard reports.
        let mut release = 0.0f64;
        for shard in 0..preset.shards as usize {
            let latest = (0..n)
                .filter(|sid| alive[*sid] && sid % preset.shards as usize == shard)
                .map(|sid| delivered[sid])
                .fold(f64::NEG_INFINITY, f64::max);
            if latest > f64::NEG_INFINITY {
                release = release.max(latest + preset.hop_us);
            }
        }
        release += preset.hop_us;
        if kills > 0 && ep == preset.kill_episode {
            // The kill episode completes only after the lease
            // supervisor has waited out its grace and folded the
            // victims' shards with proxy arrivals.
            release += preset.detect_us;
            evictions += kills;
        }
        // Release broadcast back down the faulty wire.
        for sid in 0..n {
            if !alive[sid] {
                continue;
            }
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
        last_release = release;
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let makespan_us = ready.iter().fold(0.0f64, |m, &r| m.max(r));
    ServerRow {
        scenario: scenario.label(),
        episodes: preset.episodes,
        eps_per_sec: preset.episodes as f64 / (makespan_us / 1e6),
        p50_us: nearest_rank(&latencies, 0.50).unwrap_or(0.0),
        p99_us: nearest_rank(&latencies, 0.99).unwrap_or(0.0),
        retries,
        evictions,
        rejoins,
    }
}

/// Runs the three scenarios, one parallel [`Sweep`] cell each.
pub fn run(preset: &ServerSim) -> ServerResult {
    let rows: Vec<ServerRow> =
        Sweep::new(seeds::BASE, Scenario::ALL.to_vec()).run(|cell| soak(preset, *cell.param));
    ServerResult {
        preset: preset.clone(),
        rows,
    }
}

impl ServerResult {
    /// Renders the table.
    pub fn render(&self) -> String {
        let p = &self.preset;
        let mut t = Table::new(
            format!(
                "server: networked epoch barrier (sessions={}, shards={}, σ={}µs, loss {:.0}%, kill k={}@{} rejoin@{}, rto {}µs, detect {}µs)",
                p.sessions,
                p.shards,
                p.sigma_us,
                p.loss * 100.0,
                p.kill,
                p.kill_episode,
                p.rejoin_episode,
                p.rto_us,
                p.detect_us
            ),
            &[
                "scenario",
                "episodes",
                "eps/sec",
                "p50",
                "p99",
                "retries",
                "evict",
                "rejoin",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.scenario.to_string(),
                r.episodes.to_string(),
                format!("{:.1}", r.eps_per_sec),
                fmt_us(r.p50_us),
                fmt_us(r.p99_us),
                r.retries.to_string(),
                r.evictions.to_string(),
                r.rejoins.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> ServerResult {
        run(&ServerSim::quick())
    }

    #[test]
    fn run_is_deterministic() {
        let a = result().render();
        let b = result().render();
        assert_eq!(a, b);
    }

    #[test]
    fn clean_wire_needs_no_retries_or_evictions() {
        let res = result();
        let clean = &res.rows[0];
        assert_eq!(clean.scenario, "clean");
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.evictions, 0);
        assert_eq!(clean.rejoins, 0);
    }

    #[test]
    fn loss_forces_retries_and_costs_throughput() {
        let res = result();
        let (clean, lossy) = (&res.rows[0], &res.rows[1]);
        assert_eq!(lossy.scenario, "lossy");
        assert!(lossy.retries > 0, "5% drop must force retransmissions");
        assert!(lossy.eps_per_sec < clean.eps_per_sec);
        assert!(lossy.p99_us > clean.p99_us);
    }

    #[test]
    fn churn_evicts_and_rejoins_every_victim() {
        let res = result();
        let churn = &res.rows[2];
        assert_eq!(churn.scenario, "churn");
        assert_eq!(churn.evictions, res.preset.kill);
        assert_eq!(churn.rejoins, res.preset.kill);
        // Degradation, not a wedge: the full schedule still completes.
        assert_eq!(churn.episodes, res.preset.episodes);
    }

    #[test]
    fn every_scenario_completes_the_schedule_with_sane_tails() {
        for r in result().rows {
            assert_eq!(r.episodes, ServerSim::quick().episodes);
            assert!(r.eps_per_sec > 0.0);
            assert!(r.p99_us >= r.p50_us, "{}: p99 below p50", r.scenario);
            assert!(r.p50_us > 0.0);
        }
    }
}
