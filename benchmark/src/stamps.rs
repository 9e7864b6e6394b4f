//! The benchmark's clock and the one definition of synchronization
//! delay every workload uses.
//!
//! The benchmark stamps each participant twice per episode, from
//! outside the code under test: when it has arrived (just before
//! `Waiter::wait`, just after `send_arrive` returns, at the end of a
//! `wait_async` future's first poll) and when it observes the release
//! (`wait` returned, `poll_release` said `Ok`, the future's resuming
//! poll began). An episode's **sync delay** runs from the latest
//! arrival stamp to the latest release stamp.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. One origin for
/// every thread, so stamps from different threads compare.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One participant's two stamps for one episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Crossing {
    pub arrived_ns: u64,
    pub released_ns: u64,
}

/// What one episode's stamps say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeDelay {
    /// Latest arrival → latest observed release.
    pub sync_ns: u64,
    /// The last arriver's own arrival → its own release: on `rt_*` the
    /// length of its `wait()` call (combine and release write).
    pub arrive_phase_ns: u64,
    /// The last arriver's release → the latest release: how long the
    /// release took to reach the slowest waiter.
    pub notify_phase_ns: u64,
    /// Index of the participant that arrived last.
    pub last_arriver: usize,
    /// The barrier property itself: nobody observed the release before
    /// everybody had arrived.
    pub safe: bool,
}

/// Folds one episode's crossings (one per participant) into its delays.
pub fn episode_delay(crossings: &[Crossing]) -> EpisodeDelay {
    assert!(!crossings.is_empty(), "an episode needs participants");
    let (last_arriver, last) = crossings
        .iter()
        .enumerate()
        .max_by_key(|(i, c)| (c.arrived_ns, std::cmp::Reverse(*i)))
        .expect("non-empty");
    let last_release = crossings
        .iter()
        .map(|c| c.released_ns)
        .max()
        .expect("non-empty");
    let first_release = crossings
        .iter()
        .map(|c| c.released_ns)
        .min()
        .expect("non-empty");
    EpisodeDelay {
        sync_ns: last_release.saturating_sub(last.arrived_ns),
        arrive_phase_ns: last.released_ns.saturating_sub(last.arrived_ns),
        notify_phase_ns: last_release.saturating_sub(last.released_ns),
        last_arriver,
        safe: first_release >= last.arrived_ns,
    }
}

/// Per-episode delays from per-participant stamp vectors
/// (`stamps[participant][episode]`). All vectors must be equally long:
/// unequal episode counts are themselves a failed check, reported by
/// the caller before it gets here.
pub fn episode_delays(stamps: &[Vec<Crossing>]) -> Vec<EpisodeDelay> {
    let episodes = stamps.first().map_or(0, Vec::len);
    assert!(
        stamps.iter().all(|s| s.len() == episodes),
        "participants stamped different episode counts"
    );
    let mut row = Vec::with_capacity(stamps.len());
    (0..episodes)
        .map(|e| {
            row.clear();
            row.extend(stamps.iter().map(|s| s[e]));
            episode_delay(&row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(arrived_ns: u64, released_ns: u64) -> Crossing {
        Crossing {
            arrived_ns,
            released_ns,
        }
    }

    /// Three threads, two episodes, built by hand.
    ///
    /// Episode 0: thread 1 arrives last at t=300, spends 40 ns in its
    /// own `wait()` (returns at 340); thread 0 sees the release at 355,
    /// thread 2 at 390. Sync delay is 300 → 390.
    ///
    /// Episode 1: thread 2 is the straggler (arrives 900, returns 930)
    /// and is also the last to return, so the whole delay is its own
    /// arrive phase and the notify phase is zero.
    #[test]
    fn hand_built_three_thread_example() {
        let stamps = vec![
            vec![c(100, 355), c(500, 925)],
            vec![c(300, 340), c(520, 928)],
            vec![c(120, 390), c(900, 930)],
        ];
        let d = episode_delays(&stamps);
        assert_eq!(
            d[0],
            EpisodeDelay {
                sync_ns: 90,
                arrive_phase_ns: 40,
                notify_phase_ns: 50,
                last_arriver: 1,
                safe: true,
            }
        );
        assert_eq!(
            d[1],
            EpisodeDelay {
                sync_ns: 30,
                arrive_phase_ns: 30,
                notify_phase_ns: 0,
                last_arriver: 2,
                safe: true,
            }
        );
        assert!(d
            .iter()
            .all(|d| d.sync_ns == d.arrive_phase_ns + d.notify_phase_ns));
    }

    #[test]
    fn early_release_is_flagged_unsafe() {
        // Thread 0 "observed release" at 150, before thread 1 arrived
        // at 200: a barrier that let someone through early.
        let d = episode_delay(&[c(100, 150), c(200, 260)]);
        assert!(!d.safe);
        assert_eq!(d.sync_ns, 60);
    }

    #[test]
    fn simultaneous_arrivals_pick_the_lowest_index() {
        let d = episode_delay(&[c(50, 70), c(50, 80)]);
        assert_eq!(d.last_arriver, 0);
        assert_eq!(
            (d.arrive_phase_ns, d.notify_phase_ns, d.sync_ns),
            (20, 10, 30)
        );
    }

    #[test]
    fn the_clock_never_runs_backwards() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
