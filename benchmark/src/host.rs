//! What the numbers were measured on, and the thread-budget guard.

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// Worker threads every workload is sized to: `clamp(cores, 2, 4)`.
    /// Numbers compare only at equal `threads`.
    pub threads: usize,
    /// Fewer than two cores: the run completes and checks its outputs,
    /// but its timings measure the scheduler and are not gateable.
    pub degraded: bool,
}

impl Host {
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            cores,
            threads: cores.clamp(2, 4),
            degraded: cores < 2,
        }
    }

    /// Refuses, before anything is timed, a workload that would run
    /// more working OS threads than the host has cores. (The main
    /// thread only spawns and joins.) A degraded host is let through:
    /// its file is marked instead.
    pub fn admit(&self, workload: &str, working_threads: usize) {
        assert!(
            self.degraded || working_threads <= self.cores,
            "{workload} wants {working_threads} working threads on {} cores",
            self.cores
        );
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("host_cores", Json::Num(self.cores as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("degraded", Json::Bool(self.degraded)),
            ("rustc", Json::str(command_line("rustc", &["-V"]))),
            (
                "commit",
                Json::str(command_line("git", &["rev-parse", "HEAD"])),
            ),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_follow_the_sizing_rule() {
        let h = Host::detect();
        assert!((2..=4).contains(&h.threads));
        assert_eq!(h.degraded, h.cores < 2);
        h.admit("fits", h.cores);
    }

    #[test]
    #[should_panic(expected = "working threads")]
    fn oversubscription_is_refused() {
        let h = Host {
            cores: 2,
            threads: 2,
            degraded: false,
        };
        h.admit("too_wide", 3);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
