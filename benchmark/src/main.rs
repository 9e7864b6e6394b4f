//! The repo's benchmark. One command runs one workload in its own
//! process, checks its outputs and prints every metric by name:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `all` runs the whole set and records it, `compare` holds one recorded
//! set against another, `spec` prints `BENCHMARK.json`. See README.md.

mod compare;
mod host;
mod json;
mod run;
mod spans;
mod spec;
mod stamps;
mod stats;
mod wire;
mod workloads;

use std::process::ExitCode;

use host::Host;
use json::Json;
use run::{Ctx, Report};
use stats::Summary;

const USAGE: &str = "usage:
  run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
  all [--seed <u64>] [--seconds <n>] [--runs <n>] [--out <set.json>]
  compare <a.json> <b.json>
  spec";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run_one(&f)),
        Some("all") => Flags::parse(&args[1..]).and_then(|f| run_all(&f)),
        Some("compare") if args.len() == 3 => compare::files(&args[1], &args[2]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    runs: usize,
    out: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            runs: 3,
            ..Flags::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => flags.workload = Some(value.clone()),
                "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(1.0..=60.0).contains(&s) {
                        return Err(bad());
                    }
                    flags.seconds = Some(s);
                }
                "--trace" => {
                    flags.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--runs" => flags.runs = value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?,
                "--out" => flags.out = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        Ok(flags)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(f64::from(spec::RUN_SECONDS))
    }
}

/// `run`: one workload, one process. Prints a table of every metric
/// with its block quartiles, the failed checks if any, and as the last
/// line the result object the driver reads.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("run needs --workload")?;
    let ctx = Ctx {
        seed: flags.seed,
        seconds: flags.seconds(),
        traced: flags.traced,
        host: Host::detect(),
    };
    let mut report = workloads::run(name, &ctx).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload {name}; have {}", known.join(", "))
    })?;
    if ctx.traced {
        write_trace(name, &report)?;
    } else {
        let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        report.set_value("peak_rss_mb", rss);
    }

    let wanted: Vec<(&str, &str)> = if ctx.traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!(
        "{name} seed={} seconds={} trace={} cores={} threads={}{}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        ctx.host.cores,
        ctx.host.threads,
        if ctx.host.degraded { " DEGRADED" } else { "" }
    );
    println!(
        "{:<42} {:>18} {:<6} {:>16} {:>16} {:>6}",
        "metric", "value", "unit", "q1", "q3", "blocks"
    );
    let mut metrics = Vec::new();
    for (metric, unit) in wanted {
        // A layer this workload does not exercise reads 0; an
        // end-to-end metric must have been measured.
        let s = match report.get(metric) {
            Some(s) => s,
            None if ctx.traced => Summary::single(0.0),
            None => return Err(format!("{name} did not measure {metric}")),
        };
        if !s.median.is_finite() {
            report.fail(1, format!("{metric} is {}", s.median));
            continue;
        }
        println!(
            "{metric:<42} {:>18} {unit:<6} {:>16} {:>16} {:>6}",
            s.median, s.q1, s.q3, s.blocks
        );
        metrics.push((
            metric,
            Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(unit))]),
        ));
    }
    for why in &report.failures {
        println!("FAILED CHECK: {why}");
    }
    let correct = report.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(correct)
}

fn write_trace(name: &str, report: &Report) -> Result<(), String> {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{name}.jsonl"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| report.spans.write_jsonl(std::io::BufWriter::new(f)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `all`: every workload `--runs` times untraced and once traced, each
/// in a child process of this same executable; the values land in one
/// set file `compare` can read, and `BENCHMARK.json` is rewritten from
/// the tables in spec.rs.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let host = Host::detect();
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in spec::WORKLOADS {
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        for traced in std::iter::repeat_n(false, flags.runs).chain([true]) {
            let out = std::process::Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds().to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(last).map_err(|e| format!("{}: {e}\n{stdout}", w.name))?;
            let correct = result.get("correct") == Some(&Json::Bool(true));
            eprintln!(
                "{:<14} trace={} correct={correct} failed={}",
                w.name,
                u8::from(traced),
                result.get("failed").and_then(Json::as_f64).unwrap_or(-1.0)
            );
            if !(correct && out.status.success()) {
                eprint!("{stdout}");
                ok = false;
            }
            for (metric, v) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let v = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                match values.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, vs)) => vs.push(v),
                    None => values.push((metric.clone(), vec![v])),
                }
            }
        }
        let metrics = values
            .into_iter()
            .map(|(m, vs)| (m, Json::Arr(vs.into_iter().map(Json::Num).collect())));
        workloads.push((w.name, Json::obj(metrics)));
    }
    let set = Json::obj([
        ("host", host.to_json()),
        ("seed", Json::Num(flags.seed as f64)),
        ("seconds", Json::Num(flags.seconds())),
        ("gateable", Json::Bool(!host.degraded)),
        ("workloads", Json::obj(workloads)),
        // Written down before anything is optimised: the end-to-end
        // metric and workload each per-layer number should move.
        (
            "predictions",
            Json::obj(spec::PER_LAYER.iter().map(|m| (m.name, Json::str(m.moves)))),
        ),
    ]);
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| format!("benchmark/out/set-{}.json", flags.seed));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, set.pretty()).map_err(|e| format!("{out}: {e}"))?;
    std::fs::write("BENCHMARK.json", spec::benchmark_json().pretty())
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    eprintln!("wrote {out} and BENCHMARK.json");
    Ok(ok)
}
