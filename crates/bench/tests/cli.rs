//! End-to-end coverage of the `experiments` binary's CLI surface:
//! `--list`, `--only` (both spellings), the `--json` stream (schema
//! header first), and `COMBAR_THREADS` invariance — run at `--quick`
//! size so the whole file stays a smoke test.

use combar_bench::experiments::{all_ids, REGISTRY};
use std::process::{Command, Output};

fn experiments(args: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args);
    if let Some(t) = threads {
        cmd.env("COMBAR_THREADS", t);
    }
    cmd.output().expect("spawn experiments binary")
}

fn stdout_of(args: &[&str], threads: Option<&str>) -> String {
    let out = experiments(args, threads);
    assert!(
        out.status.success(),
        "experiments {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `--list` is the registry's `all` expansion, in registry order, and
/// no id — listed or not — is owned twice (a duplicate would shadow an
/// experiment, or run one twice under `all`).
#[test]
fn list_names_every_id_including_server() {
    let listed = stdout_of(&["--list"], None);
    let expected: Vec<&str> = all_ids().collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), expected);
    let mut ids: Vec<&str> = REGISTRY.iter().flat_map(|e| e.ids).copied().collect();
    let owned = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), owned, "an id is owned twice in the registry");
}

#[test]
fn only_server_renders_all_three_scenarios() {
    let out = stdout_of(&["--quick", "--only", "server"], None);
    assert!(out.contains("networked epoch barrier"), "{out}");
    for scenario in ["clean", "lossy", "churn"] {
        assert!(out.contains(scenario), "missing scenario row {scenario}");
    }
    // `--only=` spelling selects the same experiment.
    let eq = stdout_of(&["--quick", "--only=server"], None);
    assert_eq!(out, eq);
}

#[test]
fn json_stream_leads_with_schema_header() {
    let out = stdout_of(&["--quick", "--json", "--only", "server"], None);
    let mut lines = out.lines();
    assert_eq!(
        lines.next(),
        Some(r#"{"schema":"combar-experiments/1"}"#),
        "first JSON line must be the schema header"
    );
    let body = lines.next().expect("one object per id");
    assert!(body.starts_with(r#"{"id":"server""#), "{body}");
    assert!(body.contains(r#""tables":["#), "{body}");
    assert!(body.contains("eps/sec"), "{body}");
    assert_eq!(lines.next(), None, "exactly one object for one id");
}

#[test]
fn only_balance_renders_regimes_and_mirror() {
    let out = stdout_of(&["--quick", "--only", "balance"], None);
    assert!(out.contains("placement vs placement+diffusion"), "{out}");
    for regime in ["static", "dynamic", "dyn+diff"] {
        assert!(out.contains(regime), "missing regime row {regime}");
    }
    assert!(out.contains("DES mirror"), "{out}");
    let json = stdout_of(&["--quick", "--json", "--only", "balance"], None);
    let body = json.lines().nth(1).expect("one object per id");
    assert!(body.starts_with(r#"{"id":"balance""#), "{body}");
    assert!(body.contains("units moved"), "{body}");
}

#[test]
fn unknown_id_fails_with_usage() {
    let out = experiments(&["no-such-experiment"], None);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment id"), "{err}");
    let known: Vec<&str> = all_ids().collect();
    assert!(
        err.contains(&format!("known: {} all", known.join(" "))),
        "{err}"
    );
}

/// `COMBAR_THREADS` must never change an output byte. Every registry
/// entry with a snapshot (so: every experiment built to be
/// deterministic) whose stdout carries no wall-clock column is run
/// through the binary at 1 and at 2 workers; the streams must be
/// byte-equal.
#[test]
fn thread_count_never_changes_output_bytes() {
    let ids: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| e.golden.is_some() && !e.wall_clock)
        .flat_map(|e| e.ids)
        .copied()
        .collect();
    let args = ["--quick", "--json", "--only", &ids.join(",")];
    let one = stdout_of(&args, Some("1"));
    let two = stdout_of(&args, Some("2"));
    assert_eq!(one.lines().count(), 1 + ids.len(), "one object per id");
    assert_eq!(one, two, "COMBAR_THREADS leaked into rendered output");
}
