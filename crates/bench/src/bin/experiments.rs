//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p combar-bench --release --bin experiments -- all
//! cargo run -p combar-bench --release --bin experiments -- fig2 fig8
//! cargo run -p combar-bench --release --bin experiments -- --only fig2,fig8
//! cargo run -p combar-bench --release --bin experiments -- --list
//! ```
//!
//! The ids are the registry's
//! ([`combar_bench::experiments::REGISTRY`]); `--list` prints the ones
//! `all` expands to and exits. A `--quick` flag shrinks replication
//! counts for smoke runs; `--only a,b,c` selects a comma-separated
//! subset. `verify` grades the reproduction against the paper's
//! reference values and exits non-zero on failure. `--json` emits one
//! JSON object per id (JSON Lines) instead of text tables — derived by
//! parsing the rendered tables, so the text renderers (and their
//! golden snapshots) stay the single source of truth. The first JSON
//! line is a header object naming the stream's schema version
//! (`{"schema":"combar-experiments/1"}`); consumers should skip
//! objects whose keys they do not recognize. Parallelism is governed
//! by `COMBAR_THREADS` (default: all cores) and never changes any
//! output byte.

use combar_bench::experiments::{all_ids, lookup, Rendered, REGISTRY};
use combar_bench::table::{json_escape, parse_rendered};
use std::time::Instant;

/// Prints one experiment's output: text verbatim, or one JSON-Lines
/// object with the tables parsed back out of the rendering (non-table
/// output is carried under `"raw"` instead).
fn emit(json: bool, id: &str, out: &str) {
    if !json {
        print!("{out}");
        return;
    }
    let tables = parse_rendered(out);
    if tables.is_empty() {
        println!(
            "{{\"id\":\"{}\",\"raw\":\"{}\"}}",
            json_escape(id),
            json_escape(out)
        );
    } else {
        let rendered: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
        println!(
            "{{\"id\":\"{}\",\"tables\":[{}]}}",
            json_escape(id),
            rendered.join(",")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--list" => {
                for id in all_ids() {
                    println!("{id}");
                }
                return;
            }
            "--only" => {
                let Some(names) = it.next() else {
                    eprintln!("--only requires a comma-separated list of ids");
                    std::process::exit(2);
                };
                ids.extend(names.split(',').filter(|s| !s.is_empty()).map(String::from));
            }
            other => {
                if let Some(names) = other.strip_prefix("--only=") {
                    ids.extend(names.split(',').filter(|s| !s.is_empty()).map(String::from));
                } else {
                    ids.push(other.to_string());
                }
            }
        }
    }
    let ids: Vec<&str> = if ids.is_empty() || ids.iter().any(|id| id == "all") {
        all_ids().collect()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    if json {
        // Stream header: names the JSON-Lines schema so consumers can
        // detect incompatible changes instead of misparsing them.
        println!("{{\"schema\":\"combar-experiments/1\"}}");
    }

    // An entry runs once however many of its ids were asked for
    // (Figures 3/4 share one grid, Figures 9-11 one sweep).
    let mut ran: Vec<Option<Rendered>> = vec![None; REGISTRY.len()];
    for id in ids {
        let t0 = Instant::now();
        let Some((entry, text)) = lookup(id) else {
            eprintln!("unknown experiment id: {id}");
            let known: Vec<&str> = all_ids().collect();
            eprintln!("known: {} all (see --list)", known.join(" "));
            std::process::exit(2);
        };
        let out = ran[entry].get_or_insert_with(|| (REGISTRY[entry].run)(quick));
        emit(json, id, &out.texts[text]);
        if !out.ok {
            eprintln!("{id} FAILED");
            std::process::exit(1);
        }
        eprintln!("[{id}] done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
