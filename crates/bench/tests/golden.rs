//! Byte-exact snapshot tests over every deterministic rendering the
//! experiment registry declares ([`combar_bench::experiments::Golden`]).
//!
//! A failure prints both versions; if the change was intended,
//! re-bless with `COMBAR_BLESS=1 cargo test -p combar-bench --test
//! golden` and commit the updated snapshot.

use combar_bench::experiments::{goldens, Golden};
use combar_exec::with_thread_count;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` with the snapshot `name` (or re-blesses it) and
/// describes the difference, if any.
fn check(name: &str, actual: &str) -> Option<String> {
    let path = golden_dir().join(name);
    if std::env::var_os("COMBAR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return None;
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(expected) => expected,
        Err(e) => {
            return Some(format!(
                "missing golden snapshot {} ({e}); generate it with \
                 COMBAR_BLESS=1 cargo test -p combar-bench --test golden",
                path.display()
            ))
        }
    };
    (expected != *actual).then(|| {
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1);
        format!(
            "golden snapshot {name} differs (first differing line: {first_diff:?})\n\
             --- expected ---\n{expected}\n--- actual ---\n{actual}"
        )
    })
}

/// Every snapshot the registry declares matches its file, and the
/// rendering behind it does not depend on the worker count: 1, 2 and 4
/// workers agree byte for byte (which also guards the snapshots
/// themselves against flakiness — in-process runs must agree). Every
/// table is checked before the test fails, so the failure names each
/// one that moved.
#[test]
fn renderings_are_deterministic() {
    let mut failures = Vec::new();
    for Golden { file, render } in goldens() {
        let serial = with_thread_count(1, render);
        for threads in [2, 4] {
            if with_thread_count(threads, render) != serial {
                failures.push(format!("{file} differs between 1 and {threads} workers"));
            }
        }
        failures.extend(check(file, &serial));
    }
    assert!(
        failures.is_empty(),
        "{}\nIf a snapshot change is intended, re-bless with COMBAR_BLESS=1.",
        failures.join("\n")
    );
}

/// The snapshot directory and the registry name the same files: no
/// orphaned snapshot, no entry without one.
#[test]
fn snapshot_directory_matches_the_registry() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    on_disk.sort();
    let mut declared: Vec<&str> = goldens().map(|g| g.file).collect();
    declared.sort_unstable();
    assert_eq!(on_disk, declared);
}

/// The per-snapshot tests, named as they were before the registry:
/// each renders its snapshot once at the host's own worker count, so a
/// failure names the table that moved.
macro_rules! snapshot_tests {
    ($($name:ident => $file:literal,)*) => {$(
        #[test]
        fn $name() {
            let golden = goldens().find(|g| g.file == $file).expect($file);
            if let Some(failure) = check(golden.file, &(golden.render)()) {
                panic!("{failure}\nIf the change is intended, re-bless with COMBAR_BLESS=1.");
            }
        }
    )*};
}

snapshot_tests! {
    fig2_table_is_stable => "fig2_small.txt",
    fig8_table_is_stable => "fig8_small.txt",
    chaos_des_table_is_stable => "chaos_des_small.txt",
    churn_table_is_stable => "churn_small.txt",
    server_table_is_stable => "server_small.txt",
    restart_table_is_stable => "restart_small.txt",
    async_table_is_stable => "async_small.txt",
    trace_tables_are_stable => "trace_small.txt",
    balance_tables_are_stable => "balance_small.txt",
    scale_tables_are_stable => "scale_small.txt",
}
