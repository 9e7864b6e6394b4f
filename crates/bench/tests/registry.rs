//! The experiment registry against the documents that describe it.

use combar_bench::experiments::REGISTRY;

/// DESIGN.md §5 indexes every experiment: each id the registry owns
/// has a table row there.
#[test]
fn every_id_has_a_design_row() {
    let design = include_str!("../../../DESIGN.md");
    let missing: Vec<&str> = REGISTRY
        .iter()
        .flat_map(|e| e.ids)
        .copied()
        .filter(|id| !design.contains(&format!("| `{id}` |")))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md §5 has no row for {missing:?}"
    );
}
