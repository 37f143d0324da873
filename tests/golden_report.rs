//! Golden report digests: end-to-end pin of every experiment section.
//!
//! `golden_seed.rs` pins the workload generator; this test pins the
//! other end of the pipeline — the full report fragment each section
//! renders on the quick grid (`ExpOpts::quick()`, 1 instance × 1 source
//! set). Any change to an algorithm, the storage substrate, the buffer
//! policies, the averaging, or the report formatting shows up here as a
//! digest mismatch naming the section.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use tc_bench::experiments::section;
use tc_bench::ExpOpts;
use tc_study::obs::SpanTree;
use tc_study::trace::Fnv;

/// Golden quick-grid digests, one per registered section, in canonical
/// section order.
const GOLDEN: [(&str, u64); 14] = [
    ("table2", 0xFF6B_4C4A_52F0_F50B),
    ("table3", 0xA9E9_188F_935F_0B68),
    ("fig6", 0xBE30_F49A_8623_A929),
    ("fig7", 0x474F_CD9A_B824_276E),
    ("figs8-12", 0x04EF_0112_49D4_BAB9),
    ("table4", 0xE3CC_983C_8866_E4DE),
    ("predictiveness", 0xB27F_ED9B_07A2_8CEF),
    ("fig13", 0x819A_9F6C_954A_0A1F),
    ("fig14", 0xDF06_D3BF_DC84_5410),
    ("related", 0x65AF_1E01_873F_7F46),
    ("ablations", 0x4B85_4915_6D31_D630),
    ("advisor", 0x9013_8046_901C_6AC6),
    ("updates", 0xA103_6603_DBBA_3A56),
    ("reachindex", 0x627D_DD33_5514_DF6D),
];

#[test]
fn quick_grid_sections_match_golden_digests() {
    let opts = ExpOpts::quick();
    let mut mismatches = Vec::new();
    for (name, golden) in GOLDEN {
        let f = section(name).unwrap_or_else(|| panic!("unknown golden section {name}"));
        let fragment = f(&opts).unwrap_or_else(|e| panic!("{name} failed on the quick grid: {e}"));
        let d = Fnv::bytes(fragment.as_bytes());
        if d != golden {
            mismatches.push(format!("    (\"{name}\", {d:#018X}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "quick-grid report fragments changed — if intentional, update GOLDEN \
         to the values below and note the break in CHANGES.md:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn quick_grid_sections_match_golden_digests_with_timing_armed() {
    // The determinism-under-timing gate for the whole 14-section report:
    // running every section with `--timing` (per-cell wall-clock span
    // trees) must reproduce the exact same golden digests — the span
    // layer rides beside the report, never inside it.
    let tmp = tc_study::storage::TempDir::new("tc-golden-timing").expect("temp dir");
    let opts = ExpOpts::quick().timing_dir(tmp.path());
    let mut mismatches = Vec::new();
    for (name, golden) in GOLDEN {
        let f = section(name).unwrap_or_else(|| panic!("unknown golden section {name}"));
        let fragment = f(&opts).unwrap_or_else(|e| panic!("{name} failed with --timing: {e}"));
        if Fnv::bytes(fragment.as_bytes()) != golden {
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "--timing changed the report bytes of: {} — wall-clock data leaked \
         into the deterministic track",
        mismatches.join(", ")
    );
    // And the sidecar materialized beside the reports: every file is a
    // well-formed span tree, query cells root at `run` and update cells
    // at `update_apply` (around `DynamicClosure::apply`); pure
    // statistics cells legitimately record nothing.
    let (mut spans, mut run, mut update_apply) = (0, 0, 0);
    for entry in std::fs::read_dir(tmp.path()).expect("read timing dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read span file");
        let tree = SpanTree::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: bad span tree: {e}", path.display()));
        spans += 1;
        run += tree.find(&["run"]).is_some() as usize;
        update_apply += tree.find(&["update_apply"]).is_some() as usize;
    }
    assert!(spans > 0, "--timing wrote no span trees");
    assert!(run > 0, "no span tree roots at an engine run span");
    assert!(
        update_apply > 0,
        "no span tree roots at an update_apply span"
    );
}

#[test]
fn golden_table_covers_every_registered_section() {
    let registered: Vec<&str> = tc_bench::experiments::SECTIONS
        .iter()
        .map(|&(name, _)| name)
        .collect();
    let pinned: Vec<&str> = GOLDEN.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        registered, pinned,
        "section registry and golden table diverged — pin new sections here"
    );
}
