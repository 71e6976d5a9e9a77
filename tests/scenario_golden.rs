//! Golden-output differential test for the scenario engine.
//!
//! The five paper presets (`fig2`, `fig4`, `energy`, `tradeoff`,
//! `ablation`) must produce **byte-identical** rows to the pre-refactor
//! per-figure runners; their files under `tests/golden/` were captured
//! from the historical code at the presets' smoke scales. The four
//! post-paper presets (`geometry-sweep`, `noise-sweep`, `burst-sweep`,
//! `bank-voltage`) are pinned to smoke output captured from the engine.
//! This test replays each preset through the engine's CSV sink at 1 and
//! at 4 worker threads and compares the full byte stream.

use dream_suite::sim::report::CsvSink;
use dream_suite::sim::scenario::{registry, CampaignRunner, FaultModelSpec, Scenario};

fn scenario_csv_at_threads(sc: &Scenario, threads: usize) -> String {
    // The runner pins the worker count per campaign (no process-global
    // override), so concurrently running tests cannot race each other.
    let mut sink = CsvSink::new(Vec::new());
    let outcome = CampaignRunner::new(sc.clone())
        .threads(threads)
        .run(&mut sink)
        .expect("preset runs");
    assert!(!outcome.rows.is_empty(), "{} produced no rows", sc.name);
    String::from_utf8(sink.into_inner()).expect("CSV is UTF-8")
}

fn csv_at_threads(preset: &str, threads: usize) -> String {
    let sc = registry::get(preset, true).expect("preset exists");
    scenario_csv_at_threads(&sc, threads)
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

fn assert_matches_golden(preset: &str, file: &str) {
    let want = golden(file);
    for threads in [1, 4] {
        let got = csv_at_threads(preset, threads);
        assert!(
            got == want,
            "{preset} at {threads} thread(s) diverged from the pre-refactor golden {file}\n\
             --- first differing line ---\n{}",
            got.lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .map_or_else(
                    || format!(
                        "line counts differ: got {}, want {}",
                        got.lines().count(),
                        want.lines().count()
                    ),
                    |(i, (g, w))| format!("line {}: got  {g:?}\n         want {w:?}", i + 1)
                )
        );
    }
}

#[test]
fn fig2_preset_is_byte_identical_to_the_pre_refactor_runner() {
    assert_matches_golden("fig2", "fig2_smoke.csv");
}

#[test]
fn fig4_preset_is_byte_identical_to_the_pre_refactor_runner() {
    assert_matches_golden("fig4", "fig4_smoke.csv");
}

#[test]
fn energy_preset_is_byte_identical_to_the_pre_refactor_runner() {
    assert_matches_golden("energy", "energy_smoke.csv");
}

#[test]
fn tradeoff_preset_is_byte_identical_to_the_pre_refactor_runner() {
    assert_matches_golden("tradeoff", "tradeoff_smoke.csv");
}

#[test]
fn ablation_preset_is_byte_identical_to_the_pre_refactor_runner() {
    assert_matches_golden("ablation", "ablation_smoke.csv");
}

/// The post-paper presets have no pre-refactor runner; their goldens were
/// captured from the engine (at the commit before the energy families
/// shared one pricing kernel), so any later change to their rows shows.
#[test]
fn post_paper_presets_match_their_captured_goldens() {
    for (preset, file) in [
        ("geometry-sweep", "geometry_sweep_smoke.csv"),
        ("noise-sweep", "noise_sweep_smoke.csv"),
        ("burst-sweep", "burst_sweep_smoke.csv"),
        ("bank-voltage", "bank_voltage_smoke.csv"),
    ] {
        assert_matches_golden(preset, file);
    }
}

/// The pluggable fault-model layer's correctness bar: with `model: iid`
/// spelled out in a spec document, every golden preset — replayed through
/// the full JSON parse path — still matches the pre-refactor bytes at 1
/// and 4 worker threads.
#[test]
fn explicit_iid_model_through_spec_json_stays_golden() {
    for (preset, file) in [
        ("fig2", "fig2_smoke.csv"),
        ("fig4", "fig4_smoke.csv"),
        ("energy", "energy_smoke.csv"),
        ("tradeoff", "tradeoff_smoke.csv"),
        ("ablation", "ablation_smoke.csv"),
    ] {
        let sc = registry::get(preset, true).expect("preset exists");
        assert_eq!(
            sc.fault.model,
            FaultModelSpec::Iid,
            "{preset}: paper presets must default to the i.i.d. model"
        );
        // Serialize (which spells out "model": {"kind": "iid"}) and
        // re-parse — the `dream run spec.json` path.
        let spec = sc.to_json();
        assert!(
            spec.contains("\"iid\""),
            "{preset}: model missing from spec"
        );
        let parsed = Scenario::from_json(&spec).expect("spec parses");
        assert_eq!(parsed, sc, "{preset}: JSON round-trip must be lossless");
        let want = golden(file);
        for threads in [1, 4] {
            let got = scenario_csv_at_threads(&parsed, threads);
            assert!(
                got == want,
                "{preset} with explicit iid model diverged from {file} at {threads} thread(s)"
            );
        }
    }
}
