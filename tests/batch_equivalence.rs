//! Bit-sliced trial batching is an *optimization*, never a semantic: this
//! suite runs smoke-scale campaigns with batching pinned off and on —
//! across the paper presets, every fault model, every EMT, with and
//! without the address scrambler, at 1 and 4 worker threads — and asserts
//! the streamed sink rows are **byte-identical**.
//!
//! The per-kernel half of the story (each SWAR `decode_batch` pinned
//! against the transpose-and-decode oracle) lives next to the codecs in
//! `dream-core`; this file pins the whole engine path: batch grouping,
//! divergence-driven eviction, scalar replay, stats deltas, and row
//! rendering.

use dream_sim::report::JsonlSink;
use dream_sim::scenario::{registry, CampaignRunner, FaultModelSpec, Grid, Scenario};

/// Runs `sc` at a pinned (batch, threads) setting and returns the exact
/// bytes its JSONL sink streamed.
fn jsonl(sc: &Scenario, batch: bool, threads: usize) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .batch(batch)
        .threads(threads)
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
    String::from_utf8(sink.into_inner()).expect("sinks emit UTF-8")
}

/// The invariant: scalar serial output is the reference, and batching
/// (at 1 and 4 threads) plus scalar-parallel all reproduce it exactly.
fn assert_batch_invariant(sc: &Scenario) {
    let reference = jsonl(sc, false, 1);
    assert!(!reference.is_empty(), "{}: no rows streamed", sc.name);
    assert_eq!(
        reference,
        jsonl(sc, false, 4),
        "{}: scalar output must be thread-count invariant",
        sc.name
    );
    for threads in [1, 4] {
        assert_eq!(
            reference,
            jsonl(sc, true, threads),
            "{}: batched output diverged at {threads} thread(s)",
            sc.name
        );
    }
}

/// A reduced fig4 shape for the axes the presets don't sweep (fault
/// models, scrambler): enough trials to fill multi-lane batches and a
/// voltage deep enough in the faulty region to force evictions.
fn tiny_fig4() -> Scenario {
    let mut sc = registry::get("fig4", true).expect("preset exists");
    sc.window = 512;
    sc.records = 2;
    sc.trials = 6;
    sc.grid = Grid::Voltage(vec![0.55, 0.8]);
    sc
}

#[test]
fn fig2_smoke_is_batch_invariant() {
    assert_batch_invariant(&registry::get("fig2", true).expect("preset exists"));
}

#[test]
fn fig4_smoke_is_batch_invariant() {
    assert_batch_invariant(&registry::get("fig4", true).expect("preset exists"));
}

#[test]
fn ablation_smoke_is_batch_invariant() {
    assert_batch_invariant(&registry::get("ablation", true).expect("preset exists"));
}

#[test]
fn every_fault_model_is_batch_invariant_across_all_emts() {
    let models = [
        FaultModelSpec::Iid,
        FaultModelSpec::Burst { mean_run_len: 8.0 },
        FaultModelSpec::ColumnCorrelated { column_weight: 0.5 },
        FaultModelSpec::PerBankVoltage {
            bank_offsets: FaultModelSpec::bank_ramp(0.05),
        },
    ];
    for model in models {
        let mut sc = tiny_fig4();
        sc.fault.model = model.clone();
        // Sweep every EMT so each codec's batch kernel is exercised end
        // to end under each fault model.
        sc.emts = dream_core::EmtKind::all().to_vec();
        assert_batch_invariant(&sc);
    }
}

#[test]
fn scrambled_campaigns_are_batch_invariant() {
    let mut sc = tiny_fig4();
    sc.scrambler_key = Some(0xA5A5);
    assert_batch_invariant(&sc);
}

#[test]
fn tiny_fig4_and_tradeoff_smoke_are_batch_invariant() {
    let tradeoff = registry::get("tradeoff", true).expect("preset exists");
    for sc in [tiny_fig4(), tradeoff] {
        assert_batch_invariant(&sc);
    }
}

/// A fig2-derived injection spec at the full window whose groups fill:
/// 4 bits × 2 polarities × 8 trials = 64 lanes per record, unprotected
/// and DREAM-protected (DREAM's unprotected LSBs diverge, its sign run
/// does not, so groups both evict and survive).
fn full_group_fig2() -> Scenario {
    let mut sc = registry::get("fig2", true).expect("preset exists");
    sc.window = 1024;
    sc.records = 2;
    sc.trials = 8;
    sc.grid = Grid::BitPosition(vec![0, 5, 11, 15]);
    sc.emts = vec![dream_core::EmtKind::None, dream_core::EmtKind::Dream];
    sc
}

#[test]
fn full_injection_groups_resume_byte_identically() {
    // Evicted lanes resume at the stage they left the clean pass;
    // wherever they resume, the rows must equal the from-scratch scalar
    // campaign's.
    let sc = full_group_fig2();
    let reference = jsonl(&sc, false, 1);
    assert!(!reference.is_empty(), "{}: no rows streamed", sc.name);
    for threads in [1, 2] {
        assert_eq!(
            reference,
            jsonl(&sc, true, threads),
            "{}: batched output diverged at {threads} thread(s)",
            sc.name
        );
    }
}
