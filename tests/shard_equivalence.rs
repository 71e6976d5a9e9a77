//! Sharding is a *distribution strategy*, never a semantic: this suite
//! partitions smoke-scale campaigns into K shards, runs every shard
//! independently, and asserts the concatenated shard rows are
//! **byte-identical** to the serial artifact — at K ∈ {1, 2, 4} and 1/4
//! worker threads per shard, exactly the way `tests/batch_equivalence.rs`
//! pins batch ≡ scalar.
//!
//! This is the load-bearing invariant behind `dream serve` fan-out: a
//! coordinator that concatenates shard sub-artifacts in plan order serves
//! the same bytes (and the same content-addressed store id) as an
//! unsharded run. Resume cuts the same partition, so the suite also pins
//! that an artifact interrupted at any row completes byte-identically
//! from [`ShardPlan::resume`]'s remaining spec.

use std::collections::HashMap;

use dream_sim::report::JsonlSink;
use dream_sim::scenario::{registry, CampaignRunner, Scenario, ShardPlan};

/// Runs `sc` at a pinned thread count and returns the exact bytes its
/// JSONL sink streamed.
fn jsonl(sc: &Scenario, threads: usize) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .threads(threads)
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
    String::from_utf8(sink.into_inner()).expect("sinks emit UTF-8")
}

/// The invariant: for every K and per-shard thread count, running each
/// shard spec independently and concatenating in plan order reproduces
/// the serial bytes, and each shard's row count matches its plan window.
fn assert_shard_invariant(sc: &Scenario) {
    let reference = jsonl(sc, 1);
    assert!(!reference.is_empty(), "{}: no rows streamed", sc.name);
    for k in [1usize, 2, 4] {
        let plan = ShardPlan::new(sc, k).expect("valid spec shards");
        for threads in [1usize, 4] {
            let mut reassembled = String::new();
            for shard in plan.shards() {
                let part = jsonl(&shard.spec, threads);
                if let Some(rows) = shard.rows {
                    assert_eq!(
                        part.lines().count(),
                        rows,
                        "{}: shard {}/{k} row count drifted from the plan",
                        sc.name,
                        shard.index
                    );
                }
                reassembled.push_str(&part);
            }
            assert_eq!(
                reference, reassembled,
                "{}: {k}-shard reassembly diverged at {threads} thread(s)",
                sc.name
            );
        }
    }
    assert_resume_invariant(sc, &reference);
}

/// Resume is a cut of the same partition: for every row count `r` an
/// interrupted artifact may hold, [`ShardPlan::resume`] keeps a unit
/// boundary at or below `r`, the kept reference rows followed by the
/// remaining spec's rows are the reference byte for byte, and the
/// remaining spec executes exactly the trials of the units not kept.
fn assert_resume_invariant(sc: &Scenario, reference: &str) {
    let rows: Vec<&str> = reference.split_inclusive('\n').collect();
    // One shard per unit: its row offsets (plus the total) are the unit
    // boundaries, and its specs carry each unit's trials.
    let units = ShardPlan::new(sc, usize::MAX).expect("valid spec shards");
    let boundaries: Vec<usize> = units
        .shards()
        .iter()
        .map(|shard| shard.row_offset)
        .chain(units.total_rows())
        .collect();
    let mut resumed_at: HashMap<usize, (String, usize)> = HashMap::new();
    for r in 0..=rows.len() {
        let (kept, rest) = ShardPlan::resume(sc, r).expect("valid spec resumes");
        assert!(kept <= r, "{}: kept {kept} of {r} rows", sc.name);
        assert!(
            boundaries.contains(&kept),
            "{}: kept {kept} rows, not a unit boundary of {boundaries:?}",
            sc.name
        );
        let (tail, trials) = resumed_at
            .entry(kept)
            .or_insert_with(|| {
                rest.map_or((String::new(), 0), |rest| {
                    (jsonl(&rest, 1), rest.flatten().len())
                })
            })
            .clone();
        assert_eq!(
            format!("{}{tail}", rows[..kept].concat()),
            reference,
            "{}: resuming {r} rows diverged",
            sc.name
        );
        let kept_trials: usize = units
            .shards()
            .iter()
            .filter(|shard| shard.rows.is_some_and(|n| shard.row_offset + n <= kept))
            .map(|shard| shard.spec.flatten().len())
            .sum();
        assert_eq!(
            trials,
            sc.flatten().len() - kept_trials,
            "{}: resuming {r} rows must run exactly the missing units",
            sc.name
        );
    }
}

#[test]
fn fig2_smoke_shards_reassemble_byte_identically() {
    assert_shard_invariant(&registry::get("fig2", true).expect("preset exists"));
}

#[test]
fn fig4_smoke_shards_reassemble_byte_identically() {
    assert_shard_invariant(&registry::get("fig4", true).expect("preset exists"));
}

#[test]
fn noise_sweep_smoke_shards_reassemble_byte_identically() {
    assert_shard_invariant(&registry::get("noise-sweep", true).expect("preset exists"));
}

#[test]
fn geometry_sweep_smoke_shards_reassemble_byte_identically() {
    assert_shard_invariant(&registry::get("geometry-sweep", true).expect("preset exists"));
}

#[test]
fn scrambled_draw_campaigns_shard_byte_identically() {
    // The address scrambler derives per-point keys from the *global*
    // point index — exactly what `point_offset` preserves for grid-range
    // shards.
    let mut sc = registry::get("fig4", true).expect("preset exists");
    sc.window = 512;
    sc.records = 2;
    sc.trials = 2;
    sc.scrambler_key = Some(0xA5A5);
    assert_shard_invariant(&sc);
}

#[test]
fn unshardable_families_still_reassemble() {
    // Tradeoff/ablation collapse to one shard; the invariant holds
    // trivially and the plan never splits their interdependent rows.
    for preset in ["tradeoff", "ablation"] {
        let sc = registry::get(preset, true).expect("preset exists");
        let plan = ShardPlan::new(&sc, 4).expect("valid spec shards");
        assert!(plan.is_trivial());
        assert_shard_invariant(&sc);
    }
}
