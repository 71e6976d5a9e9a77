//! The campaign executor's contract: output is bit-identical whatever the
//! worker count or batching strategy — also for campaigns running side by
//! side with different settings — and the flattened trial indexing never
//! makes two trials share a fault seed.

use std::collections::HashSet;

use dream_suite::dsp::AppKind;
use dream_suite::sim::campaign::fault_seed;
use dream_suite::sim::exec;
use dream_suite::sim::fig2::Fig2Config;
use dream_suite::sim::fig4::Fig4Config;
use dream_suite::sim::report::JsonlSink;
use dream_suite::sim::scenario::{CampaignRunner, OutcomeData, Scenario};
use proptest::prelude::*;

fn fig2_cfg() -> Fig2Config {
    Fig2Config {
        window: 512,
        records: 2,
        apps: vec![AppKind::Dwt, AppKind::CompressedSensing],
        fault_trials: 2,
    }
}

fn fig4_cfg() -> Fig4Config {
    Fig4Config {
        window: 512,
        runs: 5,
        voltages: vec![0.5, 0.7, 0.9],
        apps: vec![AppKind::Dwt],
        ..Default::default()
    }
}

fn outcome_at(sc: &Scenario, threads: usize) -> OutcomeData {
    CampaignRunner::new(sc.clone())
        .threads(threads)
        .run_discarding()
        .expect("campaign runs")
        .data
}

/// One and four workers must yield the same Fig. 2 rows down to the last
/// mantissa bit: same rows, same order, exact f64 equality (not
/// approximate).
#[test]
fn fig2_rows_identical_serial_vs_parallel() {
    let sc = fig2_cfg().to_scenario();
    let rows = |threads| match outcome_at(&sc, threads) {
        OutcomeData::Injection(rows) => rows,
        other => panic!("injection rows expected, got {other:?}"),
    };
    let (serial, parallel) = (rows(1), rows(4));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app, p.app);
        assert_eq!(s.stuck, p.stuck);
        assert_eq!(s.bit, p.bit);
        assert_eq!(
            s.snr_db.to_bits(),
            p.snr_db.to_bits(),
            "{} {:?} bit {}: {} vs {}",
            s.app,
            s.stuck,
            s.bit,
            s.snr_db,
            p.snr_db
        );
    }
}

/// Same contract for the Fig. 4 voltage sweep, including the min/rate
/// fields that fold over runs.
#[test]
fn fig4_points_identical_serial_vs_parallel() {
    let sc = fig4_cfg().to_scenario();
    let points = |threads| match outcome_at(&sc, threads) {
        OutcomeData::Fig4(points) => points,
        other => panic!("Fig. 4 points expected, got {other:?}"),
    };
    let (serial, parallel) = (points(1), points(4));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app, p.app);
        assert_eq!(s.emt, p.emt);
        assert_eq!(s.voltage.to_bits(), p.voltage.to_bits());
        assert_eq!(s.mean_snr_db.to_bits(), p.mean_snr_db.to_bits(), "{s:?}");
        assert_eq!(s.min_snr_db.to_bits(), p.min_snr_db.to_bits(), "{s:?}");
        assert_eq!(
            s.uncorrectable_rate.to_bits(),
            p.uncorrectable_rate.to_bits()
        );
        assert_eq!(s.corrected_rate.to_bits(), p.corrected_rate.to_bits());
    }
}

/// Execution settings are scoped to their campaign: two campaigns running
/// *at the same time* on two driver threads — one serial and scalar, one
/// on two workers, batched, bailing out on the first eviction — stream
/// byte-identical JSONL, with no lock serializing them.
#[test]
fn concurrent_campaigns_keep_their_own_settings() {
    for sc in [fig2_cfg().to_scenario(), fig4_cfg().to_scenario()] {
        let jsonl = |runner: CampaignRunner| {
            let mut sink = JsonlSink::new(Vec::new());
            runner.run(&mut sink).expect("campaign runs");
            String::from_utf8(sink.into_inner()).expect("utf-8 rows")
        };
        let (scalar, batched) = std::thread::scope(|s| {
            let scalar = s.spawn(|| jsonl(CampaignRunner::new(sc.clone()).threads(1).batch(false)));
            let batched = s.spawn(|| {
                jsonl(
                    CampaignRunner::new(sc.clone())
                        .threads(2)
                        .batch(true)
                        .bailout(1.0),
                )
            });
            (scalar.join().unwrap(), batched.join().unwrap())
        });
        assert!(!scalar.is_empty(), "{}", sc.name);
        assert_eq!(
            scalar, batched,
            "{}: settings must not change bytes",
            sc.name
        );
    }
}

/// The executor preserves trial order regardless of the schedule.
#[test]
fn executor_results_stay_in_trial_order() {
    let trials: Vec<u64> = (0..503).collect();
    let expect: Vec<u64> = trials.iter().map(|t| t.wrapping_mul(0x9E37)).collect();
    for threads in [1, 2, 4, 7] {
        let got = exec::run_trials(threads, &trials, || (), |(), &t, _| t.wrapping_mul(0x9E37));
        assert_eq!(got, expect, "{threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under the flattened trial indexing every (point, run) pair of a
    /// campaign grid still draws a distinct fault seed — no collisions
    /// within a campaign, whatever its base seed.
    #[test]
    fn fault_seed_stays_collision_free_when_flattened(
        base in any::<u64>(),
        points in 1usize..40,
        runs in 1usize..40,
    ) {
        let mut seen = HashSet::new();
        for flat in 0..points * runs {
            // The executor hands workers a flat index; runners derive the
            // (point, run) coordinates exactly like this.
            let seed = fault_seed(base, flat / runs, flat % runs);
            prop_assert!(seen.insert(seed), "collision at flat index {}", flat);
        }
    }

    /// Two campaigns with different base seeds share no seeds on the same
    /// grid (so figures never accidentally correlate their fault draws).
    #[test]
    fn distinct_base_seeds_do_not_collide(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let sa: HashSet<u64> = (0..16).flat_map(|p| (0..16).map(move |r| fault_seed(a, p, r))).collect();
        for p in 0..16 {
            for r in 0..16 {
                prop_assert!(!sa.contains(&fault_seed(b, p, r)));
            }
        }
    }
}
