//! The campaign executor's contract: output is bit-identical whatever the
//! worker count or batching strategy — also for campaigns running side by
//! side with different settings — and the flattened trial indexing never
//! makes two trials share a fault seed.

use std::collections::HashSet;

use dream_suite::dsp::AppKind;
use dream_suite::sim::campaign::fault_seed;
use dream_suite::sim::exec;
use dream_suite::sim::exec::CancelToken;
use dream_suite::sim::report::{JsonlSink, Sink};
use dream_suite::sim::scenario::{
    registry, CampaignRunner, Grid, OutcomeData, Scenario, ShardPlan,
};
use proptest::prelude::*;

fn fig2_spec() -> Scenario {
    Scenario {
        window: 512,
        records: 2,
        trials: 2,
        apps: vec![AppKind::Dwt, AppKind::CompressedSensing],
        ..registry::get("fig2", false).expect("preset exists")
    }
}

fn fig4_spec() -> Scenario {
    Scenario {
        window: 512,
        trials: 5,
        grid: Grid::Voltage(vec![0.5, 0.7, 0.9]),
        apps: vec![AppKind::Dwt],
        ..registry::get("fig4", false).expect("preset exists")
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
    let sc = fig2_spec();
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
    let sc = fig4_spec();
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
/// on two workers and batched — stream byte-identical JSONL, with no
/// lock serializing them.
#[test]
fn concurrent_campaigns_keep_their_own_settings() {
    for sc in [fig2_spec(), fig4_spec()] {
        let jsonl = |runner: CampaignRunner| {
            let mut sink = JsonlSink::new(Vec::new());
            runner.run(&mut sink).expect("campaign runs");
            String::from_utf8(sink.into_inner()).expect("utf-8 rows")
        };
        let (scalar, batched) = std::thread::scope(|s| {
            let scalar = s.spawn(|| jsonl(CampaignRunner::new(sc.clone()).threads(1).batch(false)));
            let batched = s.spawn(|| jsonl(CampaignRunner::new(sc.clone()).threads(2).batch(true)));
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

/// A fig4 sweep whose points split into uneven lane groups: 130 runs are
/// groups of 64, 64 and 2, so with a sweep-wide work list a worker runs
/// into the next point while another finishes a point's tail.
fn uneven_sweep() -> Scenario {
    let mut sc = registry::get("fig4", true).expect("preset exists");
    sc.window = 256;
    sc.records = 2;
    sc.trials = 130;
    sc.apps = vec![AppKind::Dwt, AppKind::MatrixFilter];
    sc.grid = Grid::Voltage(vec![0.5, 0.7, 0.9]);
    sc
}

fn sweep_jsonl(runner: CampaignRunner) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    runner.run(&mut sink).expect("campaign runs");
    String::from_utf8(sink.into_inner()).expect("utf-8 rows")
}

/// The sweep-wide work list streams the same bytes at every thread count
/// and on both the batched and the scalar body.
#[test]
fn uneven_sweep_is_identical_at_every_thread_count_and_batch_mode() {
    let sc = uneven_sweep();
    let want = sweep_jsonl(CampaignRunner::new(sc.clone()).threads(1).batch(false));
    assert_eq!(want.lines().count(), 3 * sc.emts.len() * sc.apps.len());
    for (threads, batch) in [(2, false), (3, false), (1, true), (2, true), (3, true)] {
        let got = sweep_jsonl(
            CampaignRunner::new(sc.clone())
                .threads(threads)
                .batch(batch),
        );
        assert_eq!(got, want, "{threads} threads, batch {batch}");
    }
}

/// Rows still stream per point, in point order: one progress event and
/// one emitted batch per voltage, each batch holding only its voltage.
#[test]
fn uneven_sweep_streams_one_batch_per_voltage_in_order() {
    struct Voltages(Vec<Vec<String>>);
    impl Sink for Voltages {
        fn begin(&mut self, _headers: &[&str]) -> std::io::Result<()> {
            Ok(())
        }
        fn emit(&mut self, rows: &[Vec<String>]) -> std::io::Result<()> {
            // Column 2 of a fig4 row is its voltage.
            self.0.push(rows.iter().map(|r| r[2].clone()).collect());
            Ok(())
        }
        fn finish(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let sc = uneven_sweep();
    let per_point = sc.emts.len() * sc.apps.len();
    for threads in [1, 3] {
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = std::sync::Arc::clone(&events);
        let mut sink = Voltages(Vec::new());
        CampaignRunner::new(sc.clone())
            .threads(threads)
            .on_progress(move |p| seen.lock().unwrap().push((p.batches, p.rows)))
            .run(&mut sink)
            .expect("campaign runs");
        let events = events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![(1, per_point), (2, 2 * per_point), (3, 3 * per_point)],
            "{threads} threads"
        );
        for (batch, voltage) in sink.0.iter().zip(["0.50", "0.70", "0.90"]) {
            assert_eq!(batch.len(), per_point, "{threads} threads");
            assert!(batch.iter().all(|v| v == voltage), "{batch:?}");
        }
        assert_eq!(sink.0.len(), 3, "{threads} threads");
    }
}

/// Cancelling from the first point's progress event leaves exactly that
/// point on the sink, and `ShardPlan::resume` completes it to the bytes
/// of an uninterrupted run.
#[test]
fn uneven_sweep_cancelled_after_its_first_point_resumes_identically() {
    let sc = uneven_sweep();
    let full = sweep_jsonl(CampaignRunner::new(sc.clone()).threads(2));
    for threads in [1, 2, 3] {
        let token = CancelToken::new();
        let trip = token.clone();
        let mut sink = JsonlSink::new(Vec::new());
        let err = CampaignRunner::new(sc.clone())
            .threads(threads)
            .cancel_token(token)
            .on_progress(move |_| trip.cancel())
            .run(&mut sink)
            .expect_err("cancelled");
        assert!(
            matches!(err, dream_suite::sim::scenario::EngineError::Cancelled),
            "{err:?}"
        );
        let partial = String::from_utf8(sink.into_inner()).expect("utf-8 rows");
        let rows = partial.lines().count();
        assert_eq!(rows, sc.emts.len() * sc.apps.len(), "{threads} threads");
        let (kept, rest) = ShardPlan::resume(&sc, rows).expect("resumable");
        assert_eq!(kept, rows);
        let rest = rest.expect("two points remain");
        assert_eq!(rest.grid.len(), 2);
        let resumed = sweep_jsonl(CampaignRunner::new(rest).threads(threads));
        assert_eq!(format!("{partial}{resumed}"), full, "{threads} threads");
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
