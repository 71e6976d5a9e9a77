//! The protected memory's view read path must be unobservable: forcing
//! the full decoder on every read has to reproduce campaign outputs, CSV bytes and
//! access statistics bit for bit. These differential tests pin that
//! contract at fig2 scale and on fig4-style mid-BER fault maps.

use std::sync::{Mutex, PoisonError};

use dream_suite::core::{force_full_decode, EmtKind, ProtectedMemory};
use dream_suite::dsp::AppKind;
use dream_suite::ecg::Database;
use dream_suite::mem::{BerModel, FaultMap};
use dream_suite::sim::campaign::{banked_geometry, ProtectedStorage};
use dream_suite::sim::fig2::{run_fig2, Fig2Config};
use dream_suite::sim::fig4::{run_fig4, Fig4Config};

/// Serializes tests that flip the process-wide fast-path kill switch.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

fn with_full_decode<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the flag even when `f` panics, so a failing assertion
    /// doesn't leave the process-wide switch set for sibling tests.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_full_decode(false);
        }
    }
    let _restore = Restore;
    force_full_decode(true);
    f()
}

/// A fig2-sized campaign produces bit-identical rows — and therefore
/// byte-identical CSV output (formatted exactly as the `fig2` binary
/// does) — with the fast path force-disabled.
#[test]
fn fig2_campaign_and_csv_identical_without_fast_path() {
    let _guard = TOGGLE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = Fig2Config {
        window: 512,
        records: 2,
        apps: vec![AppKind::Dwt, AppKind::WaveletDelineation],
        fault_trials: 2,
    };
    let fast = run_fig2(&cfg);
    let slow = with_full_decode(|| run_fig2(&cfg));
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(f.app, s.app);
        assert_eq!(f.stuck, s.stuck);
        assert_eq!(f.bit, s.bit);
        assert_eq!(
            f.snr_db.to_bits(),
            s.snr_db.to_bits(),
            "{} {:?} bit {}: {} vs {}",
            f.app,
            f.stuck,
            f.bit,
            f.snr_db,
            s.snr_db
        );
    }
    // The exact row formatting the fig2 binary writes to results/*.csv.
    let csv = |rows: &[dream_suite::sim::fig2::Fig2Row]| -> String {
        rows.iter()
            .map(|r| format!("{},{:?},{},{:.3}\n", r.app, r.stuck, r.bit, r.snr_db))
            .collect()
    };
    assert_eq!(csv(&fast), csv(&slow));
}

/// A fig4 voltage sweep — where mid-range BERs mix clean and faulty words
/// and all four outcome counters move — is identical too, including the
/// stats-derived corrected/uncorrectable rates.
#[test]
fn fig4_sweep_identical_without_fast_path() {
    let _guard = TOGGLE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = Fig4Config {
        window: 512,
        runs: 3,
        voltages: vec![0.55, 0.65, 0.8],
        apps: vec![AppKind::Dwt],
        ..Default::default()
    };
    let fast = run_fig4(&cfg);
    let slow = with_full_decode(|| run_fig4(&cfg));
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(f.mean_snr_db.to_bits(), s.mean_snr_db.to_bits(), "{f:?}");
        assert_eq!(f.min_snr_db.to_bits(), s.min_snr_db.to_bits(), "{f:?}");
        assert_eq!(
            f.uncorrectable_rate.to_bits(),
            s.uncorrectable_rate.to_bits(),
            "{f:?}"
        );
        assert_eq!(
            f.corrected_rate.to_bits(),
            s.corrected_rate.to_bits(),
            "{f:?}"
        );
    }
}

/// Single mid-BER trial, per EMT: output words and the full `AccessStats`
/// (reads, writes, corrected, uncorrectable) match with the per-instance
/// fast-path toggle off.
#[test]
fn mid_ber_trial_has_identical_output_and_stats() {
    let _guard = TOGGLE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let app = AppKind::Dwt.instantiate(512);
    let geometry = banked_geometry(app.memory_words());
    let ber = BerModel::date16().ber(0.6); // mid-range voltage
    let map = FaultMap::generate(geometry.words(), 22, ber, 0xFA57);
    let record = Database::record(100, 512);
    for kind in EmtKind::all() {
        let run = |fast_path: bool| {
            let mut mem = ProtectedMemory::with_fault_map(kind, geometry, &map);
            mem.set_fast_path(fast_path);
            let out = {
                let mut storage = ProtectedStorage::new(&mut mem);
                app.run(&record.samples, &mut storage)
            };
            (out, mem.stats())
        };
        let (out_fast, stats_fast) = run(true);
        let (out_slow, stats_slow) = run(false);
        assert_eq!(out_fast, out_slow, "{kind}");
        assert_eq!(stats_fast, stats_slow, "{kind}");
        assert!(stats_fast.reads > 0 && stats_fast.writes > 0, "{kind}");
    }
}
