//! Regression tests for the paper's qualitative claims: each test pins one
//! sentence of the paper to a measurable property of the reproduction.
//! These run at reduced campaign scale (the full-scale numbers live in
//! `EXPERIMENTS.md` and regenerate via `dream-bench`).

use dream_suite::core::{Dream, EmtCodec, EmtKind};
use dream_suite::dsp::AppKind;
use dream_suite::ecg::Database;
use dream_suite::mem::{BerModel, StuckAt};
use dream_suite::sim::energy_table::{
    area_table, average_overhead, ecc_vs_dream_area, run_energy_table, EnergyConfig,
};
use dream_suite::sim::exec::ExecConfig;
use dream_suite::sim::fig2::{cs_tolerance, run_fig2, Fig2Config};
use dream_suite::sim::fig4::{curve, run_fig4, Fig4Config};
use dream_suite::sim::tradeoff::explore;

fn fig4_small(apps: Vec<AppKind>, runs: usize) -> Vec<dream_suite::sim::fig4::Fig4Point> {
    run_fig4(&Fig4Config {
        window: 512,
        runs,
        apps,
        ..Default::default()
    })
}

/// §I / §VI-B: "DREAM consumes 21% less energy than a traditional ECC with
/// SEC/DED capabilities" — read as overhead points: ECC ≈ +55 %, DREAM
/// ≈ +34 %, gap ≈ 21 points.
#[test]
fn claim_energy_overheads() {
    let rows = run_energy_table(&EnergyConfig::default(), ExecConfig::from_env().threads);
    let dream = average_overhead(&rows, EmtKind::Dream);
    let ecc = average_overhead(&rows, EmtKind::EccSecDed);
    assert!((0.25..0.45).contains(&dream), "DREAM overhead {dream:.3}");
    assert!((0.45..0.65).contains(&ecc), "ECC overhead {ecc:.3}");
    assert!(
        (0.12..0.30).contains(&(ecc - dream)),
        "gap {:.3} (paper: 0.21)",
        ecc - dream
    );
}

/// §VI-B: "ECC requires 28% of area overhead for the encoder and 120% for
/// the decoder, compared to those of DREAM."
#[test]
fn claim_codec_area_ratios() {
    let (enc, dec) = ecc_vs_dream_area(&area_table(&EmtKind::paper_set()));
    assert!((0.15..0.55).contains(&enc), "encoder overhead {enc:.2}");
    assert!((0.95..1.45).contains(&dec), "decoder overhead {dec:.2}");
}

/// §V / Formula 2: 5 extra bits per word for DREAM, 6 for ECC SEC/DED.
#[test]
fn claim_formula_2_bits() {
    assert_eq!(dream_suite::core::extra_bits_per_word(16), 5);
    let dream = EmtKind::Dream.codec();
    assert_eq!(dream.side_bits(), 5);
    let ecc = EmtKind::EccSecDed.codec();
    assert_eq!(ecc.code_width() - 16, 6);
}

/// §III: "the continuous decrease of the SNR as the erroneous bit is
/// shifted towards the MSB positions" — monotone trend over bit triplets.
#[test]
fn claim_fig2_msb_trend() {
    let rows = run_fig2(&Fig2Config {
        window: 512,
        records: 4,
        apps: vec![AppKind::Dwt, AppKind::MorphologicalFilter],
        fault_trials: 4,
    });
    for app in [AppKind::Dwt, AppKind::MorphologicalFilter] {
        for stuck in [StuckAt::Zero, StuckAt::One] {
            let snr_at = |bit: u32| {
                rows.iter()
                    .find(|r| r.app == app && r.stuck == stuck && r.bit == bit)
                    .unwrap()
                    .snr_db
            };
            // Compare LSB / mid / MSB bands rather than bit-by-bit (the
            // paper's own curves wiggle locally).
            let lsb = (snr_at(0) + snr_at(1) + snr_at(2)) / 3.0;
            let mid = (snr_at(7) + snr_at(8) + snr_at(9)) / 3.0;
            let msb = (snr_at(13) + snr_at(14) + snr_at(15)) / 3.0;
            assert!(lsb > mid, "{app} {stuck:?}: {lsb:.1} !> {mid:.1}");
            // The mid -> MSB decrease only holds for stuck-at-0: the
            // paper's own Fig. 2 shows stuck-at-1 curves flattening or
            // *rising* again at the MSBs because most samples are negative
            // (their sign bits are already 1).
            if stuck == StuckAt::Zero {
                assert!(mid > msb, "{app} {stuck:?}: {mid:.1} !> {msb:.1}");
            }
        }
    }
}

/// §III: "CS can tolerate errors on the bit positions from 0 to 10, for
/// bits stuck-at-0; and from 0 to 12, for bits stuck-at-1" at 35 dB.
#[test]
fn claim_cs_tolerance_thresholds() {
    // Full campaign scale for this claim: at fewer records/trials the CS
    // curve sits within 0.1 dB of the 35 dB threshold around bit 13 and the
    // extracted tolerance flips on averaging noise.
    let rows = run_fig2(&Fig2Config {
        window: 1024,
        records: 10,
        apps: vec![AppKind::CompressedSensing],
        fault_trials: 8,
    });
    let (sa0, sa1) = cs_tolerance(&rows, 35.0);
    let sa0 = sa0.expect("some tolerance for stuck-at-0");
    let sa1 = sa1.expect("some tolerance for stuck-at-1");
    assert!(
        (8..=12).contains(&sa0),
        "stuck-at-0 tolerance {sa0} (paper: 10)"
    );
    assert!(
        sa1 >= sa0,
        "stuck-at-1 {sa1} must tolerate at least as much as stuck-at-0 {sa0}"
    );
    assert!(sa1 >= 12, "stuck-at-1 tolerance {sa1} (paper: 12)");
}

/// §VI-A: "Below 0.55V (with multiple errors in the same data word) ECC
/// SEC/DED underperforms" — the DREAM/ECC crossover at the bottom of the
/// sweep, and ECC's (small) advantage in the 0.60–0.65 V band.
#[test]
fn claim_fig4_crossover() {
    let points = fig4_small(vec![AppKind::Dwt], 12);
    let dream = curve(&points, AppKind::Dwt, EmtKind::Dream);
    let ecc = curve(&points, AppKind::Dwt, EmtKind::EccSecDed);
    let at = |c: &[dream_suite::sim::fig4::Fig4Point], v: f64| {
        c.iter()
            .find(|p| (p.voltage - v).abs() < 1e-9)
            .unwrap()
            .mean_snr_db
    };
    // Crossover: at 0.50 V DREAM wins (multi-error words).
    assert!(
        at(&dream, 0.5) > at(&ecc, 0.5) + 3.0,
        "DREAM {:.1} vs ECC {:.1} at 0.5 V",
        at(&dream, 0.5),
        at(&ecc, 0.5)
    );
    // Mid band: ECC at least matches DREAM.
    for v in [0.6, 0.65] {
        assert!(
            at(&ecc, v) >= at(&dream, v) - 0.5,
            "ECC {:.1} vs DREAM {:.1} at {v} V",
            at(&ecc, v),
            at(&dream, v)
        );
    }
    // Both beat no protection at 0.6 V.
    let none = curve(&points, AppKind::Dwt, EmtKind::None);
    assert!(at(&dream, 0.6) > at(&none, 0.6));
    assert!(at(&ecc, 0.6) > at(&none, 0.6));
}

/// §VI-C: the three-regime policy — the minimum usable voltage is ordered
/// none ≥ DREAM ≥ ECC, and protected regimes reach strictly below the
/// unprotected one.
#[test]
fn claim_tradeoff_regimes() {
    let points = fig4_small(vec![AppKind::Dwt], 12);
    let energy = run_energy_table(
        &EnergyConfig {
            window: 512,
            ..Default::default()
        },
        ExecConfig::from_env().threads,
    );
    let policies = explore(AppKind::Dwt, 1.0, &points, &energy);
    let min_v = |emt: EmtKind| {
        policies
            .iter()
            .find(|p| p.emt == emt)
            .unwrap()
            .min_voltage
            .expect("usable")
    };
    assert!(min_v(EmtKind::None) >= min_v(EmtKind::Dream));
    assert!(min_v(EmtKind::Dream) >= min_v(EmtKind::EccSecDed));
    assert!(min_v(EmtKind::None) > min_v(EmtKind::EccSecDed));
    // Every regime must save energy versus nominal-unprotected.
    for p in &policies {
        let s = p.savings_vs_nominal.expect("usable");
        assert!(s > 0.0, "{}: savings {s:.3}", p.emt);
    }
}

/// §IV: "the smaller the data encoded inside the data-word is, the bigger
/// the number of MSBs set to the same value" — DREAM's protected share on
/// real ECG data is high.
#[test]
fn claim_dream_protects_most_bits_of_real_ecg() {
    let record = Database::record(100, 2048);
    let total: u32 = record
        .samples
        .iter()
        .map(|&s| Dream::protected_bits(s))
        .sum();
    let avg = f64::from(total) / record.samples.len() as f64;
    // Our ADC leaves ~13 bits of dynamic range (R peaks near 2^13), so the
    // average sign-run protection sits above a third of the word; with the
    // MIT-BIH 11-bit amplitudes the share would be higher still.
    assert!(
        avg > 6.0,
        "average protected bits {avg:.1} of 16 should exceed a third of the word"
    );
}

/// §V: the BER sweep covers the figure's voltage axis with monotone rates.
#[test]
fn claim_ber_model_regimes() {
    let m = BerModel::date16();
    assert!(
        m.ber(0.9) < 1e-6,
        "nominal voltage is effectively fault-free"
    );
    assert!(m.ber(0.5) > 1e-3, "deep scaling produces multi-error words");
    let g = BerModel::paper_voltages();
    assert_eq!(g.len(), 9);
}
