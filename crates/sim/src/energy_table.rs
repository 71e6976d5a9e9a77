//! Experiments E5, E6, E8: the §VI-B energy and area analysis.
//!
//! [`run_energy_table`] is the pricing kernel behind the scenario
//! engine's `energy-sweep` family (`dream run energy`); this module also
//! keeps the row-typed post-processing ([`average_overhead`],
//! [`area_table`], [`ecc_vs_dream_area`]) the summaries consume.

use dream_core::{EmtCodec, EmtKind, EnergyModelBundle};
use dream_dsp::AppKind;
use dream_ecg::Database;
use dream_energy::EnergyBreakdown;
use dream_mem::BerModel;
use dream_soc::{Soc, SocConfig};

use crate::exec;

/// One row of the energy table: one EMT at one supply voltage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyRow {
    /// Protection scheme.
    pub emt: EmtKind,
    /// Data-memory supply voltage (V).
    pub voltage: f64,
    /// Energy of one application run.
    pub energy: EnergyBreakdown,
    /// Fractional overhead versus no protection at the same voltage.
    pub overhead_vs_none: f64,
}

/// Configuration of the energy analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyConfig {
    /// Application whose access pattern prices the table (the overheads
    /// are almost workload-independent because every EMT sees the same
    /// access stream; DWT is the §VI-C example).
    pub app: AppKind,
    /// Input window length.
    pub window: usize,
    /// Voltage grid.
    pub voltages: Vec<f64>,
    /// Techniques to compare.
    pub emts: Vec<EmtKind>,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            app: AppKind::Dwt,
            window: 1024,
            voltages: BerModel::paper_voltages(),
            emts: EmtKind::paper_set().to_vec(),
        }
    }
}

/// Reproduces the §VI-B energy comparison.
///
/// Access counts and cycle counts do not depend on fault injection (the
/// application executes the same loads and stores either way), so a single
/// fault-free SoC run per EMT provides the statistics, which the energy
/// model then prices at every voltage. The runs use up to `threads`
/// workers.
pub fn run_energy_table(cfg: &EnergyConfig, threads: usize) -> Vec<EnergyRow> {
    let record = Database::record(100, cfg.window);
    let app = cfg.app.instantiate(cfg.window);
    let bundle = EnergyModelBundle::date16();
    // One run per EMT captures (reads, writes, cycles); the EMTs are
    // independent, so they run as one small parallel campaign.
    let runs: Vec<(EmtKind, dream_soc::SocRun)> = exec::run_trials(
        threads,
        &cfg.emts,
        || (),
        |(), &emt, _| {
            let mut soc = Soc::new(SocConfig::inyu(), emt, None);
            let run = soc.run_app(&*app, &record.samples);
            (emt, run)
        },
    );
    let mut rows = Vec::new();
    for &voltage in &cfg.voltages {
        // Baseline at this voltage: the unprotected memory.
        let baseline = price(EmtKind::None, &runs, &bundle, voltage);
        for &emt in &cfg.emts {
            let energy = price(emt, &runs, &bundle, voltage);
            rows.push(EnergyRow {
                emt,
                voltage,
                energy,
                overhead_vs_none: energy.overhead_vs(&baseline),
            });
        }
    }
    rows
}

fn price(
    emt: EmtKind,
    runs: &[(EmtKind, dream_soc::SocRun)],
    bundle: &EnergyModelBundle,
    voltage: f64,
) -> EnergyBreakdown {
    let (_, run) = runs.iter().find(|(k, _)| *k == emt).expect("EMT was swept");
    let soc_cfg = SocConfig::inyu();
    bundle.run_energy(
        &emt.codec(),
        &run.stats,
        soc_cfg.geometry.words(),
        voltage,
        soc_cfg.seconds(run.cycles),
    )
}

/// Sweep-averaged overhead of one EMT (the paper's "overall energy
/// overhead is only 34 %" style of number).
pub fn average_overhead(rows: &[EnergyRow], emt: EmtKind) -> f64 {
    let xs: Vec<f64> = rows
        .iter()
        .filter(|r| r.emt == emt)
        .map(|r| r.overhead_vs_none)
        .collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One row of the codec area table (E6).
#[derive(Clone, Debug, PartialEq)]
pub struct AreaRow {
    /// Protection scheme.
    pub emt: EmtKind,
    /// Encoder area in gate equivalents.
    pub encoder_ge: f64,
    /// Decoder area in gate equivalents.
    pub decoder_ge: f64,
    /// Side + in-array redundancy bits per word (Formula 2 family).
    pub extra_bits: u32,
}

/// Reproduces the §VI-B area comparison from the codec netlists.
pub fn area_table(emts: &[EmtKind]) -> Vec<AreaRow> {
    emts.iter()
        .map(|&emt| {
            let codec = emt.codec();
            AreaRow {
                emt,
                encoder_ge: codec.encoder_netlist().area_ge(),
                decoder_ge: codec.decoder_netlist().area_ge(),
                extra_bits: codec.code_width() - 16 + codec.side_bits(),
            }
        })
        .collect()
}

/// ECC-vs-DREAM area overheads `(encoder, decoder)` as fractions — the
/// paper reports (0.28, 1.20).
pub fn ecc_vs_dream_area(rows: &[AreaRow]) -> (f64, f64) {
    let find = |emt: EmtKind| rows.iter().find(|r| r.emt == emt).expect("row exists");
    let ecc = find(EmtKind::EccSecDed);
    let dream = find(EmtKind::Dream);
    (
        ecc.encoder_ge / dream.encoder_ge - 1.0,
        ecc.decoder_ge / dream.decoder_ge - 1.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EnergyConfig {
        EnergyConfig {
            window: 512,
            voltages: vec![0.5, 0.7, 0.9],
            ..Default::default()
        }
    }

    #[test]
    fn dream_cheaper_than_ecc_on_average() {
        // The paper's headline: DREAM's overhead (≈34 %) undercuts ECC's
        // (≈55 %) by ~21 points.
        let rows = run_energy_table(&small(), 2);
        let dream = average_overhead(&rows, EmtKind::Dream);
        let ecc = average_overhead(&rows, EmtKind::EccSecDed);
        assert!(dream < ecc, "DREAM {dream:.2} vs ECC {ecc:.2}");
        assert!(
            (0.10..0.40).contains(&(ecc - dream)),
            "gap {:.2} should be in the paper's ballpark (~0.21)",
            ecc - dream
        );
    }

    #[test]
    fn none_has_zero_overhead() {
        let rows = run_energy_table(&small(), 2);
        for r in rows.iter().filter(|r| r.emt == EmtKind::None) {
            assert!(r.overhead_vs_none.abs() < 1e-12);
        }
    }

    #[test]
    fn energy_decreases_with_voltage() {
        let rows = run_energy_table(&small(), 2);
        for emt in EmtKind::paper_set() {
            let mut es: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.emt == emt)
                .map(|r| (r.voltage, r.energy.total_pj()))
                .collect();
            es.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            assert!(es.windows(2).all(|w| w[0].1 < w[1].1), "{emt}: {es:?}");
        }
    }

    #[test]
    fn area_ratios_match_paper_ballpark() {
        let rows = area_table(&EmtKind::paper_set());
        let (enc, dec) = ecc_vs_dream_area(&rows);
        assert!((0.1..0.6).contains(&enc), "encoder overhead {enc:.2}");
        assert!((0.9..1.5).contains(&dec), "decoder overhead {dec:.2}");
    }

    #[test]
    fn extra_bits_match_formula_2() {
        let rows = area_table(&EmtKind::paper_set());
        let bits = |emt: EmtKind| rows.iter().find(|r| r.emt == emt).unwrap().extra_bits;
        assert_eq!(bits(EmtKind::None), 0);
        assert_eq!(bits(EmtKind::Dream), 5);
        assert_eq!(bits(EmtKind::EccSecDed), 6);
    }
}
