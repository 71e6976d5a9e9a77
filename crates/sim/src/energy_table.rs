//! Experiments E5, E6, E8: the §VI-B energy and area analysis.
//!
//! The energy rows come from the scenario engine's `energy-sweep` family
//! (`dream run energy`); this module keeps their row type and the
//! post-processing the summaries consume ([`average_overhead`],
//! [`area_table`], [`ecc_vs_dream_area`]).

use dream_core::{EmtCodec, EmtKind};
use dream_energy::EnergyBreakdown;

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
