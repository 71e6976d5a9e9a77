//! Experiment E7: the §VI-C quality-vs-energy trade-off exploration.
//!
//! Pure row-typed post-processing: [`curve`], [`explore`] and
//! [`mixed_policy`] consume the Fig. 4 points and energy rows the scenario engine
//! produces (`dream run tradeoff` wires them together).

use dream_core::EmtKind;
use dream_dsp::AppKind;

use crate::energy_table::EnergyRow;
use crate::scenario::Fig4Point;

/// Looks up the curve of one (app, EMT) pair, sorted by voltage ascending.
pub fn curve(points: &[Fig4Point], app: AppKind, emt: EmtKind) -> Vec<Fig4Point> {
    let mut c: Vec<Fig4Point> = points
        .iter()
        .filter(|p| p.app == app && p.emt == emt)
        .copied()
        .collect();
    c.sort_by(|a, b| a.voltage.partial_cmp(&b.voltage).expect("finite voltages"));
    c
}

/// Energy of the 0.9 V unprotected baseline every §VI-C saving is priced
/// against (pJ) — shared by [`explore`] and [`mixed_policy`], which used
/// to each re-derive it.
///
/// # Panics
///
/// Panics if the energy table lacks the 0.9 V unprotected row.
fn nominal_baseline_pj(energy: &[EnergyRow]) -> f64 {
    energy
        .iter()
        .find(|r| r.emt == EmtKind::None && (r.voltage - 0.9).abs() < 1e-9)
        .expect("energy table must include the 0.9 V unprotected baseline")
        .energy
        .total_pj()
}

/// The operating point §VI-C selects for one EMT: the lowest voltage whose
/// *average* output degradation stays within the tolerance, and the energy
/// saved by running there instead of nominal-unprotected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TradeoffPolicy {
    /// Protection scheme.
    pub emt: EmtKind,
    /// Lowest admissible supply voltage (V); `None` if even nominal fails.
    pub min_voltage: Option<f64>,
    /// Energy savings versus the 0.9 V unprotected baseline (fraction;
    /// `0.30` = 30 % less energy), at `min_voltage`.
    pub savings_vs_nominal: Option<f64>,
}

/// Reproduces the §VI-C exploration for `app`: given the Fig. 4 curves and
/// the energy table, find for each EMT the lowest voltage at which the
/// mean SNR has dropped by at most `tolerance_db` from that EMT's ceiling
/// (its SNR at nominal voltage), then price the energy savings against
/// running unprotected at 0.9 V.
///
/// The paper instantiates this with the DWT application and a −1 dB
/// tolerance, obtaining three regimes: no protection down to ~0.85 V,
/// DREAM down to ~0.65 V, ECC SEC/DED down to ~0.55 V.
///
/// # Panics
///
/// Panics if the inputs do not contain the 0.9 V unprotected baseline.
pub fn explore(
    app: AppKind,
    tolerance_db: f64,
    fig4: &[Fig4Point],
    energy: &[EnergyRow],
) -> Vec<TradeoffPolicy> {
    let baseline_energy = nominal_baseline_pj(energy);
    let emts: Vec<EmtKind> = {
        let mut seen = Vec::new();
        for p in fig4 {
            if p.app == app && !seen.contains(&p.emt) {
                seen.push(p.emt);
            }
        }
        seen
    };
    emts.into_iter()
        .map(|emt| {
            let c = curve(fig4, app, emt);
            assert!(!c.is_empty(), "no Fig. 4 curve for {emt}");
            let ceiling = c.last().expect("non-empty").mean_snr_db;
            // Walk down from nominal; stop before the first failing point.
            let mut min_voltage = None;
            for p in c.iter().rev() {
                if p.mean_snr_db >= ceiling - tolerance_db {
                    min_voltage = Some(p.voltage);
                } else {
                    break;
                }
            }
            let savings_vs_nominal = min_voltage.map(|v| {
                let e = energy
                    .iter()
                    .find(|r| r.emt == emt && (r.voltage - v).abs() < 1e-9)
                    .unwrap_or_else(|| panic!("energy table missing {emt} at {v} V"))
                    .energy
                    .total_pj();
                1.0 - e / baseline_energy
            });
            TradeoffPolicy {
                emt,
                min_voltage,
                savings_vs_nominal,
            }
        })
        .collect()
}

/// One band of the §VI-C mixed-EMT operating policy: at `voltage`, run
/// `best_emt` (the cheapest technique still within tolerance), spending
/// `energy_pj` per application run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyBand {
    /// Supply voltage of this grid point (V).
    pub voltage: f64,
    /// Cheapest EMT meeting the quality tolerance here, if any.
    pub best_emt: Option<EmtKind>,
    /// Energy per run of the chosen EMT (pJ); `None` when nothing passes.
    pub energy_pj: Option<f64>,
    /// Savings versus 0.9 V unprotected when operating here.
    pub savings_vs_nominal: Option<f64>,
}

/// The full §VI-C policy: "combining the two aforementioned techniques and
/// triggering, selectively, one or the other, according to the memory
/// supply voltage and level of protection required".
///
/// For every voltage of the Fig. 4 grid, picks the lowest-energy EMT whose
/// mean SNR stays within `tolerance_db` of its own nominal ceiling. The
/// resulting table is the paper's "three ranges of voltages": unprotected
/// near nominal, DREAM in the middle band, ECC at the bottom — and the last
/// band with any entry is the device's minimum operating point.
///
/// # Panics
///
/// Panics if the energy table lacks the 0.9 V unprotected baseline.
pub fn mixed_policy(
    app: AppKind,
    tolerance_db: f64,
    fig4: &[Fig4Point],
    energy: &[EnergyRow],
) -> Vec<PolicyBand> {
    let baseline = nominal_baseline_pj(energy);
    let policies = explore(app, tolerance_db, fig4, energy);
    let mut voltages: Vec<f64> = fig4
        .iter()
        .filter(|p| p.app == app)
        .map(|p| p.voltage)
        .collect();
    voltages.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    voltages.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    voltages
        .into_iter()
        .map(|v| {
            let mut best: Option<(EmtKind, f64)> = None;
            for policy in &policies {
                let usable = policy.min_voltage.is_some_and(|mv| v >= mv - 1e-9);
                if !usable {
                    continue;
                }
                let e = energy
                    .iter()
                    .find(|r| r.emt == policy.emt && (r.voltage - v).abs() < 1e-9)
                    .map(|r| r.energy.total_pj());
                if let Some(e) = e {
                    if best.is_none_or(|(_, b)| e < b) {
                        best = Some((policy.emt, e));
                    }
                }
            }
            PolicyBand {
                voltage: v,
                best_emt: best.map(|(emt, _)| emt),
                energy_pj: best.map(|(_, e)| e),
                savings_vs_nominal: best.map(|(_, e)| 1.0 - e / baseline),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_energy::EnergyBreakdown;

    fn point(emt: EmtKind, v: f64, snr: f64) -> Fig4Point {
        Fig4Point {
            app: AppKind::Dwt,
            emt,
            voltage: v,
            mean_snr_db: snr,
            min_snr_db: snr,
            uncorrectable_rate: 0.0,
            corrected_rate: 0.0,
        }
    }

    fn energy_row(emt: EmtKind, v: f64, pj: f64) -> EnergyRow {
        let mut e = EnergyBreakdown::new();
        e.data_dynamic_pj = pj;
        EnergyRow {
            emt,
            voltage: v,
            energy: e,
            overhead_vs_none: 0.0,
        }
    }

    fn synthetic_inputs() -> (Vec<Fig4Point>, Vec<EnergyRow>) {
        // None passes at {0.85, 0.9}; DREAM down to 0.65; ECC down to 0.55.
        let grid = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9];
        let mut fig4 = Vec::new();
        let mut energy = Vec::new();
        for &v in &grid {
            fig4.push(point(EmtKind::None, v, if v >= 0.85 { 80.0 } else { 40.0 }));
            fig4.push(point(
                EmtKind::Dream,
                v,
                if v >= 0.65 { 80.0 } else { 40.0 },
            ));
            fig4.push(point(
                EmtKind::EccSecDed,
                v,
                if v >= 0.55 { 80.0 } else { 40.0 },
            ));
            // Simple quadratic energies with EMT factors 1.0/1.34/1.55.
            let v2 = (v / 0.9) * (v / 0.9);
            energy.push(energy_row(EmtKind::None, v, 100.0 * v2));
            energy.push(energy_row(EmtKind::Dream, v, 134.0 * v2));
            energy.push(energy_row(EmtKind::EccSecDed, v, 155.0 * v2));
        }
        (fig4, energy)
    }

    #[test]
    fn curve_selects_one_pair_sorted_by_voltage() {
        let (mut fig4, _) = synthetic_inputs();
        fig4.reverse();
        let c = curve(&fig4, AppKind::Dwt, EmtKind::Dream);
        assert_eq!(c.len(), 9);
        assert!(c.iter().all(|p| p.emt == EmtKind::Dream));
        assert!(c.windows(2).all(|w| w[0].voltage < w[1].voltage));
    }

    #[test]
    fn reproduces_three_regimes() {
        let (fig4, energy) = synthetic_inputs();
        let policies = explore(AppKind::Dwt, 1.0, &fig4, &energy);
        let find = |emt: EmtKind| policies.iter().find(|p| p.emt == emt).unwrap();
        assert_eq!(find(EmtKind::None).min_voltage, Some(0.85));
        assert_eq!(find(EmtKind::Dream).min_voltage, Some(0.65));
        assert_eq!(find(EmtKind::EccSecDed).min_voltage, Some(0.55));
    }

    #[test]
    fn savings_match_hand_computation() {
        let (fig4, energy) = synthetic_inputs();
        let policies = explore(AppKind::Dwt, 1.0, &fig4, &energy);
        let none = policies.iter().find(|p| p.emt == EmtKind::None).unwrap();
        // 1 - (0.85/0.9)^2 = 0.1080...
        assert!((none.savings_vs_nominal.unwrap() - 0.108).abs() < 1e-3);
        let dream = policies.iter().find(|p| p.emt == EmtKind::Dream).unwrap();
        // 1 - 1.34*(0.65/0.9)^2 = 0.3010...
        assert!((dream.savings_vs_nominal.unwrap() - 0.301).abs() < 1e-3);
        let ecc = policies
            .iter()
            .find(|p| p.emt == EmtKind::EccSecDed)
            .unwrap();
        // 1 - 1.55*(0.55/0.9)^2 = 0.4212...
        assert!((ecc.savings_vs_nominal.unwrap() - 0.421).abs() < 1e-3);
    }

    #[test]
    fn mixed_policy_selects_cheapest_usable_emt() {
        let (fig4, energy) = synthetic_inputs();
        let bands = mixed_policy(AppKind::Dwt, 1.0, &fig4, &energy);
        let at = |v: f64| {
            bands
                .iter()
                .find(|b| (b.voltage - v).abs() < 1e-9)
                .copied()
                .unwrap()
        };
        // Near nominal everything passes; raw storage is cheapest.
        assert_eq!(at(0.9).best_emt, Some(EmtKind::None));
        assert_eq!(at(0.85).best_emt, Some(EmtKind::None));
        // Middle band: only the protected schemes qualify, DREAM is
        // cheaper than ECC (134 < 155 factor in the synthetic table).
        assert_eq!(at(0.75).best_emt, Some(EmtKind::Dream));
        assert_eq!(at(0.65).best_emt, Some(EmtKind::Dream));
        // Bottom band: ECC alone.
        assert_eq!(at(0.55).best_emt, Some(EmtKind::EccSecDed));
        // Below everything: no usable technique.
        assert_eq!(at(0.5).best_emt, None);
        assert_eq!(at(0.5).savings_vs_nominal, None);
        // Savings grow monotonically down the usable bands.
        let s85 = at(0.85).savings_vs_nominal.unwrap();
        let s65 = at(0.65).savings_vs_nominal.unwrap();
        let s55 = at(0.55).savings_vs_nominal.unwrap();
        assert!(s65 > s85);
        assert!(s55 > s65);
    }

    #[test]
    fn gaps_in_the_curve_stop_the_walk() {
        // A dip at 0.8 V must keep the policy at 0.85 V even if 0.75 V
        // looks fine again (no operating *range* through a bad region).
        let grid = [0.75, 0.8, 0.85, 0.9];
        let snrs = [80.0, 40.0, 80.0, 80.0];
        let fig4: Vec<Fig4Point> = grid
            .iter()
            .zip(&snrs)
            .map(|(&v, &s)| point(EmtKind::None, v, s))
            .collect();
        let energy: Vec<EnergyRow> = grid
            .iter()
            .map(|&v| energy_row(EmtKind::None, v, 100.0 * v * v))
            .collect();
        let policies = explore(AppKind::Dwt, 1.0, &fig4, &energy);
        assert_eq!(policies[0].min_voltage, Some(0.85));
    }
}
