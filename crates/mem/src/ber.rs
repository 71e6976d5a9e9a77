//! Bit-error-rate versus supply-voltage model.

/// Bit error rate of a low-power SRAM cell as a function of supply voltage.
///
/// The paper profiles a 32 nm low-power memory for each voltage level
/// (its reference \[2\]); that silicon characterization is not public, so this
/// model substitutes a parametric curve: `log10(BER)` is affine in the
/// voltage, which matches the near-exponential growth of cell failure
/// probability as the supply approaches threshold reported across the
/// near-threshold SRAM literature.
///
/// The defaults ([`BerModel::date16`]) are anchored so the qualitative
/// regimes of the paper's Fig. 4 appear at the reported voltages: negligible
/// fault rates at 0.9 V, onset of unprotected degradation below ~0.85 V,
/// multi-error words (that defeat ECC SEC/DED but not DREAM) below ~0.55 V.
///
/// ```
/// use dream_mem::BerModel;
/// let m = BerModel::date16();
/// assert!(m.ber(0.9) < 1e-7);
/// assert!(m.ber(0.5) > 1e-4);
/// assert!(m.ber(0.5) > m.ber(0.6));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BerModel {
    nominal_v: f64,
    log10_ber_at_nominal: f64,
    log10_slope_per_volt: f64,
}

impl BerModel {
    /// The nominal supply voltage of the modelled technology (0.9 V).
    pub const NOMINAL_VOLTAGE: f64 = 0.9;

    /// The calibration used throughout the reproduction (see `DESIGN.md` §6):
    /// `log10 BER = -7.6 + 13.0 * (0.9 - V)`.
    pub fn date16() -> Self {
        BerModel {
            nominal_v: Self::NOMINAL_VOLTAGE,
            log10_ber_at_nominal: -7.6,
            log10_slope_per_volt: 13.0,
        }
    }

    /// Builds a custom model.
    ///
    /// `log10_ber_at_nominal` is the `log10` of the BER at `nominal_v`;
    /// `log10_slope_per_volt` is how many decades the BER grows per volt of
    /// down-scaling.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_v` is not positive or the slope is negative (the
    /// model must be monotone: lower voltage, more errors).
    pub fn new(nominal_v: f64, log10_ber_at_nominal: f64, log10_slope_per_volt: f64) -> Self {
        assert!(nominal_v > 0.0, "nominal voltage must be positive");
        assert!(
            log10_slope_per_volt >= 0.0,
            "BER must not decrease as voltage drops"
        );
        BerModel {
            nominal_v,
            log10_ber_at_nominal,
            log10_slope_per_volt,
        }
    }

    /// Nominal supply voltage of this model (V).
    pub fn nominal_v(&self) -> f64 {
        self.nominal_v
    }

    /// `log10` of the BER at the nominal voltage.
    pub fn log10_ber_at_nominal(&self) -> f64 {
        self.log10_ber_at_nominal
    }

    /// Decades of BER growth per volt of down-scaling.
    pub fn log10_slope_per_volt(&self) -> f64 {
        self.log10_slope_per_volt
    }

    /// Bit error rate at supply voltage `v` (clamped to `[0.0, 0.5]`;
    /// a fully random cell is wrong half the time).
    pub fn ber(&self, v: f64) -> f64 {
        let log10 = self.log10_ber_at_nominal + self.log10_slope_per_volt * (self.nominal_v - v);
        10f64.powf(log10).clamp(0.0, 0.5)
    }

    /// The voltage grid of the paper's Fig. 4: 0.50 V to 0.90 V in 0.05 V
    /// steps (ascending).
    pub fn paper_voltages() -> Vec<f64> {
        (0..=8).map(|i| 0.50 + 0.05 * f64::from(i)).collect()
    }

    /// Expected number of faulty bits in an array of `bits` cells at
    /// voltage `v`.
    pub fn expected_faults(&self, v: f64, bits: usize) -> f64 {
        self.ber(v) * bits as f64
    }
}

impl Default for BerModel {
    fn default() -> Self {
        Self::date16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_decreasing_with_voltage() {
        let m = BerModel::date16();
        let grid = BerModel::paper_voltages();
        for pair in grid.windows(2) {
            assert!(
                m.ber(pair[0]) > m.ber(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn date16_anchors() {
        let m = BerModel::date16();
        assert!((m.ber(0.9).log10() - (-7.6)).abs() < 1e-9);
        // At 0.5 V: -7.6 + 13.0 * 0.4 = -2.4
        assert!((m.ber(0.5).log10() - (-2.4)).abs() < 1e-9);
    }

    #[test]
    fn ber_is_clamped() {
        let m = BerModel::new(0.9, -1.0, 20.0);
        assert_eq!(m.ber(0.0), 0.5);
    }

    #[test]
    fn paper_grid_matches_figure_axis() {
        let grid = BerModel::paper_voltages();
        assert_eq!(grid.len(), 9);
        assert!((grid[0] - 0.5).abs() < 1e-12);
        assert!((grid[8] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn expected_faults_scale_with_size() {
        let m = BerModel::date16();
        let one = m.expected_faults(0.6, 1_000);
        let ten = m.expected_faults(0.6, 10_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "BER must not decrease")]
    fn negative_slope_rejected() {
        let _ = BerModel::new(0.9, -7.0, -1.0);
    }
}
