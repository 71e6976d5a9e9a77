//! Ablation studies on the design choices `DESIGN.md` calls out: how much
//! each modelling decision contributes to the headline results.
//!
//! The four study kernels below execute on [`crate::exec::run_trials`];
//! the scenario engine's `ablation` family (`dream run ablation`) bundles
//! them into one streamed row set.

use dream_core::{Dream, EmtKind, EnergyModelBundle, NoProtection, ProtectedMemory};
use dream_dsp::{samples_to_f64, snr_db, AppKind};
use dream_ecg::Database;
use dream_mem::{AddressScrambler, BerModel, FaultMap};
use dream_soc::{Soc, SocConfig};

use crate::campaign::{banked_geometry, cap_snr, ProtectedStorage};
use crate::exec;

/// Distribution of DREAM's per-word protection over real signal data:
/// `histogram[k]` counts samples whose top `k` bits are rebuildable
/// (`k = run + 1`, 2..=16).
///
/// This is the §IV premise quantified — "most of the samples produced by
/// the ADC contain series of bits with the same value on the MSB
/// positions" — and the knob behind every DREAM result: shift the ADC
/// gain and this histogram (hence Fig. 4b) moves.
pub fn protected_bits_histogram(window: usize) -> [u64; 17] {
    let mut histogram = [0u64; 17];
    for record in Database::date16_suite(window) {
        for &s in &record.samples {
            histogram[Dream::protected_bits(s) as usize] += 1;
        }
    }
    histogram
}

/// Mean protected bits of a histogram from
/// [`protected_bits_histogram`].
pub fn mean_protected_bits(histogram: &[u64; 17]) -> f64 {
    let total: u64 = histogram.iter().sum();
    let weighted: u64 = histogram
        .iter()
        .enumerate()
        .map(|(k, &c)| k as u64 * c)
        .sum();
    weighted as f64 / total as f64
}

/// Result of the address-scrambling ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct ScramblerAblation {
    /// SNR of repeated runs on one physical fault map *without*
    /// re-scrambling (every run hits the same logical words).
    pub fixed_mapping_snrs: Vec<f64>,
    /// SNR of the same runs with a fresh scrambler key per run (the §V
    /// "small logic to randomize the mapping").
    pub scrambled_snrs: Vec<f64>,
}

impl ScramblerAblation {
    /// Sample standard deviation of a series.
    fn std(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt()
    }

    /// Spread of outcomes without re-scrambling (should be ~0: the same
    /// cells fail every run).
    pub fn fixed_mapping_std(&self) -> f64 {
        Self::std(&self.fixed_mapping_snrs)
    }

    /// Spread with per-run scrambling (should be substantial: each run is
    /// a fresh draw of fault *locations*, which is what lets one die
    /// emulate the paper's 200-map campaign).
    pub fn scrambled_std(&self) -> f64 {
        Self::std(&self.scrambled_snrs)
    }
}

/// Runs the scrambling ablation: one physical die (fixed fault map), many
/// runs, with and without logical-address re-randomization, on up to
/// `threads` workers.
pub fn scrambler_ablation(
    window: usize,
    voltage: f64,
    runs: usize,
    threads: usize,
) -> ScramblerAblation {
    let app = AppKind::Dwt.instantiate(window);
    let geometry = banked_geometry(app.memory_words());
    let words = geometry.words();
    let ber = BerModel::date16().ber(voltage);
    let record = Database::record(100, window);
    let reference = app.run_reference(&record.samples);
    // One physical die.
    let physical = FaultMap::generate(words, 16, ber, 0xD1E);
    // Trials: `runs` fixed-mapping runs followed by `runs` re-scrambled
    // ones; each is one descriptor for the campaign executor.
    let trials: Vec<Option<u64>> = (0..runs)
        .map(|_| None)
        .chain((0..runs).map(|r| Some(0xA5A5 + r as u64)))
        .collect();
    let snrs = exec::run_trials(
        threads,
        &trials,
        || (),
        |(), &scramble_key, _| {
            let mut mem =
                ProtectedMemory::with_codec_and_fault_map(NoProtection::new(), geometry, &physical);
            if let Some(key) = scramble_key {
                mem.set_scrambler(AddressScrambler::new(words, key));
            }
            let out = {
                let mut storage = ProtectedStorage::new(&mut mem);
                app.run(&record.samples, &mut storage)
            };
            cap_snr(snr_db(&reference, &samples_to_f64(&out)))
        },
    );
    ScramblerAblation {
        fixed_mapping_snrs: snrs[..runs].to_vec(),
        scrambled_snrs: snrs[runs..].to_vec(),
    }
}

/// One point of the BER-model sensitivity sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BerSensitivityPoint {
    /// BER slope (decades per volt) used for this curve.
    pub slope: f64,
    /// Supply voltage (V).
    pub voltage: f64,
    /// Mean DWT SNR under DREAM (dB).
    pub mean_snr_db: f64,
}

/// Sensitivity of the Fig. 4b DWT curve to the one free parameter of the
/// substituted BER model (its slope): how far do the usable-voltage
/// thresholds move per decade-per-volt of slope error?
///
/// Sweeps the paper's voltage grid under the date16 calibration; the
/// scenario engine's `ablation` family uses [`ber_sensitivity_grid`] to
/// honor a spec's own grid and calibration. Runs on up to `threads`
/// workers.
pub fn ber_sensitivity(
    window: usize,
    runs: usize,
    slopes: &[f64],
    threads: usize,
) -> Vec<BerSensitivityPoint> {
    ber_sensitivity_grid(
        window,
        runs,
        slopes,
        &BerModel::paper_voltages(),
        &BerModel::date16(),
        threads,
    )
}

/// [`ber_sensitivity`] over an explicit voltage grid and base calibration:
/// each curve keeps `base`'s nominal point and substitutes its slope.
pub fn ber_sensitivity_grid(
    window: usize,
    runs: usize,
    slopes: &[f64],
    voltages: &[f64],
    base: &BerModel,
    threads: usize,
) -> Vec<BerSensitivityPoint> {
    let app = AppKind::Dwt.instantiate(window);
    let geometry = banked_geometry(app.memory_words());
    let words = geometry.words();
    let record = Database::record(100, window);
    let reference = app.run_reference(&record.samples);
    let (nominal_v, log10_at_nominal) = (base.nominal_v(), base.log10_ber_at_nominal());
    // Flattened (slope, voltage, run) sweep in historical nested-loop
    // order, so the per-point averages below reduce in the same sequence.
    struct Trial {
        slope: f64,
        voltage: f64,
        run: usize,
    }
    let trials: Vec<Trial> = slopes
        .iter()
        .flat_map(|&slope| {
            voltages.iter().flat_map(move |&voltage| {
                (0..runs).map(move |run| Trial {
                    slope,
                    voltage,
                    run,
                })
            })
        })
        .collect();
    // Worker arena: a reusable DREAM memory and wide fault-map buffer.
    let scratch = || {
        (
            ProtectedMemory::with_codec(Dream::new(), geometry),
            FaultMap::empty(words, 22),
        )
    };
    let snrs = exec::run_trials(threads, &trials, scratch, |(mem, map), t, _| {
        let ber = BerModel::new(nominal_v, log10_at_nominal, t.slope).ber(t.voltage);
        map.regenerate(ber, 0xBE5 + t.run as u64);
        mem.reset_with_fault_map(map);
        let out = {
            let mut storage = ProtectedStorage::new(mem);
            app.run(&record.samples, &mut storage)
        };
        cap_snr(snr_db(&reference, &samples_to_f64(&out)))
    });
    let mut points = Vec::new();
    for (si, &slope) in slopes.iter().enumerate() {
        for (vi, &voltage) in voltages.iter().enumerate() {
            let base = (si * voltages.len() + vi) * runs;
            let sum: f64 = snrs[base..base + runs].iter().sum();
            points.push(BerSensitivityPoint {
                slope,
                voltage,
                mean_snr_db: sum / runs as f64,
            });
        }
    }
    points
}

/// DREAM's energy overhead with the mask memory pinned at nominal (the
/// paper's design) versus letting it track the scaled data rail — the
/// design choice that dominates DREAM's low-voltage overhead.
///
/// Returns `(voltage, overhead_pinned, overhead_tracking)` triples against
/// the unprotected baseline.
pub fn mask_supply_ablation(window: usize) -> Vec<(f64, f64, f64)> {
    let record = Database::record(100, window);
    let app = AppKind::Dwt.instantiate(window);
    let stats_for = |emt: EmtKind| {
        let mut soc = Soc::new(SocConfig::inyu(), emt, None);
        soc.run_app(&*app, &record.samples)
    };
    let none_run = stats_for(EmtKind::None);
    let dream_run = stats_for(EmtKind::Dream);
    let config = SocConfig::inyu();
    let words = config.geometry.words();
    BerModel::paper_voltages()
        .into_iter()
        .map(|v| {
            let pinned = EnergyModelBundle::date16();
            let tracking = EnergyModelBundle {
                side_supply_v: v,
                ..EnergyModelBundle::date16()
            };
            let base = pinned
                .run_energy(
                    &EmtKind::None.codec(),
                    &none_run.stats,
                    words,
                    v,
                    config.seconds(none_run.cycles),
                )
                .total_pj();
            let over = |bundle: &EnergyModelBundle| {
                bundle
                    .run_energy(
                        &EmtKind::Dream.codec(),
                        &dream_run.stats,
                        words,
                        v,
                        config.seconds(dream_run.cycles),
                    )
                    .total_pj()
                    / base
                    - 1.0
            };
            (v, over(&pinned), over(&tracking))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_covers_all_samples() {
        let h = protected_bits_histogram(256);
        let total: u64 = h.iter().sum();
        assert_eq!(total, (Database::SUITE_SIZE * 256) as u64);
        // No sample has fewer than 2 protected bits (sign + guard).
        assert_eq!(h[0], 0);
        assert_eq!(h[1], 0);
        let mean = mean_protected_bits(&h);
        assert!((2.0..=16.0).contains(&mean));
    }

    #[test]
    fn scrambling_restores_run_to_run_diversity() {
        let ablation = scrambler_ablation(512, 0.55, 6, 2);
        assert!(
            ablation.fixed_mapping_std() < 1e-9,
            "without re-scrambling every run must be identical"
        );
        assert!(
            ablation.scrambled_std() > ablation.fixed_mapping_std(),
            "scrambling should diversify outcomes: {:?}",
            ablation.scrambled_snrs
        );
    }

    #[test]
    fn steeper_ber_slope_degrades_low_voltage_snr() {
        let points = ber_sensitivity(512, 3, &[10.0, 16.0], 2);
        let at = |slope: f64, v: f64| {
            points
                .iter()
                .find(|p| p.slope == slope && (p.voltage - v).abs() < 1e-9)
                .unwrap()
                .mean_snr_db
        };
        assert!(at(10.0, 0.55) > at(16.0, 0.55));
        // At nominal both slopes are fault-free.
        assert!((at(10.0, 0.9) - at(16.0, 0.9)).abs() < 1.0);
    }

    #[test]
    fn tracking_mask_supply_cuts_low_voltage_overhead() {
        let rows = mask_supply_ablation(512);
        for (v, pinned, tracking) in rows {
            assert!(
                tracking <= pinned + 1e-9,
                "tracking mask rail cannot cost more ({v} V: {tracking} vs {pinned})"
            );
            if v < 0.89 {
                assert!(tracking < pinned, "at {v} V tracking must be cheaper");
            }
        }
    }
}
