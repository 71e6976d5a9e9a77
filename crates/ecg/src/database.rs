//! The deterministic record suite (MIT-BIH substitute).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Adc, EcgSynth, NoiseModel, Pathology, DEFAULT_FS};

/// One acquired ECG record: 16-bit samples plus provenance.
///
/// Mirrors what the applications consume from the MIT-BIH Arrhythmia
/// database: a numbered record with a known sampling rate and pathology.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Record number (MIT-BIH-style: 100, 101, …).
    pub id: u16,
    /// The rhythm/morphology class of this record.
    pub pathology: Pathology,
    /// Sampling rate in Hz.
    pub fs: f64,
    /// 16-bit ADC samples.
    pub samples: Vec<i16>,
}

impl Record {
    /// Fraction of samples that are negative (the statistic behind the
    /// Fig. 2 stuck-at-1 asymmetry).
    pub fn negative_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&s| s < 0).count() as f64 / self.samples.len() as f64
    }
}

/// Deterministic factory for the record suite.
///
/// Record IDs follow the MIT-BIH convention of starting at 100. Each ID
/// maps to a fixed `(pathology, seed)` pair, so every experiment in the
/// repository sees bit-identical inputs.
///
/// ```
/// use dream_ecg::Database;
/// let a = Database::record(104, 512);
/// let b = Database::record(104, 512);
/// assert_eq!(a.samples, b.samples);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Database;

impl Database {
    /// Record number of the suite's first record; record `k` of the suite
    /// is `FIRST_ID + k`.
    pub const FIRST_ID: u16 = 100;

    /// Number of records in the standard suite (two per pathology).
    pub const SUITE_SIZE: usize = 10;

    /// Generates record `id` with `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `id` is below 100.
    pub fn record(id: u16, len: usize) -> Record {
        Self::record_with_noise(id, len, &NoiseModel::date16())
    }

    /// Generates record `id` with `len` samples under an explicit noise
    /// model — same waveform and RNG streams as [`Database::record`], only
    /// the additive disturbances differ. `NoiseModel::date16()` reproduces
    /// the standard suite bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `id` is below 100.
    pub fn record_with_noise(id: u16, len: usize, noise: &NoiseModel) -> Record {
        assert!(
            id >= Self::FIRST_ID,
            "record numbers start at {}",
            Self::FIRST_ID
        );
        let index = usize::from(id - Self::FIRST_ID);
        let pathology = Pathology::all()[index % Pathology::all().len()];
        // Seed derived from the record id; the noise RNG is split off so
        // waveform and noise stay independent.
        let seed = 0xD8EA_u64 << 16 | u64::from(id);
        let mut synth = EcgSynth::new(pathology, DEFAULT_FS, seed);
        let clean = synth.generate_mv(len);
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let noisy = noise.apply(&clean, DEFAULT_FS, &mut noise_rng);
        Record {
            id,
            pathology,
            fs: DEFAULT_FS,
            samples: Adc::date16().quantize_all(&noisy),
        }
    }

    /// The standard evaluation suite: [`Database::SUITE_SIZE`] records of
    /// `len` samples covering every pathology twice — the "different ECG
    /// signals with different pathologies" the paper averages over (§III).
    pub fn date16_suite(len: usize) -> Vec<Record> {
        (0..Self::SUITE_SIZE as u16)
            .map(|i| Self::record(Self::FIRST_ID + i, len))
            .collect()
    }

    /// [`Database::date16_suite`] under an explicit noise model.
    pub fn date16_suite_with_noise(len: usize, noise: &NoiseModel) -> Vec<Record> {
        (0..Self::SUITE_SIZE as u16)
            .map(|i| Self::record_with_noise(Self::FIRST_ID + i, len, noise))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_pathologies() {
        let suite = Database::date16_suite(256);
        assert_eq!(suite.len(), Database::SUITE_SIZE);
        for p in Pathology::all() {
            assert!(suite.iter().any(|r| r.pathology == p), "{p:?} missing");
        }
    }

    #[test]
    fn records_are_deterministic() {
        assert_eq!(Database::record(107, 300), Database::record(107, 300));
    }

    #[test]
    fn unit_noise_scale_reproduces_standard_records() {
        let standard = Database::record(103, 400);
        let scaled = Database::record_with_noise(103, 400, &NoiseModel::date16().scaled(1.0));
        assert_eq!(standard, scaled);
    }

    #[test]
    fn heavier_noise_changes_samples_but_not_waveform_seed() {
        let standard = Database::record(103, 400);
        let noisy = Database::record_with_noise(103, 400, &NoiseModel::date16().scaled(4.0));
        assert_eq!(standard.pathology, noisy.pathology);
        assert_ne!(standard.samples, noisy.samples);
        let clean = Database::record_with_noise(103, 400, &NoiseModel::clean());
        // Same underlying waveform: the clean record correlates strongly
        // with the standard one (noise is a small perturbation).
        let diff: i64 = standard
            .samples
            .iter()
            .zip(&clean.samples)
            .map(|(&a, &b)| i64::from(a) - i64::from(b))
            .map(i64::abs)
            .sum();
        assert!((diff / standard.samples.len() as i64) < 1000);
    }

    #[test]
    fn distinct_ids_give_distinct_signals() {
        let a = Database::record(100, 300);
        let b = Database::record(105, 300);
        assert_eq!(a.pathology, b.pathology); // same class, different seed
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn samples_are_mostly_negative() {
        // The §III asymmetry argument: "most of the biosignal samples
        // employed during the experiments are negative".
        for r in Database::date16_suite(2048) {
            assert!(
                r.negative_fraction() > 0.5,
                "record {} only {:.2} negative",
                r.id,
                r.negative_fraction()
            );
        }
    }

    #[test]
    fn samples_leave_sign_run_headroom() {
        // DREAM's premise: samples do not use the full 16-bit range.
        let r = Database::record(100, 2048);
        let max_abs = r.samples.iter().map(|s| i32::from(*s).abs()).max().unwrap();
        assert!(max_abs < 20_000, "peak {max_abs} leaves no headroom");
        assert!(max_abs > 2_000, "signal suspiciously small: {max_abs}");
    }

    #[test]
    #[should_panic(expected = "record numbers start at")]
    fn low_ids_rejected() {
        let _ = Database::record(42, 10);
    }
}
