//! The application abstraction the experiment harness drives.

use std::fmt;

use crate::{
    CompressedSensing, Dwt, HeartbeatClassifier, MatrixFilter, MorphologicalFilter,
    WaveletDelineation, WordStorage,
};

/// A biomedical application whose data buffers live in an external word
/// memory.
///
/// Implementations must route **every** access to input, intermediate and
/// output buffers through the supplied [`WordStorage`]; register-resident
/// scalars (accumulators, loop state) stay outside. This split is the
/// paper's fault model: permanent errors live in the voltage-scaled data
/// memory, not in the core.
///
/// [`BiomedicalApp::run_reference`] computes the same transformation in
/// double precision — the `x_theo` of the paper's Formula 1.
///
/// Applications are `Send + Sync`: [`BiomedicalApp::run`] takes `&self`
/// (all mutable state lives in the supplied storage), so one instance can
/// serve concurrent campaign workers and worker arenas can hold their own
/// boxed copies.
///
/// # Stages
///
/// Every app is a fixed sequence of [`BiomedicalApp::stages`] compute
/// stages followed by the output readback ([`BiomedicalApp::read_output`]).
/// [`BiomedicalApp::run`] is exactly that loop — there is no other code
/// path — and the stage contract is what lets a fault-injection campaign
/// resume a trial mid-run:
///
/// * **cross-stage state lives in the memory.** A stage may keep
///   register-resident scratch (accumulators, block buffers), but nothing
///   it computes survives into a later stage except through `mem`; which
///   buffers a stage reads and writes is a pure function of `k`.
/// * so the memory image at the start of stage `k` fully determines the
///   rest of the run: replaying the writes of stages `0..k` into a fresh
///   memory and calling [`BiomedicalApp::run_from`]`(k, …)` reproduces the
///   output and the suffix's exact reads and writes.
///
/// The boundaries follow each kernel's phases (DWT scales, matrix-filter
/// (iteration, column) products, morphological passes, delineation
/// filters, …), the checkpointable shape a campaign resumes at.
pub trait BiomedicalApp: Send + Sync {
    /// Display name (matches the paper's figure legends).
    fn name(&self) -> &'static str;

    /// The selector this app instantiates.
    fn kind(&self) -> AppKind;

    /// Number of input samples consumed per run.
    fn input_len(&self) -> usize;

    /// Number of output words produced per run.
    fn output_len(&self) -> usize;

    /// Total data-memory footprint (words) of all buffers.
    fn memory_words(&self) -> usize;

    /// Number of compute stages of one run (the readback is not counted).
    fn stages(&self) -> usize;

    /// Executes compute stage `k` (`k < stages()`) on `mem`, which must
    /// hold the image stages `0..k` left behind. Stage 0 stores `input`;
    /// later stages may read `input` only as a pure function of `k`.
    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage);

    /// The final stage: reads the output buffer back *through* `mem`.
    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16>;

    /// Executes the application with all buffers in `mem`, returning the
    /// output read back *through* `mem`: every stage, then the readback.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len()` or `mem` is smaller than
    /// [`BiomedicalApp::memory_words`].
    fn run(&self, input: &[i16], mem: &mut dyn WordStorage) -> Vec<i16> {
        self.run_from(0, input, mem)
    }

    /// Runs stages `first..stages()` and the readback on a memory holding
    /// the image stages `0..first` produced (`first == stages()` only
    /// reads the output back).
    ///
    /// # Panics
    ///
    /// Panics if `first > stages()`, `input.len() != input_len()` or `mem`
    /// is smaller than [`BiomedicalApp::memory_words`].
    fn run_from(&self, first: usize, input: &[i16], mem: &mut dyn WordStorage) -> Vec<i16> {
        assert!(first <= self.stages(), "stage {first} out of range");
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        assert!(mem.len() >= self.memory_words(), "memory too small");
        for k in first..self.stages() {
            self.run_stage(k, input, mem);
        }
        self.read_output(mem)
    }

    /// Double-precision golden reference (`x_theo` of Formula 1).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len()`.
    fn run_reference(&self, input: &[i16]) -> Vec<f64>;
}

/// Selector for the five applications of §II (plus the §III heartbeat
/// classifier built on top of them).
///
/// [`AppKind::instantiate`] builds each app with the standard parameters
/// used across the reproduction's experiments for a given window size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Discrete wavelet transform (§II-1).
    Dwt,
    /// Matrix filtering (§II-2).
    MatrixFilter,
    /// Compressed sensing (§II-3).
    CompressedSensing,
    /// Morphological filtering (§II-4).
    MorphologicalFilter,
    /// Wavelet delineation (§II-5).
    WaveletDelineation,
    /// Heartbeat classifier (§III; delineation + rule-based classes).
    HeartbeatClassifier,
}

impl AppKind {
    /// The five §II applications, in the paper's presentation order — the
    /// set every paper experiment sweeps.
    pub fn all() -> [AppKind; 5] {
        [
            AppKind::Dwt,
            AppKind::MatrixFilter,
            AppKind::CompressedSensing,
            AppKind::MorphologicalFilter,
            AppKind::WaveletDelineation,
        ]
    }

    /// The paper set plus the heartbeat classifier extension.
    pub fn extended() -> [AppKind; 6] {
        [
            AppKind::Dwt,
            AppKind::MatrixFilter,
            AppKind::CompressedSensing,
            AppKind::MorphologicalFilter,
            AppKind::WaveletDelineation,
            AppKind::HeartbeatClassifier,
        ]
    }

    /// Builds the application with its standard configuration for an
    /// `n`-sample input window (sampled at the record suite's 360 Hz).
    ///
    /// # Panics
    ///
    /// Panics if `n` is too small for the app's structure (each app
    /// documents its own minimum; 256 samples satisfies all five).
    pub fn instantiate(self, n: usize) -> Box<dyn BiomedicalApp> {
        match self {
            AppKind::Dwt => Box::new(Dwt::new(n, 4)),
            AppKind::MatrixFilter => {
                let dim = 32.min(n);
                assert!(n % dim == 0, "window must be a multiple of {dim}");
                Box::new(MatrixFilter::new(dim, n / dim, 2))
            }
            AppKind::CompressedSensing => Box::new(CompressedSensing::new(n, 4, 0xC5C5)),
            AppKind::MorphologicalFilter => Box::new(MorphologicalFilter::new(n, 360.0)),
            AppKind::WaveletDelineation => Box::new(WaveletDelineation::new(n, 360.0)),
            AppKind::HeartbeatClassifier => Box::new(HeartbeatClassifier::new(n, 360.0)),
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AppKind::Dwt => "DWT",
            AppKind::MatrixFilter => "Matrix Filtering",
            AppKind::CompressedSensing => "Compressed Sensing",
            AppKind::MorphologicalFilter => "Morphological Filtering",
            AppKind::WaveletDelineation => "Wavelet Delineation",
            AppKind::HeartbeatClassifier => "Heartbeat Classifier",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples_to_f64, snr_db, VecStorage};
    use dream_ecg::Database;

    #[test]
    fn all_apps_instantiate_and_run_on_ecg() {
        let record = Database::record(100, 512);
        for kind in AppKind::all() {
            let app = kind.instantiate(512);
            assert_eq!(app.kind(), kind);
            assert_eq!(app.input_len(), 512);
            let mut mem = VecStorage::new(app.memory_words());
            let out = app.run(&record.samples, &mut mem);
            assert_eq!(out.len(), app.output_len(), "{kind}");
        }
    }

    #[test]
    fn fault_free_runs_sit_near_the_reference() {
        // The dashed "maximum SNR" ceiling of Fig. 4 for every app.
        let record = Database::record(103, 512);
        for kind in AppKind::all() {
            let app = kind.instantiate(512);
            let mut mem = VecStorage::new(app.memory_words());
            let out = app.run(&record.samples, &mut mem);
            let snr = snr_db(&app.run_reference(&record.samples), &samples_to_f64(&out));
            assert!(snr > 40.0, "{kind}: fault-free SNR only {snr:.1} dB");
        }
    }

    #[test]
    fn footprints_fit_the_inyu_memory() {
        // All five apps must fit the 16 K-word (32 kB) shared memory at the
        // standard window size used by the campaigns.
        for kind in AppKind::all() {
            let app = kind.instantiate(1024);
            assert!(
                app.memory_words() <= 16 * 1024,
                "{kind} needs {} words",
                app.memory_words()
            );
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(AppKind::Dwt.to_string(), "DWT");
        assert_eq!(AppKind::CompressedSensing.to_string(), "Compressed Sensing");
    }
}
