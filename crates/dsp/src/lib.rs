//! The five biomedical applications of the paper's §II, implemented in
//! 16-bit fixed point over an abstract [`WordStorage`] so that **every data
//! buffer access** — input, intermediate and output — can be routed through
//! a faulty, EMT-protected memory.
//!
//! Applications (one module each):
//!
//! * [`Dwt`] — multi-scale à-trous discrete wavelet transform with the
//!   quadratic-spline filters used by embedded ECG delineators (§II-1),
//! * [`MatrixFilter`] — iterated matrix-multiplication filtering
//!   `[A]×[B]=[C]` (§II-2), the application whose dense data dependencies
//!   explain its lower SNR curve in Fig. 2,
//! * [`CompressedSensing`] — 50 % lossy compression with a sparse binary
//!   sensing matrix (§II-3),
//! * [`MorphologicalFilter`] — erosion/dilation-based denoising and
//!   baseline-wander removal (§II-4),
//! * [`WaveletDelineation`] — DWT-based detection of the P, Q, R, S, T
//!   fiducial points (§II-5),
//! * [`HeartbeatClassifier`] — the §III example of a qualitative output
//!   (delineation + rule-based beat classes, after the paper's ref. \[9\]);
//!   an extension beyond the paper's five benchmark kernels.
//!
//! Each app also carries a double-precision reference implementation
//! ([`BiomedicalApp::run_reference`]) — the "theoretical" output of the
//! paper's Formula 1 — and [`snr_db`] implements that formula.
//!
//! # Example
//!
//! ```
//! use dream_dsp::{AppKind, VecStorage, snr_db};
//! use dream_ecg::Database;
//!
//! let record = Database::record(100, 256);
//! let app = AppKind::Dwt.instantiate(256);
//! let mut mem = VecStorage::new(app.memory_words());
//! let out = app.run(&record.samples, &mut mem);
//! let reference = app.run_reference(&record.samples);
//! // Fault-free fixed point sits close to the float reference:
//! assert!(snr_db(&reference, &to_f64(&out)) > 40.0);
//! # fn to_f64(v: &[i16]) -> Vec<f64> { v.iter().map(|&s| f64::from(s)).collect() }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod classifier;
mod cs;
mod delineate;
mod dwt;
mod matfilt;
mod morpho;
mod snr;
mod storage;

pub use app::{AppKind, BiomedicalApp};
pub use classifier::{BeatClass, HeartbeatClassifier};
pub use cs::CompressedSensing;
pub use delineate::WaveletDelineation;
pub use dwt::Dwt;
pub use matfilt::MatrixFilter;
pub use morpho::MorphologicalFilter;
pub use snr::{samples_to_f64, snr_db, SnrReference};
pub use storage::{VecStorage, WordStorage};
