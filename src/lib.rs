//! **dream-suite** — a full reproduction of *"Energy vs. Reliability
//! Trade-offs Exploration in Biomedical Ultra-Low Power Devices"* (Duch,
//! Garcia del Valle, Ganapathy, Burg, Atienza — DATE 2016).
//!
//! This façade crate re-exports the workspace so downstream users depend on
//! one name:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `dream-core` | the DREAM technique, ECC SEC/DED, protected memory |
//! | [`fixed`] | `dream-fixed` | Q15 fixed-point arithmetic |
//! | [`ecg`] | `dream-ecg` | synthetic ECG substrate (MIT-BIH stand-in) |
//! | [`mem`] | `dream-mem` | BER model, stuck-at fault maps, faulty SRAM |
//! | [`energy`] | `dream-energy` | CACTI-like energy/area models |
//! | [`dsp`] | `dream-dsp` | the five biomedical applications + SNR metric |
//! | [`soc`] | `dream-soc` | cycle-approximate MPSoC (VirtualSOC stand-in) |
//! | [`sim`] | `dream-sim` | the scenario engine behind every figure and table |
//! | [`serve`] | `dream-serve` | the campaign service (HTTP API + artifact store) |
//!
//! # Quickstart
//!
//! ```
//! use dream_suite::core::{DecodeOutcome, Dream, EmtCodec};
//!
//! // DREAM protects the sign-extension run of each 16-bit sample.
//! let dream = Dream::new();
//! let encoded = dream.encode(-42);
//! let corrupted = encoded.code ^ 0xFF00; // eight MSB faults
//! let decoded = dream.decode(corrupted, encoded.side);
//! assert_eq!(decoded.word, -42);
//! assert_eq!(decoded.outcome, DecodeOutcome::Corrected);
//! ```
//!
//! # Running campaigns
//!
//! Every campaign driver — the `dream` CLI, the campaign service, tests —
//! goes through one surface, the [`CampaignRunner`] builder:
//!
//! ```
//! use dream_suite::{CampaignRunner, CancelToken};
//! use dream_suite::sim::scenario::registry;
//!
//! let sc = registry::get("fig2", true).expect("preset exists");
//! let token = CancelToken::new(); // fire from another thread to stop early
//! let outcome = CampaignRunner::new(sc)
//!     .threads(2)
//!     .cancel_token(token)
//!     .on_progress(|p| eprintln!("{} rows of {} trials", p.rows, p.trials_total))
//!     .run_discarding()
//!     .expect("campaign runs");
//! assert!(!outcome.rows.is_empty());
//! ```
//!
//! Invalid specs surface as the typed [`SpecError`] (field-path context
//! included), which the campaign service maps to HTTP 400s.
//!
//! See `examples/` for end-to-end scenarios (start with
//! `cargo run --example quickstart`) and `README.md` for the workspace
//! layout and the tier-1 verification commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dream_core as core;
pub use dream_dsp as dsp;
pub use dream_ecg as ecg;
pub use dream_energy as energy;
pub use dream_fixed as fixed;
pub use dream_mem as mem;
pub use dream_serve as serve;
pub use dream_sim as sim;
pub use dream_soc as soc;

pub use dream_sim::scenario::{CampaignRunner, CancelToken, Progress, SpecError};
