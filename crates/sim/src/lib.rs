//! Experiment harness: a declarative scenario engine plus the row-typed
//! post-processing behind the paper's tables and figures.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`scenario`] | the engine: serializable campaign specs, the preset registry (Fig. 2, Fig. 4a/b/c, §VI-B, §VI-C, the ablations and the post-paper sweeps), execution with streaming sinks, the typed rows ([`scenario::InjectionRow`], [`scenario::Fig4Point`] …) and the §III compressed-sensing tolerance ([`scenario::cs_tolerance`]) |
//! | [`energy_table`] | §VI-B — the energy row type, sweep-averaged overheads, and the codec area comparison |
//! | [`tradeoff`] | §VI-C — per-EMT minimum voltages, the mixed-EMT voltage policy for a given output-degradation tolerance, and its energy savings |
//! | [`ablation`] | extensions: protected-bits census, address-scrambling ablation, BER-slope sensitivity, mask-supply ablation |
//! | [`campaign`] | shared plumbing: seed discipline, the storage adapter onto protected memories, SNR capping, geometry/record-suite selection |
//! | [`exec`] | the deterministic parallel trial executor behind every campaign, and [`exec::ExecConfig`], its per-campaign settings (read once from `DREAM_THREADS` and `DREAM_BATCH`) |
//! | [`telemetry`] | process-wide counters of the batched executor's economics (evictions, clean-pass replays, stage resumes) that the benchmark reports per layer |
//! | [`report`] | streaming row sinks (ASCII table, CSV, JSONL) for the `dream` CLI |
//!
//! A campaign is a [`scenario::Scenario`] run by a
//! [`scenario::CampaignRunner`]; there is no other entry point. Every
//! random choice derives from explicit seeds, and the [`exec`] scheduler
//! merges trial results in trial order, so
//! `cargo run -p dream-bench --bin dream -- run fig4` prints the same
//! series on every machine **at every thread count**.
//!
//! # Example
//!
//! ```
//! use dream_dsp::AppKind;
//! use dream_sim::scenario::{registry, CampaignRunner, OutcomeData, Scenario};
//!
//! // A miniature Fig. 2: one app, 256-sample windows, 2 records.
//! let sc = Scenario {
//!     window: 256,
//!     records: 2,
//!     trials: 2,
//!     apps: vec![AppKind::CompressedSensing],
//!     ..registry::get("fig2", false).expect("preset exists")
//! };
//! let outcome = CampaignRunner::new(sc).run_discarding().expect("campaign runs");
//! let OutcomeData::Injection(rows) = outcome.data else { unreachable!() };
//! assert_eq!(rows.len(), 2 * 16); // stuck-at-0 and stuck-at-1, 16 bit positions
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod energy_table;
pub mod exec;
pub mod report;
pub mod scenario;
pub mod telemetry;
pub mod tradeoff;
