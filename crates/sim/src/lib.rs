//! Experiment harness: a declarative scenario engine with one thin,
//! row-typed driver per table/figure of the paper.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`scenario`] | the engine: serializable campaign specs, the preset registry, and execution with streaming sinks |
//! | [`fig2`] | Fig. 2 — output SNR vs position of an injected stuck-at bit, per application, plus the §III compressed-sensing tolerance thresholds |
//! | [`fig4`] | Fig. 4a/b/c — output SNR vs memory supply voltage, per application, for no protection / DREAM / ECC SEC/DED (200 random fault maps per voltage, shared across EMTs) |
//! | [`energy_table`] | §VI-B — energy overhead of each EMT vs the unprotected baseline, and the codec area comparison |
//! | [`tradeoff`] | §VI-C — mixed-EMT voltage policy for a given output-degradation tolerance and its energy savings |
//! | [`ablation`] | extensions: protected-bits census, address-scrambling ablation, BER-slope sensitivity, mask-supply ablation |
//! | [`campaign`] | shared plumbing: seed discipline, the storage adapter onto protected memories, SNR capping, geometry/record-suite selection |
//! | [`exec`] | the deterministic parallel trial executor behind every campaign, and [`exec::ExecConfig`], its per-campaign settings (read once from `DREAM_THREADS`, `DREAM_BATCH`, `DREAM_BATCH_BAILOUT`) |
//! | [`telemetry`] | process-wide counters of the batched executor's economics (evictions, bail-outs, clean-pass replays, stage resumes) that the benchmark reports per layer |
//! | [`report`] | streaming row sinks (ASCII table, CSV, JSONL) for the `dream` CLI |
//!
//! The experiment functions are deterministic: every random choice derives
//! from explicit seeds, and the [`exec`] scheduler merges trial results in
//! trial order, so `cargo run -p dream-bench --bin dream -- run fig4`
//! prints the same series on every machine **at every thread count**.
//!
//! # Example
//!
//! ```
//! use dream_sim::fig2::{Fig2Config, run_fig2};
//! use dream_dsp::AppKind;
//!
//! // A miniature Fig. 2: one app, 64-sample windows, 2 records.
//! let cfg = Fig2Config { window: 256, records: 2, apps: vec![AppKind::CompressedSensing], fault_trials: 2 };
//! let rows = run_fig2(&cfg);
//! assert_eq!(rows.len(), 2 * 16); // stuck-at-0 and stuck-at-1, 16 bit positions
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod energy_table;
pub mod exec;
pub mod fig2;
pub mod fig4;
pub mod report;
pub mod scenario;
pub mod telemetry;
pub mod tradeoff;
