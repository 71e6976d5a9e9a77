//! The declarative scenario engine: **one spec, one engine, one sink**
//! for every campaign.
//!
//! Every artifact of the paper — and every new workload — is the same
//! shape: a sweep over `{app × technique × grid × record × trial}` with
//! fault-model knobs, reduced to per-point statistics. This module makes
//! that shape *data*:
//!
//! * [`spec`] — the serializable [`Scenario`] description (sweep axes,
//!   fault knobs, sink options) and its compilation to flattened
//!   [`FlatTrial`] descriptors;
//! * [`json`] — the dependency-free JSON layer spec files ride on;
//! * [`registry`] — named presets (`fig2`, `fig4`, `energy`, `tradeoff`,
//!   `ablation`, `noise-sweep`, `geometry-sweep`) in full and smoke
//!   scales;
//! * [`engine`] — execution on the deterministic parallel
//!   [`crate::exec::run_trials`] executor, streaming rows to any
//!   [`crate::report::Sink`] as grid points complete;
//! * [`runner`] — the [`CampaignRunner`] builder every driver (CLI,
//!   campaign service, tests) goes through: per-campaign execution
//!   settings ([`crate::exec::ExecConfig`]),
//!   [`Progress`] events and [`CancelToken`] cancellation;
//! * [`shard`] — [`ShardPlan`], the one partition of a campaign into
//!   contiguous grid units, behind sharded fan-out and resume alike.
//!
//! The post-processing modules ([`crate::energy_table`],
//! [`crate::tradeoff`], [`crate::ablation`]) consume the typed rows of a
//! [`ScenarioOutcome`]; the paper presets' numeric output is
//! byte-identical to the pre-engine runners at any thread count (pinned
//! by `tests/scenario_golden.rs`).
//!
//! # Example
//!
//! ```
//! use dream_sim::scenario::{registry, CampaignRunner};
//!
//! let mut sc = registry::get("noise-sweep", true).expect("preset exists");
//! sc.trials = 1;
//! sc.records = 1;
//! sc.apps = vec![dream_dsp::AppKind::Dwt];
//! let expected = sc.grid.len() * sc.emts.len();
//! let outcome = CampaignRunner::new(sc).run_discarding().expect("engine runs");
//! assert_eq!(outcome.rows.len(), expected);
//! ```

pub mod engine;
pub mod json;
pub mod registry;
pub mod runner;
pub mod shard;
pub mod spec;

pub use engine::{
    cs_tolerance, AblationRow, EngineError, Fig4Point, GeometryEnergyRow, InjectionRow, NoisePoint,
    OutcomeData, ScenarioOutcome,
};
pub use runner::{CampaignRunner, Progress};
pub use shard::{Shard, ShardPlan};
pub use spec::{
    app_from_token, app_token, emt_from_token, emt_token, FaultModelSpec, FaultSpec, FlatTrial,
    Grid, Kind, Scenario, SinkFormat, SinkSpec, SpecError,
};

pub use crate::exec::CancelToken;
