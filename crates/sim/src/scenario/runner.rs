//! [`CampaignRunner`]: the one surface every campaign driver goes
//! through — the CLI, the campaign service, and tests alike.
//!
//! The builder carries everything that shapes one execution but not its
//! rows: the [`ExecConfig`] (worker count and batching — read from the
//! environment once in [`CampaignRunner::new`], then overridden by
//! [`threads`](CampaignRunner::threads) and
//! [`batch`](CampaignRunner::batch)), progress events and cancellation:
//!
//! ```
//! use dream_sim::report::NullSink;
//! use dream_sim::scenario::{registry, CampaignRunner};
//!
//! let sc = registry::get("fig2", true).expect("preset exists");
//! let outcome = CampaignRunner::new(sc)
//!     .threads(2)
//!     .on_progress(|p| eprintln!("{}/{} trials dispatched", p.rows, p.trials_total))
//!     .run(&mut NullSink)
//!     .expect("campaign runs");
//! assert!(!outcome.rows.is_empty());
//! ```
//!
//! Determinism is untouched: the runner only wraps the sink (to count
//! rows) and passes its config explicitly to the engine, so output stays
//! bit-identical at any setting, and concurrent campaigns with different
//! settings cannot interfere. Resume is a cut of the spec, not of the
//! stream: [`ShardPlan::resume`](super::ShardPlan::resume) keeps the whole
//! grid units already on disk and derives the spec of the rest, whose rows
//! a [`crate::report::JsonlSink::append`] sink adds after them.

use std::io;

use crate::exec::{CancelToken, ExecConfig};
use crate::report::{NullSink, Sink};

use super::engine::{self, EngineError, ScenarioOutcome};
use super::spec::Scenario;

/// A progress snapshot, delivered to [`CampaignRunner::on_progress`]
/// after every batch the engine emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Batches emitted so far (one per grid point / engine family step).
    pub batches: usize,
    /// Rows this run has produced so far.
    pub rows: usize,
    /// Total flattened trials of the campaign (`Scenario::flatten` — the
    /// engine's exact work list, fixed up front).
    pub trials_total: usize,
}

type ProgressFn = dyn Fn(Progress) + Send + Sync;

/// Builder for one campaign execution: spec in, rows out, with per-run
/// execution settings, progress events and cooperative cancellation.
pub struct CampaignRunner {
    spec: Scenario,
    exec: ExecConfig,
    cancel: Option<CancelToken>,
    on_progress: Option<Box<ProgressFn>>,
}

impl CampaignRunner {
    /// A runner for `spec` with default settings: the environment's
    /// [`ExecConfig::from_env`], no progress callback, not cancellable.
    ///
    /// # Panics
    ///
    /// Panics if a `DREAM_*` execution variable is malformed.
    pub fn new(spec: Scenario) -> CampaignRunner {
        CampaignRunner {
            spec,
            exec: ExecConfig::from_env(),
            cancel: None,
            on_progress: None,
        }
    }

    /// Sets the worker count of this campaign, overriding `DREAM_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn threads(mut self, n: usize) -> CampaignRunner {
        assert!(n > 0, "thread count must be at least 1");
        self.exec.threads = n;
        self
    }

    /// Turns bit-sliced trial batching on or off for this campaign,
    /// overriding `DREAM_BATCH`. Batching changes scheduling, never
    /// values: output is bit-identical either way.
    #[must_use]
    pub fn batch(mut self, enabled: bool) -> CampaignRunner {
        self.exec.batch = enabled;
        self
    }

    /// Attaches a cancellation token; firing it makes [`run`] return
    /// [`EngineError::Cancelled`] at the next cooperative check.
    ///
    /// [`run`]: CampaignRunner::run
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> CampaignRunner {
        self.cancel = Some(token);
        self
    }

    /// Registers a callback invoked after every emitted batch with a
    /// [`Progress`] snapshot. Called on the driving thread.
    #[must_use]
    pub fn on_progress(
        mut self,
        callback: impl Fn(Progress) + Send + Sync + 'static,
    ) -> CampaignRunner {
        self.on_progress = Some(Box::new(callback));
        self
    }

    /// The spec this runner will execute.
    pub fn spec(&self) -> &Scenario {
        &self.spec
    }

    /// Runs the campaign, streaming rows to `sink`.
    ///
    /// A cancelled run still flushes the sink (best-effort `finish`)
    /// before returning, so the deterministic prefix streamed up to the
    /// cancellation point is durable — that prefix is exactly what
    /// [`ShardPlan::resume`](super::ShardPlan::resume) resumes from after a
    /// drain.
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] for invalid specs, [`EngineError::Io`] for
    /// sink failures, [`EngineError::Cancelled`] when the token fired.
    pub fn run(&self, sink: &mut dyn Sink) -> Result<ScenarioOutcome, EngineError> {
        self.spec.validate()?;
        let mut instrumented = InstrumentedSink {
            inner: sink,
            progress: Progress {
                batches: 0,
                rows: 0,
                trials_total: self.spec.flatten().len(),
            },
            on_progress: self.on_progress.as_deref(),
        };
        let result = engine::run_campaign(
            &self.spec,
            &mut instrumented,
            self.exec,
            self.cancel.as_ref(),
        );
        if matches!(result, Err(EngineError::Cancelled)) {
            let _ = instrumented.inner.finish();
        }
        result
    }

    /// Runs the campaign, discarding streamed rows (callers that only
    /// want the typed [`ScenarioOutcome`]).
    ///
    /// # Errors
    ///
    /// As for [`CampaignRunner::run`].
    pub fn run_discarding(&self) -> Result<ScenarioOutcome, EngineError> {
        self.run(&mut NullSink)
    }
}

impl std::fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("spec", &self.spec.name)
            .field("exec", &self.exec)
            .field("cancellable", &self.cancel.is_some())
            .finish()
    }
}

/// Wraps the caller's sink to count rows and fire progress callbacks.
/// The engine sees one `dyn Sink`; determinism is unaffected because rows
/// are only counted, never altered.
struct InstrumentedSink<'a> {
    inner: &'a mut dyn Sink,
    progress: Progress,
    on_progress: Option<&'a ProgressFn>,
}

impl Sink for InstrumentedSink<'_> {
    fn begin(&mut self, headers: &[&str]) -> io::Result<()> {
        self.inner.begin(headers)
    }

    fn emit(&mut self, rows: &[Vec<String>]) -> io::Result<()> {
        self.progress.batches += 1;
        self.progress.rows += rows.len();
        self.inner.emit(rows)?;
        if let Some(callback) = self.on_progress {
            callback(self.progress);
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CsvSink, JsonlSink};
    use crate::scenario::spec::Grid;
    use crate::scenario::{registry, ShardPlan};
    use dream_dsp::AppKind;

    fn tiny_fig4() -> Scenario {
        let mut sc = registry::get("fig4", true).unwrap();
        sc.window = 512;
        sc.records = 1;
        sc.trials = 1;
        sc.apps = vec![AppKind::Dwt];
        sc.grid = Grid::Voltage(vec![0.55, 0.9]);
        sc
    }

    fn jsonl_of(sc: &Scenario, runner: CampaignRunner) -> String {
        let mut sink = JsonlSink::new(Vec::new());
        runner
            .run(&mut sink)
            .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        String::from_utf8(sink.into_inner()).unwrap()
    }

    #[test]
    fn runner_matches_the_engine_at_pinned_thread_counts() {
        let sc = tiny_fig4();
        let one = jsonl_of(&sc, CampaignRunner::new(sc.clone()).threads(1));
        let four = jsonl_of(&sc, CampaignRunner::new(sc.clone()).threads(4));
        assert_eq!(one, four, "thread count must not change output bytes");
        assert!(!one.is_empty());
    }

    #[test]
    fn batched_execution_is_bit_identical_to_scalar() {
        let mut fig2 = registry::get("fig2", true).unwrap();
        fig2.window = 512;
        fig2.records = 1;
        fig2.trials = 1;
        fig2.apps = vec![AppKind::Dwt];
        fig2.grid = Grid::BitPosition(vec![0, 12, 15]);
        for sc in [fig2, tiny_fig4()] {
            let scalar = jsonl_of(&sc, CampaignRunner::new(sc.clone()).batch(false));
            let batched = jsonl_of(&sc, CampaignRunner::new(sc.clone()).batch(true));
            assert_eq!(
                scalar, batched,
                "{}: batching must not change bytes",
                sc.name
            );
            assert!(!scalar.is_empty());
        }
    }

    #[test]
    fn progress_reports_every_batch_and_the_full_trial_count() {
        use std::sync::{Arc, Mutex};
        let sc = tiny_fig4();
        let seen: Arc<Mutex<Vec<Progress>>> = Arc::default();
        let sink_rows = {
            let seen = Arc::clone(&seen);
            let mut sink = CsvSink::new(Vec::new());
            CampaignRunner::new(sc.clone())
                .on_progress(move |p| seen.lock().unwrap().push(p))
                .run(&mut sink)
                .unwrap()
                .rows
                .len()
        };
        let seen = seen.lock().unwrap();
        // One event per voltage point; the last one covers every row.
        assert_eq!(seen.len(), 2);
        assert_eq!(seen.last().unwrap().rows, sink_rows);
        assert!(seen.iter().all(|p| p.trials_total == sc.flatten().len()));
        assert!(seen.windows(2).all(|w| w[0].batches < w[1].batches));
    }

    #[test]
    fn cancellation_surfaces_as_engine_cancelled() {
        let sc = tiny_fig4();
        let token = CancelToken::new();
        token.cancel();
        let err = CampaignRunner::new(sc)
            .cancel_token(token)
            .run_discarding()
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
    }

    #[test]
    fn cancel_mid_campaign_leaves_a_deterministic_prefix_and_shard_plan_resume_completes_it() {
        let sc = tiny_fig4();

        // Reference: the full artifact in one clean run.
        let full = jsonl_of(&sc, CampaignRunner::new(sc.clone()));

        // "Killed" run: fire the token from the first progress event, so
        // the second voltage point is never drawn.
        let token = CancelToken::new();
        let trip = token.clone();
        let mut partial_sink = JsonlSink::new(Vec::new());
        let err = CampaignRunner::new(sc.clone())
            .cancel_token(token)
            .on_progress(move |_| trip.cancel())
            .run(&mut partial_sink)
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        let partial = String::from_utf8(partial_sink.into_inner()).unwrap();
        let partial_rows = partial.lines().count();
        assert!(partial_rows > 0, "first batch must have been flushed");
        assert!(partial_rows < full.lines().count(), "must stop early");
        assert!(full.starts_with(&partial), "prefix must be deterministic");

        // Resume: the prefix is one whole voltage point, so it is kept and
        // only the remaining point runs; appending its rows reproduces the
        // clean artifact byte for byte.
        let (kept, rest) = ShardPlan::resume(&sc, partial_rows).unwrap();
        assert_eq!(kept, partial_rows);
        let rest = rest.expect("one voltage point is missing");
        assert_eq!(rest.grid.len(), 1);
        let resumed = jsonl_of(&rest, CampaignRunner::new(rest.clone()));
        assert_eq!(format!("{partial}{resumed}"), full);
    }

    #[test]
    fn cancelled_runs_still_flush_the_sink() {
        struct FinishSpy {
            finished: bool,
        }
        impl crate::report::Sink for FinishSpy {
            fn begin(&mut self, _headers: &[&str]) -> io::Result<()> {
                Ok(())
            }
            fn emit(&mut self, _rows: &[Vec<String>]) -> io::Result<()> {
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.finished = true;
                Ok(())
            }
        }

        let sc = tiny_fig4();
        let token = CancelToken::new();
        let trip = token.clone();
        let mut sink = FinishSpy { finished: false };
        let err = CampaignRunner::new(sc)
            .cancel_token(token)
            .on_progress(move |_| trip.cancel())
            .run(&mut sink)
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        assert!(
            sink.finished,
            "a drained campaign must flush its streamed prefix"
        );
    }
}
