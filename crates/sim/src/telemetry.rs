//! Process-wide counters of the batched executor's behaviour: how many
//! lanes campaigns dispatched, how many were evicted by divergence, and
//! how often the clean-pass trace cache was recorded and replayed.
//!
//! The counters exist so a perf trajectory entry can explain *why* a
//! batched run won or lost — a high eviction rate means the voltage was
//! deep in the faulty region and most lanes replayed scalar; a high
//! replay-per-trace ratio means the clean-pass reuse amortized well.
//!
//! A second set counts how much of the clean prefix stage-resumed lanes
//! skipped ([`take_resume`]).
//!
//! Counting is relaxed-atomic and never participates in campaign output:
//! results are bit-identical whether or not anything reads these.

use std::sync::atomic::{AtomicU64, Ordering};

static LANES: AtomicU64 = AtomicU64::new(0);
static EVICTED: AtomicU64 = AtomicU64::new(0);
static REPLAYS: AtomicU64 = AtomicU64::new(0);
static TRACES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the batched executor's counters since the last
/// [`take`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// Lanes dispatched into batched passes (one lane = one trial riding
    /// one (EMT, app) clean pass).
    pub lanes: u64,
    /// Lanes evicted because their decoded word diverged from the clean
    /// word (each replays on the scalar path).
    pub evicted: u64,
    /// Always 0: a lane leaves a batched pass only by diverging. Kept for
    /// the benchmark mirror; ROADMAP item 2 deletes it.
    pub bailed: u64,
    /// Clean-pass trace replays (one per batched (group, EMT, app) pass).
    pub clean_replays: u64,
    /// Clean-pass traces recorded (one per (EMT, app, record) a batched
    /// campaign touched).
    pub traces_recorded: u64,
}

impl BatchTelemetry {
    /// Fraction of dispatched lanes evicted by divergence (0 when no
    /// lanes ran).
    pub fn eviction_rate(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            self.evicted as f64 / self.lanes as f64
        }
    }
}

/// Accounts one finished batched (group, EMT, app) pass.
pub(crate) fn record_batch_pass(lanes: usize, evicted: u32) {
    LANES.fetch_add(lanes as u64, Ordering::Relaxed);
    EVICTED.fetch_add(u64::from(evicted), Ordering::Relaxed);
    REPLAYS.fetch_add(1, Ordering::Relaxed);
}

/// Accounts one recorded clean-pass trace.
pub(crate) fn record_trace() {
    TRACES.fetch_add(1, Ordering::Relaxed);
}

static RESUME_LANES: AtomicU64 = AtomicU64::new(0);
static RESUMED: AtomicU64 = AtomicU64::new(0);
static STAGES_SKIPPED: AtomicU64 = AtomicU64::new(0);
static READS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static CLEAN_READS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the stage-resume counters since the last
/// [`take_resume`]: how much of the clean prefix evicted lanes skipped
/// instead of re-running the application from its first stage.
/// Kept apart from [`BatchTelemetry`] so that struct's shape is stable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumeTelemetry {
    /// Evicted lanes finished by a stage resume.
    pub lanes: u64,
    /// Of those, lanes resumed past stage 0 (a lane that left at stage 0
    /// re-runs everything).
    pub resumed: u64,
    /// Stages not re-executed, summed over lanes.
    pub stages_skipped: u64,
    /// Clean reads not re-executed, summed over lanes.
    pub reads_skipped: u64,
    /// Reads a from-scratch re-run of the same lanes would have made
    /// (the clean pass's read count per lane).
    pub clean_reads: u64,
}

impl ResumeTelemetry {
    /// Fraction of the from-scratch re-run reads the resumes skipped (0
    /// when no lane was resumed).
    pub fn skipped_read_share(&self) -> f64 {
        if self.clean_reads == 0 {
            0.0
        } else {
            self.reads_skipped as f64 / self.clean_reads as f64
        }
    }
}

/// Accounts one lane resumed at `stage`, skipping `reads_skipped` of the
/// clean pass's `clean_reads` reads.
pub(crate) fn record_resume(stage: usize, reads_skipped: u64, clean_reads: u64) {
    RESUME_LANES.fetch_add(1, Ordering::Relaxed);
    RESUMED.fetch_add(u64::from(stage > 0), Ordering::Relaxed);
    STAGES_SKIPPED.fetch_add(stage as u64, Ordering::Relaxed);
    READS_SKIPPED.fetch_add(reads_skipped, Ordering::Relaxed);
    CLEAN_READS.fetch_add(clean_reads, Ordering::Relaxed);
}

/// Returns the stage-resume counters accumulated since the previous call
/// and resets them to zero (process-wide, like [`take`]).
pub fn take_resume() -> ResumeTelemetry {
    ResumeTelemetry {
        lanes: RESUME_LANES.swap(0, Ordering::Relaxed),
        resumed: RESUMED.swap(0, Ordering::Relaxed),
        stages_skipped: STAGES_SKIPPED.swap(0, Ordering::Relaxed),
        reads_skipped: READS_SKIPPED.swap(0, Ordering::Relaxed),
        clean_reads: CLEAN_READS.swap(0, Ordering::Relaxed),
    }
}

/// Returns the counters accumulated since the previous call and resets
/// them to zero (process-wide — concurrent campaigns share one set).
pub fn take() -> BatchTelemetry {
    BatchTelemetry {
        lanes: LANES.swap(0, Ordering::Relaxed),
        evicted: EVICTED.swap(0, Ordering::Relaxed),
        bailed: 0,
        clean_replays: REPLAYS.swap(0, Ordering::Relaxed),
        traces_recorded: TRACES.swap(0, Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_drains_at_least_this_threads_contribution() {
        // The counters are process-wide and other tests run batched
        // campaigns concurrently, so only lower bounds are stable here.
        let _ = take();
        record_batch_pass(64, 8);
        record_batch_pass(16, 0);
        record_trace();
        let t = take();
        assert!(t.lanes >= 80, "{t:?}");
        assert!(t.evicted >= 8, "{t:?}");
        assert!(t.clean_replays >= 2, "{t:?}");
        assert!(t.traces_recorded >= 1, "{t:?}");
    }

    #[test]
    fn take_resume_drains_at_least_this_threads_contribution() {
        let _ = take_resume();
        record_resume(3, 300, 1000);
        record_resume(0, 0, 1000);
        let t = take_resume();
        assert!(t.lanes >= 2, "{t:?}");
        assert!(t.resumed >= 1, "{t:?}");
        assert!(t.stages_skipped >= 3, "{t:?}");
        assert!(t.reads_skipped >= 300, "{t:?}");
        assert!(t.clean_reads >= 2000, "{t:?}");
        assert_eq!(ResumeTelemetry::default().skipped_read_share(), 0.0);
    }

    #[test]
    fn rates_divide_safely() {
        let t = BatchTelemetry {
            lanes: 80,
            evicted: 8,
            bailed: 0,
            clean_replays: 2,
            traces_recorded: 1,
        };
        assert!((t.eviction_rate() - 0.1).abs() < 1e-12);
        assert_eq!(BatchTelemetry::default().eviction_rate(), 0.0);
    }
}
