//! Stage-resume counters are exact work counts: a campaign resumes the
//! same lanes at the same stages whatever the thread count.
//!
//! The counters are process-wide, so this file holds the only test that
//! runs campaigns in its binary.

use dream_sim::report::NullSink;
use dream_sim::scenario::{registry, CampaignRunner};
use dream_sim::telemetry::{self, ResumeTelemetry};

fn resume_counts(name: &str, smoke: bool, threads: usize) -> ResumeTelemetry {
    let sc = registry::get(name, smoke).expect("preset exists");
    let _ = telemetry::take_resume();
    CampaignRunner::new(sc)
        .batch(true)
        .threads(threads)
        .run(&mut NullSink)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    telemetry::take_resume()
}

#[test]
fn fig2_smoke_resume_counts_are_thread_invariant() {
    let serial = resume_counts("fig2", true, 1);
    assert!(serial.lanes > 0, "no lane was finished by a resume");
    assert!(serial.resumed > 0, "no lane skipped a stage: {serial:?}");
    assert!(serial.reads_skipped > 0 && serial.reads_skipped < serial.clean_reads);
    assert_eq!(serial, resume_counts("fig2", true, 2));
    // The draw family replays evicted lanes from stage 0 and counts none.
    assert_eq!(resume_counts("fig4", true, 2), ResumeTelemetry::default());
}
