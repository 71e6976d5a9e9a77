//! Byte guards at full preset scale, where lane groups fill, the adaptive
//! bail-out fires and evicted lanes resume mid-run: the SHA-256 of the
//! JSONL rows of the full `fig2` and `fig4` presets at seed 0 must equal
//! the digests `benchmark/pinned.txt` pins for the same campaign ids.
//!
//! Release-only scale, so the test is ignored by default:
//!
//! ```bash
//! cargo test --release --test full_scale_digests -- --ignored
//! ```
//!
//! It is one test on purpose: it also reads the process-wide stage-resume
//! counters, which a concurrent campaign in the same binary would skew.

use dream_serve::campaign_id;
use dream_serve::hash::sha256_hex;
use dream_sim::report::JsonlSink;
use dream_sim::scenario::{registry, CampaignRunner};
use dream_sim::telemetry;

/// `(preset, campaign id, SHA-256 of its JSONL rows)` at seed 0.
const PINNED: [(&str, &str, &str); 2] = [
    (
        "fig2",
        "02e811f12185e87d-000000000000f162",
        "6cac53f42f993588f71a672388537ec0464bfa825fc5fdd2f95f7127a2ce1411",
    ),
    (
        "fig4",
        "2591bd2859f07a0f-00000000000f1641",
        "e04d4c7f4008bd28c5537063bc5084e6dae375b50acb44b13007fcb83181137c",
    ),
];

#[test]
#[ignore = "full preset scale; run with --release -- --ignored"]
fn full_presets_match_their_pinned_digests() {
    for (name, id, digest) in PINNED {
        let sc = registry::get(name, false).expect("preset exists");
        assert_eq!(campaign_id(&sc), id, "{name}: the preset's spec changed");
        let _ = telemetry::take_resume();
        let mut sink = JsonlSink::new(Vec::new());
        CampaignRunner::new(sc)
            .threads(2)
            .run(&mut sink)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let resume = telemetry::take_resume();
        assert_eq!(
            sha256_hex(&sink.into_inner()),
            digest,
            "{name}: rows changed"
        );
        if name == "fig2" {
            // Evicted and bailed injection lanes skip the clean prefix
            // they already rode: on fig2 that is most of the lanes and
            // over a third of the reads a from-scratch re-run makes.
            let share = resume.skipped_read_share();
            println!("fig2 stage resume: {resume:?}, skipped read share {share:.3}");
            assert!(resume.resumed * 2 > resume.lanes, "{resume:?}");
            assert!(share >= 0.35, "skipped read share {share:.3}");
        }
    }
}
