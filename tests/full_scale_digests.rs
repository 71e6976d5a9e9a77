//! Byte guards at full preset scale, where lane groups fill, the adaptive
//! bail-out fires and evicted lanes resume mid-run: the SHA-256 of the
//! JSONL rows of every registry preset at seed 0 must equal its pinned
//! digest. The `fig2` and `fig4` digests are the ones
//! `benchmark/pinned.txt` pins for the same campaign ids.
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
const PINNED: [(&str, &str, &str); 9] = [
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
    (
        "energy",
        "3ae2abf7b3158ab1-0000000000000000",
        "2c078f3dd21dc61974d47382f588314d798f8730004349d854238bc02e8cf635",
    ),
    (
        "tradeoff",
        "d069b5ed8516ae87-00000000000f1641",
        "6609f9aebcf13b9a2f09b79fcc0a8101fdab0e074a0b68410d324555f86ca4e6",
    ),
    (
        "ablation",
        "33e12b9f17a64341-0000000000000000",
        "561d4ea2adeb3a9f1d706383209d73a740a9cf20b80ee4f04834968734983b02",
    ),
    (
        "noise-sweep",
        "8e45ae328fe5180f-000000000000153e",
        "75f30c444d93b52fb3444f1f9b0c46cee810610d343a6def616f3f8904fdc0f1",
    ),
    (
        "geometry-sweep",
        "f27dd70e76803986-0000000000000000",
        "b224a5cbddba109e4f060edcb76c21ee79cb8d1906aeec364514d3010bebdb21",
    ),
    (
        "burst-sweep",
        "752833ca863a9459-00000000000b0257",
        "f191af03ec036baeab7aa282cf50a898ce2d3a767154ce907d130a27b4e8ae7f",
    ),
    (
        "bank-voltage",
        "83a89e5e06f7c65b-00000000000ba2c5",
        "4f57066a0587c3f4334ca6b0d916a9acad8c0f6aa8ef04f616cc3f6d6febb13b",
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
