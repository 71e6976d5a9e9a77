//! End-to-end tests of the campaign service: a real `dream serve` worker
//! pool behind a real TCP socket, driven by the crate's own minimal HTTP
//! client.
//!
//! The two contracts under test are the ones the service exists for:
//!
//! 1. **Replay** — POSTing a spec whose artifact is complete streams the
//!    stored bytes verbatim (`X-Dream-Cache: hit`) without executing a
//!    single trial (the `/stats` trial counter stays put).
//! 2. **Resume** — a campaign interrupted mid-artifact (rows on disk, no
//!    completion marker, even a row cut mid-line) completes
//!    deterministically on the next POST: the streamed body is
//!    byte-identical to a never-interrupted run.

use std::path::PathBuf;

use dream_suite::serve::http::client_request;
use dream_suite::serve::{campaign_id, ServeConfig, Server, Store};
use dream_suite::sim::report::JsonlSink;
use dream_suite::sim::scenario::json::Json;
use dream_suite::sim::scenario::{registry, Scenario};
use dream_suite::CampaignRunner;

/// A seconds-scale campaign: fig2 smoke further shrunk.
fn smoke_spec() -> Scenario {
    let mut sc = registry::get("fig2", true).expect("preset exists");
    sc.records = 1;
    sc.trials = 1;
    sc.apps.truncate(1);
    sc
}

/// The offline reference artifact: what `dream run` would stream for the
/// same spec. The engine is deterministic at any thread count, so this is
/// the byte-exact expectation for every server response.
fn reference_jsonl(sc: &Scenario) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .threads(2)
        .run(&mut sink)
        .expect("reference run");
    String::from_utf8(sink.into_inner()).expect("jsonl is UTF-8")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dream_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(store_dir: PathBuf) -> String {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir,
        workers: 2,
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("server binds");
    server.spawn().to_string()
}

fn stats_json(addr: &str) -> String {
    let response = client_request(addr, "GET", "/stats", b"").expect("GET /stats");
    assert_eq!(response.status, 200);
    String::from_utf8(response.body).expect("stats are UTF-8")
}

/// Extracts `"key": <number>` from a flat stats/status JSON object.
fn json_number(body: &str, key: &str) -> u64 {
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get(key)?.as_u64())
        .unwrap_or_else(|| panic!("{key} in {body}"))
}

#[test]
fn repeat_posts_replay_from_the_store_without_rerunning_trials() {
    let sc = smoke_spec();
    let want = reference_jsonl(&sc);
    let addr = boot(temp_store("replay"));
    let payload = sc.to_json();

    // The registry is served.
    let presets = client_request(&addr, "GET", "/presets", b"").expect("GET /presets");
    assert_eq!(presets.status, 200);
    assert!(String::from_utf8(presets.body)
        .unwrap()
        .contains("\"fig2\""));

    // First POST executes the campaign and streams the artifact.
    let first = client_request(&addr, "POST", "/campaigns", payload.as_bytes()).expect("POST 1");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-dream-cache"), Some("miss"));
    assert_eq!(
        first.header("x-campaign-id"),
        Some(campaign_id(&sc).as_str())
    );
    assert_eq!(
        String::from_utf8(first.body.clone()).unwrap(),
        want,
        "served rows must be byte-identical to the offline run"
    );

    let after_first = stats_json(&addr);
    let trials_after_first = json_number(&after_first, "trials_executed");
    assert_eq!(
        trials_after_first,
        sc.flatten().len() as u64,
        "first run executes the full flattened campaign"
    );

    // The status endpoint agrees the artifact is complete.
    let id = campaign_id(&sc);
    let status = client_request(&addr, "GET", &format!("/campaigns/{id}"), b"").expect("status");
    let status_body = String::from_utf8(status.body).unwrap();
    assert!(status_body.contains("\"complete\""), "{status_body}");
    assert_eq!(
        json_number(&status_body, "rows") as usize,
        want.lines().count()
    );

    // Second POST is a byte-identical replay with zero trials re-run.
    let second = client_request(&addr, "POST", "/campaigns", payload.as_bytes()).expect("POST 2");
    assert_eq!(second.header("x-dream-cache"), Some("hit"));
    assert_eq!(second.body, first.body, "replay must be byte-identical");
    let after_second = stats_json(&addr);
    assert_eq!(
        json_number(&after_second, "trials_executed"),
        trials_after_first,
        "a cache hit must not execute trials"
    );
    assert_eq!(json_number(&after_second, "cache_hits"), 1);

    // The rows endpoint serves the same artifact.
    let rows = client_request(&addr, "GET", &format!("/campaigns/{id}/rows"), b"").expect("rows");
    assert_eq!(rows.body, first.body);

    // Bad specs are client errors, not server faults.
    let bad = client_request(&addr, "POST", "/campaigns", b"{\"kind\": \"warp-drive\"}")
        .expect("bad POST");
    assert_eq!(bad.status, 400);
    assert!(String::from_utf8(bad.body).unwrap().contains("error"));

    // So is a sink the service cannot honor — same grammar as `--sink`.
    let csv =
        client_request(&addr, "POST", "/campaigns?sink=csv", payload.as_bytes()).expect("csv POST");
    assert_eq!(csv.status, 400);
    let jsonl = client_request(&addr, "POST", "/campaigns?sink=jsonl", payload.as_bytes())
        .expect("jsonl POST");
    assert_eq!(jsonl.status, 200);
}

#[test]
fn interrupted_campaigns_resume_to_a_byte_identical_artifact() {
    let sc = smoke_spec();
    let want = reference_jsonl(&sc);
    let id = campaign_id(&sc);

    // Simulate a campaign killed mid-flight: the spec is on disk, the
    // artifact holds a prefix of the rows, the final line is cut mid-write,
    // and there is no completion marker.
    let store_dir = temp_store("resume");
    let store = Store::open(&store_dir).expect("store opens");
    store.begin(&id, &sc).expect("begin");
    let lines: Vec<&str> = want.lines().collect();
    assert!(
        lines.len() >= 4,
        "need enough rows to interrupt meaningfully"
    );
    let keep = lines.len() / 2;
    let mut partial: String = lines[..keep]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    partial.push_str(&lines[keep][..lines[keep].len() / 2]); // ragged tail
    std::fs::write(store.rows_path(&id), &partial).expect("seed partial artifact");
    assert!(!store.is_complete(&id));

    // A fresh server (post-crash restart) resumes it on POST: the ragged
    // line is truncated, the surviving prefix is skipped instead of
    // re-emitted, and the remainder is appended deterministically.
    let addr = boot(store_dir);
    let response =
        client_request(&addr, "POST", "/campaigns", sc.to_json().as_bytes()).expect("POST");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-dream-cache"), Some("miss"));
    assert_eq!(
        String::from_utf8(response.body).unwrap(),
        want,
        "resumed artifact must match a never-interrupted run byte for byte"
    );
    assert!(store.is_complete(&id), "resume must finish the artifact");
    assert_eq!(
        std::fs::read_to_string(store.rows_path(&id)).unwrap(),
        want,
        "the on-disk artifact must also be byte-identical"
    );

    // And the stats show the resume only paid for one (partial) run's
    // worth of bookkeeping — one campaign execution, no cache hit.
    let stats = stats_json(&addr);
    assert_eq!(json_number(&stats, "campaigns_run"), 1);
    assert_eq!(json_number(&stats, "cache_hits"), 0);

    // A restarted server preloads the completed artifact: replay works
    // without the original process.
    let addr2 = boot_existing(&store);
    let replay =
        client_request(&addr2, "POST", "/campaigns", sc.to_json().as_bytes()).expect("replay");
    assert_eq!(replay.header("x-dream-cache"), Some("hit"));
    assert_eq!(String::from_utf8(replay.body).unwrap(), want);
}

/// Boots a server over an existing store directory (no cleanup).
fn boot_existing(store: &Store) -> String {
    boot_existing_dir(store.root().to_path_buf())
}

fn boot_existing_dir(dir: PathBuf) -> String {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: dir,
        workers: 1,
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("server binds");
    server.spawn().to_string()
}
