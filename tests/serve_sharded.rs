//! End-to-end tests of sharded campaign execution: a coordinator
//! `dream serve` fanning one campaign's grid out over worker servers via
//! `POST /shards`, reassembling the per-shard sub-artifacts into the
//! parent artifact **byte-identically** to a serial run — plus the
//! evented connection layer serving a follower crowd far larger than its
//! handler pool.
//!
//! The workers here are in-process [`Server`] instances in worker mode
//! (the process-spawning path is exercised by the CI smoke, which boots
//! `dream serve --shards 2` for real); the HTTP surface between
//! coordinator and worker is exactly the production one.

use std::net::TcpListener;
use std::path::PathBuf;

use dream_suite::serve::chaos::{ChaosProxy, Fault};
use dream_suite::serve::http::client_request;
use dream_suite::serve::{campaign_id, ServeConfig, Server, Store};
use dream_suite::sim::report::JsonlSink;
use dream_suite::sim::scenario::json::Json;
use dream_suite::sim::scenario::{registry, Scenario, ShardPlan};
use dream_suite::CampaignRunner;

/// A seconds-scale campaign with two apps — the sharding axis for the
/// fig2 family — so a 2-shard plan has real work on both sides.
fn shardable_spec() -> Scenario {
    let mut sc = registry::get("fig2", true).expect("preset exists");
    sc.records = 1;
    sc.trials = 1;
    sc.apps.truncate(2);
    sc
}

fn reference_jsonl(sc: &Scenario) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .threads(2)
        .run(&mut sink)
        .expect("reference run");
    String::from_utf8(sink.into_inner()).expect("jsonl is UTF-8")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dream_sharded_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots an in-process shard worker (direct execution, never re-shards).
fn boot_worker(store_dir: PathBuf) -> String {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir,
        workers: 2,
        threads: 1,
        worker: true,
        ..ServeConfig::default()
    })
    .expect("worker binds");
    server.spawn().to_string()
}

/// Boots a coordinator that fans campaigns out to `worker_addrs`.
fn boot_coordinator(store_dir: PathBuf, shards: usize, worker_addrs: Vec<String>) -> String {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir,
        workers: 1,
        threads: 1,
        shards,
        worker_addrs,
        ..ServeConfig::default()
    })
    .expect("coordinator binds");
    server.spawn().to_string()
}

fn get_json(addr: &str, path: &str) -> String {
    let response = client_request(addr, "GET", path, b"").expect("GET");
    assert_eq!(response.status, 200, "{path}");
    String::from_utf8(response.body).expect("JSON is UTF-8")
}

/// Extracts `"key": <number>` from a flat stats/status JSON object.
fn json_number(body: &str, key: &str) -> u64 {
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get(key)?.as_u64())
        .unwrap_or_else(|| panic!("{key} in {body}"))
}

#[test]
fn coordinator_reassembles_shards_byte_identically_and_replays_from_cache() {
    let sc = shardable_spec();
    let want = reference_jsonl(&sc);
    let w1 = boot_worker(temp_store("w1"));
    let w2 = boot_worker(temp_store("w2"));
    let addr = boot_coordinator(temp_store("coord"), 2, vec![w1.clone(), w2.clone()]);
    let payload = sc.to_json();

    // First POST fans out and streams the reassembled artifact — same id,
    // same bytes, same cache semantics as an unsharded run.
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
        "sharded reassembly must be byte-identical to the serial artifact"
    );

    // The coordinator executed zero trials itself; the workers split the
    // campaign exactly.
    let stats = get_json(&addr, "/stats");
    assert_eq!(json_number(&stats, "trials_executed"), 0);
    assert_eq!(json_number(&stats, "campaigns_run"), 1);
    assert_eq!(json_number(&stats, "shards_done"), 2);
    let worker_trials = json_number(&get_json(&w1, "/stats"), "trials_executed")
        + json_number(&get_json(&w2, "/stats"), "trials_executed");
    assert_eq!(worker_trials, sc.flatten().len() as u64);

    // The worker topology is visible at /healthz.
    let healthz = get_json(&addr, "/healthz");
    assert_eq!(json_number(&healthz, "shards_configured"), 2);
    assert_eq!(json_number(&healthz, "shard_workers_configured"), 2);
    assert_eq!(json_number(&healthz, "shard_workers_alive"), 2);
    assert_eq!(json_number(&healthz, "shards_done"), 2);

    // Replay is a coordinator-local cache hit: nothing touches a worker.
    let second = client_request(&addr, "POST", "/campaigns", payload.as_bytes()).expect("POST 2");
    assert_eq!(second.header("x-dream-cache"), Some("hit"));
    assert_eq!(second.body, first.body);
    let stats = get_json(&addr, "/stats");
    assert_eq!(json_number(&stats, "cache_hits"), 1);
    assert_eq!(json_number(&stats, "campaigns_run"), 1);
}

#[test]
fn unshardable_campaigns_run_directly_on_the_coordinator() {
    // One app → one unit → trivial plan: the coordinator must fall back
    // to direct execution instead of fanning out a K=1 no-op.
    let mut sc = shardable_spec();
    sc.apps.truncate(1);
    assert!(ShardPlan::new(&sc, 2).expect("plan").is_trivial());
    let want = reference_jsonl(&sc);
    let worker = boot_worker(temp_store("triv_w"));
    let addr = boot_coordinator(temp_store("triv_coord"), 2, vec![worker.clone()]);

    let response =
        client_request(&addr, "POST", "/campaigns", sc.to_json().as_bytes()).expect("POST");
    assert_eq!(response.status, 200);
    assert_eq!(String::from_utf8(response.body).unwrap(), want);
    let stats = get_json(&addr, "/stats");
    assert_eq!(
        json_number(&stats, "trials_executed"),
        sc.flatten().len() as u64,
        "a trivial plan executes on the coordinator itself"
    );
    assert_eq!(
        json_number(&get_json(&worker, "/stats"), "trials_executed"),
        0,
        "no shard ever reaches a worker"
    );
}

#[test]
fn resume_landing_mid_shard_appends_only_the_missing_rows() {
    let sc = shardable_spec();
    let want = reference_jsonl(&sc);
    let id = campaign_id(&sc);
    let plan = ShardPlan::new(&sc, 2).expect("plan");
    let boundary = plan.shards()[1].row_offset;

    // Simulate a coordinator killed mid-reassembly: the parent artifact
    // holds all of shard 0, two rows of shard 1, and a ragged tail.
    let store_dir = temp_store("resume_coord");
    let store = Store::open(&store_dir).expect("store opens");
    store.begin(&id, &sc).expect("begin");
    let lines: Vec<&str> = want.lines().collect();
    let keep = boundary + 2;
    assert!(keep < lines.len(), "need rows beyond the seeded prefix");
    let mut partial: String = lines[..keep]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    partial.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(store.rows_path(&id), &partial).expect("seed partial artifact");

    let w1 = boot_worker(temp_store("resume_w1"));
    let w2 = boot_worker(temp_store("resume_w2"));
    let addr = boot_coordinator(store_dir, 2, vec![w1.clone(), w2.clone()]);
    let response =
        client_request(&addr, "POST", "/campaigns", sc.to_json().as_bytes()).expect("POST");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-dream-cache"), Some("miss"));
    assert_eq!(
        String::from_utf8(response.body).unwrap(),
        want,
        "mid-shard resume must reassemble byte-identically"
    );
    assert_eq!(
        std::fs::read_to_string(store.rows_path(&id)).unwrap(),
        want,
        "the on-disk parent artifact must also be byte-identical"
    );
    assert!(store.is_complete(&id));

    // The parent was cut back to the shard boundary: shard 0 was never
    // fetched, and the workers executed exactly shard 1's trials.
    let worker_trials = json_number(&get_json(&w1, "/stats"), "trials_executed")
        + json_number(&get_json(&w2, "/stats"), "trials_executed");
    assert_eq!(worker_trials, plan.shards()[1].spec.flatten().len() as u64);
}

#[test]
fn dead_and_dying_workers_cost_one_shard_refetch_each() {
    let sc = shardable_spec();
    let want = reference_jsonl(&sc);

    // Worker 0 is dead on arrival: a bound-then-dropped port refuses
    // every connection. Worker 1 sits behind a chaos proxy that kills the
    // first response stream mid-shard.
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let live = boot_worker(temp_store("chaos_w"));
    let proxy = ChaosProxy::start(live.parse().expect("socket addr")).expect("proxy starts");
    proxy.push(Fault::CloseAfter(300));
    let addr = boot_coordinator(
        temp_store("chaos_coord"),
        2,
        vec![dead, proxy.addr().to_string()],
    );

    let response =
        client_request(&addr, "POST", "/campaigns", sc.to_json().as_bytes()).expect("POST");
    assert_eq!(response.status, 200);
    assert_eq!(
        String::from_utf8(response.body).unwrap(),
        want,
        "failover + mid-stream retry must still reassemble byte-identically"
    );
    assert_eq!(proxy.pending(), 0, "the injected fault fired");

    // Every shard reached the live worker exactly once: the interrupted
    // stream re-fetched rows, not trials (the worker kept running and the
    // retry joined/replayed its artifact).
    let worker_stats = get_json(&live, "/stats");
    assert_eq!(json_number(&worker_stats, "campaigns_run"), 2);
    assert_eq!(
        json_number(&worker_stats, "trials_executed"),
        sc.flatten().len() as u64
    );

    // The dead worker is reported at /healthz.
    let healthz = get_json(&addr, "/healthz");
    assert_eq!(json_number(&healthz, "shard_workers_configured"), 2);
    assert_eq!(json_number(&healthz, "shard_workers_alive"), 1);
    assert_eq!(json_number(&healthz, "shards_done"), 2);
}

#[test]
fn the_poller_serves_a_follower_crowd_larger_than_the_handler_pool() {
    let mut sc = shardable_spec();
    sc.apps.truncate(1);
    let want = reference_jsonl(&sc);
    let id = campaign_id(&sc);
    let addr = boot_worker(temp_store("crowd"));
    let first = client_request(&addr, "POST", "/campaigns", sc.to_json().as_bytes()).expect("POST");
    assert_eq!(first.status, 200);

    // 32 concurrent followers — four times the handler pool — each stream
    // the full artifact; streaming lives on the poller, so handler threads
    // only ever parse and hand off.
    let followers: Vec<_> = (0..32)
        .map(|_| {
            let addr = addr.clone();
            let path = format!("/campaigns/{id}/rows");
            std::thread::spawn(move || {
                let response = client_request(&addr, "GET", &path, b"").expect("GET rows");
                assert_eq!(response.status, 200);
                String::from_utf8(response.body).expect("rows are UTF-8")
            })
        })
        .collect();
    for follower in followers {
        let body = follower.join().expect("follower thread");
        assert_eq!(body, want, "every follower gets the full artifact");
    }
}
