//! Chaos tests of the campaign service: every failure the hardening
//! layer claims to survive, induced for real over real sockets.
//!
//! * Transport chaos — a fault-injecting TCP proxy refuses, truncates
//!   mid-chunk, and stalls connections between the retrying client and
//!   the service; the client must still assemble a byte-identical
//!   artifact, resuming past rows earlier attempts delivered.
//! * Backpressure — a full admission queue sheds with `429 +
//!   Retry-After`, and the retry layer waits it out to eventual success.
//! * Drain — `POST /admin/drain` cancels in-flight campaigns between
//!   grid points, sheds new submissions with `503`, and leaves a
//!   resumable prefix a restarted server completes deterministically.
//! * Panic isolation — a campaign that panics reads `failed`, ends its
//!   followers' streams, and leaves the worker serving the next one.
//! * Protocol garbage — malformed, oversized, and slow-loris requests
//!   get JSON error bodies (`400`/`431`/`408`), never a silent drop, and
//!   a spec nested a mebibyte deep is a `400`, not a crashed server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dream_suite::serve::chaos::{ChaosProxy, Fault};
use dream_suite::serve::client::{fetch_campaign, RetryPolicy};
use dream_suite::serve::http::client_request;
use dream_suite::serve::{campaign_id, ServeConfig, Server, Store, TestHold};
use dream_suite::sim::report::JsonlSink;
use dream_suite::sim::scenario::json::Json;
use dream_suite::sim::scenario::{registry, Scenario};
use dream_suite::CampaignRunner;

/// A seconds-scale campaign; `seed` keeps concurrent tests' artifacts
/// distinct, `trials` scales how long it holds a worker.
fn smoke_spec(seed: u64, trials: usize) -> Scenario {
    let mut sc = registry::get("fig2", true).expect("preset exists");
    sc.records = 1;
    sc.trials = trials;
    sc.apps.truncate(1);
    sc.seed = seed;
    sc
}

/// A campaign that emits in stages: fig4 batches per voltage grid point,
/// so rows land on disk several times per run — the shape a drain must be
/// able to interrupt mid-artifact.
fn staged_spec(seed: u64) -> Scenario {
    let mut sc = registry::get("fig4", true).expect("preset exists");
    sc.records = 4;
    sc.trials = 10;
    sc.seed = seed;
    sc
}

/// The byte-exact expectation: what the deterministic engine streams for
/// `sc` regardless of thread count, interruptions, or resumes.
fn reference_jsonl(sc: &Scenario) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .threads(2)
        .run(&mut sink)
        .expect("reference run");
    String::from_utf8(sink.into_inner()).expect("jsonl is UTF-8")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dream_serve_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot_with(config: ServeConfig) -> String {
    Server::bind(config)
        .expect("server binds")
        .spawn()
        .to_string()
}

fn boot(store_dir: PathBuf) -> String {
    boot_with(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir,
        workers: 2,
        threads: 2,
        ..ServeConfig::default()
    })
}

/// Raw one-shot POST that does not read the response — used to occupy
/// workers and queue slots without blocking the test thread.
fn post_without_reading(addr: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    stream
}

fn json_number(body: &str, key: &str) -> u64 {
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get(key)?.as_u64())
        .unwrap_or_else(|| panic!("{key} in {body}"))
}

#[test]
fn transport_chaos_is_survived_by_the_retrying_client() {
    let sc = smoke_spec(0xC1A0, 1);
    let want = reference_jsonl(&sc);
    let payload = sc.to_json();
    let addr = boot(temp_store("transport"));

    // Complete the artifact once, straight at the server: every later
    // stream is a byte-identical replay, so faults can land anywhere.
    let first = client_request(&addr, "POST", "/campaigns", payload.as_bytes()).expect("POST");
    assert_eq!(first.status, 200);

    let proxy = ChaosProxy::start(addr.parse().expect("socket addr")).expect("proxy starts");
    let proxy_addr = proxy.addr().to_string();

    // Measure a clean proxied response to aim the truncation mid-body,
    // past at least one complete row but short of the full artifact.
    let mut probe = post_without_reading(&proxy_addr, &payload);
    let mut clean = Vec::new();
    probe.read_to_end(&mut clean).expect("clean proxied read");
    assert!(
        String::from_utf8_lossy(&clean).contains("\"snr_db\"")
            || String::from_utf8_lossy(&clean).contains("{"),
        "probe should have carried rows"
    );
    let cut = clean.len() - want.len() / 3;

    // Script the gauntlet: a refused connection, a stream truncated
    // mid-chunk, a stall longer than the client's read timeout — then
    // clean air.
    proxy.push(Fault::Refuse);
    proxy.push(Fault::CloseAfter(cut));
    proxy.push(Fault::StallAfter(clean.len() / 2, Duration::from_secs(2)));

    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(30),
        max_delay: Duration::from_millis(200),
        read_timeout: Duration::from_millis(400),
        connect_timeout: Duration::from_secs(2),
    };
    let mut got = Vec::new();
    let outcome =
        fetch_campaign(&proxy_addr, &payload, &mut got, &policy).expect("fetch survives chaos");

    assert_eq!(
        String::from_utf8(got).expect("UTF-8 rows"),
        want,
        "assembled artifact must be byte-identical despite the faults"
    );
    assert_eq!(
        outcome.attempts, 4,
        "refused + truncated + stalled + clean = 4 streams"
    );
    assert!(
        outcome.resumed_rows > 0,
        "the truncated stream must have left rows the retry skipped: {outcome:?}"
    );
    assert_eq!(outcome.rows, want.lines().count());
    assert_eq!(proxy.pending(), 0, "every scripted fault was consumed");
}

#[test]
fn full_queue_sheds_with_retry_after_and_the_client_waits_it_out() {
    // One worker, one queue slot: the third distinct campaign must shed.
    let hold = TestHold::new();
    let addr = boot_with(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: temp_store("backpressure"),
        workers: 1,
        threads: 1,
        queue_depth: 1,
        retry_after: Duration::from_secs(1),
        hold: Some(hold.clone()),
        ..ServeConfig::default()
    });

    // `a` holds the worker (paused after its first batch until the hold
    // is released below); `b` fills the queue.
    let a = smoke_spec(0xAAAA, 30);
    let b = smoke_spec(0xBBBB, 1);
    let c = smoke_spec(0xCCCC, 1);
    // Waits (bounded) until /healthz reports `running` and `queue_depth`.
    let await_occupancy = |running: u64, queued: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = client_request(&addr, "GET", "/healthz", b"").expect("healthz");
            let body = String::from_utf8(health.body).expect("UTF-8");
            if json_number(&body, "running") == running
                && json_number(&body, "queue_depth") == queued
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "a/b never occupied the service: {body}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    // `b` is posted only once the worker has taken `a`: while `a` still
    // holds the only queue slot, `b` itself would be shed.
    let _a = post_without_reading(&addr, &a.to_json());
    await_occupancy(1, 0);
    let _b = post_without_reading(&addr, &b.to_json());
    await_occupancy(1, 1);

    // A direct submission is shed with 429 + Retry-After.
    let shed = client_request(&addr, "POST", "/campaigns", c.to_json().as_bytes()).expect("POST c");
    assert_eq!(shed.status, 429);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&shed.body).contains("error"));

    // Keep `a` in flight until the retrying fetch below has been shed
    // too, then let the queue drain.
    let releaser = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while Instant::now() < deadline {
                let stats = client_request(&addr, "GET", "/stats", b"").expect("stats");
                if json_number(&String::from_utf8_lossy(&stats.body), "shed") >= 2 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            hold.release();
        })
    };

    // The retry layer honors the interval to eventual success.
    let policy = RetryPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(1),
        ..RetryPolicy::default()
    };
    let mut got = Vec::new();
    let outcome = fetch_campaign(&addr, &c.to_json(), &mut got, &policy)
        .expect("backpressure resolves to success");
    assert!(
        outcome.throttled >= 1,
        "the fetch should have been shed at least once: {outcome:?}"
    );
    assert_eq!(String::from_utf8(got).expect("UTF-8"), reference_jsonl(&c));
    releaser.join().expect("releaser thread");

    let stats = client_request(&addr, "GET", "/stats", b"").expect("stats");
    let stats_body = String::from_utf8(stats.body).expect("UTF-8");
    assert!(json_number(&stats_body, "shed") >= 2, "{stats_body}");
}

#[test]
fn drain_cancels_in_flight_and_a_restart_resumes_byte_identically() {
    // Staged emission (one batch per voltage point), held after the first
    // batch by a hold this test never releases: the drain below must land
    // between batches, mid-artifact.
    let sc = staged_spec(0xD7A1);
    let want = reference_jsonl(&sc);
    let id = campaign_id(&sc);
    let store_dir = temp_store("drain");
    let addr = boot_with(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store_dir.clone(),
        workers: 1,
        threads: 1,
        retry_after: Duration::from_secs(1),
        hold: Some(TestHold::new()),
        ..ServeConfig::default()
    });

    // Start a long campaign and wait until it has persisted some rows —
    // the drain must interrupt it mid-artifact, not before it starts.
    let _conn = post_without_reading(&addr, &sc.to_json());
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let status =
            client_request(&addr, "GET", &format!("/campaigns/{id}"), b"").expect("status");
        let body = String::from_utf8(status.body).expect("UTF-8");
        if body.contains("\"running\"") && json_number(&body, "rows") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never made progress: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Drain: in-flight work is cancelled and the service reports idle.
    let drained = client_request(&addr, "POST", "/admin/drain", b"").expect("drain");
    assert_eq!(drained.status, 200);
    let drained_body = String::from_utf8(drained.body).expect("UTF-8");
    assert!(drained_body.contains("\"cancelled\": 1"), "{drained_body}");
    assert!(drained_body.contains("\"idle\": true"), "{drained_body}");

    // The interrupted campaign is marked cancelled, its artifact is a
    // strict prefix on disk, and new submissions are shed with 503.
    let status = client_request(&addr, "GET", &format!("/campaigns/{id}"), b"").expect("status");
    let status_body = String::from_utf8(status.body).expect("UTF-8");
    assert!(status_body.contains("\"cancelled\""), "{status_body}");
    let store = Store::open(&store_dir).expect("store opens");
    assert!(!store.is_complete(&id), "a drained artifact has no marker");
    let prefix = std::fs::read_to_string(store.rows_path(&id)).expect("prefix exists");
    assert!(!prefix.is_empty() && prefix.len() < want.len());
    assert!(want.starts_with(&prefix), "prefix must be deterministic");

    let shed = client_request(&addr, "POST", "/campaigns", sc.to_json().as_bytes()).expect("POST");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    let health = client_request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert!(String::from_utf8_lossy(&health.body).contains("\"draining\""));

    // A restarted server resumes the prefix to a byte-identical artifact.
    let addr2 = boot(store_dir);
    let resumed =
        client_request(&addr2, "POST", "/campaigns", sc.to_json().as_bytes()).expect("resume POST");
    assert_eq!(resumed.status, 200);
    assert_eq!(resumed.header("x-dream-cache"), Some("miss"));
    assert_eq!(String::from_utf8(resumed.body).expect("UTF-8"), want);
    assert_eq!(
        std::fs::read_to_string(store.rows_path(&id)).expect("rows"),
        want
    );
}

#[test]
fn a_panicking_campaign_fails_alone_and_the_worker_keeps_serving() {
    // One worker: if the panic took it down, or left it counted as
    // running, the second campaign below would never run.
    let addr = boot_with(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: temp_store("panic"),
        workers: 1,
        threads: 1,
        hold: Some(TestHold::panic_once()),
        ..ServeConfig::default()
    });
    let doomed = staged_spec(0xDEAD);
    let id = campaign_id(&doomed);

    // The submitter follows the campaign; its stream must end, not hang.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    {
        let addr = addr.clone();
        let body = doomed.to_json();
        std::thread::spawn(move || {
            let _ = done_tx.send(client_request(&addr, "POST", "/campaigns", body.as_bytes()));
        });
    }
    let followed = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the follower's fetch ended")
        .expect("the follower got a response");
    assert_eq!(followed.status, 200);

    let status = client_request(&addr, "GET", &format!("/campaigns/{id}"), b"").expect("status");
    let body = String::from_utf8(status.body).expect("UTF-8");
    let doc = Json::parse(&body).expect("status is JSON");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("failed"),
        "{body}"
    );
    let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("injected campaign panic"), "{body}");

    // The same worker then runs a second campaign to completion.
    let next = smoke_spec(0x5AFE, 1);
    let served =
        client_request(&addr, "POST", "/campaigns", next.to_json().as_bytes()).expect("POST next");
    assert_eq!(served.status, 200);
    assert_eq!(
        String::from_utf8(served.body).expect("UTF-8"),
        reference_jsonl(&next)
    );
    let health = client_request(&addr, "GET", "/healthz", b"").expect("healthz");
    let health_body = String::from_utf8(health.body).expect("UTF-8");
    assert_eq!(json_number(&health_body, "running"), 0, "{health_body}");
}

#[test]
fn protocol_garbage_gets_json_errors_not_silent_drops() {
    let addr = boot_with(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: temp_store("garbage"),
        workers: 1,
        threads: 1,
        read_timeout: Duration::from_millis(300),
        request_deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    });

    let exchange = |raw: &[u8]| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(raw).expect("send");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        String::from_utf8_lossy(&response).to_string()
    };

    // Malformed request line: 400 with a JSON body and Connection: close.
    let malformed = exchange(b"NONSENSE\r\n\r\n");
    assert!(malformed.starts_with("HTTP/1.1 400 "), "{malformed}");
    assert!(malformed.contains("Connection: close"), "{malformed}");
    assert!(malformed.contains("{\"error\": "), "{malformed}");

    // Oversized request line: 431, not an unbounded buffer.
    let oversized = exchange(format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64 * 1024)).as_bytes());
    assert!(oversized.starts_with("HTTP/1.1 431 "), "{oversized}");

    // Slow loris: a trickle that never finishes the request line burns
    // its own deadline and gets a 408.
    let loris = {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(b"GET /stats HT").expect("partial send");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        String::from_utf8_lossy(&response).to_string()
    };
    assert!(loris.starts_with("HTTP/1.1 408 "), "{loris}");

    // A spec nested a mebibyte deep is a 400 JSON error, not a stack
    // overflow that aborts the whole server; the server keeps answering.
    let nested = client_request(&addr, "POST", "/campaigns", "[".repeat(1 << 20).as_bytes())
        .expect("nested spec");
    assert_eq!(nested.status, 400);
    let nested_body = String::from_utf8(nested.body).expect("UTF-8");
    assert!(nested_body.contains("nesting"), "{nested_body}");

    // The health endpoint reports the expected fields.
    let health = client_request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let body = String::from_utf8(health.body).expect("UTF-8");
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(body.contains("\"version\": "), "{body}");
    assert_eq!(json_number(&body, "workers"), 1);
    assert_eq!(json_number(&body, "queue_capacity"), 32);
    let _ = json_number(&body, "trials_executed");

    // And the protocol abuse is counted.
    let stats = client_request(&addr, "GET", "/stats", b"").expect("stats");
    let stats_body = String::from_utf8(stats.body).expect("UTF-8");
    assert!(
        json_number(&stats_body, "bad_requests") >= 3,
        "{stats_body}"
    );
}
