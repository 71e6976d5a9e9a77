//! Kill -9 chaos tests of `dream serve`: a real child process, a real
//! SIGKILL at an arbitrary point mid-campaign, and a real restart.
//!
//! These are the acceptance tests of the crash-safety story end to end:
//!
//! * a campaign killed mid-artifact resumes on the next POST to a
//!   byte-identical artifact (torn trailing row included);
//! * a completed artifact whose rows were corrupted on disk is caught by
//!   the SHA-256 checksum at preload, quarantined instead of served, and
//!   re-run to the correct bytes.
//!
//! They live in `dream-bench` because that package owns the `dream`
//! binary (`CARGO_BIN_EXE_dream`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dream_serve::http::client_request;
use dream_serve::store::QUARANTINE_DIR;
use dream_serve::{campaign_id, Integrity, Store};
use dream_sim::report::JsonlSink;
use dream_sim::scenario::{registry, CampaignRunner, Scenario};

/// A `dream serve` child process; killed (hard) when dropped so a failed
/// assertion never leaks a listener.
struct ServeProc {
    child: Child,
    addr: String,
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `dream serve` on an ephemeral port and parses the bound
/// address from its startup line. With `hold`, every campaign pauses
/// after its first emitted batch for good (`--hold-first-batch`).
fn spawn_serve(store_dir: &Path, hold: bool) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dream"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            store_dir.to_str().expect("store path is UTF-8"),
            "--workers",
            "1",
            "--threads",
            "2",
        ])
        .args(hold.then_some("--hold-first-batch"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dream serve spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exits before announcing its address")
            .expect("stderr is readable");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after scheme")
                .to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    ServeProc { child, addr }
}

/// A campaign with staged emission (fig4 batches once per voltage grid
/// point), so rows reach the disk before the campaign completes — the
/// window the SIGKILL below aims for, held open by `--hold-first-batch`.
fn long_spec(seed: u64) -> Scenario {
    let mut sc = registry::get("fig4", true).expect("preset exists");
    sc.records = 4;
    sc.trials = 10;
    sc.seed = seed;
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
    let dir = std::env::temp_dir().join(format!("dream_kill9_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// POSTs the spec without reading the response, so the campaign runs
/// while the test thread is free to aim the kill.
fn post_detached(addr: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    stream
}

#[test]
fn kill_nine_mid_campaign_then_restart_resumes_byte_identically() {
    let sc = long_spec(0x9119);
    let want = reference_jsonl(&sc);
    let id = campaign_id(&sc);
    let store_dir = temp_store("resume");
    let store = Store::open(&store_dir).expect("store opens");
    let rows_path = store.rows_path(&id);

    // Boot, submit, and SIGKILL as soon as any rows hit the disk — quite
    // possibly mid-write. The child holds the campaign after its first
    // batch, so the kill always lands mid-campaign.
    let mut serve = spawn_serve(&store_dir, true);
    let _conn = post_detached(&serve.addr, &sc.to_json());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if rows_path.metadata().map(|m| m.len() > 0).unwrap_or(false) {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never wrote a row");
        std::thread::sleep(Duration::from_millis(5));
    }
    serve.child.kill().expect("SIGKILL");
    serve.child.wait().expect("reap");

    let survived = std::fs::read_to_string(&rows_path).expect("rows survive the kill");
    assert!(
        !store.is_complete(&id),
        "a killed campaign must not look complete"
    );
    assert!(
        survived.len() < want.len(),
        "the kill should have landed mid-artifact (got {} of {} bytes)",
        survived.len(),
        want.len()
    );

    // Restart over the same store: the repeat POST truncates any torn
    // tail, skips the surviving prefix, and appends the remainder — the
    // response and the on-disk artifact are byte-identical to a run that
    // was never killed.
    let serve2 = spawn_serve(&store_dir, false);
    let response = client_request(&serve2.addr, "POST", "/campaigns", sc.to_json().as_bytes())
        .expect("resume POST");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-dream-cache"), Some("miss"));
    assert_eq!(String::from_utf8(response.body).expect("UTF-8"), want);
    assert_eq!(std::fs::read_to_string(&rows_path).expect("rows"), want);
    assert!(matches!(
        store.verify(&id).expect("verify"),
        Integrity::Verified
    ));
}

#[test]
fn corrupted_artifacts_are_quarantined_on_restart_and_rerun_not_served() {
    let sc = long_spec(0xBADD);
    let want = reference_jsonl(&sc);
    let id = campaign_id(&sc);
    let store_dir = temp_store("quarantine");
    let store = Store::open(&store_dir).expect("store opens");

    // Complete the artifact legitimately.
    {
        let serve = spawn_serve(&store_dir, false);
        let response = client_request(&serve.addr, "POST", "/campaigns", sc.to_json().as_bytes())
            .expect("POST");
        assert_eq!(response.status, 200);
    }
    assert!(store.is_complete(&id));

    // Corrupt the rows under the completion marker — the bit flip a torn
    // write or dying disk would leave.
    let rows_path = store.rows_path(&id);
    let mut rows = std::fs::read(&rows_path).expect("rows");
    let mid = rows.len() / 2;
    rows[mid] ^= 0x55;
    std::fs::write(&rows_path, &rows).expect("tamper");

    // A restarted server refuses to serve the bad bytes: the checksum
    // catches the corruption at preload, the artifact moves to
    // quarantine, and the repeat POST re-runs to the correct bytes.
    let serve2 = spawn_serve(&store_dir, false);
    let quarantined = store_dir.join(QUARANTINE_DIR).join(&id);
    assert!(
        quarantined.join("quarantine_reason.txt").exists(),
        "corrupt artifact should be quarantined with its reason"
    );
    let mut reason = String::new();
    std::fs::File::open(quarantined.join("quarantine_reason.txt"))
        .expect("reason file")
        .read_to_string(&mut reason)
        .expect("reason is readable");
    assert!(reason.contains("checksum"), "unexpected reason: {reason}");
    assert!(
        !rows_path.exists(),
        "the corrupt rows must be gone from the serving path"
    );

    let response = client_request(&serve2.addr, "POST", "/campaigns", sc.to_json().as_bytes())
        .expect("re-run POST");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("x-dream-cache"),
        Some("miss"),
        "a quarantined artifact must not be served as a cache hit"
    );
    assert_eq!(String::from_utf8(response.body).expect("UTF-8"), want);
    assert!(matches!(
        store.verify(&id).expect("verify"),
        Integrity::Verified
    ));
}
