//! The campaign service: an evented HTTP front end over a worker pool,
//! an optional shard-fan-out coordinator, and the content-addressed
//! [`Store`].
//!
//! ```text
//! POST /campaigns[?sink=jsonl]  submit a spec; stream its JSONL rows
//! POST /shards                  worker-mode submit: always executes the
//!                               spec directly (never re-shards it)
//! GET  /campaigns/{id}          status JSON
//! GET  /campaigns/{id}/rows     stream the row artifact
//! GET  /presets                 the scenario registry as JSON
//! GET  /stats                   service + batch-telemetry counters
//! GET  /healthz                 liveness: version, workers, queue and
//!                               shard/worker topology state
//! POST /admin/drain             stop admitting, cancel in-flight runs
//! POST /admin/shutdown          drain, then exit the accept loop
//! ```
//!
//! Submissions deduplicate on [`campaign_id`]: a spec whose artifact is
//! already complete replays from the store without executing a single
//! trial (`X-Dream-Cache: hit`); one currently running attaches to the
//! in-flight stream (`join`); anything else enqueues (`miss`). An
//! interrupted campaign — rows on disk but no completion marker — resumes
//! where it stopped: [`ShardPlan::resume`] keeps the whole grid units
//! already persisted, and the worker runs only the spec of the remaining
//! units and appends their rows (a coordinator keeps whole shards and
//! fetches the rest).
//!
//! Every response streams straight from the artifact file, so a cache
//! hit, a join, and a fresh run all produce byte-identical bodies.
//!
//! # Sharded execution
//!
//! With [`ServeConfig::shards`] > 1 a coordinator partitions each
//! submitted campaign with [`ShardPlan`] and fans the derived shard specs
//! out over worker processes — spawned locally from
//! [`ServeConfig::worker_exe`] or addressed via
//! [`ServeConfig::worker_addrs`] — by POSTing them to each worker's
//! `/shards` endpoint through the retrying [`crate::client`]. Every shard
//! is its own content-addressed sub-artifact in the coordinator's store,
//! so a dead worker costs exactly one shard re-fetch (the worker side
//! replays from *its* store without re-running trials). Shard rows are
//! reassembled into the parent artifact strictly in plan order, which
//! makes the reassembled bytes — and therefore the parent's store id and
//! `X-Dream-Cache` semantics — identical to an unsharded run.
//!
//! # The evented connection layer
//!
//! Accepted connections are parsed and dispatched by a small fixed
//! handler pool; anything that *streams* (a campaign body, a `/rows`
//! follow) is handed to a poller thread as a non-blocking socket. The
//! poller owns every follower at once — a readiness ladder of one rung:
//! it wakes on engine progress notifications (with `FOLLOW_POLL` as a
//! backstop), frames fresh artifact bytes into per-connection buffers,
//! and retries `WouldBlock` writes on the next tick — so hundreds of
//! followers cost hundreds of buffers, not hundreds of threads. A
//! follower whose TCP window stays shut past
//! [`ServeConfig::write_timeout`] is shed.
//!
//! # Surviving hostile clients and full queues
//!
//! Connections carry socket read/write timeouts and a per-request
//! deadline ([`ServeConfig`]), so a slow-loris burns its own deadline
//! instead of a handler thread, and a stalled consumer is shed when its
//! TCP window stays shut past the write timeout. Malformed, oversized,
//! or too-slow requests get `400`/`408`/`413`/`431` JSON error bodies
//! with `Connection: close` — never a silent drop. Admission is bounded:
//! at most [`ServeConfig::queue_depth`] campaigns may wait for a worker,
//! beyond which submissions are shed with `429 Too Many Requests` and a
//! `Retry-After` the CLI's retry layer honors. `POST /admin/drain` stops
//! admissions (`503` + `Retry-After`), fires every in-flight campaign's
//! [`CancelToken`], and leaves the interrupted artifacts resumable on
//! disk; `POST /admin/shutdown` drains and then exits [`Server::run`],
//! which also reaps any locally spawned worker processes.
//!
//! A panic fails only what raised it. A panicking campaign is marked
//! `failed` and its worker moves on; a panicking request handler answers
//! a JSON `500` if no response byte went out (and closes the connection
//! otherwise), and its thread keeps serving.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dream_sim::report::JsonlSink;
use dream_sim::scenario::json::{u64_json, Json};
use dream_sim::scenario::{
    registry, CampaignRunner, CancelToken, EngineError, Scenario, Shard, ShardPlan, SinkFormat,
    SinkSpec,
};
use dream_sim::telemetry::{self, BatchTelemetry};

use crate::client::{fetch_rows, RetryPolicy};
use crate::http::{self, ReadLimits, Request};
use crate::store::{campaign_id, spec_hash, Integrity, Store};

/// How long row-stream followers sleep between artifact polls when no
/// progress notification arrives.
const FOLLOW_POLL: Duration = Duration::from_millis(25);

/// How long a drain waits for workers to go idle before answering anyway.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// Request-parsing handler threads. Handlers only parse, dispatch, and
/// answer short responses — streaming bodies live on the poller — so a
/// small fixed pool suffices at any follower count.
const HANDLER_THREADS: usize = 8;

/// Upper bound on artifact bytes framed into one follower's buffer per
/// poller pass, so one fast producer cannot balloon a slow consumer's
/// pending buffer.
const FILL_CAP: usize = 256 * 1024;

/// Configuration of one [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7163`; port 0 picks a free port).
    pub addr: String,
    /// Root of the artifact store.
    pub store_dir: PathBuf,
    /// Campaign worker threads (concurrent campaigns).
    pub workers: usize,
    /// Engine threads per campaign.
    pub threads: usize,
    /// Campaigns allowed to wait for a worker before submissions are
    /// shed with `429`.
    pub queue_depth: usize,
    /// Socket read timeout — the longest a handler blocks waiting for
    /// the peer to send anything at all.
    pub read_timeout: Duration,
    /// Socket write timeout — the longest a follower may stall
    /// (`WouldBlock`) before the poller sheds it.
    pub write_timeout: Duration,
    /// Wall-clock budget for reading one whole request (the slow-loris
    /// guard; a trickling client is cut off at this point).
    pub request_deadline: Duration,
    /// Advisory `Retry-After` (whole seconds) on `429`/`503` responses.
    pub retry_after: Duration,
    /// Shards to partition each campaign into (1 = serial, no fan-out).
    pub shards: usize,
    /// Addresses of already-running shard workers (`host:port`). When
    /// empty and `shards > 1`, the coordinator spawns local worker
    /// processes from [`ServeConfig::worker_exe`] instead.
    pub worker_addrs: Vec<String>,
    /// Run as a shard worker: every submission executes directly, never
    /// fanning out again.
    pub worker: bool,
    /// Binary to spawn local shard workers from (the CLI passes its own
    /// executable). `None` disables local spawning.
    pub worker_exe: Option<PathBuf>,
    /// Test hook: while the latch is closed, a directly executed campaign
    /// pauses after its first emitted batch (see [`TestHold`]). `None`
    /// (the default) never pauses.
    #[doc(hidden)]
    pub hold: Option<TestHold>,
}

/// A test-only latch that keeps campaigns deterministically in flight.
///
/// While closed, every campaign a worker executes directly pauses after
/// its first emitted batch — rows on disk, status `running`, the worker
/// occupied — until the latch is [released](TestHold::release) or the
/// campaign's cancel token fires (a drain). Service tests use it to
/// observe a running campaign without guessing how long one takes.
///
/// A latch made by [`TestHold::panic_once`] instead makes the next
/// campaign to reach that point panic there, and lets every later one run
/// through: how the service tests drive a campaign that panics. One made
/// by [`TestHold::panic_handlers`] makes request handlers panic.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct TestHold(Arc<HoldLatch>);

#[derive(Debug, Default)]
struct HoldLatch {
    open: Mutex<bool>,
    opened: Condvar,
    /// Set: the next campaign to reach the hold panics instead.
    panic_next: AtomicBool,
    /// How many of the next requests' handlers panic before answering.
    panic_handlers: AtomicUsize,
}

impl TestHold {
    /// A closed latch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An open latch whose next held campaign panics after its first
    /// emitted batch.
    pub fn panic_once() -> Self {
        let hold = Self::new();
        hold.0.panic_next.store(true, Ordering::SeqCst);
        hold.release();
        hold
    }

    /// An open latch whose next `n` request handlers panic after parsing
    /// their request, before writing any response byte.
    pub fn panic_handlers(n: usize) -> Self {
        let hold = Self::new();
        hold.0.panic_handlers.store(n, Ordering::SeqCst);
        hold.release();
        hold
    }

    /// Panics while a [`TestHold::panic_handlers`] budget is left.
    fn check_handler(&self) {
        let left = &self.0.panic_handlers;
        if left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("test hold: injected handler panic");
        }
    }

    /// Opens the latch for good: held campaigns resume, later ones never
    /// pause.
    pub fn release(&self) {
        *self.0.open.lock().expect("hold lock") = true;
        self.0.opened.notify_all();
    }

    /// Blocks until the latch opens or `token` fires. Cancel tokens carry
    /// no wake-up, so the wait re-checks the token every few milliseconds.
    ///
    /// # Panics
    ///
    /// Panics, once, on a [`TestHold::panic_once`] latch.
    fn wait(&self, token: &CancelToken) {
        if self.0.panic_next.swap(false, Ordering::SeqCst) {
            panic!("test hold: injected campaign panic");
        }
        let mut guard = self.0.open.lock().expect("hold lock");
        while !*guard && !token.is_cancelled() {
            guard = self
                .0
                .opened
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("hold lock")
                .0;
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7163".to_string(),
            store_dir: PathBuf::from("store"),
            workers: 2,
            threads: 1,
            queue_depth: 32,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(15),
            retry_after: Duration::from_secs(1),
            shards: 1,
            worker_addrs: Vec::new(),
            worker: false,
            worker_exe: None,
            hold: None,
        }
    }
}

/// Lifecycle of one campaign the service knows about.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Complete,
    /// Cancelled by a drain — the artifact on disk is a resumable prefix.
    Cancelled,
    Failed(String),
}

impl Status {
    fn token(&self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Complete => "complete",
            Status::Cancelled => "cancelled",
            Status::Failed(_) => "failed",
        }
    }
}

#[derive(Clone, Debug)]
struct CampaignInfo {
    spec: Scenario,
    status: Status,
}

struct Job {
    id: String,
    spec: Scenario,
    /// Submitted via `POST /shards` (or to a worker-mode server): execute
    /// directly, never re-shard.
    direct: bool,
}

/// Service counters surfaced at `GET /stats`.
#[derive(Debug, Default)]
struct Stats {
    campaigns_run: AtomicU64,
    cache_hits: AtomicU64,
    /// Flattened trials actually executed by workers — replays from the
    /// store leave this untouched, which is how the e2e tests prove a
    /// cache hit re-ran nothing. A sharding coordinator also leaves it
    /// untouched: its trials execute on the shard workers.
    trials_executed: AtomicU64,
    /// Submissions shed with `429` (queue full) or `503` (draining).
    shed: AtomicU64,
    /// Requests answered with a 4xx protocol error (malformed, oversized,
    /// too slow).
    bad_requests: AtomicU64,
}

/// Batch-telemetry totals accumulated from [`telemetry::take`] after
/// every locally executed campaign, surfaced at `GET /stats`.
#[derive(Debug, Default)]
struct TelemetryTotals {
    lanes: AtomicU64,
    evicted: AtomicU64,
    bailed: AtomicU64,
    clean_replays: AtomicU64,
    traces_recorded: AtomicU64,
}

impl TelemetryTotals {
    fn absorb(&self, t: BatchTelemetry) {
        self.lanes.fetch_add(t.lanes, Ordering::Relaxed);
        self.evicted.fetch_add(t.evicted, Ordering::Relaxed);
        self.bailed.fetch_add(t.bailed, Ordering::Relaxed);
        self.clean_replays
            .fetch_add(t.clean_replays, Ordering::Relaxed);
        self.traces_recorded
            .fetch_add(t.traces_recorded, Ordering::Relaxed);
    }

    fn snapshot(&self) -> BatchTelemetry {
        BatchTelemetry {
            lanes: self.lanes.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bailed: self.bailed.load(Ordering::Relaxed),
            clean_replays: self.clean_replays.load(Ordering::Relaxed),
            traces_recorded: self.traces_recorded.load(Ordering::Relaxed),
        }
    }
}

/// Shard lifecycle counters (coordinator side), surfaced at `/healthz`.
#[derive(Debug, Default)]
struct ShardCounters {
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
}

/// One remote shard worker the coordinator can dispatch to.
#[derive(Debug)]
struct WorkerSlot {
    addr: String,
    /// Cleared when every retry against this worker failed; set again on
    /// the next success. Surfaced at `/healthz`.
    alive: AtomicBool,
}

/// One streaming response owned by the poller: a non-blocking socket, the
/// artifact it follows, and the chunk-framed bytes not yet written.
struct Follower {
    stream: TcpStream,
    id: String,
    /// Artifact bytes already framed (file offset).
    offset: u64,
    /// Chunk-framed bytes awaiting the socket.
    pending: Vec<u8>,
    /// Prefix of `pending` already written.
    sent: usize,
    /// The terminating chunk is framed; close once `pending` drains.
    finished: bool,
    /// First `WouldBlock` of the current stall, for the shed timeout.
    stalled_since: Option<Instant>,
}

struct State {
    store: Store,
    threads: usize,
    workers: usize,
    queue_capacity: usize,
    limits: ReadLimits,
    read_timeout: Duration,
    write_timeout: Duration,
    retry_after_secs: u64,
    bound_addr: SocketAddr,
    campaigns: Mutex<HashMap<String, CampaignInfo>>,
    /// Bumped on every worker progress event and status change; the
    /// follower poller waits on it (with [`FOLLOW_POLL`] as backstop).
    progress: Progress,
    jobs: mpsc::Sender<Job>,
    /// Hand-off of freshly admitted streaming connections to the poller.
    followers: mpsc::Sender<Follower>,
    /// Campaigns enqueued but not yet picked up by a worker.
    queued: AtomicU64,
    /// Campaigns currently executing.
    running: AtomicU64,
    /// Once set, submissions are shed with `503` and workers drop queued
    /// jobs instead of running them.
    draining: AtomicBool,
    /// Once set, [`Server::run`] exits at the next accept.
    shutdown: AtomicBool,
    /// Cancel tokens of the campaigns currently executing — a drain fires
    /// them all.
    active: Mutex<HashMap<String, CancelToken>>,
    stats: Stats,
    batch_telemetry: TelemetryTotals,
    /// Shards each campaign is partitioned into (1 = no fan-out).
    shards: usize,
    /// The shard workers this coordinator dispatches to (empty on plain
    /// and worker-mode servers).
    remote: Vec<WorkerSlot>,
    shard_counters: ShardCounters,
    /// Locally spawned worker processes, reaped when [`Server::run`]
    /// exits after a shutdown.
    children: Mutex<Vec<Child>>,
    /// [`ServeConfig::hold`].
    hold: Option<TestHold>,
}

impl State {
    fn status_of(&self, id: &str) -> Option<Status> {
        self.campaigns
            .lock()
            .expect("campaign map lock")
            .get(id)
            .map(|info| info.status.clone())
    }

    fn set_status(&self, id: &str, status: Status) {
        if let Some(info) = self
            .campaigns
            .lock()
            .expect("campaign map lock")
            .get_mut(id)
        {
            info.status = status;
        }
        self.notify();
    }

    fn notify(&self) {
        self.progress.notify();
    }

    /// Reserves a queue slot, failing when the queue is full — the
    /// compare-and-swap loop makes admission exact under concurrency.
    fn try_reserve_queue_slot(&self) -> bool {
        self.queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                (q < self.queue_capacity as u64).then_some(q + 1)
            })
            .is_ok()
    }

    fn in_flight(&self) -> u64 {
        self.queued.load(Ordering::SeqCst) + self.running.load(Ordering::SeqCst)
    }
}

/// The campaign service. [`Server::bind`] opens the listener and store
/// and spawns the worker pool, handler pool, follower poller, and (for a
/// sharding coordinator) local worker processes; [`Server::run`] accepts
/// connections until a shutdown is requested.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listener, opens the store — preloading completed
    /// artifacts so replays survive restarts, and quarantining any whose
    /// completion marker fails verification ([`Store::verify`]) instead
    /// of serving bad bytes — and spawns `workers` campaign workers plus
    /// the follower poller. A coordinator (`shards > 1`) also resolves
    /// its shard-worker topology: explicit [`ServeConfig::worker_addrs`]
    /// win; otherwise one local worker process per shard is spawned from
    /// [`ServeConfig::worker_exe`].
    ///
    /// # Errors
    ///
    /// Propagates bind, store-open, and worker-spawn failures.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let bound_addr = listener.local_addr()?;
        let store = Store::open(&config.store_dir)?;

        let mut campaigns = HashMap::new();
        for (id, spec, complete) in store.scan()? {
            if !complete {
                // Interrupted artifacts stay off the map: the next POST of
                // the same spec recomputes their id and resumes them.
                continue;
            }
            match store.verify(&id)? {
                Integrity::Verified => {
                    campaigns.insert(
                        id,
                        CampaignInfo {
                            spec,
                            status: Status::Complete,
                        },
                    );
                }
                Integrity::Incomplete => {}
                Integrity::Corrupt(reason) => {
                    let dest = store.quarantine(&id, &reason)?;
                    eprintln!(
                        "dream serve: quarantined {id} ({reason}) -> {}",
                        dest.display()
                    );
                }
            }
        }

        let shards = if config.worker {
            1
        } else {
            config.shards.max(1)
        };
        let mut children = Vec::new();
        let remote: Vec<WorkerSlot> = if shards > 1 {
            let addrs = if !config.worker_addrs.is_empty() {
                config.worker_addrs.clone()
            } else if let Some(exe) = &config.worker_exe {
                spawn_local_workers(exe, &config, shards, &mut children)?
            } else {
                Vec::new()
            };
            addrs
                .into_iter()
                .map(|addr| WorkerSlot {
                    addr,
                    alive: AtomicBool::new(true),
                })
                .collect()
        } else {
            Vec::new()
        };
        if shards > 1 && remote.is_empty() {
            eprintln!(
                "dream serve: --shards {shards} requested but no shard workers available; \
                 running campaigns unsharded"
            );
        }

        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (followers, follower_rx) = mpsc::channel::<Follower>();
        let state = Arc::new(State {
            store,
            threads: config.threads.max(1),
            workers: config.workers.max(1),
            queue_capacity: config.queue_depth.max(1),
            limits: ReadLimits {
                deadline: Some(config.request_deadline),
                ..ReadLimits::default()
            },
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            retry_after_secs: config.retry_after.as_secs(),
            bound_addr,
            campaigns: Mutex::new(campaigns),
            progress: Progress::default(),
            jobs,
            followers,
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            active: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            batch_telemetry: TelemetryTotals::default(),
            shards,
            remote,
            shard_counters: ShardCounters::default(),
            children: Mutex::new(children),
            hold: config.hold,
        });

        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..state.workers {
            let state = Arc::clone(&state);
            let job_rx = Arc::clone(&job_rx);
            thread::spawn(move || worker_loop(&state, &job_rx));
        }
        {
            let state = Arc::clone(&state);
            thread::spawn(move || poller_loop(&state, &follower_rx));
        }

        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.bound_addr
    }

    /// Accepts connections into the handler pool until
    /// `POST /admin/shutdown` completes a drain, then reaps any locally
    /// spawned shard workers.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn run(self) -> io::Result<()> {
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for _ in 0..HANDLER_THREADS {
            let state = Arc::clone(&self.state);
            let conn_rx = Arc::clone(&conn_rx);
            thread::spawn(move || handler_loop(&state, &conn_rx));
        }
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            if conn_tx.send(stream).is_err() {
                break;
            }
        }
        // Reap locally spawned shard workers — their stores keep every
        // completed shard, so nothing is lost.
        for mut child in self.state.children.lock().expect("children lock").drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning the bound
    /// address — the in-process harness for tests.
    pub fn spawn(self) -> SocketAddr {
        let addr = self.local_addr();
        thread::spawn(move || {
            let _ = self.run();
        });
        addr
    }
}

/// Spawns one local shard-worker process per shard and returns their
/// bound addresses, discovered from the `listening on HOST:PORT` line
/// each worker prints on stdout.
fn spawn_local_workers(
    exe: &PathBuf,
    config: &ServeConfig,
    shards: usize,
    children: &mut Vec<Child>,
) -> io::Result<Vec<String>> {
    let mut addrs = Vec::with_capacity(shards);
    for i in 0..shards {
        let store = config.store_dir.join("workers").join(format!("w{i}"));
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--worker")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(&store)
            .arg("--threads")
            .arg(config.threads.max(1).to_string())
            .arg("--workers")
            .arg(config.workers.max(1).to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("shard worker {i} exited before announcing its address"),
                ));
            }
            if let Some(addr) = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
            {
                break addr.to_string();
            }
        };
        // Keep the pipe drained so a chatty worker can never block on a
        // full stdout buffer.
        thread::spawn(move || {
            let mut sink = io::sink();
            let _ = io::copy(&mut reader, &mut sink);
        });
        children.push(child);
        addrs.push(addr);
    }
    Ok(addrs)
}

thread_local! {
    /// Whether any response byte of the connection this handler thread
    /// serves has been written (see [`handler_loop`]).
    static RESPONDED: Cell<bool> = const { Cell::new(false) };
}

/// [`http::write_response`], noting for [`handler_loop`] that the
/// connection's response has begun.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    RESPONDED.set(true);
    http::write_response(stream, status, reason, content_type, extra_headers, body)
}

fn handler_loop(state: &Arc<State>, conns: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let stream = match conns.lock().expect("connection queue lock").recv() {
            Ok(stream) => stream,
            Err(_) => return, // accept loop exited
        };
        // The handler reads the request through this second handle, which
        // also outlives a panicking handler to answer for it.
        let Ok(mut reply) = stream.try_clone() else {
            continue;
        };
        // Connection-level failures (client hung up mid-request) only end
        // that connection. A panicking handler does too, and the thread
        // lives on: the client gets a 500 if no response byte went out,
        // and a closed connection otherwise.
        RESPONDED.set(false);
        let handled = panic::catch_unwind(AssertUnwindSafe(|| {
            handle_connection(state, stream, &reply)
        }));
        if let Err(payload) = handled {
            if !RESPONDED.get() {
                let message = format!("request handler panicked: {}", panic_message(&*payload));
                let _ = error_response(&mut reply, 500, "Internal Server Error", &message);
            }
            let _ = reply.shutdown(Shutdown::Both);
        }
    }
}

fn worker_loop(state: &Arc<State>, jobs: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    loop {
        let job = match jobs.lock().expect("job queue lock").recv() {
            Ok(job) => job,
            Err(_) => return, // server dropped
        };
        state.queued.fetch_sub(1, Ordering::SeqCst);
        if state.draining.load(Ordering::SeqCst) {
            // Queued work is dropped, not run: whatever the artifact holds
            // (possibly just the spec) resumes on the next POST.
            state.set_status(&job.id, Status::Cancelled);
            continue;
        }
        state.running.fetch_add(1, Ordering::SeqCst);
        let token = CancelToken::new();
        state
            .active
            .lock()
            .expect("active map lock")
            .insert(job.id.clone(), token.clone());
        state.set_status(&job.id, Status::Running);
        // A panicking campaign fails alone: the worker records it and
        // keeps serving, and its followers see the failure instead of
        // waiting on a campaign nobody runs.
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| execute_campaign(state, &job, &token)));
        state
            .active
            .lock()
            .expect("active map lock")
            .remove(&job.id);
        let status = match result {
            Ok(Ok(())) => Status::Complete,
            Ok(Err(EngineError::Cancelled)) => Status::Cancelled,
            Ok(Err(e)) => Status::Failed(e.to_string()),
            Err(payload) => {
                Status::Failed(format!("campaign panicked: {}", panic_message(&*payload)))
            }
        };
        state.running.fetch_sub(1, Ordering::SeqCst);
        state.set_status(&job.id, status);
    }
}

/// The message a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Runs (or resumes) one campaign. A coordinator with a non-trivial
/// [`ShardPlan`] fans out to its shard workers; everything else executes
/// the engine directly. Either way the artifact is first cut back to the
/// whole units it already holds, only the missing units run, and their
/// rows are appended; the completion marker is written last. A fired
/// `token` (drain) leaves the artifact as a resumable prefix: rows
/// already appended stay, no marker is written.
///
/// Cutting whole rows off an artifact that followers stream is safe: a
/// follower's offset sits on a row boundary, and the deterministic engine
/// appends the same bytes at the same offsets again.
fn execute_campaign(state: &Arc<State>, job: &Job, token: &CancelToken) -> Result<(), EngineError> {
    let on_disk = state.store.existing_row_count(&job.id)?;
    if !job.direct && state.shards > 1 && !state.remote.is_empty() {
        let plan = ShardPlan::new(&job.spec, state.shards)?;
        if !plan.is_trivial() {
            return execute_sharded(state, job, token, &plan, on_disk);
        }
    }

    let (kept, rest) = ShardPlan::resume(&job.spec, on_disk)?;
    state.store.truncate_rows(&job.id, kept)?;
    state.stats.campaigns_run.fetch_add(1, Ordering::Relaxed);

    let mut appended = 0;
    if let Some(rest) = rest {
        state
            .stats
            .trials_executed
            .fetch_add(rest.flatten().len() as u64, Ordering::Relaxed);
        let mut sink = JsonlSink::append(&state.store.rows_path(&job.id))?;
        let notifier = Arc::clone(state);
        let held = token.clone();
        let outcome = CampaignRunner::new(rest)
            .threads(state.threads)
            .cancel_token(token.clone())
            .on_progress(move |p| {
                notifier.notify();
                if let (Some(hold), 1) = (&notifier.hold, p.batches) {
                    hold.wait(&held);
                }
            })
            .run(&mut sink);
        state.batch_telemetry.absorb(telemetry::take());
        appended = outcome?.rows.len();
    }

    state
        .store
        .mark_complete(&job.id, &job.spec, kept + appended)?;
    Ok(())
}

/// Coordinator path: cut the parent artifact back to the last shard
/// boundary it reaches, fetch every shard from there on concurrently
/// (each cached under its own [`campaign_id`], so only missing shards
/// touch a worker), then append them whole to the parent artifact
/// strictly in plan order. The reassembled bytes are identical to a
/// serial run — that is [`ShardPlan`]'s contract — so replay/join/resume
/// semantics of the parent id are untouched.
fn execute_sharded(
    state: &Arc<State>,
    job: &Job,
    token: &CancelToken,
    plan: &ShardPlan,
    on_disk: usize,
) -> Result<(), EngineError> {
    let done = plan
        .shards()
        .partition_point(|s| s.row_offset + s.rows.unwrap_or(0) <= on_disk);
    let kept: usize = plan.shards()[..done].iter().filter_map(|s| s.rows).sum();
    state.store.truncate_rows(&job.id, kept)?;
    state.stats.campaigns_run.fetch_add(1, Ordering::Relaxed);
    let missing = &plan.shards()[done..];
    state
        .shard_counters
        .queued
        .fetch_add(missing.len() as u64, Ordering::Relaxed);

    let total = plan.len();
    let mut parent = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(state.store.rows_path(&job.id))?;
    let mut appended = kept;
    let reassembled: Result<(), EngineError> = thread::scope(|scope| {
        let handles: Vec<_> = missing
            .iter()
            .map(|shard| {
                let sid = campaign_id(&shard.spec);
                scope.spawn(move || {
                    let rows = fetch_shard(state, &sid, shard);
                    (sid, rows)
                })
            })
            .collect();
        for (shard, handle) in missing.iter().zip(handles) {
            let (sid, fetched) = handle.join().expect("shard fetch thread");
            let rows = fetched.map_err(EngineError::Io)?;
            if let Some(expected) = shard.rows {
                if rows != expected {
                    return Err(EngineError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("shard {sid} returned {rows} rows, plan expected {expected}"),
                    )));
                }
            }
            parent.write_all(&std::fs::read(state.store.rows_path(&sid))?)?;
            appended += rows;
            state.shard_counters.done.fetch_add(1, Ordering::Relaxed);
            state.notify();
            eprintln!(
                "dream serve: campaign {} shard {}/{total} reassembled ({appended} rows)",
                job.id,
                shard.index + 1,
            );
            if token.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        Ok(())
    });
    reassembled?;

    state.store.mark_complete(&job.id, &job.spec, appended)?;
    Ok(())
}

/// The per-shard retry budget: each worker gets a short exponential
/// ladder before the coordinator fails over to the next one.
fn shard_policy(state: &State) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(100),
        max_delay: Duration::from_secs(2),
        read_timeout: Duration::from_secs(30),
        connect_timeout: state.read_timeout,
    }
}

/// Ensures shard `sid` is a complete sub-artifact in the coordinator's
/// store, fetching it from a worker when missing, and returns its row
/// count. Workers are tried round-robin starting at the shard's index;
/// each failed worker is marked dead for `/healthz` and the next one
/// takes over — a dead worker costs exactly this shard's re-fetch.
fn fetch_shard(state: &Arc<State>, sid: &str, shard: &Shard) -> io::Result<usize> {
    state.shard_counters.queued.fetch_sub(1, Ordering::Relaxed);
    state.shard_counters.running.fetch_add(1, Ordering::Relaxed);
    let result = fetch_shard_inner(state, sid, shard);
    state.shard_counters.running.fetch_sub(1, Ordering::Relaxed);
    result
}

fn fetch_shard_inner(state: &Arc<State>, sid: &str, shard: &Shard) -> io::Result<usize> {
    if state.store.is_complete(sid) {
        return state.store.existing_row_count(sid);
    }
    state.store.begin(sid, &shard.spec)?;
    let spec_json = shard.spec.to_json();
    let policy = shard_policy(state);
    let mut last_error = io::Error::new(io::ErrorKind::NotConnected, "no shard workers");
    for attempt in 0..state.remote.len() {
        let slot = &state.remote[(shard.index + attempt) % state.remote.len()];
        // Restart the sub-artifact from zero: the client writes only
        // complete rows, and the worker replays cached rows without
        // re-running trials, so this costs a re-stream at most.
        let out = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(state.store.rows_path(sid))?;
        let mut out = io::BufWriter::new(out);
        match fetch_rows(&slot.addr, "/shards", &spec_json, &mut out, &policy) {
            Ok(outcome) => {
                out.flush()?;
                slot.alive.store(true, Ordering::Relaxed);
                state.store.mark_complete(sid, &shard.spec, outcome.rows)?;
                return Ok(outcome.rows);
            }
            Err(e) => {
                slot.alive.store(false, Ordering::Relaxed);
                eprintln!(
                    "dream serve: shard {sid} failed on worker {}: {e}; failing over",
                    slot.addr
                );
                last_error = e;
            }
        }
    }
    Err(last_error)
}

/// Serves one connection: `reader` is a second handle on `stream`.
fn handle_connection(state: &Arc<State>, stream: TcpStream, reader: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(state.read_timeout))?;
    stream.set_write_timeout(Some(state.write_timeout))?;
    let mut reader = BufReader::new(reader);
    let mut stream = stream;
    let request = match Request::read(&mut reader, &state.limits) {
        Ok(None) => return Ok(()),
        Ok(Some(request)) => request,
        Err(e) => {
            // A malformed/oversized/too-slow request gets a proper status
            // and a JSON error body, then the connection closes; only a
            // dead transport is dropped silently.
            if let Some((status, reason, message)) = e.response() {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let _ = error_response(&mut stream, status, reason, &message);
            }
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
    };
    if let Some(hold) = &state.hold {
        hold.check_handler();
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/campaigns") => post_campaign(state, stream, &request, false),
        ("POST", "/shards") => post_campaign(state, stream, &request, true),
        ("POST", "/admin/drain") => post_drain(state, &mut stream, false),
        ("POST", "/admin/shutdown") => post_drain(state, &mut stream, true),
        ("GET", "/presets") => get_presets(&mut stream),
        ("GET", "/stats") => get_stats(state, &mut stream),
        ("GET", "/healthz") => get_healthz(state, &mut stream),
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/campaigns/") {
                match rest.strip_suffix("/rows") {
                    Some(id) => {
                        let id = id.to_string();
                        get_rows(state, stream, &id)
                    }
                    None => get_status(state, &mut stream, rest),
                }
            } else {
                not_found(&mut stream)
            }
        }
        _ => error_response(&mut stream, 405, "Method Not Allowed", "unsupported method"),
    }
}

fn not_found(stream: &mut TcpStream) -> io::Result<()> {
    error_response(stream, 404, "Not Found", "no such resource")
}

fn error_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    message: &str,
) -> io::Result<()> {
    let body = json_body(vec![("error", Json::Str(message.into()))]);
    write_response(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    )
}

/// Renders `(key, value)` fields as a one-line JSON object body.
fn json_body(fields: Vec<(&str, Json)>) -> String {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    format!("{}\n", Json::Obj(fields.collect()).compact())
}

/// Sheds one submission: `429` (queue full) or `503` (draining), both
/// with the advisory `Retry-After` the client retry layer honors.
fn shed_response(
    state: &Arc<State>,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    message: &str,
) -> io::Result<()> {
    state.stats.shed.fetch_add(1, Ordering::Relaxed);
    let retry_after = state.retry_after_secs.to_string();
    let body = json_body(vec![("error", Json::Str(message.into()))]);
    write_response(
        stream,
        status,
        reason,
        "application/json",
        &[("Retry-After", &retry_after)],
        body.as_bytes(),
    )
}

fn get_presets(stream: &mut TcpStream) -> io::Result<()> {
    let entries = registry::catalog()
        .into_iter()
        .map(|(name, kind, axis, points, title)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name)),
                ("kind".into(), Json::Str(kind.into())),
                ("axis".into(), Json::Str(axis.into())),
                ("points".into(), u64_json(points as u64)),
                ("title".into(), Json::Str(title)),
            ])
        })
        .collect();
    let body = format!("{}\n", Json::Arr(entries).compact());
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

fn get_stats(state: &Arc<State>, stream: &mut TcpStream) -> io::Result<()> {
    let t = state.batch_telemetry.snapshot();
    let load = |counter: &AtomicU64| u64_json(counter.load(Ordering::Relaxed));
    let body = json_body(vec![
        ("campaigns_run", load(&state.stats.campaigns_run)),
        ("cache_hits", load(&state.stats.cache_hits)),
        ("trials_executed", load(&state.stats.trials_executed)),
        ("shed", load(&state.stats.shed)),
        ("bad_requests", load(&state.stats.bad_requests)),
        ("lanes", u64_json(t.lanes)),
        ("evicted", u64_json(t.evicted)),
        ("bailed", u64_json(t.bailed)),
        ("clean_replays", u64_json(t.clean_replays)),
        ("traces_recorded", u64_json(t.traces_recorded)),
        ("eviction_rate", Json::Num(t.eviction_rate())),
        ("bailout_rate", Json::Num(t.bailout_rate())),
        ("shards_done", load(&state.shard_counters.done)),
    ]);
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

/// Liveness + readiness: the CI smoke polls this before the first POST,
/// operators watch `queue_depth` for backpressure, and a sharding
/// coordinator reports its worker topology and shard lifecycle here.
fn get_healthz(state: &Arc<State>, stream: &mut TcpStream) -> io::Result<()> {
    let status = if state.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    let campaigns = state.campaigns.lock().expect("campaign map lock").len();
    let alive = state
        .remote
        .iter()
        .filter(|slot| slot.alive.load(Ordering::Relaxed))
        .count();
    let load = |counter: &AtomicU64| u64_json(counter.load(Ordering::SeqCst));
    let body = json_body(vec![
        ("status", Json::Str(status.into())),
        ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
        ("workers", u64_json(state.workers as u64)),
        ("queue_depth", load(&state.queued)),
        ("queue_capacity", u64_json(state.queue_capacity as u64)),
        ("running", load(&state.running)),
        ("campaigns", u64_json(campaigns as u64)),
        ("trials_executed", load(&state.stats.trials_executed)),
        ("shards_configured", u64_json(state.shards as u64)),
        ("shards_queued", load(&state.shard_counters.queued)),
        ("shards_running", load(&state.shard_counters.running)),
        ("shards_done", load(&state.shard_counters.done)),
        (
            "shard_workers_configured",
            u64_json(state.remote.len() as u64),
        ),
        ("shard_workers_alive", u64_json(alive as u64)),
    ]);
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

/// Drains the service: stops admitting campaigns, fires every in-flight
/// [`CancelToken`], drops queued jobs, and waits (bounded) for workers to
/// go idle. With `exit` the accept loop is shut down afterwards — the
/// graceful end of the process.
fn post_drain(state: &Arc<State>, stream: &mut TcpStream, exit: bool) -> io::Result<()> {
    state.draining.store(true, Ordering::SeqCst);
    let cancelled = {
        let active = state.active.lock().expect("active map lock");
        for token in active.values() {
            token.cancel();
        }
        active.len()
    };
    state.notify();

    // Bounded wait for in-flight work to stop (cancellation is polled
    // between grid points, so this is quick in practice).
    let deadline = Instant::now() + DRAIN_GRACE;
    let mut seen = state.progress.generation();
    while state.in_flight() > 0 && Instant::now() < deadline {
        state.progress.wait_newer(&mut seen, FOLLOW_POLL);
    }
    let idle = state.in_flight() == 0;

    // Respond before releasing the accept loop: once `run` returns the
    // process may exit, and this handler thread must not be killed with
    // the response still unsent.
    let body = json_body(vec![
        ("status", Json::Str("draining".into())),
        ("cancelled", u64_json(cancelled as u64)),
        ("idle", Json::Bool(idle)),
        ("exiting", Json::Bool(exit && idle)),
    ]);
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())?;

    if exit && idle {
        state.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(state.bound_addr);
    }
    Ok(())
}

fn get_status(state: &Arc<State>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    let info = state
        .campaigns
        .lock()
        .expect("campaign map lock")
        .get(id)
        .cloned();
    let Some(info) = info else {
        return not_found(stream);
    };
    let rows = state.store.existing_row_count(id).unwrap_or(0);
    let mut fields = vec![
        ("id", Json::Str(id.into())),
        ("status", Json::Str(info.status.token().into())),
        ("rows", u64_json(rows as u64)),
        ("spec_hash", Json::Str(spec_hash(&info.spec))),
        ("seed", u64_json(info.spec.seed)),
        ("trials_total", u64_json(info.spec.flatten().len() as u64)),
    ];
    if let Status::Failed(message) = &info.status {
        fields.push(("error", Json::Str(message.clone())));
    }
    let body = json_body(fields);
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

fn get_rows(state: &Arc<State>, stream: TcpStream, id: &str) -> io::Result<()> {
    if state.status_of(id).is_none() && !state.store.rows_path(id).exists() {
        let mut stream = stream;
        return not_found(&mut stream);
    }
    stream_rows(state, stream, id, "follow")
}

fn post_campaign(
    state: &Arc<State>,
    stream: TcpStream,
    request: &Request,
    direct: bool,
) -> io::Result<()> {
    let mut stream = stream;
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(&mut stream, 400, "Bad Request", "spec body is not UTF-8"),
    };
    let sc = match Scenario::from_json(text) {
        Ok(sc) => sc,
        Err(e) => return error_response(&mut stream, 400, "Bad Request", &e.to_string()),
    };
    if let Err(e) = sc.validate() {
        return error_response(&mut stream, 400, "Bad Request", &e.to_string());
    }
    // Sink negotiation shares the CLI's `--sink` grammar; the service
    // streams jsonl and owns artifact placement, so only a bare `jsonl`
    // (the default) is accepted.
    if let Some(token) = request.query_param("sink") {
        let negotiated = match SinkSpec::parse(token) {
            Ok(spec) => spec,
            Err(e) => return error_response(&mut stream, 400, "Bad Request", &e.to_string()),
        };
        if negotiated.format != SinkFormat::Jsonl || negotiated.out.is_some() {
            return error_response(
                &mut stream,
                400,
                "Bad Request",
                "the campaign service streams jsonl rows and owns artifact placement; use sink=jsonl",
            );
        }
    }
    if state.draining.load(Ordering::SeqCst) {
        return shed_response(
            state,
            &mut stream,
            503,
            "Service Unavailable",
            "service is draining; retry against another instance or after restart",
        );
    }

    let id = campaign_id(&sc);
    enum Admission {
        Stream(&'static str),
        Full,
    }
    let admission = {
        let mut campaigns = state.campaigns.lock().expect("campaign map lock");
        match campaigns.get(&id).map(|info| info.status.clone()) {
            Some(Status::Complete) => Admission::Stream("hit"),
            Some(Status::Failed(_)) | Some(Status::Cancelled) | None
                if state.store.is_complete(&id) =>
            {
                campaigns.insert(
                    id.clone(),
                    CampaignInfo {
                        spec: sc.clone(),
                        status: Status::Complete,
                    },
                );
                Admission::Stream("hit")
            }
            Some(Status::Queued) | Some(Status::Running) => Admission::Stream("join"),
            // Unknown or previously failed/cancelled: (re-)enqueue. The
            // whole units already on disk from an interrupted run are kept
            // and only the rest runs. Admission is bounded: no free queue
            // slot means shed.
            _ => {
                if !state.try_reserve_queue_slot() {
                    Admission::Full
                } else {
                    if let Err(e) = state.store.begin(&id, &sc) {
                        state.queued.fetch_sub(1, Ordering::SeqCst);
                        return Err(e);
                    }
                    campaigns.insert(
                        id.clone(),
                        CampaignInfo {
                            spec: sc.clone(),
                            status: Status::Queued,
                        },
                    );
                    state
                        .jobs
                        .send(Job {
                            id: id.clone(),
                            spec: sc,
                            direct,
                        })
                        .expect("worker pool outlives the listener");
                    Admission::Stream("miss")
                }
            }
        }
    };
    match admission {
        Admission::Full => shed_response(
            state,
            &mut stream,
            429,
            "Too Many Requests",
            "campaign queue is full; backpressure — retry after the interval",
        ),
        Admission::Stream(cache) => {
            if cache == "hit" {
                state.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            stream_rows(state, stream, &id, cache)
        }
    }
}

/// Opens a chunked `application/x-ndjson` response for the row artifact
/// of `id` and hands the connection to the follower poller, which streams
/// the file as workers append until the campaign completes (or fails or
/// is cancelled, in which case the stream ends at the last persisted row
/// and the status endpoint carries the detail).
///
/// The handler thread only writes the (tiny) response head; everything
/// after that is the poller's non-blocking business, so a follower never
/// pins a thread.
fn stream_rows(state: &Arc<State>, stream: TcpStream, id: &str, cache: &str) -> io::Result<()> {
    let mut stream = stream;
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\nX-Campaign-Id: {id}\r\nX-Dream-Cache: {cache}\r\n\r\n"
    );
    RESPONDED.set(true);
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    stream.set_nonblocking(true)?;
    state
        .followers
        .send(Follower {
            stream,
            id: id.to_string(),
            offset: 0,
            pending: Vec::new(),
            sent: 0,
            finished: false,
            stalled_since: None,
        })
        .expect("poller outlives the listener");
    // Make sure the poller ships whatever is already on disk promptly.
    state.notify();
    Ok(())
}

/// The follower poller: owns every streaming connection as a non-blocking
/// socket, woken by engine progress notifications (with [`FOLLOW_POLL`]
/// as backstop). Each pass frames fresh artifact bytes into per-follower
/// buffers and pumps them; `WouldBlock` retries next pass, and a stall
/// past the write timeout sheds the follower.
fn poller_loop(state: &Arc<State>, incoming: &mpsc::Receiver<Follower>) {
    let mut followers: Vec<Follower> = Vec::new();
    let mut seen = 0u64;
    loop {
        // A notification sent while the previous pass ran has already
        // bumped the generation, so this returns at once instead of
        // sleeping out the backstop.
        state.progress.wait_newer(&mut seen, FOLLOW_POLL);
        loop {
            match incoming.try_recv() {
                Ok(follower) => followers.push(follower),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    if followers.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }
        followers.retain_mut(|follower| pump_follower(state, follower));
    }
}

/// A progress notification counter: [`Progress::notify`] bumps a
/// generation under the lock, and a waiter sleeps only while the
/// generation still equals the last one it saw. A notification that
/// lands while the waiter is busy is therefore never lost — a bare
/// condvar wait would miss it and sleep out the timeout.
#[derive(Default)]
struct Progress {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    fn notify(&self) {
        let mut generation = self.generation.lock().expect("progress lock");
        *generation += 1;
        self.changed.notify_all();
    }

    fn generation(&self) -> u64 {
        *self.generation.lock().expect("progress lock")
    }

    /// Waits up to `timeout` for a generation newer than `*seen`, then
    /// records the current one in `*seen`. Returns whether a newer
    /// generation was seen (`false` on timeout).
    fn wait_newer(&self, seen: &mut u64, timeout: Duration) -> bool {
        let generation = self.generation.lock().expect("progress lock");
        let (generation, _) = self
            .changed
            .wait_timeout_while(generation, timeout, |g| *g == *seen)
            .expect("progress lock");
        let newer = *generation != *seen;
        *seen = *generation;
        newer
    }
}

/// Advances one follower as far as the artifact and the socket allow.
/// Returns `false` when the connection is finished, dead, or shed.
fn pump_follower(state: &Arc<State>, f: &mut Follower) -> bool {
    loop {
        // Drain the framed bytes first.
        while f.sent < f.pending.len() {
            match f.stream.write(&f.pending[f.sent..]) {
                Ok(0) => return false,
                Ok(n) => {
                    f.sent += n;
                    f.stalled_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *f.stalled_since.get_or_insert_with(Instant::now);
                    // Shed a consumer whose TCP window stayed shut past
                    // the write timeout — the slow-follower guard.
                    return since.elapsed() <= state.write_timeout;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        f.pending.clear();
        f.sent = 0;
        if f.finished {
            let _ = f.stream.flush();
            return false;
        }

        // Status first, bytes second: when the status already says
        // "done", every row was on disk before we read (the worker marks
        // completion after its sink finished), so the read below cannot
        // miss a tail.
        let status = state.status_of(&f.id);
        let done = !matches!(status, Some(Status::Queued) | Some(Status::Running));

        let mut framed = false;
        match std::fs::File::open(state.store.rows_path(&f.id)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => return false,
            Ok(mut file) => {
                if file.seek(SeekFrom::Start(f.offset)).is_err() {
                    return false;
                }
                let mut fresh = Vec::new();
                if file.take(FILL_CAP as u64).read_to_end(&mut fresh).is_err() {
                    return false;
                }
                // Only ship whole rows: a concurrent append can land
                // between the worker's write syscalls.
                let boundary = fresh.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                if boundary > 0 {
                    frame_chunk(&mut f.pending, &fresh[..boundary]);
                    f.offset += boundary as u64;
                    framed = true;
                }
            }
        }
        if !framed {
            if done {
                f.pending.extend_from_slice(b"0\r\n\r\n");
                f.finished = true;
                continue;
            }
            // Idle: nothing new on disk — wait for the next notification.
            return true;
        }
        // Freshly framed bytes: loop back and pump them out.
    }
}

/// Frames `data` as one HTTP chunk into `out` (the buffered counterpart
/// of [`crate::http::ChunkedBody::chunk`]).
fn frame_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_notify_during_the_pollers_pass_wakes_its_next_wait() {
        let progress = Progress::default();
        let mut seen = 0u64;
        // Idle: nothing newer, so the wait times out.
        assert!(!progress.wait_newer(&mut seen, Duration::from_millis(1)));
        // The poller starts a pass; a worker notifies before the pass
        // ends and the poller waits again.
        progress.notify();
        let started = Instant::now();
        assert!(progress.wait_newer(&mut seen, Duration::from_secs(30)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the mid-pass notification was lost"
        );
        assert_eq!(seen, 1);
        // Consumed: the next wait sleeps again until a new notification.
        assert!(!progress.wait_newer(&mut seen, Duration::from_millis(1)));
    }
}
