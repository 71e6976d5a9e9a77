//! Campaign service topologies, hosted by child processes of the
//! benchmark, and a timing client — driven only through `dream_serve`'s
//! public API.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

use dream_serve::http::client_request;
use dream_serve::{fetch_campaign, FetchOutcome, RetryPolicy, ServeConfig, Server};
use dream_sim::scenario::json::Json;
use dream_sim::scenario::Scenario;

/// Binds a server on `127.0.0.1:0` over `store_dir` with `config`'s other
/// settings, starts its accept loop, and waits until `/healthz` answers.
/// Returns its address.
fn bind(mut config: ServeConfig, store_dir: &Path) -> io::Result<String> {
    config.addr = "127.0.0.1:0".to_string();
    config.store_dir = store_dir.to_path_buf();
    let addr = Server::bind(config)?.spawn().to_string();
    let health = client_request(&addr, "GET", "/healthz", b"")?;
    if health.status != 200 {
        return Err(io::Error::other(format!(
            "/healthz answered {}",
            health.status
        )));
    }
    Ok(addr)
}

/// The `/stats` counters a run checks and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub campaigns_run: u64,
    pub cache_hits: u64,
    pub trials_executed: u64,
    pub shed: u64,
    pub bad_requests: u64,
}

impl ServeStats {
    pub fn since(self, before: ServeStats) -> ServeStats {
        ServeStats {
            campaigns_run: self.campaigns_run - before.campaigns_run,
            cache_hits: self.cache_hits - before.cache_hits,
            trials_executed: self.trials_executed - before.trials_executed,
            shed: self.shed - before.shed,
            bad_requests: self.bad_requests - before.bad_requests,
        }
    }
}

/// A bound service, hosted by a child process of the benchmark: one plain
/// server, or a sharding coordinator over two shard workers in the same
/// child. A child process because a shut-down `Server` leaves its worker
/// and poller threads running; in the measuring process they would pile up
/// with every repetition and wake every 25 ms. The child ends, and takes
/// them along, when its standard input closes.
pub struct Topology {
    pub front: String,
    /// The shard workers' addresses (empty when unsharded).
    pub workers: Vec<String>,
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
}

impl Topology {
    /// Copies `template` (a pre-filled store) to `dir/front` and hosts the
    /// service on it. Returns the topology and the bind time measured in
    /// the host — from the first `Server::bind` until every `/healthz`
    /// answered. Neither the store copy nor the process start is timed.
    pub fn start(template: &Path, dir: &Path, sharded: bool) -> io::Result<(Topology, f64)> {
        let _ = fs::remove_dir_all(dir);
        copy_dir(template, &dir.join("front"))?;
        Topology::host(dir, sharded)
    }

    /// Hosts the service on the stores under `dir` (`front`, and
    /// `worker0`/`worker1` when sharded), as they are.
    fn host(dir: &Path, sharded: bool) -> io::Result<(Topology, f64)> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--host")
            .arg(dir)
            .args(["--sharded", if sharded { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut topology = Topology {
            front: String::new(),
            workers: Vec::new(),
            child: Some(child),
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        topology.stdout.read_line(&mut line)?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bind_s = match fields.as_slice() {
            ["ready", front, workers, bind_s] => {
                topology.front = (*front).to_string();
                topology.workers = workers
                    .split(',')
                    .filter(|w| *w != "-")
                    .map(str::to_string)
                    .collect();
                bind_s.parse().ok()
            }
            _ => None,
        };
        let bind_s =
            bind_s.ok_or_else(|| io::Error::other(format!("service host said {line:?}")))?;
        Ok((topology, bind_s))
    }

    /// `GET /stats` of the front server.
    pub fn stats(&self) -> io::Result<ServeStats> {
        let resp = client_request(&self.front, "GET", "/stats", b"")?;
        let text = String::from_utf8_lossy(&resp.body);
        let doc = Json::parse(&text).map_err(|e| io::Error::other(e.to_string()))?;
        let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(ServeStats {
            campaigns_run: field("campaigns_run"),
            cache_hits: field("cache_hits"),
            trials_executed: field("trials_executed"),
            shed: field("shed"),
            bad_requests: field("bad_requests"),
        })
    }

    /// Ends the host process and waits for it. Returns the host's peak
    /// resident set (`VmHWM`, MB).
    pub fn stop(mut self) -> io::Result<f64> {
        let mut child = self.child.take().expect("a running topology has its host");
        drop(child.stdin.take());
        let mut line = String::new();
        let read = self.stdout.read_line(&mut line);
        let status = child.wait()?;
        read?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "service host exited with {status}"
            )));
        }
        line.strip_prefix("rss ")
            .and_then(|mb| mb.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("service host said {line:?}")))
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The child side of [`Topology`]: binds the servers on the stores under
/// `dir`, reports `ready <front> <workers|-> <bind_s>`, serves until
/// standard input closes, then reports `rss <MB>` and exits.
pub fn host(dir: &Path, sharded: bool) -> ExitCode {
    let started = Instant::now();
    let bound = (|| -> io::Result<(String, Vec<String>)> {
        let mut workers = Vec::new();
        let mut config = ServeConfig::default();
        if sharded {
            for i in 0..2 {
                let worker = ServeConfig {
                    worker: true,
                    ..ServeConfig::default()
                };
                workers.push(bind(worker, &dir.join(format!("worker{i}")))?);
            }
            config.shards = 2;
            config.worker_addrs = workers.clone();
        }
        Ok((bind(config, &dir.join("front"))?, workers))
    })();
    let bind_s = started.elapsed().as_secs_f64();
    let (front, workers) = match bound {
        Ok(bound) => bound,
        Err(e) => {
            println!("error {e}");
            return ExitCode::FAILURE;
        }
    };
    let workers = if workers.is_empty() {
        "-".to_string()
    } else {
        workers.join(",")
    };
    println!("ready {front} {workers} {bind_s}");
    if io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    let _ = io::stdin().read_to_end(&mut Vec::new());
    println!("rss {}", peak_rss_mb());
    ExitCode::SUCCESS
}

/// Builds a pre-filled store at `dir/front`: hosts a server on it, submits
/// every spec once so the service itself writes the completed artifacts,
/// and stops it.
pub fn prefill(dir: &Path, specs: &[Scenario]) -> io::Result<()> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir.join("front"))?;
    let (topology, _) = Topology::host(dir, false)?;
    let result = specs.iter().try_for_each(|sc| {
        fetch_campaign(&topology.front, &sc.to_json(), &mut io::sink(), &policy()).map(|_| ())
    });
    topology.stop()?;
    result
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Recursive copy of a store directory.
pub fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// The client's retry policy: the library default. A retry still counts
/// as a failed operation in the benchmark.
pub fn policy() -> RetryPolicy {
    RetryPolicy::default()
}

/// One timed `POST /campaigns` through the retrying client.
pub struct Fetched {
    pub bytes: Vec<u8>,
    /// POST → last row byte.
    pub total_s: f64,
    /// POST → first complete row handed to the output.
    pub first_row_s: f64,
    pub outcome: FetchOutcome,
}

/// Records when the client first hands over row bytes.
struct FirstWrite {
    bytes: Vec<u8>,
    first: Option<Instant>,
}

impl Write for FirstWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.first.is_none() && !buf.is_empty() {
            self.first = Some(Instant::now());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// POSTs `spec_json` to `addr` and times it.
pub fn timed_fetch(addr: &str, spec_json: &str) -> io::Result<Fetched> {
    let mut out = FirstWrite {
        bytes: Vec::new(),
        first: None,
    };
    let started = Instant::now();
    let outcome = fetch_campaign(addr, spec_json, &mut out, &policy())?;
    let total = started.elapsed();
    let first = out.first.map_or(total, |t| t.duration_since(started));
    Ok(Fetched {
        bytes: out.bytes,
        total_s: total.as_secs_f64(),
        first_row_s: first.as_secs_f64(),
        outcome,
    })
}
