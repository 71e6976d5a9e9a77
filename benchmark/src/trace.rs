//! Traced mode: per-layer metrics from spans recorded in the benchmark's
//! own code around the public calls each layer makes.
//!
//! * **Engine** — the workload's engine campaigns are re-run by
//!   [`crate::mirror`] at 1 thread, alternating with the real
//!   `CampaignRunner` run; the mirror's rows must match the real bytes and
//!   its work counts the engine's telemetry (`trace.counts_match`).
//!   `trace.overhead_s` is the traced re-run's best wall time minus the
//!   untraced run's. `exec.*` come from `CampaignRunner::on_progress`
//!   timestamps of the real 2-thread run.
//! * **Service** — one topology per repetition on a copy of the
//!   pre-filled store, driven by a raw HTTP client that timestamps each
//!   request's phases; `/stats` deltas count the service's work.
//! * **Shards** — the workload's first engine campaign is planned with
//!   `ShardPlan`, fetched once through a coordinator and once shard by
//!   shard directly from fresh workers (`POST /shards`).
//!
//! Layers a workload never enters report 0.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

use dream_serve::http::client_request;
use dream_serve::{campaign_id, fetch_rows};
use dream_sim::scenario::json::Json;
use dream_sim::scenario::ShardPlan;

use crate::mirror::{self, Ledger};
use crate::service::{self, Topology};
use crate::stats::{median, Series};
use crate::workloads::{self, Checks, Plan, Timings, Value};

/// Share of `--seconds` spent on the engine layers; the rest goes to the
/// service and shard probes.
const ENGINE_SHARE: f64 = 0.6;
/// Service-probe repetitions (the one with the least wall time reports).
const SERVICE_REPS: usize = 3;

type Metrics = BTreeMap<&'static str, Value>;

pub fn run(workload: &str, seed: u64, seconds: f64) -> Option<(Checks, Metrics)> {
    let plan = workloads::plan(workload, seed)?;
    let mut checks = Checks::default();
    let mut m = Metrics::new();
    let started = Instant::now();
    engine_layers(&plan, seconds * ENGINE_SHARE, started, &mut checks, &mut m);

    let dir = workloads::work_dir();
    let template = dir.join("template").join("front");
    let expected = workloads::expected_bytes(&plan, &mut checks);
    match service::prefill(&dir.join("template"), &plan.template) {
        Ok(()) => {
            service_layers(&plan, &template, &dir, &expected, &mut checks, &mut m);
            shard_layers(&plan, &template, &dir, &mut checks, &mut m);
        }
        Err(e) => checks.op(Some(format!("pre-filling the store: {e}"))),
    }
    workloads::remove_work_dir(&dir);
    Some((checks, m))
}

fn put(m: &mut Metrics, name: &'static str, value: f64) {
    m.insert(name, Value::single(value));
}

fn engine_layers(plan: &Plan, budget: f64, started: Instant, checks: &mut Checks, m: &mut Metrics) {
    let mut untraced = Series::default();
    let mut traced = Series::default();
    let mut best: Option<Ledger> = None;
    let mut counts_match = true;
    loop {
        let mut rep = Ledger::default();
        let mut real_total = 0.0;
        for sc in &plan.engine {
            let real = match workloads::run_offline(sc, 1) {
                Ok(real) => real,
                Err(e) => {
                    checks.op(Some(format!("{}: {e}", campaign_id(sc))));
                    return;
                }
            };
            let problem = checks.digest(sc, &real.bytes, "untraced run");
            checks.op(problem);
            real_total += real.secs;
            match mirror::run(sc) {
                Some(Ok((bytes, ledger))) => {
                    let problem = checks.digest(sc, &bytes, "traced re-run");
                    checks.op(problem);
                    if ledger.telemetry() != real.telemetry {
                        counts_match = false;
                        checks.fail(format!(
                            "{}: traced counts {:?} differ from the engine's telemetry {:?}",
                            campaign_id(sc),
                            ledger.telemetry(),
                            real.telemetry
                        ));
                    }
                    rep.add(&ledger);
                }
                Some(Err(e)) => checks.op(Some(format!("traced re-run: {e}"))),
                None => checks.op(Some(format!(
                    "{}: the traced re-run covers batched injection and voltage sweeps only",
                    campaign_id(sc)
                ))),
            }
        }
        untraced.push(real_total);
        traced.push(rep.total_s);
        if best.as_ref().is_none_or(|b| rep.total_s < b.total_s) {
            best = Some(rep);
        }
        if started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let l = best.unwrap_or_default();
    for (name, value) in [
        ("ecg.synth_s", l.synth_s),
        ("dsp.reference_s", l.reference_s),
        ("sim.clean_record_s", l.clean_record_s),
        ("sim.traces", l.traces as f64),
        ("mem.fault_arm_s", l.fault_arm_s),
        ("mem.fault_maps", l.fault_maps as f64),
        ("mem.plane_build_s", l.plane_build_s),
        ("mem.lanes", l.lanes as f64),
        ("sim.replay_s", l.replay_s),
        ("sim.replays", l.replays as f64),
        ("sim.trace_events", l.trace_events as f64),
        ("sim.scalar_replay_s", l.scalar_replay_s),
        ("sim.evicted", l.evicted as f64),
        ("sim.bailed", l.bailed as f64),
        ("sim.reduce_s", l.reduce_s),
        ("report.render_s", l.render_s),
        ("report.bytes", l.bytes as f64),
        ("trace.overhead_s", traced.best() - untraced.best()),
        ("trace.counts_match", if counts_match { 1.0 } else { 0.0 }),
    ] {
        put(m, name, value);
    }
    let survival = if l.lanes == 0 {
        0.0
    } else {
        (l.lanes - l.evicted - l.bailed) as f64 / l.lanes as f64
    };
    put(m, "sim.batch_survival", survival);

    // Grid-point timing of the real 2-thread run (best of two).
    let mut parallel = Series::default();
    let mut points_of_best: Vec<f64> = Vec::new();
    for _ in 0..2 {
        let mut total = 0.0;
        let mut points = Vec::new();
        for sc in &plan.engine {
            match workloads::run_offline(sc, 2) {
                Ok(run) => {
                    let problem = checks.digest(sc, &run.bytes, "2-thread run");
                    checks.op(problem);
                    total += run.secs;
                    // Grid points only: the last unit is the tail after the
                    // final point.
                    points.extend(&run.units[..run.units.len() - 1]);
                }
                Err(e) => {
                    checks.op(Some(format!("{}: {e}", campaign_id(sc))));
                    return;
                }
            }
        }
        if parallel.len() == 0 || total < parallel.best() {
            points_of_best = points;
        }
        parallel.push(total);
    }
    let max = points_of_best.iter().copied().fold(0.0, f64::max);
    put(m, "exec.point_s.max", max);
    put(m, "exec.point_skew", max / median(&points_of_best));
    put(
        m,
        "exec.parallel_efficiency",
        untraced.best() / (2.0 * parallel.best()),
    );
}

/// One request's phases, timestamped by a raw HTTP/1.1 client.
struct Phases {
    status: u16,
    cache: Option<String>,
    body: Vec<u8>,
    /// Request written → response head read.
    admit_s: f64,
    /// Head → first row byte.
    first_row_s: f64,
    /// First row byte → last row byte.
    stream_s: f64,
}

fn raw_post(addr: &str, target: &str, body: &str) -> io::Result<Phases> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let written = Instant::now();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut cache = None;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("EOF in response head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-dream-cache" => cache = Some(value.trim().to_string()),
                "transfer-encoding" => chunked = value.trim().eq_ignore_ascii_case("chunked"),
                _ => {}
            }
        }
    }
    let head = Instant::now();
    let mut body = Vec::new();
    let mut first = None;
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| io::Error::other(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                break;
            }
            first.get_or_insert_with(Instant::now);
            let start = body.len();
            body.resize(start + size, 0);
            reader.read_exact(&mut body[start..])?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    } else {
        reader.read_to_end(&mut body)?;
    }
    let end = Instant::now();
    let first = first.unwrap_or(end);
    Ok(Phases {
        status,
        cache,
        body,
        admit_s: head.duration_since(written).as_secs_f64(),
        first_row_s: first.duration_since(head).as_secs_f64(),
        stream_s: end.duration_since(first).as_secs_f64(),
    })
}

/// Per-request phase totals of one service repetition.
#[derive(Default)]
struct ServiceRep {
    wall_s: f64,
    bind_s: f64,
    verified: f64,
    requests: f64,
    admit_s: f64,
    first_row_s: f64,
    stream_s: f64,
    bytes: f64,
    hit_stalls: f64,
}

fn service_layers(
    plan: &Plan,
    template: &Path,
    dir: &Path,
    expected: &BTreeMap<String, Vec<u8>>,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let mut best: Option<ServiceRep> = None;
    let mut stats = service::ServeStats::default();
    for _ in 0..SERVICE_REPS {
        let started = Instant::now();
        let (topology, bind_s) = match Topology::start(template, &dir.join("traced"), false) {
            Ok(t) => t,
            Err(e) => {
                checks.op(Some(format!("binding the service: {e}")));
                return;
            }
        };
        checks.op(None);
        let mut rep = ServiceRep {
            bind_s,
            ..ServiceRep::default()
        };
        let addr = topology.front.clone();
        rep.verified = client_request(&addr, "GET", "/healthz", b"")
            .ok()
            .and_then(|r| Json::parse(&String::from_utf8_lossy(&r.body)).ok())
            .and_then(|doc| doc.get("campaigns").and_then(Json::as_f64))
            .unwrap_or(0.0);
        let before = topology.stats();
        for (i, cold) in plan.cold.iter().enumerate() {
            let requests = std::iter::once((cold, "miss"))
                .chain(workloads::hits_after_cold(plan, i).map(|sc| (sc, "hit")));
            for (sc, verdict) in requests {
                let id = campaign_id(sc);
                let problem = match raw_post(&addr, "/campaigns", &sc.to_json()) {
                    Err(e) => Some(format!("POST {id}: {e}")),
                    Ok(p) if p.status != 200 => Some(format!("POST {id}: HTTP {}", p.status)),
                    Ok(p) if p.cache.as_deref() != Some(verdict) => Some(format!(
                        "POST {id}: X-Dream-Cache {:?}, expected {verdict}",
                        p.cache
                    )),
                    Ok(p) if expected.get(&id) != Some(&p.body) => Some(format!(
                        "POST {id}: served rows differ from the offline run"
                    )),
                    Ok(p) => {
                        let wall = p.admit_s + p.first_row_s + p.stream_s;
                        if verdict == "hit" && wall > workloads::STALL_S {
                            rep.hit_stalls += 1.0;
                        }
                        rep.requests += 1.0;
                        rep.admit_s += p.admit_s;
                        rep.first_row_s += p.first_row_s;
                        rep.stream_s += p.stream_s;
                        rep.bytes += p.body.len() as f64;
                        None
                    }
                };
                checks.op(problem);
            }
        }
        match (before, topology.stats()) {
            (Ok(before), Ok(after)) => {
                let delta = after.since(before);
                workloads::record_stats(checks, "serve", delta);
                stats = delta;
            }
            (Err(e), _) | (_, Err(e)) => checks.fail(format!("GET /stats: {e}")),
        }
        if let Err(e) = topology.stop() {
            checks.fail(format!("stopping the service: {e}"));
        }
        rep.wall_s = started.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|b| rep.wall_s < b.wall_s) {
            best = Some(rep);
        }
    }
    // The retrying client's view: one untraced repetition.
    let mut timings = Timings::default();
    workloads::service_rep(
        plan,
        template,
        &dir.join("client"),
        expected,
        &mut timings,
        checks,
    );
    let rep = best.unwrap_or_default();
    let per_request = |total: f64| {
        if rep.requests > 0.0 {
            total / rep.requests
        } else {
            0.0
        }
    };
    for (name, value) in [
        ("serve.bind_s", rep.bind_s),
        ("serve.artifacts_verified", rep.verified),
        ("serve.admit_s", per_request(rep.admit_s)),
        ("serve.first_row_s", per_request(rep.first_row_s)),
        ("serve.stream_s", per_request(rep.stream_s)),
        ("serve.bytes", rep.bytes),
        ("serve.hit_stalls", rep.hit_stalls),
        ("serve.trials_executed", stats.trials_executed as f64),
        ("serve.cache_hits", stats.cache_hits as f64),
        ("serve.shed", stats.shed as f64),
        ("serve.bad_requests", stats.bad_requests as f64),
        ("client.retries", checks.retries as f64),
        ("client.throttled", checks.throttled as f64),
    ] {
        put(m, name, value);
    }
}

/// Shards the workload's first engine campaign (K = 2): its rows, through
/// the coordinator and concatenated shard by shard, must hash as the
/// engine runs' did.
fn shard_layers(plan: &Plan, template: &Path, dir: &Path, checks: &mut Checks, m: &mut Metrics) {
    let sc = &plan.engine[0];
    let id = campaign_id(sc);
    // Planning takes about a microsecond: time a block of calls.
    const PLANS: u32 = 1000;
    let started = Instant::now();
    let mut shard_plan = ShardPlan::new(sc, 2);
    for _ in 1..PLANS {
        shard_plan = std::hint::black_box(ShardPlan::new(std::hint::black_box(sc), 2));
    }
    put(
        m,
        "shard.plan_s",
        started.elapsed().as_secs_f64() / f64::from(PLANS),
    );
    let shard_plan = match shard_plan {
        Ok(p) => p,
        Err(e) => {
            checks.op(Some(format!("ShardPlan::new({id}): {e}")));
            return;
        }
    };
    // Through the coordinator, on fresh workers.
    let miss_s = match Topology::start(template, &dir.join("coordinator"), true) {
        Ok((topology, _)) => {
            let fetched = service::timed_fetch(&topology.front, &sc.to_json());
            if let Err(e) = topology.stop() {
                checks.fail(format!("stopping the sharded service: {e}"));
            }
            match fetched {
                Ok(f) => {
                    let problem = checks.digest(sc, &f.bytes, "sharded POST");
                    let ok = problem.is_none();
                    checks.op(problem);
                    if !ok {
                        return;
                    }
                    f.total_s
                }
                Err(e) => {
                    checks.op(Some(format!("sharded POST {id}: {e}")));
                    return;
                }
            }
        }
        Err(e) => {
            checks.op(Some(format!("binding the sharded service: {e}")));
            return;
        }
    };
    // Shard by shard, straight from fresh workers, concurrently as the
    // coordinator fetches them.
    let (topology, _) = match Topology::start(template, &dir.join("direct"), true) {
        Ok(t) => t,
        Err(e) => {
            checks.op(Some(format!("binding the shard workers: {e}")));
            return;
        }
    };
    let workers = topology.workers.clone();
    let fetched: Vec<io::Result<(Vec<u8>, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = shard_plan
            .shards()
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let worker = &workers[i % workers.len()];
                s.spawn(move || {
                    let mut rows = Vec::new();
                    let started = Instant::now();
                    fetch_rows(
                        worker,
                        "/shards",
                        &shard.spec.to_json(),
                        &mut rows,
                        &service::policy(),
                    )
                    .map(|_| (rows, started.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard fetch thread panicked"))
            .collect()
    });
    if let Err(e) = topology.stop() {
        checks.fail(format!("stopping the shard workers: {e}"));
    }
    let mut assembled = Vec::new();
    let mut times = Vec::new();
    for result in fetched {
        match result {
            Ok((rows, secs)) => {
                assembled.extend(rows);
                times.push(secs);
            }
            Err(e) => {
                checks.op(Some(format!("POST /shards for {id}: {e}")));
                return;
            }
        }
    }
    let problem = checks.digest(sc, &assembled, "shards concatenated in plan order");
    checks.op(problem);
    let max = times.iter().copied().fold(0.0, f64::max);
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    put(m, "shard.fetch_s.max", max);
    put(m, "shard.skew", max / min);
    put(m, "shard.overhead_s", miss_s - max);
}
