//! The four workloads and their untraced, end-to-end measurement.
//!
//! Every workload has the same shape, so every end-to-end metric is
//! measured on every workload: an **engine phase** runs the workload's
//! campaigns in-process through `CampaignRunner` at 1 and 2 threads, and a
//! **service phase** binds a fresh copy of a pre-filled store, submits the
//! workload's cold specs, each followed by blocks of cache hits, through
//! the retrying client, and shuts the service down. One repetition runs the
//! engine phase once and the service phase `Plan::service_reps` times; a
//! run repeats for `--seconds` and reports the best repetition of each
//! identical unit of work (see `stats`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dream_serve::campaign_id;
use dream_serve::hash::sha256_hex;
use dream_sim::report::JsonlSink;
use dream_sim::scenario::{registry, CampaignRunner, EngineError, Scenario};
use dream_sim::telemetry::{self, BatchTelemetry};

use crate::service::{self, ServeStats, Topology};
use crate::stats::{median, Series, UnitSeries};

/// Seed offsets of the cold service specs, far from the template's.
const COLD_OFFSET: u64 = 100;
/// Cache hits per timed block (sub-millisecond replays are timed in
/// blocks, never one at a time).
const HITS_PER_BLOCK: usize = 4;
/// Hit blocks after each cold spec.
const BLOCKS_PER_COLD: usize = 4;
/// A replay slower than this waited out the service's follower-poll
/// backstop (25 ms) instead of being woken; such hits are counted.
pub const STALL_S: f64 = 0.010;
/// Repetitions a run makes even when `--seconds` has passed.
const MIN_REPS: usize = 3;
/// A run stops repeating after this long whatever `--seconds` says, so it
/// always ends within three minutes.
const MAX_RUN_S: f64 = 120.0;

/// `name` from the preset registry with its seed offset by the workload
/// seed plus `offset`.
pub fn preset(name: &str, smoke: bool, seed: u64, offset: u64) -> Scenario {
    let mut sc = registry::get(name, smoke).expect("registry preset exists");
    sc.seed = sc.seed.wrapping_add(seed).wrapping_add(offset);
    sc
}

/// What one workload runs.
pub struct Plan {
    /// Campaigns timed in-process at 1 and at 2 threads.
    pub engine: Vec<Scenario>,
    /// Cold specs each service repetition submits, interleaved with hit
    /// blocks.
    pub cold: Vec<Scenario>,
    /// Service repetitions per engine repetition: short service
    /// sequences repeat more often, so their best is taken over as many
    /// samples as the long engine campaigns allow.
    pub service_reps: usize,
    /// Completed artifacts of the pre-filled store, replayed as hits.
    pub template: Vec<Scenario>,
}

/// The plan of `workload` for workload seed `seed`.
pub fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let template = vec![
        preset("fig4", true, seed, 0),
        preset("fig2", true, seed, 0),
        preset("fig4", true, seed, 1),
        preset("fig2", true, seed, 1),
    ];
    let plan = match workload {
        "draw-sweep" => Plan {
            engine: vec![preset("fig4", false, seed, 0)],
            cold: vec![preset("fig4", true, seed, COLD_OFFSET)],
            service_reps: 4,
            template,
        },
        "injection-sweep" => Plan {
            engine: vec![preset("fig2", false, seed, 0)],
            cold: vec![preset("fig2", true, seed, COLD_OFFSET)],
            service_reps: 4,
            template,
        },
        "serve-mix" => {
            let cold: Vec<Scenario> = (0..4)
                .map(|i| preset("fig4", true, seed, COLD_OFFSET + i))
                .collect();
            Plan {
                engine: cold.clone(),
                cold,
                service_reps: 1,
                template,
            }
        }
        _ => return None,
    };
    Some(plan)
}

/// Total flattened trials of `specs`.
pub fn trials(specs: &[Scenario]) -> usize {
    specs.iter().map(|sc| sc.flatten().len()).sum()
}

/// One in-process campaign run.
pub struct OfflineRun {
    pub bytes: Vec<u8>,
    pub secs: f64,
    /// Duration of each emitted batch (one per grid point for the draw
    /// family, per (app, EMT) for injection), from the previous batch or
    /// the start; the last entry runs from the last batch to the end.
    pub units: Vec<f64>,
    pub telemetry: BatchTelemetry,
}

/// Runs `sc` through `CampaignRunner` at `threads` into a JSONL buffer.
pub fn run_offline(sc: &Scenario, threads: usize) -> Result<OfflineRun, EngineError> {
    let marks = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&marks);
    let runner = CampaignRunner::new(sc.clone())
        .threads(threads)
        .on_progress(move |_| {
            recorder
                .lock()
                .expect("progress marks lock")
                .push(Instant::now());
        });
    let mut sink = JsonlSink::new(Vec::new());
    let _ = telemetry::take();
    let started = Instant::now();
    runner.run(&mut sink)?;
    let ended = Instant::now();
    let telemetry = telemetry::take();
    let marks = marks.lock().expect("progress marks lock");
    let mut units = Vec::with_capacity(marks.len() + 1);
    let mut previous = started;
    for &t in marks.iter().chain([&ended]) {
        units.push(t.duration_since(previous).as_secs_f64());
        previous = t;
    }
    Ok(OfflineRun {
        bytes: sink.into_inner(),
        secs: ended.duration_since(started).as_secs_f64(),
        units,
        telemetry,
    })
}

/// The run's output checks: operations attempted and failed, the failure
/// messages, row digests that must agree everywhere they are observed,
/// and work counters that must repeat exactly.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Campaign id → SHA-256 of its JSONL rows.
    pub digests: BTreeMap<String, String>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Client retries (`FetchOutcome.attempts − 1`) and throttled
    /// attempts over the run's requests.
    pub retries: u64,
    pub throttled: u64,
}

impl Checks {
    /// Accounts one operation; a `Some` problem fails it.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks that `bytes` are the rows of `sc` everywhere they appear.
    pub fn digest(&mut self, sc: &Scenario, bytes: &[u8], what: &str) -> Option<String> {
        let id = campaign_id(sc);
        let digest = sha256_hex(bytes);
        match self.digests.get(&id) {
            Some(seen) if *seen != digest => Some(format!(
                "{what}: rows of {id} hash to {digest}, earlier {seen}"
            )),
            Some(_) => None,
            None => {
                self.digests.insert(id, digest);
                None
            }
        }
    }

    /// Checks that counter `name` repeats exactly.
    pub fn count(&mut self, name: String, value: u64) {
        match self.counters.get(&name) {
            Some(&seen) if seen != value => {
                self.fail(format!("counter {name} = {value}, earlier {seen}"));
            }
            Some(_) => {}
            None => {
                self.counters.insert(name, value);
            }
        }
    }

    /// Records a campaign's batched-executor counters.
    pub fn telemetry(&mut self, sc: &Scenario, t: &BatchTelemetry, rows: usize, bytes: usize) {
        let id = campaign_id(sc);
        for (name, value) in [
            ("lanes", t.lanes),
            ("evicted", t.evicted),
            ("bailed", t.bailed),
            ("clean_replays", t.clean_replays),
            ("traces_recorded", t.traces_recorded),
            ("rows", rows as u64),
            ("bytes", bytes as u64),
        ] {
            self.count(format!("{id}.{name}"), value);
        }
    }
}

/// Rows in a JSONL buffer.
pub fn rows(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The timing series of one run, one sample per repetition.
#[derive(Default)]
pub struct Timings {
    /// Engine phase at 1 thread: every engine campaign's grid points.
    pub serial: UnitSeries,
    /// Engine phase at 2 threads.
    pub parallel: UnitSeries,
    /// Mean cold POST → last row byte.
    pub miss: Series,
    /// Mean cold POST → first row byte.
    pub ttfr: Series,
    /// Mean cache-hit POST → last byte.
    pub hit: Series,
    /// Spec resolve/validate plus topology bind (median reported).
    pub setup: Series,
    /// Replays made, and those slower than [`STALL_S`].
    pub hits: u64,
    pub hit_stalls: u64,
    /// The largest `VmHWM` (MB): this process after the first
    /// repetition, and each service host at exit.
    pub peak_rss_mb: f64,
}

/// A finished untraced run.
pub struct E2e {
    pub plan: Plan,
    pub timings: Timings,
    pub checks: Checks,
}

/// Workspace directory for stores, under the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}

/// Removes [`work_dir`], and its parent once no other run uses it.
pub fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Computes the expected bytes of every cold and template spec offline
/// (untimed), checking them into `checks`.
pub fn expected_bytes(plan: &Plan, checks: &mut Checks) -> BTreeMap<String, Vec<u8>> {
    let mut expected = BTreeMap::new();
    for sc in plan.cold.iter().chain(&plan.template) {
        let id = campaign_id(sc);
        if expected.contains_key(&id) {
            continue;
        }
        match run_offline(sc, 1) {
            Ok(run) => {
                let problem = checks.digest(sc, &run.bytes, "offline reference");
                checks.op(problem);
                expected.insert(id, run.bytes);
            }
            Err(e) => checks.op(Some(format!("offline reference {id}: {e}"))),
        }
    }
    expected
}

/// Runs `workload` untraced for about `seconds`.
pub fn run_e2e(workload: &str, seed: u64, seconds: f64) -> Option<E2e> {
    let plan = plan(workload, seed)?;
    let mut checks = Checks::default();
    let mut timings = Timings::default();
    let dir = work_dir();
    let template = dir.join("template").join("front");
    let expected = expected_bytes(&plan, &mut checks);
    if let Err(e) = service::prefill(&dir.join("template"), &plan.template) {
        checks.op(Some(format!("pre-filling the store: {e}")));
        remove_work_dir(&dir);
        return Some(E2e {
            plan,
            timings,
            checks,
        });
    }
    let started = Instant::now();
    let mut reps = 0;
    loop {
        engine_rep(&plan, &mut timings, &mut checks);
        for _ in 0..plan.service_reps {
            service_rep(
                &plan,
                &template,
                &dir.join("rep"),
                &expected,
                &mut timings,
                &mut checks,
            );
        }
        if reps == 0 {
            timings.peak_rss_mb = timings.peak_rss_mb.max(service::peak_rss_mb());
        }
        reps += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if (elapsed >= seconds && reps >= MIN_REPS) || elapsed >= MAX_RUN_S {
            break;
        }
    }
    remove_work_dir(&dir);
    Some(E2e {
        plan,
        timings,
        checks,
    })
}

/// One engine-phase repetition: every engine campaign at 1 thread, then
/// at 2 threads.
fn engine_rep(plan: &Plan, timings: &mut Timings, checks: &mut Checks) {
    for threads in [1, 2] {
        let mut units = Vec::new();
        let mut ok = true;
        for sc in &plan.engine {
            match run_offline(sc, threads) {
                Ok(run) => {
                    units.extend(&run.units);
                    let problem = checks.digest(sc, &run.bytes, &format!("{threads}-thread run"));
                    ok &= problem.is_none();
                    checks.op(problem);
                    checks.telemetry(sc, &run.telemetry, rows(&run.bytes), run.bytes.len());
                }
                Err(e) => {
                    ok = false;
                    checks.op(Some(format!("{}: {e}", campaign_id(sc))));
                }
            }
        }
        if ok {
            match threads {
                1 => timings.serial.push(&units),
                _ => timings.parallel.push(&units),
            }
        }
    }
}

/// Resolves and validates every spec of `plan` — the program-side set-up
/// a client pays before its first request.
fn resolve_specs(plan: &Plan) -> bool {
    plan.engine
        .iter()
        .chain(&plan.cold)
        .chain(&plan.template)
        .all(|sc| Scenario::from_json(&sc.to_json()).is_ok_and(|r| r.validate().is_ok()))
}

/// One service-phase repetition on a fresh copy of the pre-filled store.
pub fn service_rep(
    plan: &Plan,
    template: &Path,
    dir: &Path,
    expected: &BTreeMap<String, Vec<u8>>,
    timings: &mut Timings,
    checks: &mut Checks,
) {
    let setup_started = Instant::now();
    let resolved = resolve_specs(plan);
    let resolve_s = setup_started.elapsed().as_secs_f64();
    let (topology, bind_s) = match Topology::start(template, dir, false) {
        Ok(t) if resolved => t,
        Ok((t, _)) => {
            let _ = t.stop();
            checks.op(Some("a plan spec failed to resolve".to_string()));
            return;
        }
        Err(e) => {
            checks.op(Some(format!("binding the service: {e}")));
            return;
        }
    };
    checks.op(None);
    let before = topology.stats();
    let mut miss = Vec::new();
    let mut ttfr = Vec::new();
    let mut hit = Vec::new();
    let mut ok = true;
    for (i, sc) in plan.cold.iter().enumerate() {
        ok &= submit(&topology.front, sc, "miss", expected, checks, |f| {
            miss.push(f.total_s);
            ttfr.push(f.first_row_s);
        });
        // Blocks of replays of the pre-filled artifacts, each timed as one.
        for b in 0..BLOCKS_PER_COLD {
            let block_started = Instant::now();
            for sc in hit_block(plan, i * BLOCKS_PER_COLD + b) {
                ok &= submit(&topology.front, sc, "hit", expected, checks, |f| {
                    if f.total_s > STALL_S {
                        timings.hit_stalls += 1;
                    }
                });
                timings.hits += 1;
            }
            hit.push(block_started.elapsed().as_secs_f64() / HITS_PER_BLOCK as f64);
        }
    }
    match (before, topology.stats()) {
        (Ok(before), Ok(after)) => record_stats(checks, "serve", after.since(before)),
        (Err(e), _) | (_, Err(e)) => checks.fail(format!("GET /stats: {e}")),
    }
    match topology.stop() {
        Ok(host_rss_mb) => timings.peak_rss_mb = timings.peak_rss_mb.max(host_rss_mb),
        Err(e) => checks.fail(format!("stopping the service: {e}")),
    }
    timings.setup.push(resolve_s + bind_s);
    if ok {
        timings.miss.push(mean(&miss));
        timings.ttfr.push(mean(&ttfr));
        for block in hit {
            timings.hit.push(block);
        }
    }
}

/// The replays that follow the `i`-th cold spec, block after block.
pub fn hits_after_cold(plan: &Plan, i: usize) -> impl Iterator<Item = &Scenario> {
    (0..BLOCKS_PER_COLD).flat_map(move |b| hit_block(plan, i * BLOCKS_PER_COLD + b))
}

/// The `i`-th block of replays: the pre-filled artifacts in turn.
fn hit_block(plan: &Plan, i: usize) -> impl Iterator<Item = &Scenario> {
    (0..HITS_PER_BLOCK).map(move |h| &plan.template[(i * HITS_PER_BLOCK + h) % plan.template.len()])
}

/// Records `/stats` deltas as counters that must repeat exactly.
pub fn record_stats(checks: &mut Checks, prefix: &str, d: ServeStats) {
    for (name, value) in [
        ("campaigns_run", d.campaigns_run),
        ("cache_hits", d.cache_hits),
        ("trials_executed", d.trials_executed),
        ("shed", d.shed),
        ("bad_requests", d.bad_requests),
    ] {
        checks.count(format!("{prefix}.{name}"), value);
    }
}

/// POSTs `sc` and checks the reply: expected bytes, the `X-Dream-Cache`
/// verdict `cache`, and no retries. Returns whether it passed.
fn submit(
    addr: &str,
    sc: &Scenario,
    cache: &str,
    expected: &BTreeMap<String, Vec<u8>>,
    checks: &mut Checks,
    on_ok: impl FnOnce(&service::Fetched),
) -> bool {
    let id = campaign_id(sc);
    let problem = match service::timed_fetch(addr, &sc.to_json()) {
        Err(e) => Some(format!("POST {id}: {e}")),
        Ok(f) => {
            checks.retries += u64::from(f.outcome.attempts.saturating_sub(1));
            checks.throttled += u64::from(f.outcome.throttled);
            let problem = if expected.get(&id).map(Vec::as_slice) != Some(f.bytes.as_slice()) {
                Some(format!(
                    "POST {id}: served rows differ from the offline run"
                ))
            } else if f.outcome.cache.as_deref() != Some(cache) {
                Some(format!(
                    "POST {id}: X-Dream-Cache {:?}, expected {cache}",
                    f.outcome.cache
                ))
            } else if f.outcome.attempts != 1 || f.outcome.throttled != 0 {
                Some(format!(
                    "POST {id}: {} attempts, {} throttled",
                    f.outcome.attempts, f.outcome.throttled
                ))
            } else {
                None
            };
            if problem.is_none() {
                on_ok(&f);
            }
            problem
        }
    };
    let ok = problem.is_none();
    checks.op(problem);
    ok
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A reported metric value with its diagnostics.
pub struct Value {
    pub value: f64,
    /// Repetitions, then the median and p90 repetition and
    /// `interference`, in the metric's own unit.
    pub series: Option<(usize, f64, f64, f64)>,
    /// Further ungated diagnostics.
    pub extra: Vec<(&'static str, f64)>,
}

impl Value {
    /// A figure with no repetition series.
    pub fn single(value: f64) -> Value {
        Value {
            value,
            series: None,
            extra: Vec::new(),
        }
    }

    /// `to_metric` of the best repetition of `s` (0 when nothing was
    /// timed — such a run also fails its checks).
    pub fn best_of(s: &Series, to_metric: impl Fn(f64) -> f64) -> Value {
        Value::from_best(s.best(), s, to_metric)
    }

    /// As [`Value::best_of`], for work made of units.
    pub fn best_of_units(u: &UnitSeries, to_metric: impl Fn(f64) -> f64) -> Value {
        Value::from_best(u.best(), u.totals(), to_metric)
    }

    fn from_best(best: f64, totals: &Series, to_metric: impl Fn(f64) -> f64) -> Value {
        if totals.len() == 0 {
            return Value::single(0.0);
        }
        let median = totals.median();
        Value {
            value: to_metric(best),
            series: Some((
                totals.len(),
                to_metric(median),
                to_metric(totals.p90()),
                median / best,
            )),
            extra: Vec::new(),
        }
    }
}

impl E2e {
    /// Every end-to-end metric of this run, by name.
    pub fn metrics(&self) -> BTreeMap<&'static str, Value> {
        let t = &self.timings;
        let engine_trials = trials(&self.plan.engine) as f64;
        let rate = |u: &UnitSeries, work: f64| Value::best_of_units(u, |secs| work / secs);
        let seconds = |s: &Series| Value::best_of(s, |secs| secs);
        let mut m = BTreeMap::new();
        m.insert("trials_per_s", rate(&t.parallel, engine_trials));
        m.insert("serial_trials_per_s", rate(&t.serial, engine_trials));
        m.insert("miss_s", seconds(&t.miss));
        m.insert("ttfr_s", seconds(&t.ttfr));
        let mut hit = seconds(&t.hit);
        hit.extra = vec![
            ("replays", t.hits as f64),
            ("replays_over_10ms", t.hit_stalls as f64),
        ];
        m.insert("hit_s", hit);
        // Set-up is reported as its median over the run's binds.
        let mut setup = Value::best_of(&t.setup, |secs| secs);
        if t.setup.len() > 0 {
            setup.value = median(t.setup.samples());
        }
        m.insert("setup_s", setup);
        m.insert("peak_rss_mb", Value::single(t.peak_rss_mb));
        m
    }
}
