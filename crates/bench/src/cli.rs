//! The `dream` CLI: one front door for every campaign.
//!
//! ```text
//! dream list
//! dream run <scenario|spec.json> [--smoke] [--threads N] [--batch [on|off]] [--progress]
//!           [--sink table|csv:DIR|jsonl:DIR[,append]]
//!           [--window N] [--records N] [--trials N] [--runs N]
//!           [--seed N] [--tolerance DB] [--emt none|parity|dream|ecc]
//!           [--fault-model iid|burst[:LEN]|column[:WEIGHT]|bank-voltage[:AMP]]
//! dream spec <scenario|spec.json> [--smoke] [overrides…]
//! dream serve [--addr HOST:PORT] [--store DIR] [--workers N|HOST:PORT,…] [--threads N]
//!            [--queue N] [--timeout-ms N] [--deadline-ms N] [--retry-after SECS]
//!            [--shards K] [--worker]
//! dream fetch <scenario|spec.json> [--addr HOST:PORT] [--out FILE]
//!            [--retries N] [--smoke] [overrides…]
//! dream drain [--addr HOST:PORT] [--exit]
//! dream compare <a> <b> [--store DIR]
//! ```
//!
//! `run` resolves its target against the scenario registry first; a
//! target containing a path separator or ending in `.json` is read as a
//! spec file instead. Rows stream to the selected sink as grid points
//! complete; with a `DIR` sink they stream to
//! `DIR/<scenario>.<csv|jsonl|txt>` and an aligned table still prints to
//! stdout. `--sink` uses the same grammar as the campaign service's sink
//! negotiation ([`dream_sim::scenario::SinkSpec::parse`]); the retired
//! `--format`/`--out`/`--append` spellings panic with a pointer to it.
//!
//! `spec` prints the fully resolved scenario JSON — the exact payload to
//! `POST /campaigns` on a `dream serve` instance. `fetch` POSTs that
//! payload through the retrying client ([`dream_serve::client`]): it
//! backs off with jitter on transport faults, honors `Retry-After` when
//! the service sheds load, and resumes interrupted streams so the output
//! is the complete artifact. `drain` asks a running service to stop
//! admitting and cancel in-flight campaigns (`--exit` also terminates
//! the process once idle).
//!
//! `compare` diffs two row sets field by field — each argument is a
//! CSV/JSONL artifact path or, when no such file exists, a campaign id in
//! the artifact store (`--store DIR`, default `results/store`). The
//! process exits non-zero on any mismatch, so scripted equivalence checks
//! (batched vs scalar runs, resumed vs clean artifacts) can gate on it.

use std::io::{self, Write};
use std::path::PathBuf;

use dream_sim::exec::ExecConfig;
use dream_sim::report::{CsvSink, JsonlSink, TableSink};
use dream_sim::scenario::{
    emt_from_token, registry, CampaignRunner, FaultModelSpec, Scenario, ScenarioOutcome, ShardPlan,
    SinkFormat, SinkSpec,
};

use crate::Args;

/// Entry point of the `dream` binary: dispatches on the first positional
/// argument.
///
/// # Panics
///
/// Panics with a readable message on unknown subcommands, unknown
/// scenarios, malformed spec files, or I/O failures — the binary's error
/// reporting.
pub fn main_from_env() {
    let args = Args::from_env();
    match args.positional(0) {
        Some("list") => list(),
        Some("run") => {
            let target = args
                .positional(1)
                .unwrap_or_else(|| panic!("usage: dream run <scenario|spec.json> [flags]"));
            run(target, &args);
        }
        Some("spec") => {
            let target = args
                .positional(1)
                .unwrap_or_else(|| panic!("usage: dream spec <scenario|spec.json> [flags]"));
            reject_retired_sink_flags(&args, &["format", "out", "append"]);
            let mut sc = resolve(target, args.switch("smoke"));
            apply_overrides(&mut sc, &args);
            sc.validate()
                .unwrap_or_else(|e| panic!("scenario {}: {e}", sc.name));
            println!("{}", sc.to_json());
        }
        Some("serve") => serve(&args),
        Some("fetch") => {
            let target = args
                .positional(1)
                .unwrap_or_else(|| panic!("usage: dream fetch <scenario|spec.json> [flags]"));
            fetch(target, &args);
        }
        Some("drain") => drain(&args),
        Some("compare") => {
            let (Some(a), Some(b)) = (args.positional(1), args.positional(2)) else {
                panic!("usage: dream compare <a> <b> [--store DIR]")
            };
            compare(a, b, &args);
        }
        Some(other) => {
            panic!("unknown subcommand {other:?} (expected `list`, `run`, `spec`, `serve`, `fetch`, `drain`, or `compare`)")
        }
        None => {
            list();
            eprintln!("\nusage: dream run <scenario|spec.json> [--smoke] [--threads N] [--sink table|csv:DIR|jsonl:DIR[,append]]");
            eprintln!(
                "       dream spec <scenario|spec.json> [--smoke]   dream serve [--addr HOST:PORT]"
            );
            eprintln!(
                "       dream fetch <scenario|spec.json> [--addr HOST:PORT] [--out FILE]   dream drain [--exit]"
            );
            eprintln!("       dream compare <a> <b> [--store DIR]");
        }
    }
}

/// Submits a campaign through the retrying client and streams its rows
/// to stdout or `--out FILE`, surviving sheds and broken streams.
fn fetch(target: &str, args: &Args) {
    // `--out FILE` is fetch's own flag: the path of the fetched artifact.
    reject_retired_sink_flags(args, &["format", "append"]);
    let addr = args.value("addr").unwrap_or("127.0.0.1:7163").to_string();
    let mut sc = resolve(target, args.switch("smoke"));
    apply_overrides(&mut sc, args);
    sc.validate()
        .unwrap_or_else(|e| panic!("scenario {}: {e}", sc.name));
    let spec_json = sc.to_json();
    let policy = dream_serve::RetryPolicy {
        max_attempts: u32::try_from(args.number("retries", 8)).unwrap_or(8).max(1),
        ..dream_serve::RetryPolicy::default()
    };
    let outcome = match args.value("out") {
        Some(path) => {
            let mut file =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            let outcome = dream_serve::fetch_campaign(&addr, &spec_json, &mut file, &policy)
                .unwrap_or_else(|e| panic!("fetch {}: {e}", sc.name));
            eprintln!("wrote {path}");
            outcome
        }
        None => {
            let stdout = io::stdout();
            let mut lock = stdout.lock();
            dream_serve::fetch_campaign(&addr, &spec_json, &mut lock, &policy)
                .unwrap_or_else(|e| panic!("fetch {}: {e}", sc.name))
        }
    };
    eprintln!(
        "fetch {}: {} rows in {} attempt(s) ({} throttled, {} rows resumed, cache {})",
        sc.name,
        outcome.rows,
        outcome.attempts,
        outcome.throttled,
        outcome.resumed_rows,
        outcome.cache.as_deref().unwrap_or("?"),
    );
}

/// Diffs two row sets (artifact paths or store ids) and exits non-zero
/// on any mismatch.
fn compare(a: &str, b: &str, args: &Args) {
    let read = |target: &str| -> String {
        let path = std::path::Path::new(target);
        if path.is_file() {
            return std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read {target}: {e}"));
        }
        // Not a file: try the artifact store (the ids `dream serve` mints).
        let store_dir = args
            .value("store")
            .map(PathBuf::from)
            .unwrap_or_else(|| crate::results_dir().join("store"));
        let store = dream_serve::Store::open(&store_dir)
            .unwrap_or_else(|e| panic!("cannot open store {}: {e}", store_dir.display()));
        let rows = store.rows_path(target);
        std::fs::read_to_string(&rows).unwrap_or_else(|_| {
            panic!(
                "{target:?} is neither a readable file nor a campaign id in {}",
                store_dir.display()
            )
        })
    };
    let parsed_a = crate::compare::parse_rows(&read(a)).unwrap_or_else(|e| panic!("{a}: {e}"));
    let parsed_b = crate::compare::parse_rows(&read(b)).unwrap_or_else(|e| panic!("{b}: {e}"));
    let diffs = crate::compare::diff(&parsed_a, &parsed_b);
    if diffs.is_empty() {
        println!(
            "identical: {} rows × {} columns",
            parsed_a.rows.len(),
            parsed_a.columns.len()
        );
        return;
    }
    const SHOWN: usize = 25;
    for d in diffs.iter().take(SHOWN) {
        println!("{d}");
    }
    if diffs.len() > SHOWN {
        println!("… and {} more differences", diffs.len() - SHOWN);
    }
    eprintln!("compare: {} difference(s) between {a} and {b}", diffs.len());
    std::process::exit(1);
}

/// Asks a running service to drain (`--exit` to also shut down).
fn drain(args: &Args) {
    let addr = args.value("addr").unwrap_or("127.0.0.1:7163").to_string();
    let path = if args.switch("exit") {
        "/admin/shutdown"
    } else {
        "/admin/drain"
    };
    let resp = dream_serve::http::client_request(&addr, "POST", path, b"")
        .unwrap_or_else(|e| panic!("cannot reach {addr}: {e}"));
    assert!(
        resp.status == 200,
        "drain: {addr} answered HTTP {}: {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );
    println!("{}", String::from_utf8_lossy(&resp.body).trim_end());
}

/// Boots the campaign service: a content-addressed artifact store plus a
/// worker pool, serving the HTTP API of [`dream_serve`].
///
/// With `--shards K` (K > 1) the instance is a sharding coordinator:
/// each campaign is partitioned with [`ShardPlan`] and fanned out —
/// `--workers HOST:PORT,…` addresses already-running shard workers,
/// otherwise K local worker processes are spawned from this executable.
/// `--worker` runs the instance as a shard worker (direct execution,
/// never re-sharding).
fn serve(args: &Args) {
    let addr = args.value("addr").unwrap_or("127.0.0.1:7163").to_string();
    let store_dir = args
        .value("store")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::results_dir().join("store"));
    let defaults = dream_serve::ServeConfig::default();
    // `--workers` is overloaded: a plain number sizes the campaign worker
    // pool; anything with a `:` is a comma list of shard-worker addresses
    // for a coordinator.
    let (workers, worker_addrs) = match args.value("workers") {
        Some(v) if v.contains(':') => (
            defaults.workers,
            v.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>(),
        ),
        Some(v) => (
            v.parse().unwrap_or_else(|_| {
                panic!("--workers expects a number or host:port list, got {v:?}")
            }),
            Vec::new(),
        ),
        None => (defaults.workers, Vec::new()),
    };
    let shards = args.number("shards", defaults.shards).max(1);
    let threads = crate::apply_threads(args, ExecConfig::from_env().threads);
    let queue_depth = args.number("queue", defaults.queue_depth);
    let socket_timeout = std::time::Duration::from_millis(
        args.number("timeout-ms", defaults.read_timeout.as_millis() as usize) as u64,
    );
    let request_deadline = std::time::Duration::from_millis(args.number(
        "deadline-ms",
        defaults.request_deadline.as_millis() as usize,
    ) as u64);
    let retry_after = std::time::Duration::from_secs(
        args.number("retry-after", defaults.retry_after.as_secs() as usize) as u64,
    );
    let config = dream_serve::ServeConfig {
        addr: addr.clone(),
        store_dir: store_dir.clone(),
        workers,
        threads,
        queue_depth,
        read_timeout: socket_timeout,
        write_timeout: socket_timeout,
        request_deadline,
        retry_after,
        shards,
        worker_addrs,
        worker: args.switch("worker"),
        worker_exe: std::env::current_exe().ok(),
    };
    let server =
        dream_serve::Server::bind(config).unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    // Machine-readable line on stdout: a coordinator spawning local shard
    // workers discovers each child's port (`--addr 127.0.0.1:0`) from it.
    println!("dream serve: listening on {}", server.local_addr());
    let _ = io::stdout().flush();
    eprintln!(
        "dream serve listening on http://{} (store {}, {workers} workers × {threads} threads, queue {queue_depth}, shards {shards})",
        server.local_addr(),
        store_dir.display()
    );
    server.run().unwrap_or_else(|e| panic!("serve: {e}"));
}

/// Prints the scenario registry as an aligned table.
pub fn list() {
    let rows: Vec<Vec<String>> = registry::catalog()
        .into_iter()
        .map(|(name, kind, axis, points, title)| {
            vec![
                name,
                kind.to_string(),
                axis.to_string(),
                points.to_string(),
                title,
            ]
        })
        .collect();
    println!(
        "{}",
        dream_sim::report::format_table(
            &["scenario", "kind", "axis", "points", "description"],
            &rows
        )
    );
    println!("run one with: dream run <scenario> [--smoke]   (or pass a spec.json)");
}

/// Resolves a `run` target: registry name first, then spec file.
fn resolve(target: &str, smoke: bool) -> Scenario {
    if let Ok(sc) = registry::get(target, smoke) {
        return sc;
    }
    let looks_like_path = target.ends_with(".json") || target.contains('/');
    if !looks_like_path {
        panic!(
            "unknown scenario {target:?} — `dream list` shows the registry; spec files must end in .json"
        );
    }
    if smoke {
        panic!(
            "--smoke only applies to registry scenarios; spec files are explicit about their scale"
        );
    }
    let text = std::fs::read_to_string(target)
        .unwrap_or_else(|e| panic!("cannot read spec file {target:?}: {e}"));
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("bad spec file {target:?}: {e}"))
}

/// Panics on any of `flags`, the sink spellings `--sink` replaced, so a
/// retired flag fails loudly instead of being silently ignored.
fn reject_retired_sink_flags(args: &Args, flags: &[&str]) {
    if let Some(flag) = flags.iter().find(|f| args.switch(f)) {
        panic!("--{flag} is retired: use --sink table|csv:DIR|jsonl:DIR[,append]");
    }
}

/// Applies the CLI's override flags onto a resolved scenario.
fn apply_overrides(sc: &mut Scenario, args: &Args) {
    if let Some(w) = args.value("window") {
        sc.window = w
            .parse()
            .unwrap_or_else(|_| panic!("--window expects a number, got {w:?}"));
    }
    if let Some(r) = args.value("records") {
        sc.records = r
            .parse()
            .unwrap_or_else(|_| panic!("--records expects a number, got {r:?}"));
    }
    // `--trials` and `--runs` are synonyms: fig2 historically said trials,
    // fig4 said runs.
    for key in ["trials", "runs"] {
        if let Some(t) = args.value(key) {
            sc.trials = t
                .parse()
                .unwrap_or_else(|_| panic!("--{key} expects a number, got {t:?}"));
        }
    }
    if let Some(s) = args.value("seed") {
        sc.seed = s
            .parse()
            .unwrap_or_else(|_| panic!("--seed expects a number, got {s:?}"));
    }
    if let Some(t) = args.value("tolerance") {
        sc.tolerance_db = Some(
            t.parse()
                .unwrap_or_else(|_| panic!("--tolerance expects dB, got {t:?}")),
        );
    }
    if let Some(token) = args.value("emt") {
        let emt = emt_from_token(token)
            .unwrap_or_else(|| panic!("unknown --emt {token:?} (none|parity|dream|ecc)"));
        sc.emts = vec![emt];
    }
    if let Some(token) = args.value("fault-model") {
        sc.fault.model = parse_fault_model(token);
    }
    if let Some(token) = args.value("sink") {
        sc.sink = SinkSpec::parse(token).unwrap_or_else(|e| panic!("--sink: {e}"));
    }
}

/// Parses the `--fault-model` token: a kind name with an optional `:`
/// parameter — `iid`, `burst[:mean_run_len]` (default 8),
/// `column[:weight]` (default 0.5), `bank-voltage[:ramp_amplitude_v]`
/// (default 0.05, the registry preset's ±50 mV ramp).
///
/// # Panics
///
/// Panics with a readable message on unknown kinds or malformed
/// parameters.
fn parse_fault_model(token: &str) -> FaultModelSpec {
    let (kind, param) = match token.split_once(':') {
        Some((k, p)) => {
            let value: f64 = p
                .parse()
                .unwrap_or_else(|_| panic!("--fault-model {token:?}: {p:?} is not a number"));
            (k, Some(value))
        }
        None => (token, None),
    };
    match kind {
        "iid" => {
            assert!(param.is_none(), "--fault-model iid takes no parameter");
            FaultModelSpec::Iid
        }
        "burst" => FaultModelSpec::Burst {
            mean_run_len: param.unwrap_or(8.0),
        },
        "column" => FaultModelSpec::ColumnCorrelated {
            column_weight: param.unwrap_or(0.5),
        },
        "bank-voltage" => FaultModelSpec::PerBankVoltage {
            bank_offsets: FaultModelSpec::bank_ramp(param.unwrap_or(0.05)),
        },
        other => panic!("unknown --fault-model {other:?} (iid|burst|column|bank-voltage)"),
    }
}

/// Runs a resolved target with the standard flag vocabulary and prints
/// the outcome. Returns the outcome for callers that post-process.
pub fn run(target: &str, args: &Args) -> ScenarioOutcome {
    reject_retired_sink_flags(args, &["format", "out", "append"]);
    let mut sc = resolve(target, args.switch("smoke"));
    apply_overrides(&mut sc, args);
    let env = ExecConfig::from_env();
    let exec = ExecConfig {
        threads: crate::apply_threads(args, env.threads),
        batch: crate::apply_batch(args, env.batch),
        ..env
    };
    eprintln!(
        "dream run {}: kind={} axis={} points={} trials={} window={} fault-model={} threads={} batch={}",
        sc.name,
        sc.kind.token(),
        sc.grid.axis_token(),
        sc.grid.len(),
        sc.trials,
        sc.window,
        sc.fault.model.kind_token(),
        exec.threads,
        exec.batch,
    );
    execute(&sc, exec, args.switch("progress"))
}

/// Builds the campaign runner every `dream run` goes through, executing
/// under `exec`; `--progress` attaches a stderr reporter that redraws one
/// `\r` status line with rows streamed, total rows, and percent complete
/// (families whose row total is data-dependent fall back to a line per
/// batch).
fn runner_for(sc: &Scenario, exec: ExecConfig, progress: bool) -> CampaignRunner {
    let mut runner = CampaignRunner::new(sc.clone())
        .threads(exec.threads)
        .batch(exec.batch)
        .bailout(exec.bailout);
    if progress {
        let name = sc.name.clone();
        // A trivial (K=1) shard plan knows the campaign's exact row count
        // up front for every grid-structured family.
        let total_rows = ShardPlan::new(sc, 1).ok().and_then(|p| p.total_rows());
        runner = runner.on_progress(move |p| match total_rows {
            Some(total) if total > 0 => {
                let pct = 100.0 * p.rows as f64 / total as f64;
                eprint!(
                    "\r[{name}] {}/{total} rows ({pct:.0}%) — {} trials",
                    p.rows, p.trials_total
                );
                if p.rows >= total {
                    eprintln!();
                }
            }
            _ => eprintln!(
                "[{name}] batch {}: {} rows streamed ({} trials total)",
                p.batches, p.rows, p.trials_total
            ),
        });
    }
    runner
}

/// Executes a scenario against its configured sink, echoing a table to
/// stdout when rows stream to a file.
fn execute(sc: &Scenario, exec: ExecConfig, progress: bool) -> ScenarioOutcome {
    // Validate before any artifact is opened: a bad flag combination
    // (e.g. `,append` without jsonl) must not truncate the very file a
    // resumed campaign was accumulating.
    sc.validate()
        .unwrap_or_else(|e| panic!("scenario {}: {e}", sc.name));
    let runner = runner_for(sc, exec, progress);
    let format = sc.sink.format;
    let outcome = match &sc.sink.out {
        None => {
            // Stream straight to stdout.
            let stdout = io::stdout();
            let outcome = match format {
                SinkFormat::Table => {
                    let mut sink = TableSink::new(stdout.lock());
                    runner.run(&mut sink)
                }
                SinkFormat::Csv => {
                    let mut sink = CsvSink::new(stdout.lock());
                    runner.run(&mut sink)
                }
                SinkFormat::Jsonl => {
                    let mut sink = JsonlSink::new(stdout.lock());
                    runner.run(&mut sink)
                }
            };
            outcome.unwrap_or_else(|e| panic!("scenario {}: {e}", sc.name))
        }
        Some(dir) => {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
            let path = dir.join(format!("{}.{}", sc.name, format.extension()));
            let outcome = match format {
                // `,append` is jsonl-only (spec validation enforces it),
                // so the header-writing formats always truncate.
                SinkFormat::Jsonl if sc.sink.append => {
                    let mut sink = JsonlSink::append(&path)
                        .unwrap_or_else(|e| panic!("cannot append to {}: {e}", path.display()));
                    runner.run(&mut sink)
                }
                _ => {
                    let file = std::fs::File::create(&path)
                        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
                    match format {
                        SinkFormat::Table => {
                            let mut sink = TableSink::new(file);
                            runner.run(&mut sink)
                        }
                        SinkFormat::Csv => {
                            let mut sink = CsvSink::new(file);
                            runner.run(&mut sink)
                        }
                        SinkFormat::Jsonl => {
                            let mut sink = JsonlSink::new(file);
                            runner.run(&mut sink)
                        }
                    }
                }
            };
            let outcome = outcome.unwrap_or_else(|e| panic!("scenario {}: {e}", sc.name));
            // Humans still get the aligned table on stdout.
            if format != SinkFormat::Table {
                println!(
                    "{}",
                    dream_sim::report::format_table(&outcome.headers, &outcome.rows)
                );
            }
            eprintln!("wrote {}", path.display());
            outcome
        }
    };
    let mut err = io::stderr();
    let _ = writeln!(err, "{}: {}", sc.name, outcome.summary());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_registry_names() {
        let sc = resolve("fig2", true);
        assert_eq!(sc.name, "fig2");
        assert_eq!(sc.window, 512); // smoke variant
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn resolve_rejects_unknown_names() {
        let _ = resolve("figure-nine", false);
    }

    #[test]
    fn resolve_reads_spec_files() {
        let dir = std::env::temp_dir().join("dream_cli_resolve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.json");
        let sc = registry::get("noise-sweep", true).unwrap();
        std::fs::write(&path, sc.to_json()).unwrap();
        let loaded = resolve(path.to_str().unwrap(), false);
        assert_eq!(loaded, sc);
    }

    #[test]
    fn overrides_rewrite_the_axes() {
        let mut sc = registry::get("fig4", true).unwrap();
        let args = Args::parse(
            [
                "--runs", "2", "--window", "768", "--emt", "dream", "--sink", "jsonl",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        apply_overrides(&mut sc, &args);
        assert_eq!(sc.trials, 2);
        assert_eq!(sc.window, 768);
        assert_eq!(sc.emts, vec![dream_core::EmtKind::Dream]);
        assert_eq!(sc.sink.format, SinkFormat::Jsonl);
    }

    #[test]
    fn fault_model_and_append_flags_rewrite_the_sink_and_model() {
        let mut sc = registry::get("fig4", true).unwrap();
        let args = Args::parse(
            [
                "--fault-model",
                "burst:4",
                "--sink",
                "jsonl:results/x,append",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        apply_overrides(&mut sc, &args);
        assert_eq!(sc.fault.model, FaultModelSpec::Burst { mean_run_len: 4.0 });
        assert!(sc.sink.append);
        sc.validate().expect("append+jsonl+out validates");
    }

    #[test]
    #[should_panic(expected = "--format is retired: use --sink")]
    fn retired_sink_spellings_name_the_sink_flag() {
        let args = Args::parse(["--format", "csv"].iter().map(|s| s.to_string()));
        let _ = run("fig4", &args);
    }

    #[test]
    fn fault_model_tokens_parse_with_and_without_parameters() {
        assert_eq!(parse_fault_model("iid"), FaultModelSpec::Iid);
        assert_eq!(
            parse_fault_model("burst"),
            FaultModelSpec::Burst { mean_run_len: 8.0 }
        );
        assert_eq!(
            parse_fault_model("column:0.9"),
            FaultModelSpec::ColumnCorrelated { column_weight: 0.9 }
        );
        assert_eq!(
            parse_fault_model("bank-voltage:0.03"),
            FaultModelSpec::PerBankVoltage {
                bank_offsets: FaultModelSpec::bank_ramp(0.03)
            }
        );
    }

    #[test]
    #[should_panic(expected = "unknown --fault-model")]
    fn unknown_fault_model_is_rejected() {
        let _ = parse_fault_model("gamma-ray");
    }
}
