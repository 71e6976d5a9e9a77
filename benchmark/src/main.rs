//! The dream-suite benchmark: one harness over the workspace crates'
//! public APIs. See `benchmark/README.md` for the workloads, the metrics
//! and what each one should move.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload draw-sweep --seed 1 --seconds 35 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --steady 10 --sets 2 --seconds 35
//! ```
//!
//! A run prints provenance, work counters and per-metric diagnostics as
//! JSON lines, then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod json;
mod mirror;
mod schema;
mod service;
mod stats;
mod steady;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use json::{num, obj, string};
use workloads::{Checks, Value};

/// Digests of every campaign a workload checks, for workload seed 0 —
/// the registry presets' own seeds.
const PINNED: &str = include_str!("../pinned.txt");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    sets: usize,
    /// Internal: host a service topology for the parent benchmark.
    host: Option<std::path::PathBuf>,
    sharded: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 35.0,
        trace: false,
        steady: None,
        sets: 2,
        host: None,
        sharded: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--steady" => args.steady = Some(value.parse().map_err(|_| bad("a run count"))?),
            "--sets" => args.sets = value.parse().map_err(|_| bad("a set count"))?,
            "--host" => args.host = Some(value.into()),
            "--sharded" => args.sharded = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.host {
        return service::host(dir, args.sharded);
    }
    if let Some(runs) = args.steady {
        return steady::run(runs, args.sets, args.seconds);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("benchmark: --workload is required");
        return ExitCode::from(2);
    };
    let result = if args.trace {
        trace::run(workload, args.seed, args.seconds)
    } else {
        untraced(workload, args.seed, args.seconds)
    };
    let Some((mut checks, metrics)) = result else {
        eprintln!("benchmark: unknown workload {workload:?}");
        return ExitCode::from(2);
    };
    if args.seed == 0 {
        check_pins(workload, &mut checks);
    }
    println!("{}", obj(&[("provenance", provenance(workload, &args))]));
    let counters: Vec<(&str, String)> = checks
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), v.to_string()))
        .collect();
    println!("{}", obj(&[("counters", obj(&counters))]));
    let digests: Vec<(&str, String)> = checks
        .digests
        .iter()
        .map(|(k, v)| (k.as_str(), string(v)))
        .collect();
    println!("{}", obj(&[("digests", obj(&digests))]));
    let diagnostics: Vec<(&str, String)> = metrics
        .iter()
        .filter_map(|(name, v)| {
            v.series.map(|(n, median, p90, interference)| {
                let mut fields = vec![
                    ("iterations", n.to_string()),
                    ("value", num(v.value)),
                    ("median", num(median)),
                    ("p90", num(p90)),
                    ("interference", num(interference)),
                ];
                fields.extend(v.extra.iter().map(|&(k, x)| (k, num(x))));
                (*name, obj(&fields))
            })
        })
        .collect();
    println!("{}", obj(&[("diagnostics", obj(&diagnostics))]));
    for problem in &checks.problems {
        eprintln!("benchmark: FAILED {problem}");
    }
    let schema: &[schema::Metric] = if args.trace {
        &schema::PER_LAYER
    } else {
        &schema::END_TO_END
    };
    let reported: Vec<(&str, String)> = schema
        .iter()
        .map(|m| {
            let value = metrics.get(m.name).map_or(0.0, |v| v.value);
            (
                m.name,
                obj(&[("value", num(value)), ("unit", string(m.unit))]),
            )
        })
        .collect();
    let correct = checks.failed == 0;
    println!(
        "{}",
        obj(&[
            ("correct", correct.to_string()),
            ("attempted", checks.attempted.max(1).to_string()),
            ("failed", checks.failed.to_string()),
            ("metrics", obj(&reported)),
        ])
    );
    ExitCode::SUCCESS
}

type Outcome = Option<(Checks, BTreeMap<&'static str, Value>)>;

fn untraced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let run = workloads::run_e2e(workload, seed, seconds)?;
    let metrics = run.metrics();
    Some((run.checks, metrics))
}

/// For workload seed 0, every digest the run observed must equal the one
/// pinned for its campaign.
fn check_pins(workload: &str, checks: &mut Checks) {
    let pinned: BTreeMap<&str, &str> = PINNED
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(w), Some(id), Some(digest)) if w == workload => Some((id, digest)),
                _ => None,
            }
        })
        .collect();
    let observed: Vec<(String, String)> = checks
        .digests
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for (id, digest) in observed {
        match pinned.get(id.as_str()) {
            Some(&pin) if pin == digest => {}
            Some(&pin) => checks.fail(format!("{id}: digest {digest}, pinned {pin}")),
            None => checks.fail(format!("{id}: no digest pinned for {workload}")),
        }
    }
}

/// Machine fingerprint, seed and run settings.
fn provenance(workload: &str, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    obj(&[
        ("workload", string(workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", string(&cpu)),
        ("rustc", string(&command("rustc", &["--version"]))),
        (
            "git_commit",
            string(&command("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
