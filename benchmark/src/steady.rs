//! The steadiness self-check: runs every workload `runs` times (seeds
//! `1..=runs`) in each of `sets` sets, as child processes, and prints per
//! metric each set's median, quartiles and spread (interquartile range ÷
//! median) against the metric's bound, plus the largest set-to-set change
//! of the median. Each (workload, seed)'s work counters must repeat
//! exactly across sets. Exits non-zero when a run fails its checks, when
//! counters differ, or when a spread (other than `setup_s`'s) or a
//! set-to-set change exceeds its bound.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use dream_sim::scenario::json::Json;

use crate::schema::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, relative_iqr, relative_worsening};

/// Values of one metric: `[set][run]`.
type PerSet = Vec<Vec<f64>>;

pub fn run(runs: usize, sets: usize, seconds: f64) -> ExitCode {
    if runs < 2 || sets < 1 {
        eprintln!("benchmark: --steady needs at least 2 runs and 1 set");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<(&str, &str), PerSet> = BTreeMap::new();
    // The `counters` line of each (workload, seed): it must repeat exactly
    // in every set.
    let mut counters: BTreeMap<(&str, usize), String> = BTreeMap::new();
    let mut healthy = true;
    for set in 0..sets {
        for (workload, _) in WORKLOADS {
            for seed in 1..=runs {
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .stderr(Stdio::inherit())
                    .output();
                let stdout = output
                    .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                    .unwrap_or_default();
                if let Some(line) = stdout.lines().find(|l| l.starts_with("{\"counters\"")) {
                    let first = counters
                        .entry((workload, seed))
                        .or_insert_with(|| line.to_string());
                    if first != line {
                        eprintln!(
                            "set {set} {workload} seed {seed}: work counters differ from set 0"
                        );
                        healthy = false;
                    }
                }
                let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
                let Some(result) = result else {
                    eprintln!("set {set} {workload} seed {seed}: no result line");
                    healthy = false;
                    continue;
                };
                let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
                let failed = result.get("failed").and_then(Json::as_u64);
                if !correct || failed != Some(0) {
                    eprintln!(
                        "set {set} {workload} seed {seed}: correct {correct}, failed {failed:?}"
                    );
                    healthy = false;
                }
                let mut line = format!("set {set} {workload:<16} seed {seed:>2}");
                for m in &END_TO_END {
                    let v = result
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    line.push_str(&format!("  {}={v:.6}", m.name));
                    let per_set = values.entry((workload, m.name)).or_default();
                    per_set.resize_with(sets, Vec::new);
                    per_set[set].push(v);
                }
                eprintln!("{line}");
            }
        }
    }
    println!(
        "{:<16} {:<20} {:>3} {:>12} {:>12} {:>12} {:>8} {:>7} {:>6}",
        "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "ok"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let Some(per_set) = values.get(&(workload, m.name)) else {
                continue;
            };
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            for (set, v) in per_set.iter().enumerate() {
                let [q1, _, q3] = quartiles(v);
                let spread = relative_iqr(v);
                // setup_s's spread is not gated; its set-to-set change is.
                let ok = spread <= bound || m.name == "setup_s";
                healthy &= ok;
                println!(
                    "{workload:<16} {:<20} {set:>3} {:>12.6} {q1:>12.6} {q3:>12.6} {:>7.1}% {:>6.0}% {:>6}",
                    m.name,
                    medians[set],
                    100.0 * spread,
                    100.0 * bound,
                    if ok { "yes" } else { "NO" },
                );
            }
            let higher = m.better == Better::Higher;
            let worst = medians[1..]
                .iter()
                .map(|&later| relative_worsening(medians[0], later, higher))
                .fold(f64::NEG_INFINITY, f64::max);
            if sets > 1 {
                let ok = worst <= bound;
                healthy &= ok;
                println!(
                    "{workload:<16} {:<20} set-to-set worsening of the median {:>+7.1}% (bound {:.0}%) {}",
                    m.name,
                    100.0 * worst,
                    100.0 * bound,
                    if ok { "ok" } else { "EXCEEDED" },
                );
            }
        }
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
