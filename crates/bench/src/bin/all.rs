//! Runs **every scenario in the registry** end to end and prints a
//! compact per-scenario summary (the source of `EXPERIMENTS.md`).
//!
//! ```text
//! cargo run --release -p dream-bench --bin all [--list] [--smoke]
//!     [--threads N] [--sink table|csv:DIR|jsonl:DIR[,append]]
//! ```
//!
//! `--list` prints the registry and exits. Defaults reproduce the paper's
//! scale and drop one CSV per scenario into `results/` (`--sink
//! csv:results`); `--smoke` runs the reduced variants in seconds.

use dream_bench::{cli, results_dir, Args};

fn main() {
    let base = Args::from_env();
    if base.switch("list") {
        cli::list();
        return;
    }
    let names = dream_sim::scenario::registry::names();
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if base.value("sink").is_none() {
        raw.extend([
            "--sink".to_string(),
            format!("csv:{}", results_dir().display()),
        ]);
    }
    let args = Args::parse(raw.into_iter());
    let mut summaries = Vec::new();
    for (i, name) in names.iter().enumerate() {
        eprintln!("[{}/{}] {name}…", i + 1, names.len());
        let outcome = cli::run(name, &args);
        summaries.push(format!("{name}: {}", outcome.summary()));
    }
    println!("\n=== registry summary ===");
    for line in &summaries {
        println!("{line}");
    }
}
