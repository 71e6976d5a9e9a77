//! The §VI-C workflow as a tool: sweep the memory supply for one
//! application, print quality and energy per EMT, and recommend which
//! technique to run in each voltage band — the "triggering, selectively,
//! one or the other" policy of the paper.
//!
//! ```text
//! cargo run --release --example voltage_explorer [-- --app dwt|matfilt|cs|morpho|delineate] [--runs N]
//! ```

use dream_suite::core::EmtKind;
use dream_suite::dsp::AppKind;
use dream_suite::sim::energy_table::{run_energy_table, EnergyConfig};
use dream_suite::sim::exec::ExecConfig;
use dream_suite::sim::fig4::{curve, run_fig4, Fig4Config};
use dream_suite::sim::report;

fn parse_app(name: &str) -> AppKind {
    match name {
        "dwt" => AppKind::Dwt,
        "matfilt" => AppKind::MatrixFilter,
        "cs" => AppKind::CompressedSensing,
        "morpho" => AppKind::MorphologicalFilter,
        "delineate" => AppKind::WaveletDelineation,
        other => panic!("unknown app {other:?} (dwt|matfilt|cs|morpho|delineate)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut app = AppKind::Dwt;
    let mut runs = 20usize;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--app" => app = parse_app(iter.next().expect("--app needs a value")),
            "--runs" => {
                runs = iter
                    .next()
                    .expect("--runs needs a value")
                    .parse()
                    .expect("number")
            }
            _ => {}
        }
    }
    let window = 1024;
    eprintln!("exploring {app} over 0.5-0.9 V ({runs} fault maps per point)…");

    let points = run_fig4(&Fig4Config {
        window,
        runs,
        apps: vec![app],
        ..Default::default()
    });
    let energy = run_energy_table(
        &EnergyConfig {
            app,
            window,
            ..Default::default()
        },
        ExecConfig::from_env().threads,
    );

    let emts = EmtKind::paper_set();
    let mut table = Vec::new();
    let voltages: Vec<f64> = curve(&points, app, EmtKind::None)
        .iter()
        .map(|p| p.voltage)
        .collect();
    for &v in voltages.iter().rev() {
        let mut row = vec![format!("{v:.2}")];
        // Quality and energy per EMT at this voltage.
        let mut best: Option<(EmtKind, f64)> = None;
        for emt in emts {
            let p = curve(&points, app, emt)
                .into_iter()
                .find(|p| (p.voltage - v).abs() < 1e-9)
                .expect("grid");
            let e = energy
                .iter()
                .find(|r| r.emt == emt && (r.voltage - v).abs() < 1e-9)
                .expect("grid");
            row.push(format!(
                "{} / {:.0} nJ",
                report::snr(p.mean_snr_db),
                e.energy.total_nj()
            ));
            // "Usable" = within 1 dB of this EMT's own nominal ceiling.
            let ceiling = curve(&points, app, emt).last().expect("grid").mean_snr_db;
            if p.mean_snr_db >= ceiling - 1.0 {
                let total = e.energy.total_pj();
                if best.is_none_or(|(_, b)| total < b) {
                    best = Some((emt, total));
                }
            }
        }
        row.push(best.map_or("none usable".into(), |(emt, _)| emt.to_string()));
        table.push(row);
    }
    let headers = ["V", "no protection", "DREAM", "ECC SEC/DED", "recommended"];
    println!("\n{app}: mean SNR / energy per run, and the cheapest EMT still within -1 dB");
    println!("{}", report::format_table(&headers, &table));
}
