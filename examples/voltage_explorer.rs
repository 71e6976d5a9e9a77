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
use dream_suite::sim::report;
use dream_suite::sim::scenario::{registry, CampaignRunner, OutcomeData, Scenario};
use dream_suite::sim::tradeoff::{curve, mixed_policy};

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
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

    let run = |sc: Scenario| CampaignRunner::new(sc).run_discarding().map(|o| o.data);
    let OutcomeData::Fig4(points) = run(Scenario {
        window,
        trials: runs,
        apps: vec![app],
        ..registry::get("fig4", false)?
    })?
    else {
        unreachable!("voltage SNR sweeps yield Fig. 4 points")
    };
    let OutcomeData::Energy(energy) = run(Scenario {
        window,
        apps: vec![app],
        ..registry::get("energy", false)?
    })?
    else {
        unreachable!("voltage energy sweeps yield energy rows")
    };

    // "Usable" = within 1 dB of each EMT's own nominal ceiling.
    let bands = mixed_policy(app, 1.0, &points, &energy);
    let mut table = Vec::new();
    for band in bands.iter().rev() {
        let v = band.voltage;
        let mut row = vec![format!("{v:.2}")];
        // Quality and energy per EMT at this voltage.
        for emt in EmtKind::paper_set() {
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
        }
        row.push(
            band.best_emt
                .map_or("none usable".into(), |emt| emt.to_string()),
        );
        table.push(row);
    }
    let headers = ["V", "no protection", "DREAM", "ECC SEC/DED", "recommended"];
    println!("\n{app}: mean SNR / energy per run, and the cheapest EMT still within -1 dB");
    println!("{}", report::format_table(&headers, &table));
    Ok(())
}
