//! One bench per paper artifact: times the regeneration of each table and
//! figure at smoke scale, so `cargo bench` exercises the full experiment
//! pipeline end to end (the full-scale numbers come from the
//! `dream-bench` binaries).

use criterion::{criterion_group, criterion_main, Criterion};
use dream_core::EmtKind;
use dream_dsp::AppKind;
use dream_sim::energy_table::area_table;
use dream_sim::scenario::{registry, CampaignRunner, Grid, OutcomeData, Scenario};
use dream_sim::tradeoff::explore;
use std::hint::black_box;

fn smoke_fig2() -> Scenario {
    Scenario {
        window: 512,
        records: 2,
        trials: 2,
        apps: vec![AppKind::Dwt, AppKind::CompressedSensing],
        ..registry::get("fig2", false).expect("preset exists")
    }
}

fn smoke_fig4() -> Scenario {
    Scenario {
        window: 512,
        trials: 3,
        grid: Grid::Voltage(vec![0.55, 0.7, 0.9]),
        apps: vec![AppKind::Dwt],
        seed: 1,
        ..registry::get("fig4", false).expect("preset exists")
    }
}

fn smoke_energy() -> Scenario {
    Scenario {
        window: 512,
        ..registry::get("energy", false).expect("preset exists")
    }
}

fn run(sc: &Scenario) -> OutcomeData {
    CampaignRunner::new(sc.clone())
        .run_discarding()
        .expect("campaign runs")
        .data
}

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("fig2_smoke", |b| {
        let sc = smoke_fig2();
        b.iter(|| black_box(run(black_box(&sc))))
    });
    group.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("fig4_smoke", |b| {
        let sc = smoke_fig4();
        b.iter(|| black_box(run(black_box(&sc))))
    });
    group.finish();
}

fn bench_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("energy_table", |b| {
        let sc = smoke_energy();
        b.iter(|| black_box(run(black_box(&sc))))
    });
    group.bench_function("area_table", |b| {
        b.iter(|| black_box(area_table(&EmtKind::paper_set())))
    });
    group.finish();
}

fn bench_tradeoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    let OutcomeData::Fig4(fig4) = run(&smoke_fig4()) else {
        unreachable!("voltage SNR sweeps yield Fig. 4 points")
    };
    let OutcomeData::Energy(energy) = run(&Scenario {
        grid: Grid::Voltage(vec![0.55, 0.7, 0.9]),
        ..smoke_energy()
    }) else {
        unreachable!("voltage energy sweeps yield energy rows")
    };
    group.bench_function("tradeoff_explore", |b| {
        b.iter(|| {
            black_box(explore(
                AppKind::Dwt,
                1.0,
                black_box(&fig4),
                black_box(&energy),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2,
    bench_fig4,
    bench_energy,
    bench_tradeoff
);
criterion_main!(benches);
