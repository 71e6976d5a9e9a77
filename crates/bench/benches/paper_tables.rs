//! One bench per paper artifact: times the regeneration of each table and
//! figure at smoke scale, so `cargo bench` exercises the full experiment
//! pipeline end to end (the full-scale numbers come from the
//! `dream-bench` binaries).

use criterion::{criterion_group, criterion_main, Criterion};
use dream_core::EmtKind;
use dream_dsp::AppKind;
use dream_mem::BerModel;
use dream_sim::energy_table::{area_table, run_energy_table, EnergyConfig};
use dream_sim::exec::ExecConfig;
use dream_sim::fig2::{run_fig2, Fig2Config};
use dream_sim::fig4::{run_fig4, Fig4Config};
use dream_sim::tradeoff::explore;
use std::hint::black_box;

fn smoke_fig2() -> Fig2Config {
    Fig2Config {
        window: 512,
        records: 2,
        apps: vec![AppKind::Dwt, AppKind::CompressedSensing],
        fault_trials: 2,
    }
}

fn smoke_fig4() -> Fig4Config {
    Fig4Config {
        window: 512,
        runs: 3,
        voltages: vec![0.55, 0.7, 0.9],
        apps: vec![AppKind::Dwt],
        ber: BerModel::date16(),
        emts: EmtKind::paper_set().to_vec(),
        seed: 1,
    }
}

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("fig2_smoke", |b| {
        let cfg = smoke_fig2();
        b.iter(|| black_box(run_fig2(black_box(&cfg))))
    });
    group.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("fig4_smoke", |b| {
        let cfg = smoke_fig4();
        b.iter(|| black_box(run_fig4(black_box(&cfg))))
    });
    group.finish();
}

fn bench_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("energy_table", |b| {
        let cfg = EnergyConfig {
            window: 512,
            ..Default::default()
        };
        b.iter(|| {
            black_box(run_energy_table(
                black_box(&cfg),
                ExecConfig::from_env().threads,
            ))
        })
    });
    group.bench_function("area_table", |b| {
        b.iter(|| black_box(area_table(&EmtKind::paper_set())))
    });
    group.finish();
}

fn bench_tradeoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    let fig4 = run_fig4(&smoke_fig4());
    let energy = run_energy_table(
        &EnergyConfig {
            window: 512,
            voltages: vec![0.55, 0.7, 0.9],
            ..Default::default()
        },
        ExecConfig::from_env().threads,
    );
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
