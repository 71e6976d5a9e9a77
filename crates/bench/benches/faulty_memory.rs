//! Costs of the memory substrate: fault-map generation across the BER
//! sweep, protected read/write paths, address scrambling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dream_core::{EmtKind, ProtectedMemory};
use dream_mem::{AddressScrambler, BerModel, FaultMap, MemGeometry};
use std::hint::black_box;

fn bench_fault_map_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_map_generate_32kB");
    let words = 16 * 1024;
    for v in [0.9, 0.7, 0.5] {
        let ber = BerModel::date16().ber(v);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{v}V")),
            &ber,
            |b, &ber| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(FaultMap::generate(words, 22, black_box(ber), seed))
                })
            },
        );
    }
    group.finish();
}

fn bench_protected_access(c: &mut Criterion) {
    let geometry = MemGeometry::inyu_data_memory();
    let ber = BerModel::date16().ber(0.6);
    let map = FaultMap::generate(geometry.words(), 22, ber, 42);
    let mut group = c.benchmark_group("protected_read_write");
    for kind in EmtKind::paper_set() {
        let mut mem = ProtectedMemory::with_fault_map(kind, geometry, &map);
        for i in 0..1024 {
            mem.write(i, (i * 31) as i16);
        }
        group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 1023;
                mem.write(i, black_box(-77));
                black_box(mem.read(i))
            })
        });
    }
    group.finish();
}

/// Reads from the memory's view on a mid-voltage map where most — but
/// not all — words are clean: the regression guard for the per-access
/// read pipeline.
fn bench_clean_fast_path(c: &mut Criterion) {
    let geometry = MemGeometry::inyu_data_memory();
    let ber = BerModel::date16().ber(0.6);
    let map = FaultMap::generate(geometry.words(), 22, ber, 42);
    let mut group = c.benchmark_group("read_fast_path_vs_full_decode");
    for kind in EmtKind::paper_set() {
        let mut mem = ProtectedMemory::with_fault_map(kind, geometry, &map);
        for i in 0..1024 {
            mem.write(i, (i * 31) as i16);
        }
        group.bench_function(BenchmarkId::from_parameter(format!("{kind}/fast")), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 1023;
                black_box(mem.read(black_box(i)))
            })
        });
    }
    group.finish();
}

/// Block transfers against word-at-a-time loops — the streaming path the
/// DSP windows use.
fn bench_block_access(c: &mut Criterion) {
    let geometry = MemGeometry::inyu_data_memory();
    let ber = BerModel::date16().ber(0.6);
    let map = FaultMap::generate(geometry.words(), 22, ber, 42);
    let mut group = c.benchmark_group("block_vs_word_transfers_256");
    let data: Vec<i16> = (0..256).map(|i| (i * 129 - 9000) as i16).collect();
    let mut buf = vec![0i16; 256];
    let mut mem = ProtectedMemory::with_fault_map(EmtKind::Dream, geometry, &map);
    group.bench_function("word_at_a_time", |b| {
        b.iter(|| {
            for (i, &v) in data.iter().enumerate() {
                mem.write(i, v);
            }
            for (i, slot) in buf.iter_mut().enumerate() {
                *slot = mem.read(i);
            }
            black_box(buf[17])
        })
    });
    group.bench_function("block", |b| {
        b.iter(|| {
            mem.write_block(0, &data);
            mem.read_block(0, &mut buf);
            black_box(buf[17])
        })
    });
    group.finish();
}

fn bench_scrambler(c: &mut Criterion) {
    let s = AddressScrambler::new(16 * 1024, 0xBEEF);
    c.bench_function("scramble_to_physical", |b| {
        let mut a = 0usize;
        b.iter(|| {
            a = (a + 1) & 0x3FFF;
            black_box(s.to_physical(black_box(a)))
        })
    });
}

criterion_group!(
    benches,
    bench_fault_map_generation,
    bench_protected_access,
    bench_clean_fast_path,
    bench_block_access,
    bench_scrambler
);
criterion_main!(benches);
