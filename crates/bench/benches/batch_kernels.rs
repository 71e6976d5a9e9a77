//! Microbenchmarks of the bit-sliced batch kernels: 64-lane SWAR decodes
//! versus 64 scalar decodes of the same planes (the transpose-and-decode
//! oracle), plus the plane overlay that feeds them. The ratio between the
//! two groups is the raw kernel win the campaign-level batching converts
//! into trials/s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dream_core::{scalar_decode_batch, EmtCodec, EmtKind};
use dream_mem::{BatchFaultPlanes, FaultMap, StuckAt};
use std::hint::black_box;

/// Deterministic pseudo-random planes (splitmix64 over the plane index):
/// dense lane occupancy, no RNG in the hot loop.
fn planes(width: usize, salt: u64) -> Vec<u64> {
    (0..width as u64)
        .map(|p| {
            let mut z = (p + salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

fn bench_decode_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_batch_64_lanes");
    for kind in EmtKind::all() {
        let codec = kind.codec();
        let width = codec.code_width() as usize;
        let input: Vec<Vec<u64>> = (0..64).map(|i| planes(width, i * 131)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(kind), &codec, |b, codec| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 63;
                black_box(codec.decode_batch(black_box(&input[i]), black_box(i as u16)))
            })
        });
    }
    group.finish();
}

fn bench_decode_scalar_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_scalar_oracle_64_lanes");
    for kind in EmtKind::all() {
        let codec = kind.codec();
        let width = codec.code_width() as usize;
        let input: Vec<Vec<u64>> = (0..64).map(|i| planes(width, i * 131)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(kind), &codec, |b, codec| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 63;
                black_box(scalar_decode_batch(
                    codec,
                    black_box(&input[i]),
                    black_box(i as u16),
                ))
            })
        });
    }
    group.finish();
}

fn bench_plane_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("plane_overlay");
    const WORDS: usize = 4096;
    // A faulty address (one injected cell per lane) and a clean one: the
    // two costs `CleanTrace` replay pays per event in a campaign.
    let mut faulty = BatchFaultPlanes::new(WORDS, 22);
    for lane in 0..64 {
        faulty.inject(lane, 7, (lane % 22) as u32, StuckAt::One);
    }
    let mut clean = BatchFaultPlanes::new(WORDS, 22);
    clean.add_lane(0, &FaultMap::empty(WORDS, 22), None);
    for (name, planes, addr) in [("faulty_addr", &faulty, 7usize), ("clean_addr", &clean, 9)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), planes, |b, planes| {
            let mut out = [0u64; 22];
            let mut code = 0u32;
            b.iter(|| {
                code = code.wrapping_add(0x0005_0001);
                planes.overlay(black_box(addr), black_box(code & 0x3F_FFFF), &mut out);
                black_box(out[21])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decode_batch,
    bench_decode_scalar_oracle,
    bench_plane_overlay
);
criterion_main!(benches);
