//! Hot inner kernels of the draw-family applications, benched at kernel
//! granularity: the matrix-filter GEMM row (the `dot_q15` SWAR dot
//! product on both its vectorized and saturating-fallback paths), the DWT
//! à-trous tap pass, and the morphological sliding extreme. These are the
//! loops the clean-pass traces and scalar replays spend their time in, so
//! a regression here shows up directly in fig4 trials/s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dream_dsp::{BiomedicalApp, Dwt, MatrixFilter, MorphologicalFilter, VecStorage};
use dream_fixed::dot_q15;
use std::hint::black_box;

/// Deterministic Q15 test vector (no RNG: benches must not drift).
fn q15_vector(n: usize, seed: u64) -> Vec<i16> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as i16
        })
        .collect()
}

fn bench_gemm_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("matfilt_gemm_row");
    for dim in [32usize, 64, 256] {
        group.throughput(Throughput::Elements(dim as u64));
        // Typical row: gain under 2.0, takes the vectorized path.
        let a: Vec<i16> = q15_vector(dim, 1).iter().map(|&v| v / dim as i16).collect();
        let b = q15_vector(dim, 2);
        group.bench_function(BenchmarkId::new("vectorized", dim), |bch| {
            bch.iter(|| black_box(dot_q15(black_box(&a), black_box(&b))))
        });
        // Corrupted row: gain far above the bound, exact sequential fold.
        let hot = vec![i16::MIN; dim];
        group.bench_function(BenchmarkId::new("saturating_fallback", dim), |bch| {
            bch.iter(|| black_box(dot_q15(black_box(&hot), black_box(&b))))
        });
    }
    group.finish();
}

fn bench_matfilt(c: &mut Criterion) {
    // The fig-preset shape: the full GEMM re-reads every A row per output
    // element, so this tracks the dot product inside its real traffic.
    let app = MatrixFilter::new(64, 4, 2);
    let input = q15_vector(app.input_len(), 3);
    let mut mem = VecStorage::new(app.memory_words());
    c.bench_function("matfilt_full_gemm_64x4x2", |b| {
        b.iter(|| black_box(app.run(black_box(&input), &mut mem)))
    });
}

fn bench_dwt_tap_pass(c: &mut Criterion) {
    // One Dwt run = per scale one high-pass (2 taps) + one low-pass
    // (4 taps, fused weighted sum): the à-trous tap pass kernel.
    let app = Dwt::new(1024, 4);
    let input = q15_vector(1024, 4);
    let mut mem = VecStorage::new(app.memory_words());
    c.bench_function("dwt_tap_pass_1024x4", |b| {
        b.iter(|| black_box(app.run(black_box(&input), &mut mem)))
    });
}

fn bench_morpho_sliding_extreme(c: &mut Criterion) {
    // Eight sliding extremes per run (van Herk/Gil-Werman block scans),
    // including the long 0.2 s/0.3 s baseline structuring elements.
    let app = MorphologicalFilter::new(1024, 360.0);
    let input = q15_vector(1024, 5);
    let mut mem = VecStorage::new(app.memory_words());
    c.bench_function("morpho_sliding_extreme_1024", |b| {
        b.iter(|| black_box(app.run(black_box(&input), &mut mem)))
    });
}

criterion_group!(
    benches,
    bench_gemm_row,
    bench_matfilt,
    bench_dwt_tap_pass,
    bench_morpho_sliding_extreme
);
criterion_main!(benches);
