//! Morphological filtering (paper §II-4): erosion and dilation as
//! van Herk/Gil-Werman sliding extremes.

use crate::app::{AppKind, BiomedicalApp};
use crate::WordStorage;

/// Morphological ECG conditioning: EMG denoising plus baseline-wander
/// removal built from erosion/dilation with flat structuring elements, the
/// scheme used to clean raw ECG degraded by "patients muscles activity or
/// the system AC supply interferences" (§II-4).
///
/// Stages:
///
/// 1. **Denoise** — average of opening and closing with a short (5-sample)
///    element: suppresses impulsive/EMG noise while preserving QRS edges.
/// 2. **Baseline estimate** — opening (removes peaks) then closing (fills
///    pits) with long elements sized to 0.2 s / 0.3 s: anything slower
///    than a heartbeat survives and is, by construction, wander.
/// 3. **Correction** — subtract the baseline from the denoised signal.
///
/// Erosion and dilation are O(1)-per-sample sliding minima/maxima (the van
/// Herk/Gil-Werman block scan: three min/max operations per sample and no
/// data-dependent branch), so the whole app reads each buffer word once
/// per stage — matching the fixed-trip streaming kernels used on sensor
/// nodes. The double-precision reference runs the same scan, so it too
/// costs O(n) whatever the structuring-element length.
///
/// ```
/// use dream_dsp::{BiomedicalApp, MorphologicalFilter, VecStorage};
/// let app = MorphologicalFilter::new(256, 360.0);
/// let drift: Vec<i16> = (0..256).map(|i| (i * 8) as i16).collect(); // pure ramp wander
/// let mut mem = VecStorage::new(app.memory_words());
/// let out = app.run(&drift, &mut mem);
/// let residual = out.iter().map(|&v| i32::from(v).abs()).max().unwrap();
/// // Edge windows keep a little residue; the bulk of the ramp is gone.
/// assert!(residual < 600, "baseline should be mostly removed: {residual}");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MorphologicalFilter {
    n: usize,
    denoise_len: usize,
    open_len: usize,
    close_len: usize,
}

impl MorphologicalFilter {
    /// Creates a filter for `n`-sample windows sampled at `fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `n` is too small for the baseline structuring elements.
    pub fn new(n: usize, fs: f64) -> Self {
        let open_len = make_odd((0.2 * fs) as usize);
        let close_len = make_odd((0.3 * fs) as usize);
        assert!(
            n > 2 * close_len,
            "window of {n} too small for SE of {close_len}"
        );
        MorphologicalFilter {
            n,
            denoise_len: 5,
            open_len,
            close_len,
        }
    }

    // Memory layout: input, three temporaries, baseline, output.
    fn input_base(&self) -> usize {
        0
    }
    fn t1(&self) -> usize {
        self.n
    }
    fn t2(&self) -> usize {
        2 * self.n
    }
    fn denoised(&self) -> usize {
        3 * self.n
    }
    fn baseline(&self) -> usize {
        4 * self.n
    }
    fn output_base(&self) -> usize {
        5 * self.n
    }
}

fn make_odd(v: usize) -> usize {
    if v % 2 == 0 {
        v + 1
    } else {
        v
    }
}

/// Sliding-window extreme over a memory region (centered window of odd
/// length `window`, clamped at the edges) — streamed as one block load of
/// the source window and one block store of the result (same cells, same
/// access counts as the word-at-a-time formulation; `src` and `dst` are
/// always disjoint regions).
fn sliding_extreme(
    mem: &mut dyn WordStorage,
    src: usize,
    dst: usize,
    n: usize,
    window: usize,
    take_max: bool,
) {
    let load = |padded: &mut [i16]| mem.read_block(src, padded);
    let out = if take_max {
        block_scan(load, n, window, i16::MIN, i16::max)
    } else {
        block_scan(load, n, window, i16::MAX, i16::min)
    };
    mem.write_block(dst, &out);
}

/// The van Herk/Gil-Werman scan behind both sliding extremes: `pick` is
/// `min` or `max` and `identity` its neutral element, and `load` fills
/// the `n` signal samples.
///
/// The signal is padded by `window / 2` identity samples on each side,
/// which makes the clamped window an ordinary one, and cut into blocks of
/// `window` samples. A window then spans at most two blocks, so its
/// extreme is the suffix extreme of its first sample's block combined
/// with the prefix extreme of its last sample's block: three `pick`s per
/// sample, whatever the window, and no branch on the data. Every step is
/// a min or max, so the result is exact wherever `pick` is associative
/// and commutative on the samples (integers; finite floats other than
/// −0.0).
fn block_scan<T: Copy>(
    load: impl FnOnce(&mut [T]),
    n: usize,
    window: usize,
    identity: T,
    pick: impl Fn(T, T) -> T,
) -> Vec<T> {
    debug_assert!(window % 2 == 1, "window {window} is not centered");
    let half = window / 2;
    // Whole blocks over the padded signal: every window [i, i + window)
    // of the padded samples stays inside them.
    let padded = (n + 2 * half).div_ceil(window) * window;
    let mut suffix = vec![identity; padded];
    load(&mut suffix[half..half + n]);
    let mut prefix = suffix.clone();
    for block in prefix.chunks_exact_mut(window) {
        for j in 1..block.len() {
            block[j] = pick(block[j], block[j - 1]);
        }
    }
    for block in suffix.chunks_exact_mut(window) {
        for j in (0..block.len() - 1).rev() {
            block[j] = pick(block[j], block[j + 1]);
        }
    }
    (0..n)
        .map(|i| pick(suffix[i], prefix[i + window - 1]))
        .collect()
}

/// Element-wise `dst[i] = f(a[i], b[i])` over two `n`-word regions — the
/// operand windows stream in as blocks (same words and counts as
/// word-at-a-time reads).
fn combine(
    mem: &mut dyn WordStorage,
    a: usize,
    b: usize,
    dst: usize,
    n: usize,
    f: impl Fn(i32, i32) -> i32,
) {
    let mut wa = vec![0i16; n];
    let mut wb = vec![0i16; n];
    mem.read_block(a, &mut wa);
    mem.read_block(b, &mut wb);
    for (x, &y) in wa.iter_mut().zip(&wb) {
        *x = f(i32::from(*x), i32::from(y)) as i16;
    }
    mem.write_block(dst, &wa);
}

/// Float reference of [`sliding_extreme`]: the same [`block_scan`], padded
/// with `f64::MIN`/`f64::MAX`. Exact, because the reference's samples
/// are finite and never −0.0 (integer inputs, their half-sums and their
/// extremes), so `f64::max`/`f64::min` are associative and commutative on
/// them.
fn sliding_extreme_f64(x: &[f64], window: usize, take_max: bool) -> Vec<f64> {
    let load = |padded: &mut [f64]| padded.copy_from_slice(x);
    if take_max {
        block_scan(load, x.len(), window, f64::MIN, f64::max)
    } else {
        block_scan(load, x.len(), window, f64::MAX, f64::min)
    }
}

impl BiomedicalApp for MorphologicalFilter {
    fn name(&self) -> &'static str {
        "Morphological Filtering"
    }

    fn kind(&self) -> AppKind {
        AppKind::MorphologicalFilter
    }

    fn input_len(&self) -> usize {
        self.n
    }

    fn output_len(&self) -> usize {
        self.n
    }

    fn memory_words(&self) -> usize {
        6 * self.n
    }

    /// One stage per sliding-extreme pass and per combine pass.
    fn stages(&self) -> usize {
        10
    }

    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage) {
        let n = self.n;
        let (input_b, t1, t2, den, base, out) = (
            self.input_base(),
            self.t1(),
            self.t2(),
            self.denoised(),
            self.baseline(),
            self.output_base(),
        );
        let w = self.denoise_len;
        match k {
            // Opening(x) -> t2 : erode then dilate.
            0 => {
                mem.store_slice(input_b, input);
                sliding_extreme(mem, input_b, t1, n, w, false);
            }
            1 => sliding_extreme(mem, t1, t2, n, w, true),
            // Closing(x) -> t1 (via den as scratch): dilate then erode.
            2 => sliding_extreme(mem, input_b, den, n, w, true),
            3 => sliding_extreme(mem, den, t1, n, w, false),
            // Denoised = (opening + closing) / 2, rounded to nearest.
            4 => combine(mem, t2, t1, den, n, |a, b| (a + b + 1) >> 1),
            // Baseline: opening with the short-beat SE, closing with the
            // long one — classic peak-then-pit suppression.
            5 => sliding_extreme(mem, den, t1, n, self.open_len, false),
            6 => sliding_extreme(mem, t1, t2, n, self.open_len, true),
            7 => sliding_extreme(mem, t2, t1, n, self.close_len, true),
            8 => sliding_extreme(mem, t1, base, n, self.close_len, false),
            // Correction.
            9 => combine(mem, den, base, out, n, |a, b| {
                (a - b).clamp(i32::from(i16::MIN), i32::from(i16::MAX))
            }),
            _ => panic!("stage {k} out of range"),
        }
    }

    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
        mem.load_slice(self.output_base(), self.n)
    }

    fn run_reference(&self, input: &[i16]) -> Vec<f64> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let x: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        let w = self.denoise_len;
        let opening = sliding_extreme_f64(&sliding_extreme_f64(&x, w, false), w, true);
        let closing = sliding_extreme_f64(&sliding_extreme_f64(&x, w, true), w, false);
        let denoised: Vec<f64> = opening
            .iter()
            .zip(&closing)
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        let opened = sliding_extreme_f64(
            &sliding_extreme_f64(&denoised, self.open_len, false),
            self.open_len,
            true,
        );
        let baseline = sliding_extreme_f64(
            &sliding_extreme_f64(&opened, self.close_len, true),
            self.close_len,
            false,
        );
        denoised.iter().zip(&baseline).map(|(d, b)| d - b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples_to_f64, snr_db, VecStorage};

    #[test]
    fn sliding_extremes_match_naive() {
        let data: Vec<i16> = vec![3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5, -9, 0, 7];
        let n = data.len();
        let mut mem = VecStorage::new(2 * n);
        mem.store_slice(0, &data);
        for window in [1usize, 3, 5, 7] {
            for take_max in [false, true] {
                sliding_extreme(&mut mem, 0, n, n, window, take_max);
                let got = mem.load_slice(n, n);
                let reference: Vec<i16> = (0..n)
                    .map(|i| {
                        let lo = i.saturating_sub(window / 2);
                        let hi = (i + window / 2).min(n - 1);
                        let s = &data[lo..=hi];
                        if take_max {
                            *s.iter().max().unwrap()
                        } else {
                            *s.iter().min().unwrap()
                        }
                    })
                    .collect();
                assert_eq!(got, reference, "window {window} max {take_max}");
            }
        }
    }

    mod scan_props {
        use super::super::sliding_extreme;
        use crate::{VecStorage, WordStorage};
        use proptest::prelude::*;

        /// Samples drawn from the extremes and a few small values as
        /// often as from the whole range, so `i16::MIN`/`i16::MAX` (the
        /// scan's padding identities) appear in most signals.
        fn sample() -> impl Strategy<Value = i16> {
            (0u8..4, any::<i16>()).prop_map(|(pick, v)| match pick {
                0 => i16::MIN,
                1 => i16::MAX,
                2 => v % 4,
                _ => v,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// The block scan equals a naive clamped-window min/max for
            /// every length, every odd window up to `2n + 1` and both
            /// polarities.
            #[test]
            fn block_scan_matches_a_naive_clamped_window(
                data in prop::collection::vec(sample(), 1..301),
                w in any::<usize>(),
                take_max in any::<bool>(),
            ) {
                let n = data.len();
                let window = 2 * (w % (n + 1)) + 1;
                let mut mem = VecStorage::new(2 * n);
                mem.store_slice(0, &data);
                sliding_extreme(&mut mem, 0, n, n, window, take_max);
                let got = mem.load_slice(n, n);
                let half = window / 2;
                let want: Vec<i16> = (0..n)
                    .map(|i| {
                        let s = &data[i.saturating_sub(half)..=(i + half).min(n - 1)];
                        if take_max {
                            *s.iter().max().expect("non-empty window")
                        } else {
                            *s.iter().min().expect("non-empty window")
                        }
                    })
                    .collect();
                prop_assert_eq!(got, want, "n {} window {} max {}", n, window, take_max);
            }
        }
    }

    mod reference_props {
        use super::super::sliding_extreme_f64;
        use proptest::prelude::*;

        /// The naive clamped-window fold the reference used before the
        /// block scan: the oracle.
        fn naive(x: &[f64], window: usize, take_max: bool) -> Vec<f64> {
            let (n, half) = (x.len(), window / 2);
            (0..n)
                .map(|i| {
                    let s = &x[i.saturating_sub(half)..=(i + half).min(n - 1)];
                    if take_max {
                        s.iter().cloned().fold(f64::MIN, f64::max)
                    } else {
                        s.iter().cloned().fold(f64::MAX, f64::min)
                    }
                })
                .collect()
        }

        /// Finite samples, never −0.0: the padding identities
        /// `f64::MIN`/`f64::MAX`, their neighbours, integers (what the app
        /// feeds the reference), half-integers, and arbitrary magnitudes.
        fn sample() -> impl Strategy<Value = f64> {
            (0u8..6, any::<i16>(), any::<f64>()).prop_map(|(pick, v, f)| match pick {
                0 => f64::MIN,
                1 => f64::MAX,
                2 => f64::from(v % 4),
                3 => f64::from(v) / 2.0,
                4 => f64::from(v) * 1e-3,
                // `f` is uniform in [0, 1): magnitudes up to 5e307 of
                // either sign, and +0.0 at f = 0.5.
                _ => (f - 0.5) * 1e308,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// The van Herk/Gil-Werman float reference equals the naive
            /// clamped fold bit for bit, for every length, every odd
            /// window from 1 to `2n + 1` and both polarities.
            #[test]
            fn float_block_scan_matches_the_naive_clamped_fold(
                data in prop::collection::vec(sample(), 1..301),
                sign in 0u8..3,
                window_pick in (any::<bool>(), any::<usize>()),
                take_max in any::<bool>(),
            ) {
                // One signal in three is all non-positive and one all
                // non-negative, so edge windows whose every sample is below
                // (or above) any padding value the scan might use are common.
                let data: Vec<f64> = data
                    .into_iter()
                    .map(|x| match sign {
                        0 if x > 0.0 => -x,
                        1 if x < 0.0 => -x,
                        _ => x,
                    })
                    .collect();
                let n = data.len();
                let (small, w) = window_pick;
                let window = 2 * (w % if small { 3 } else { n + 1 }) + 1;
                let got: Vec<u64> = sliding_extreme_f64(&data, window, take_max)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let want: Vec<u64> = naive(&data, window, take_max)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(got, want, "n {} window {} max {}", n, window, take_max);
            }
        }
    }

    #[test]
    fn flat_signal_passes_through_unchanged() {
        let app = MorphologicalFilter::new(300, 360.0);
        let input = vec![-1000i16; 300];
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        // Constant minus its own baseline is zero.
        assert!(out.iter().all(|&v| v == 0), "{:?}", &out[..8]);
    }

    #[test]
    fn removes_slow_ramp_keeps_qrs_width_spike() {
        let app = MorphologicalFilter::new(400, 360.0);
        let mut input: Vec<i16> = (0..400).map(|i| (i * 4) as i16).collect();
        // An R-like triangular deflection ~30 ms wide (11 samples at
        // 360 Hz) — wider than the 5-sample denoising element, so the
        // opening preserves it while single-sample impulses would go.
        for (k, d) in (-5i32..=5).enumerate() {
            let boost = 8000 - d.abs() * 1500;
            input[195 + k] = input[195 + k].saturating_add(boost as i16);
        }
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        let spike = out[200];
        let rest_max = out
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as i32 - 200).abs() > 40)
            .map(|(_, &v)| i32::from(v).abs())
            .max()
            .unwrap();
        assert!(i32::from(spike) > 5000, "spike flattened: {spike}");
        assert!(rest_max < 1500, "baseline residue {rest_max}");
    }

    #[test]
    fn fixed_point_tracks_float_reference() {
        let app = MorphologicalFilter::new(512, 360.0);
        let input: Vec<i16> = (0..512)
            .map(|i| (((i as f64) * 0.1).sin() * 4000.0) as i16)
            .collect();
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        let snr = snr_db(&app.run_reference(&input), &samples_to_f64(&out));
        // Min/max are exact in both domains; only the /2 rounding differs.
        assert!(snr > 60.0, "SNR {snr}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn short_window_rejected() {
        let _ = MorphologicalFilter::new(64, 360.0);
    }
}
