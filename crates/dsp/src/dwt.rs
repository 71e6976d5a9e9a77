//! Discrete wavelet transform (paper §II-1).

use dream_fixed::{Rounding, Q15};

use crate::app::{AppKind, BiomedicalApp};
use crate::WordStorage;

/// Multi-scale à-trous DWT with the quadratic-spline filter pair used by
/// embedded multi-lead ECG delineators ([8] in the paper).
///
/// Per scale `j` (filter taps spread by `2^(j-1)`, symmetric clamped
/// boundaries):
///
/// * low-pass: `(x[i-2s] + 3·x[i-s] + 3·x[i] + x[i+s]) / 8` — the binomial
///   spline smoother, computed in a 32-bit MAC and rounded back to 16 bits
///   on store (every store goes to the data memory, which is where the
///   paper's faults live),
/// * high-pass: `x[i] - x[i-s]` — the spline derivative detail.
///
/// The output concatenates the detail signals of all scales followed by the
/// final approximation, which is what the downstream delineator consumes.
///
/// ```
/// use dream_dsp::{BiomedicalApp, Dwt, VecStorage};
/// let app = Dwt::new(128, 3);
/// let input: Vec<i16> = (0..128).map(|i| (i * 13 % 251) as i16).collect();
/// let mut mem = VecStorage::new(app.memory_words());
/// let out = app.run(&input, &mut mem);
/// assert_eq!(out.len(), 4 * 128); // 3 details + 1 approximation
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dwt {
    n: usize,
    scales: u32,
}

impl Dwt {
    /// Creates a DWT over `n`-sample windows with `scales` decomposition
    /// levels.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `scales` is zero or large enough that the
    /// tap spread (`2^(scales-1) · 2`) exceeds the window.
    pub fn new(n: usize, scales: u32) -> Self {
        assert!(n > 0, "window must be non-empty");
        assert!(scales > 0, "need at least one scale");
        assert!(
            (1usize << (scales - 1)) * 2 < n,
            "tap spread exceeds the window"
        );
        Dwt { n, scales }
    }

    /// Number of decomposition levels.
    pub fn scales(&self) -> u32 {
        self.scales
    }

    // Buffer layout inside the data memory.
    fn input_base(&self) -> usize {
        0
    }
    fn approx_a(&self) -> usize {
        self.n
    }
    fn approx_b(&self) -> usize {
        2 * self.n
    }
    fn output_base(&self) -> usize {
        3 * self.n
    }
    /// The buffer scale `j` reads: the input for `j = 0`, then the
    /// approximations ping-pong between the two approximation buffers.
    fn scale_src(&self, j: usize) -> usize {
        match j {
            0 => self.input_base(),
            j if j % 2 == 1 => self.approx_a(),
            _ => self.approx_b(),
        }
    }
}

/// Clamped (symmetric-edge) index.
#[inline]
pub(crate) fn clamp_idx(i: isize, n: usize) -> usize {
    i.clamp(0, n as isize - 1) as usize
}

/// Loads the clamped-shifted tap `x[clamp_idx(i + off)]` for every `i`
/// into `out`: one contiguous block read for the in-range span plus
/// per-word reads of the edge words the clamping repeats — exactly the
/// same source cells, read exactly the same number of times, as the
/// word-at-a-time tap loop, but with per-block instead of per-word
/// dispatch.
pub(crate) fn read_shifted_tap(mem: &mut dyn WordStorage, src: usize, off: isize, out: &mut [i16]) {
    let n = out.len();
    debug_assert!(off.unsigned_abs() < n, "tap spread exceeds the window");
    if off >= 0 {
        // In-range span src+off..src+n, then `off` clamped reads of the
        // last word.
        let m = n - off as usize;
        mem.read_block(src + off as usize, &mut out[..m]);
        for slot in &mut out[m..] {
            *slot = mem.read(src + n - 1);
        }
    } else {
        // `-off` clamped reads of the first word, then the in-range span
        // src..src+n+off.
        let o = off.unsigned_abs();
        for slot in &mut out[..o] {
            *slot = mem.read(src);
        }
        mem.read_block(src, &mut out[o..]);
    }
}

/// One à-trous low-pass pass in fixed point: `src` region → `dst` region
/// (always disjoint), streamed tap by tap.
pub(crate) fn lowpass_fixed(
    mem: &mut dyn WordStorage,
    src: usize,
    dst: usize,
    n: usize,
    spacing: usize,
) {
    let s = spacing as isize;
    // The four taps stream in first (same cells, same counts, same order
    // as the per-tap formulation); the weighted sum, renormalization and
    // narrowing then run as one fused pass the compiler can vectorize,
    // instead of four accumulator sweeps plus a rounding sweep.
    let mut t0 = vec![0i16; n];
    let mut t1 = vec![0i16; n];
    let mut t2 = vec![0i16; n];
    let mut t3 = vec![0i16; n];
    read_shifted_tap(mem, src, -2 * s, &mut t0);
    read_shifted_tap(mem, src, -s, &mut t1);
    read_shifted_tap(mem, src, 0, &mut t2);
    read_shifted_tap(mem, src, s, &mut t3);
    for i in 0..n {
        // Integer accumulation: the un-normalized spline sum needs three
        // bits of headroom beyond the sample width, so it runs in the MAC
        // register (i32) and is renormalized by the /8 on the way out.
        let sum = i32::from(t0[i]) + 3 * i32::from(t1[i]) + 3 * i32::from(t2[i]) + i32::from(t3[i]);
        t0[i] = Rounding::Nearest
            .shift_right(i64::from(sum), 3)
            .clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
    }
    mem.write_block(dst, &t0);
}

/// One à-trous high-pass pass in fixed point, streamed tap by tap.
pub(crate) fn highpass_fixed(
    mem: &mut dyn WordStorage,
    src: usize,
    dst: usize,
    n: usize,
    spacing: usize,
) {
    let s = spacing as isize;
    let mut cur = vec![0i16; n];
    let mut lag = vec![0i16; n];
    read_shifted_tap(mem, src, 0, &mut cur);
    read_shifted_tap(mem, src, -s, &mut lag);
    for (a, &b) in cur.iter_mut().zip(&lag) {
        *a = Q15::from_raw(*a).saturating_sub(Q15::from_raw(b)).raw();
    }
    mem.write_block(dst, &cur);
}

/// Float reference of [`lowpass_fixed`].
pub(crate) fn lowpass_f64(x: &[f64], spacing: usize) -> Vec<f64> {
    let n = x.len();
    let s = spacing as isize;
    (0..n as isize)
        .map(|i| {
            (x[clamp_idx(i - 2 * s, n)]
                + 3.0 * x[clamp_idx(i - s, n)]
                + 3.0 * x[clamp_idx(i, n)]
                + x[clamp_idx(i + s, n)])
                / 8.0
        })
        .collect()
}

/// Float reference of [`highpass_fixed`].
pub(crate) fn highpass_f64(x: &[f64], spacing: usize) -> Vec<f64> {
    let n = x.len();
    let s = spacing as isize;
    (0..n as isize)
        .map(|i| x[clamp_idx(i, n)] - x[clamp_idx(i - s, n)])
        .collect()
}

impl BiomedicalApp for Dwt {
    fn name(&self) -> &'static str {
        "DWT"
    }

    fn kind(&self) -> AppKind {
        AppKind::Dwt
    }

    fn input_len(&self) -> usize {
        self.n
    }

    fn output_len(&self) -> usize {
        (self.scales as usize + 1) * self.n
    }

    fn memory_words(&self) -> usize {
        3 * self.n + self.output_len()
    }

    /// One stage per scale, then the final approximation copy.
    fn stages(&self) -> usize {
        self.scales as usize + 1
    }

    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage) {
        let n = self.n;
        let scales = self.scales as usize;
        if k == 0 {
            mem.store_slice(self.input_base(), input);
        }
        if k < scales {
            let spacing = 1usize << k;
            // Detail of this scale goes straight to its output slot.
            highpass_fixed(
                mem,
                self.scale_src(k),
                self.output_base() + k * n,
                n,
                spacing,
            );
            lowpass_fixed(mem, self.scale_src(k), self.scale_src(k + 1), n, spacing);
        } else {
            // Final approximation: copied into the output region through
            // the memory, like any other buffer-to-buffer move on the
            // device — streamed as one block load + one block store over
            // the same words.
            let mut approx = vec![0i16; n];
            mem.read_block(self.scale_src(scales), &mut approx);
            mem.write_block(self.output_base() + scales * n, &approx);
        }
    }

    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
        mem.load_slice(self.output_base(), self.output_len())
    }

    fn run_reference(&self, input: &[i16]) -> Vec<f64> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let mut cur: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        let mut out = Vec::with_capacity(self.output_len());
        for j in 0..self.scales {
            let spacing = 1usize << j;
            out.extend(highpass_f64(&cur, spacing));
            cur = lowpass_f64(&cur, spacing);
        }
        out.extend(cur);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples_to_f64, snr_db, VecStorage};

    fn ramp(n: usize) -> Vec<i16> {
        (0..n)
            .map(|i| ((i as i32 * 37) % 2000 - 1000) as i16)
            .collect()
    }

    #[test]
    fn constant_signal_has_zero_details() {
        let app = Dwt::new(64, 2);
        let input = vec![500i16; 64];
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        // Details (first 2*64 words) vanish; approximation equals input.
        assert!(out[..128].iter().all(|&d| d == 0));
        assert!(out[128..].iter().all(|&a| a == 500));
    }

    #[test]
    fn fixed_point_tracks_float_reference() {
        let app = Dwt::new(256, 4);
        let input = ramp(256);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        let reference = app.run_reference(&input);
        let snr = snr_db(&reference, &samples_to_f64(&out));
        assert!(snr > 50.0, "quantization-limited SNR too low: {snr}");
    }

    #[test]
    fn detail_catches_a_step() {
        let app = Dwt::new(64, 1);
        let mut input = vec![0i16; 64];
        for v in input.iter_mut().skip(32) {
            *v = 1000;
        }
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        // Scale-1 detail spikes exactly at the step.
        assert_eq!(out[32], 1000);
        assert_eq!(out[31], 0);
    }

    #[test]
    fn output_layout_is_details_then_approx() {
        let app = Dwt::new(64, 3);
        assert_eq!(app.output_len(), 4 * 64);
        assert_eq!(app.memory_words(), 3 * 64 + 4 * 64);
    }

    #[test]
    #[should_panic(expected = "tap spread")]
    fn too_many_scales_rejected() {
        let _ = Dwt::new(16, 5);
    }
}
