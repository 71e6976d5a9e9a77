//! Wavelet delineation (paper §II-5).

use crate::app::{AppKind, BiomedicalApp};
use crate::dwt::{highpass_f64, highpass_fixed, lowpass_f64, lowpass_fixed};
use crate::WordStorage;

/// DWT-based heartbeat delineation: finds the P, Q, R, S and T fiducial
/// points of every beat, the front-end of embedded heartbeat classifiers
/// (\[8\], \[9\] in the paper).
///
/// Pipeline (the §II-1 DWT feeding the detector, as in the paper):
///
/// 1. scale-1 low-pass of the input (QRS-preserving smoothing),
/// 2. scale-2 detail `W₂` of that signal — QRS complexes appear as a
///    positive/negative modulus-maxima pair whose zero crossing marks R,
/// 3. scale-2 approximation (P/T-preserving smoothing),
/// 4. thresholded pair search on `W₂` with a physiological refractory
///    period → R; windowed extremum searches around each R → Q, S
///    (scale-1 signal) and P, T (scale-2 signal).
///
/// The output buffer packs `[P, Q, R, S, T]` sample positions per detected
/// beat. Under fault injection the detail buffer corrupts, beats are
/// missed or hallucinated, and the position vector diverges — which is how
/// this qualitative application still yields the quantitative SNR of
/// Formula 1.
///
/// ```
/// use dream_dsp::{BiomedicalApp, WaveletDelineation, VecStorage};
/// use dream_ecg::Database;
/// let record = Database::record(100, 1024);
/// let app = WaveletDelineation::new(1024, record.fs);
/// let mut mem = VecStorage::new(app.memory_words());
/// let out = app.run(&record.samples, &mut mem);
/// let beats = out.chunks(5).filter(|c| c[2] != 0).count();
/// assert!(beats >= 2, "should find beats in ~2.8 s of normal sinus");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaveletDelineation {
    n: usize,
    fs: f64,
    max_beats: usize,
}

impl WaveletDelineation {
    /// Creates a delineator for `n`-sample windows sampled at `fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics if the window is shorter than one second of signal.
    pub fn new(n: usize, fs: f64) -> Self {
        assert!(fs > 0.0, "sampling rate must be positive");
        assert!(n as f64 >= fs, "window must hold at least one second");
        // Physiological ceiling: one beat per 250 ms.
        let max_beats = (n as f64 / (0.25 * fs)).ceil() as usize;
        WaveletDelineation { n, fs, max_beats }
    }

    /// Maximum number of beats the output buffer can hold.
    pub fn max_beats(&self) -> usize {
        self.max_beats
    }

    fn input_base(&self) -> usize {
        0
    }
    fn lp1(&self) -> usize {
        self.n
    }
    fn w2(&self) -> usize {
        2 * self.n
    }
    fn lp2(&self) -> usize {
        3 * self.n
    }
    /// Base address of the scale-2 smoothed signal inside the app's memory
    /// layout — the classifier built on top reads P/QRS amplitudes there.
    pub(crate) fn lp2_base(&self) -> usize {
        self.lp2()
    }
    /// Float mirror of the scale-2 smoothed signal (for references).
    pub(crate) fn lp2_reference(&self, input: &[i16]) -> Vec<f64> {
        let x: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        let lp1 = lowpass_f64(&x, 1);
        lowpass_f64(&lp1, 2)
    }
    fn output_base(&self) -> usize {
        4 * self.n
    }
}

/// The shared detection logic, parameterized over value accessors so the
/// fixed-point path (reading through the faulty memory) and the float
/// reference execute *identical* control flow.
fn detect_fiducials(
    n: usize,
    fs: f64,
    mut w2: impl FnMut(usize) -> f64,
    mut lp1: impl FnMut(usize) -> f64,
    mut lp2: impl FnMut(usize) -> f64,
    max_beats: usize,
) -> Vec<i16> {
    let ms = |t: f64| ((t * fs).round() as usize).max(1);
    let mut out = vec![0i16; 5 * max_beats];
    // Adaptive threshold from the mean modulus of the detail signal.
    let mean_abs = (0..n).map(&mut w2).map(f64::abs).sum::<f64>() / n as f64;
    let thr = 3.0 * mean_abs;
    if thr <= 0.0 {
        return out;
    }
    let pair_window = ms(0.10);
    let refractory = ms(0.25);
    let mut beat = 0usize;
    let mut i = 1usize;
    while i < n && beat < max_beats {
        if w2(i) > thr {
            // Positive modulus maximum: strongest detail in the next 60 ms.
            let lobe_end = (i + ms(0.06)).min(n - 1);
            let mut imax = i;
            let mut vmax = w2(i);
            for j in i..=lobe_end {
                let v = w2(j);
                if v > vmax {
                    vmax = v;
                    imax = j;
                }
            }
            // Matching negative maximum within the pair window.
            let search_end = (imax + pair_window).min(n - 1);
            let mut imin = None;
            let mut vmin = -thr;
            for j in imax..=search_end {
                let v = w2(j);
                if v < vmin {
                    vmin = v;
                    imin = Some(j);
                }
            }
            if let Some(imin) = imin {
                // R: maximum of the smoothed signal across the pair.
                let lo = imax.saturating_sub(ms(0.02));
                let hi = (imin + ms(0.02)).min(n - 1);
                let r = argext(lo, hi, &mut lp1, true);
                // Q/S: nearest minima of the scale-1 signal.
                let q = argext(r.saturating_sub(ms(0.08)), r, &mut lp1, false);
                let s = argext(r, (r + ms(0.08)).min(n - 1), &mut lp1, false);
                // P/T: extrema of the heavier-smoothed scale-2 signal.
                let p = argext(
                    r.saturating_sub(ms(0.26)),
                    r.saturating_sub(ms(0.09)),
                    &mut lp2,
                    true,
                );
                let t = argext(
                    (r + ms(0.10)).min(n - 1),
                    (r + ms(0.40)).min(n - 1),
                    &mut lp2,
                    true,
                );
                let slot = &mut out[beat * 5..beat * 5 + 5];
                slot[0] = p as i16;
                slot[1] = q as i16;
                slot[2] = r as i16;
                slot[3] = s as i16;
                slot[4] = t as i16;
                beat += 1;
                i = imin + refractory;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Index of the extremum of `f` over `[lo, hi]` (max if `take_max`).
fn argext(lo: usize, hi: usize, f: &mut impl FnMut(usize) -> f64, take_max: bool) -> usize {
    let (mut best_i, mut best_v) = (lo, f(lo));
    for j in lo..=hi {
        let v = f(j);
        if (take_max && v > best_v) || (!take_max && v < best_v) {
            best_v = v;
            best_i = j;
        }
    }
    best_i
}

impl BiomedicalApp for WaveletDelineation {
    fn name(&self) -> &'static str {
        "Wavelet Delineation"
    }

    fn kind(&self) -> AppKind {
        AppKind::WaveletDelineation
    }

    fn input_len(&self) -> usize {
        self.n
    }

    fn output_len(&self) -> usize {
        5 * self.max_beats
    }

    fn memory_words(&self) -> usize {
        4 * self.n + self.output_len()
    }

    /// Scale-1 low-pass, scale-2 detail, scale-2 low-pass, then
    /// detection (which stores the fiducials).
    fn stages(&self) -> usize {
        4
    }

    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage) {
        let n = self.n;
        match k {
            0 => {
                mem.store_slice(self.input_base(), input);
                lowpass_fixed(mem, self.input_base(), self.lp1(), n, 1);
            }
            1 => highpass_fixed(mem, self.lp1(), self.w2(), n, 2),
            2 => lowpass_fixed(mem, self.lp1(), self.lp2(), n, 2),
            3 => {
                // The detector re-reads the transformed buffers through
                // the (possibly faulty) memory on every access, as the
                // device would — streamed in as one block load per buffer
                // (same words, same access counts).
                let mut w2v = vec![0i16; n];
                let mut lp1v = vec![0i16; n];
                let mut lp2v = vec![0i16; n];
                mem.read_block(self.w2(), &mut w2v);
                mem.read_block(self.lp1(), &mut lp1v);
                mem.read_block(self.lp2(), &mut lp2v);
                let fiducials = detect_fiducials(
                    n,
                    self.fs,
                    |i| f64::from(w2v[i]),
                    |i| f64::from(lp1v[i]),
                    |i| f64::from(lp2v[i]),
                    self.max_beats,
                );
                mem.store_slice(self.output_base(), &fiducials);
            }
            _ => panic!("stage {k} out of range"),
        }
    }

    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
        mem.load_slice(self.output_base(), self.output_len())
    }

    fn run_reference(&self, input: &[i16]) -> Vec<f64> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let x: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        let lp1 = lowpass_f64(&x, 1);
        let w2 = highpass_f64(&lp1, 2);
        let lp2 = lowpass_f64(&lp1, 2);
        detect_fiducials(
            self.n,
            self.fs,
            |i| w2[i],
            |i| lp1[i],
            |i| lp2[i],
            self.max_beats,
        )
        .into_iter()
        .map(f64::from)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecStorage;
    use dream_ecg::{Database, Pathology};

    #[test]
    fn finds_physiological_beat_count() {
        // ~5.7 s of 70 bpm sinus: expect 5-8 beats.
        let record = Database::record(100, 2048);
        let app = WaveletDelineation::new(2048, record.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&record.samples, &mut mem);
        let beats = out.chunks(5).filter(|c| c[2] != 0).count();
        assert!((4..=9).contains(&beats), "{beats} beats");
    }

    #[test]
    fn fiducials_are_ordered_within_a_beat() {
        let record = Database::record(100, 2048);
        let app = WaveletDelineation::new(2048, record.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&record.samples, &mut mem);
        for c in out.chunks(5).filter(|c| c[2] != 0) {
            let (p, q, r, s, t) = (c[0], c[1], c[2], c[3], c[4]);
            assert!(p <= q, "P {p} after Q {q}");
            assert!(q <= r, "Q {q} not before R {r}");
            assert!(r <= s, "S {s} not after R {r}");
            assert!(s <= t, "T {t} before S {s}");
        }
    }

    #[test]
    fn r_positions_match_float_reference_on_clean_memory() {
        let record = Database::record(102, 1536);
        let app = WaveletDelineation::new(1536, record.fs);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&record.samples, &mut mem);
        let reference = app.run_reference(&record.samples);
        // Fixed-point DWT rounding may shift a fiducial by a sample or two;
        // positions must still be essentially identical.
        for (i, (&got, &want)) in out.iter().zip(&reference).enumerate() {
            assert!(
                (f64::from(got) - want).abs() <= 3.0,
                "fiducial {i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn tachycardia_yields_more_beats_than_bradycardia() {
        let fast = Database::date16_suite(2048)
            .into_iter()
            .find(|r| r.pathology == Pathology::Tachycardia)
            .unwrap();
        let slow = Database::date16_suite(2048)
            .into_iter()
            .find(|r| r.pathology == Pathology::Bradycardia)
            .unwrap();
        let app = WaveletDelineation::new(2048, fast.fs);
        let mut m1 = VecStorage::new(app.memory_words());
        let mut m2 = VecStorage::new(app.memory_words());
        let nf = app
            .run(&fast.samples, &mut m1)
            .chunks(5)
            .filter(|c| c[2] != 0)
            .count();
        let ns = app
            .run(&slow.samples, &mut m2)
            .chunks(5)
            .filter(|c| c[2] != 0)
            .count();
        assert!(nf > ns, "tachy {nf} vs brady {ns}");
    }

    #[test]
    fn empty_signal_finds_no_beats() {
        let app = WaveletDelineation::new(512, 360.0);
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&vec![0; 512], &mut mem);
        assert!(out.iter().all(|&v| v == 0));
    }
}
