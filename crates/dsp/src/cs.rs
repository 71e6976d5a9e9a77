//! Compressed sensing (paper §II-3).

use dream_fixed::Rounding;

use crate::app::{AppKind, BiomedicalApp};
use crate::WordStorage;

/// 50 % lossy compression of an ECG window with a sparse binary sensing
/// matrix, after the power-efficient WBSN scheme of Mamaghanian et al.
/// (\[10\]/\[11\] in the paper).
///
/// The measurement vector is `y = Φ·x` with a sparse **binary** matrix
/// `Φ ∈ {0, 1}^{M×N}` (`M = N/2`, a fixed number of ones per column — the
/// construction of \[11\], chosen there because it needs no multipliers).
/// Binary entries also mean the measurements inherit the input's sign
/// statistics: mostly-negative samples give mostly-negative measurements,
/// which is what lets CS hide MSB stuck-at-1 faults in Fig. 2. `Φ` is never
/// stored: WBSN implementations regenerate it on the fly from a PRNG seed
/// (that is the whole point of the sparse-binary construction), so only
/// the input window and the measurement vector occupy data memory. The
/// accumulated sums are scaled back by a power-of-two shift sized so the
/// measurements cannot saturate.
///
/// The paper notes CS output can tolerate substantial degradation: 35 dB
/// reconstruction SNR suffices for multi-lead ECG (§III), which is why CS
/// tolerates stuck-at faults up to bit ~10–12 in Fig. 2.
///
/// ```
/// use dream_dsp::{BiomedicalApp, CompressedSensing, VecStorage};
/// let app = CompressedSensing::new(128, 4, 99);
/// let input: Vec<i16> = (0..128).map(|i| (i * 17 % 401 - 200) as i16).collect();
/// let mut mem = VecStorage::new(app.memory_words());
/// let y = app.run(&input, &mut mem);
/// assert_eq!(y.len(), 64); // half the input size
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedSensing {
    n: usize,
    nonzeros_per_column: u32,
    seed: u64,
}

impl CompressedSensing {
    /// Creates a compressor for `n`-sample windows (`n` even) with
    /// `nonzeros_per_column` entries per column of `Φ`, regenerated from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd, or `nonzeros_per_column` is zero.
    pub fn new(n: usize, nonzeros_per_column: u32, seed: u64) -> Self {
        assert!(n > 0 && n % 2 == 0, "window must be even-sized");
        assert!(nonzeros_per_column > 0, "matrix must have entries");
        CompressedSensing {
            n,
            nonzeros_per_column,
            seed,
        }
    }

    /// Number of measurements (`N/2`: the paper's 50 % compression).
    pub fn measurements(&self) -> usize {
        self.n / 2
    }

    /// Right-shift applied to each accumulated measurement. Sized from the
    /// worst-case row weight so the 16-bit store cannot saturate: with the
    /// average row weight `2·d`, a generous margin of `4·d` inputs at full
    /// scale still fits after shifting by `log2(4·d)`.
    fn scale_shift(&self) -> u32 {
        (4 * self.nonzeros_per_column)
            .next_power_of_two()
            .trailing_zeros()
    }

    /// The row index of the `k`-th one in column `col`.
    ///
    /// A splitmix64 hash stands in for the on-node PRNG; everything is
    /// deterministic in the seed, which the campaigns rely on.
    fn entry_row(&self, col: usize, k: u32) -> usize {
        let h = splitmix64(
            self.seed ^ (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k) << 48,
        );
        (h % self.measurements() as u64) as usize
    }

    fn input_base(&self) -> usize {
        0
    }
    fn output_base(&self) -> usize {
        self.n
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BiomedicalApp for CompressedSensing {
    fn name(&self) -> &'static str {
        "Compressed Sensing"
    }

    fn kind(&self) -> AppKind {
        AppKind::CompressedSensing
    }

    fn input_len(&self) -> usize {
        self.n
    }

    fn output_len(&self) -> usize {
        self.measurements()
    }

    fn memory_words(&self) -> usize {
        self.n + self.measurements()
    }

    /// Two stages: store the window, then accumulate and write the
    /// measurements (the accumulators are registers, so accumulation and
    /// write-out cannot be split without a memory round trip the device
    /// does not make).
    fn stages(&self) -> usize {
        2
    }

    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage) {
        if k == 0 {
            mem.store_slice(self.input_base(), input);
            return;
        }
        let shift = self.scale_shift();
        // Row-major accumulation in registers: the node accumulates each
        // measurement in a MAC register, then stores it once. Only buffers
        // live in (faulty) data memory.
        let mut acc = vec![0i64; self.measurements()];
        for col in 0..self.n {
            let x = i64::from(mem.read(self.input_base() + col));
            for k in 0..self.nonzeros_per_column {
                acc[self.entry_row(col, k)] += x;
            }
        }
        for (row, &a) in acc.iter().enumerate() {
            let v = Rounding::Nearest
                .shift_right(a, shift)
                .clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
            mem.write(self.output_base() + row, v);
        }
    }

    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
        mem.load_slice(self.output_base(), self.measurements())
    }

    fn run_reference(&self, input: &[i16]) -> Vec<f64> {
        assert_eq!(input.len(), self.n, "input length mismatch");
        let m = self.measurements();
        let scale = f64::from(1u32 << self.scale_shift());
        let mut acc = vec![0.0f64; m];
        for (col, &x) in input.iter().enumerate() {
            for k in 0..self.nonzeros_per_column {
                acc[self.entry_row(col, k)] += f64::from(x);
            }
        }
        acc.iter().map(|a| a / scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples_to_f64, snr_db, VecStorage};

    #[test]
    fn output_is_half_the_input() {
        let app = CompressedSensing::new(256, 4, 1);
        assert_eq!(app.output_len(), 128);
        assert_eq!(app.memory_words(), 384);
    }

    #[test]
    fn deterministic_in_seed() {
        let input: Vec<i16> = (0..128).map(|i| (i * 7) as i16).collect();
        let a = CompressedSensing::new(128, 4, 5);
        let b = CompressedSensing::new(128, 4, 5);
        let mut m1 = VecStorage::new(a.memory_words());
        let mut m2 = VecStorage::new(b.memory_words());
        assert_eq!(a.run(&input, &mut m1), b.run(&input, &mut m2));
        let c = CompressedSensing::new(128, 4, 6);
        let mut m3 = VecStorage::new(c.memory_words());
        assert_ne!(a.run(&input, &mut m1), c.run(&input, &mut m3));
    }

    #[test]
    fn zero_input_gives_zero_measurements() {
        let app = CompressedSensing::new(64, 4, 2);
        let mut mem = VecStorage::new(app.memory_words());
        assert!(app.run(&[0; 64], &mut mem).iter().all(|&v| v == 0));
    }

    #[test]
    fn fixed_point_tracks_float_reference() {
        let app = CompressedSensing::new(256, 4, 3);
        let input: Vec<i16> = (0..256)
            .map(|i| ((i * 157) % 12000 - 6000) as i16)
            .collect();
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        let snr = snr_db(&app.run_reference(&input), &samples_to_f64(&out));
        assert!(snr > 45.0, "SNR {snr}");
    }

    #[test]
    fn measurements_capture_signal_energy() {
        // A sparse binary projection hits every column d times: nonzero
        // input ⇒ nonzero output.
        let app = CompressedSensing::new(256, 4, 8);
        let input: Vec<i16> = (0..256)
            .map(|i| if i == 100 { 10_000 } else { 0 })
            .collect();
        let mut mem = VecStorage::new(app.memory_words());
        let y = app.run(&input, &mut mem);
        assert!(y.iter().any(|&v| v != 0));
    }

    #[test]
    fn no_saturation_at_full_scale() {
        let app = CompressedSensing::new(128, 4, 4);
        let input = vec![i16::MAX; 128];
        let mut mem = VecStorage::new(app.memory_words());
        let y = app.run(&input, &mut mem);
        // The shift is sized so even pathological inputs rarely rail; the
        // clamp exists but should not be the common case.
        let railed = y
            .iter()
            .filter(|&&v| v == i16::MAX || v == i16::MIN)
            .count();
        assert!(railed < y.len() / 4, "{railed} of {} railed", y.len());
    }
}
