//! Matrix filtering (paper §II-2).

use dream_fixed::{dot_q15, Rounding};

use crate::app::{AppKind, BiomedicalApp};
use crate::WordStorage;

/// Iterated matrix-multiplication filtering: `[A] × [B] = [C]`, repeated
/// until the quality target is met (a fixed iteration count here).
///
/// `A` is a dense high-pass transformation matrix `I − G` (identity minus
/// a row-normalized Gaussian — the paper names low-/high-pass filtering as
/// the example transformations); `B` packs the signal into `dim`-sample
/// windows, one per column. After each iteration `C` becomes the next `B`.
///
/// This is the application whose SNR curve sits visibly *below* the others
/// in Fig. 2: every output element depends on a full row of `A` and a full
/// column of `B`, so a single stuck bit fans out across the result —
/// exactly the error-propagation argument of §III. The matrix `A` lives in
/// the same faulty memory as the signal, so coefficient corruption
/// propagates to entire output rows.
///
/// ```
/// use dream_dsp::{BiomedicalApp, MatrixFilter, VecStorage};
/// let app = MatrixFilter::new(16, 4, 2);
/// let input: Vec<i16> = (0..64).map(|i| (i * 31 % 997) as i16).collect();
/// let mut mem = VecStorage::new(app.memory_words());
/// let out = app.run(&input, &mut mem);
/// assert_eq!(out.len(), 64);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixFilter {
    dim: usize,
    windows: usize,
    iterations: u32,
    /// The quantized `I − G` matrix, row-major. Fixed by `dim`, so it is
    /// computed once at construction, with each row's Gaussian sum
    /// computed once: O(dim²) `exp` calls (1,056 at dim 32).
    coeffs: Vec<i16>,
}

/// Width parameter of the Gaussian transformation matrix (samples). Wide
/// on purpose: the paper's point about this application is that `A` is a
/// *dense* transformation — "each element of the resulting matrix depends
/// on many elements (one full row and one full column) of the input
/// matrices" — which is what drags its Fig. 2 curve below the other apps.
const KERNEL_SIGMA: f64 = 6.0;

impl MatrixFilter {
    /// Creates a filter over `windows` windows of `dim` samples, applying
    /// the matrix `iterations` times.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `dim < 5` (the kernel span).
    pub fn new(dim: usize, windows: usize, iterations: u32) -> Self {
        assert!(dim >= 5, "matrix dimension must cover the kernel");
        assert!(windows > 0, "need at least one window");
        assert!(iterations > 0, "need at least one iteration");
        let coeffs = (0..dim)
            .flat_map(|r| {
                let row_sum = gaussian_row_sum(dim, r);
                (0..dim).map(move |c| quantize_coefficient(r, c, row_sum))
            })
            .collect();
        MatrixFilter {
            dim,
            windows,
            iterations,
            coeffs,
        }
    }

    /// The filter-matrix coefficient `A[r][c]` in Q15: identity minus a
    /// row-normalized Gaussian — a dense high-pass transformation whose
    /// off-diagonal terms couple every output to (almost) the full input
    /// column, exactly the dependency structure the paper blames for this
    /// application's low Fig. 2 curve.
    fn coefficient_q15(&self, r: usize, c: usize) -> i16 {
        self.coeffs[r * self.dim + c]
    }

    // Memory layout: A, then B, then C.
    fn a_base(&self) -> usize {
        0
    }
    fn b_base(&self) -> usize {
        self.dim * self.dim
    }
    fn c_base(&self) -> usize {
        self.b_base() + self.dim * self.windows
    }
    /// `(source, destination)` of `iteration`: after each iteration `C`
    /// becomes the next `B`, so the two buffers alternate.
    fn buffers(&self, iteration: usize) -> (usize, usize) {
        if iteration % 2 == 0 {
            (self.b_base(), self.c_base())
        } else {
            (self.c_base(), self.b_base())
        }
    }
}

/// Unnormalized Gaussian weight between row `r` and column `c`.
fn gaussian_weight(r: usize, c: usize) -> f64 {
    let d = r as f64 - c as f64;
    (-d * d / (2.0 * KERNEL_SIGMA * KERNEL_SIGMA)).exp()
}

/// The normalizer of row `r`: its Gaussian weights summed in column
/// order.
fn gaussian_row_sum(dim: usize, r: usize) -> f64 {
    (0..dim).map(|k| gaussian_weight(r, k)).sum()
}

/// Quantizes one `I − G` coefficient of row `r`, whose
/// [`gaussian_row_sum`] is `row_sum` (construction-time helper behind
/// [`MatrixFilter::coefficient_q15`]).
fn quantize_coefficient(r: usize, c: usize, row_sum: f64) -> i16 {
    let smooth = gaussian_weight(r, c) / row_sum;
    let value = if r == c { 1.0 - smooth } else { -smooth };
    (value * 32768.0)
        .round()
        .clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}

impl BiomedicalApp for MatrixFilter {
    fn name(&self) -> &'static str {
        "Matrix Filtering"
    }

    fn kind(&self) -> AppKind {
        AppKind::MatrixFilter
    }

    fn input_len(&self) -> usize {
        self.dim * self.windows
    }

    fn output_len(&self) -> usize {
        self.dim * self.windows
    }

    fn memory_words(&self) -> usize {
        self.dim * self.dim + 2 * self.dim * self.windows
    }

    /// One stage per (iteration, column) product; stage 0 also stores A
    /// and B.
    fn stages(&self) -> usize {
        self.iterations as usize * self.windows
    }

    fn run_stage(&self, k: usize, input: &[i16], mem: &mut dyn WordStorage) {
        let dim = self.dim;
        let mut arow = vec![0i16; dim];
        if k == 0 {
            // Store A (row-major, one block write per row) and B (column
            // per window) through the memory.
            for r in 0..dim {
                for (c, slot) in arow.iter_mut().enumerate() {
                    *slot = self.coefficient_q15(r, c);
                }
                mem.write_block(self.a_base() + r * dim, &arow);
            }
            mem.store_slice(self.b_base(), input);
        }
        let (iteration, col) = (k / self.windows, k % self.windows);
        let (src, dst) = self.buffers(iteration);
        let mut bcol = vec![0i16; dim];
        let mut cres = vec![0i16; dim];
        for (r, res) in cres.iter_mut().enumerate() {
            // Full GEMM row traversal, exactly as the kernel runs on the
            // node: every coefficient of row r — including the stored
            // zeros — is re-read from the faulty memory (streamed in as
            // blocks, same cells and access counts as word-at-a-time
            // reads). This is why the paper's Fig. 2 puts this application
            // below the others: a stuck bit in a "zero" of A turns into a
            // phantom coefficient that couples the output to a whole
            // column of B.
            mem.read_block(self.a_base() + r * dim, &mut arow);
            mem.read_block(src + col * dim, &mut bcol);
            // `dot_q15` is bit-identical to the sequential `Acc32::mac`
            // fold (rows of I − G have gain < 2.0, so it vectorizes;
            // corrupted rows that could saturate fall back to the exact
            // fold).
            *res = dot_q15(&arow, &bcol).to_q15(Rounding::Nearest).raw();
        }
        mem.write_block(dst + col * dim, &cres);
    }

    fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
        // The source of the iteration after the last holds the freshest
        // result.
        mem.load_slice(self.buffers(self.iterations as usize).0, self.output_len())
    }

    fn run_reference(&self, input: &[i16]) -> Vec<f64> {
        assert_eq!(input.len(), self.input_len(), "input length mismatch");
        let (dim, cols) = (self.dim, self.windows);
        // Use the *quantized* coefficients so the reference isolates
        // arithmetic rounding, not coefficient quantization.
        let a: Vec<f64> = (0..dim * dim)
            .map(|i| f64::from(self.coefficient_q15(i / dim, i % dim)) / 32768.0)
            .collect();
        let mut b: Vec<f64> = input.iter().map(|&v| f64::from(v)).collect();
        for _ in 0..self.iterations {
            let mut c = vec![0.0; dim * cols];
            for col in 0..cols {
                for r in 0..dim {
                    let mut sum = 0.0;
                    for k in 0..dim {
                        sum += a[r * dim + k] * b[col * dim + k];
                    }
                    c[col * dim + r] = sum;
                }
            }
            b = c;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples_to_f64, snr_db, VecStorage};

    #[test]
    fn constant_input_is_rejected() {
        // Rows of I - G sum to ~0: the high-pass transformation suppresses
        // the DC component (baseline) almost completely.
        let app = MatrixFilter::new(16, 2, 1);
        let input = vec![8000i16; 32];
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        for &v in &out[4..12] {
            assert!(i32::from(v).abs() <= 24, "{v}");
        }
    }

    #[test]
    fn high_frequency_content_passes() {
        let app = MatrixFilter::new(32, 2, 1);
        let input: Vec<i16> = (0..64)
            .map(|i| if i % 2 == 0 { 2000 } else { -2000 })
            .collect();
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        let in_energy: i64 = input.iter().map(|&v| i64::from(v) * i64::from(v)).sum();
        let out_energy: i64 = out.iter().map(|&v| i64::from(v) * i64::from(v)).sum();
        // An alternating signal is (almost) an eigenvector of I - G with
        // eigenvalue ~1: energy is preserved within a factor of two.
        assert!(out_energy * 2 > in_energy, "{out_energy} vs {in_energy}");
    }

    #[test]
    fn fixed_point_tracks_float_reference() {
        let app = MatrixFilter::new(32, 8, 2);
        let input: Vec<i16> = (0..256).map(|i| ((i * 211) % 8000 - 4000) as i16).collect();
        let mut mem = VecStorage::new(app.memory_words());
        let out = app.run(&input, &mut mem);
        let snr = snr_db(&app.run_reference(&input), &samples_to_f64(&out));
        assert!(snr > 45.0, "SNR {snr}");
    }

    #[test]
    fn iteration_parity_returns_latest_buffer() {
        // One iteration and two iterations must both return the product of
        // the *last* multiply, wherever the double buffer left it.
        let input: Vec<i16> = (0..32).map(|i| (i * 100) as i16).collect();
        for iters in [1, 2, 3] {
            let app = MatrixFilter::new(16, 2, iters);
            let mut mem = VecStorage::new(app.memory_words());
            let out = app.run(&input, &mut mem);
            let reference = app.run_reference(&input);
            let snr = snr_db(&reference, &samples_to_f64(&out));
            assert!(snr > 40.0, "iters {iters}: snr {snr}");
        }
    }

    #[test]
    fn coefficients_match_the_per_coefficient_formula() {
        // The row sum is hoisted out of the coefficient loop; the old
        // formula recomputed it for every coefficient. Same f64 expression,
        // so every coefficient is bit-identical.
        fn per_coefficient(dim: usize, r: usize, c: usize) -> i16 {
            let row_sum: f64 = (0..dim).map(|k| gaussian_weight(r, k)).sum();
            let smooth = gaussian_weight(r, c) / row_sum;
            let value = if r == c { 1.0 - smooth } else { -smooth };
            (value * 32768.0)
                .round()
                .clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
        }
        for dim in 5..=64 {
            let app = MatrixFilter::new(dim, 1, 1);
            for r in 0..dim {
                for c in 0..dim {
                    assert_eq!(
                        app.coefficient_q15(r, c),
                        per_coefficient(dim, r, c),
                        "dim {dim} A[{r}][{c}]"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn tiny_matrix_rejected() {
        let _ = MatrixFilter::new(4, 1, 1);
    }
}
