//! The output-quality metric: Formula 1 of the paper.

/// Signal-to-noise ratio in decibels between a theoretical (error-free)
/// output and an experimental (possibly corrupted) one:
///
/// `SNR = 20 · log10( rms(x_theo) / sqrt(MSE) )`
///
/// where `MSE` is the mean squared difference. This is exactly the paper's
/// Formula 1 (§III); it is the y-axis of both Fig. 2 and Fig. 4.
///
/// Edge behaviour:
///
/// * identical sequences → `f64::INFINITY` (no dashed-line ceiling: the
///   ceilings in Fig. 4 come from fixed-point vs double references, which
///   never match exactly),
/// * if `experimental` is shorter it is zero-padded, if longer it is
///   truncated — a missing output element counts as fully wrong, which is
///   the honest reading for the delineation app whose output length varies
///   under faults,
/// * an all-zero reference with any error → `-INFINITY`.
///
/// # Panics
///
/// Panics if `reference` is empty.
///
/// ```
/// let reference = vec![100.0, -100.0, 50.0];
/// assert!(dream_dsp::snr_db(&reference, &reference).is_infinite());
/// let noisy = vec![101.0, -100.0, 50.0];
/// let snr = dream_dsp::snr_db(&reference, &noisy);
/// assert!((snr - 43.52).abs() < 0.1);
/// ```
pub fn snr_db(reference: &[f64], experimental: &[f64]) -> f64 {
    assert!(!reference.is_empty(), "reference output must be non-empty");
    snr_with_power(reference, signal_power(reference), |i| {
        experimental.get(i).copied().unwrap_or(0.0)
    })
}

/// Mean squared value of a non-empty reference: Formula 1's signal power.
fn signal_power(reference: &[f64]) -> f64 {
    reference.iter().map(|x| x * x).sum::<f64>() / reference.len() as f64
}

/// [`snr_db`] given the reference's [`signal_power`], with experimental
/// sample `i` read by `sample(i)` (0.0 past its end).
fn snr_with_power(reference: &[f64], signal_power: f64, sample: impl Fn(usize) -> f64) -> f64 {
    let n = reference.len();
    let mse: f64 = reference
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let e = sample(i);
            (x - e) * (x - e)
        })
        .sum::<f64>()
        / n as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    if signal_power == 0.0 {
        return f64::NEG_INFINITY;
    }
    10.0 * (signal_power / mse).log10()
}

/// A reference output prepared for scoring many 16-bit outputs against
/// it, as a Monte-Carlo campaign does: its signal power is computed once,
/// and [`SnrReference::snr_db`] reads the output samples directly instead
/// of converting them to `f64` first. Every sum runs in [`snr_db`]'s
/// order, so the result is bit-identical to
/// `snr_db(reference, &samples_to_f64(output))`.
///
/// ```
/// use dream_dsp::{samples_to_f64, snr_db, SnrReference};
/// let reference = vec![100.0, -100.0, 50.0];
/// let output = [101i16, -100, 50];
/// let prepared = SnrReference::new(reference.clone());
/// assert_eq!(
///     prepared.snr_db(&output),
///     snr_db(&reference, &samples_to_f64(&output))
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SnrReference {
    samples: Vec<f64>,
    power: f64,
}

impl SnrReference {
    /// Prepares `samples` (an app's double-precision output).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "reference output must be non-empty");
        let power = signal_power(&samples);
        SnrReference { samples, power }
    }

    /// The reference samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// [`snr_db`] of `output` against this reference, with the same
    /// padding and truncation rules.
    pub fn snr_db(&self, output: &[i16]) -> f64 {
        snr_with_power(&self.samples, self.power, |i| {
            output.get(i).map_or(0.0, |&s| f64::from(s))
        })
    }
}

/// Converts 16-bit samples to `f64` for SNR computation.
pub fn samples_to_f64(samples: &[i16]) -> Vec<f64> {
    samples.iter().map(|&s| f64::from(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_matches_hand_computation() {
        // rms(ref) = sqrt((4+4)/2) = 2; mse = ((2-1)^2 + 0)/2 = 0.5.
        let r = vec![2.0, -2.0];
        let e = vec![1.0, -2.0];
        let expect = 20.0 * (2.0 / 0.5f64.sqrt()).log10();
        assert!((snr_db(&r, &e) - expect).abs() < 1e-12);
    }

    #[test]
    fn perfect_match_is_infinite() {
        assert!(snr_db(&[1.0, 2.0], &[1.0, 2.0]).is_infinite());
    }

    #[test]
    fn shorter_experimental_is_padded() {
        let r = vec![1.0, 1.0, 1.0, 1.0];
        let e = vec![1.0, 1.0];
        // Two missing elements = errors of 1.0 each: mse = 0.5.
        let expect = 10.0 * (1.0f64 / 0.5).log10();
        assert!((snr_db(&r, &e) - expect).abs() < 1e-12);
    }

    #[test]
    fn longer_experimental_is_truncated() {
        let r = vec![1.0, 1.0];
        let e = vec![1.0, 1.0, 99.0];
        assert!(snr_db(&r, &e).is_infinite());
    }

    #[test]
    fn snr_decreases_with_error_power() {
        let r: Vec<f64> = (0..100).map(f64::from).collect();
        let small: Vec<f64> = r.iter().map(|x| x + 0.1).collect();
        let big: Vec<f64> = r.iter().map(|x| x + 10.0).collect();
        assert!(snr_db(&r, &small) > snr_db(&r, &big));
    }

    #[test]
    fn msb_error_hurts_more_than_lsb() {
        // The §III premise in miniature: one high-bit flip vs one low-bit
        // flip in a 16-bit sample vector.
        let r: Vec<f64> = (0..64).map(|i| f64::from(i * 100)).collect();
        let mut msb = r.clone();
        msb[10] += f64::from(1i32 << 14);
        let mut lsb = r.clone();
        lsb[10] += 1.0;
        assert!(snr_db(&r, &lsb) - snr_db(&r, &msb) > 60.0);
    }

    #[test]
    fn prepared_reference_is_bit_identical_to_the_f64_copy() {
        // Shorter, equal-length and longer outputs; exact, noisy and
        // all-wrong ones; a zero reference.
        let references: Vec<Vec<f64>> = vec![
            (0..97).map(|i| f64::from(i * 37 % 1001) - 500.25).collect(),
            vec![0.0; 5],
            vec![1e-3, -7.5, 32767.0, -32768.0],
        ];
        for reference in references {
            let prepared = SnrReference::new(reference.clone());
            for len in [
                0,
                1,
                reference.len() - 1,
                reference.len(),
                reference.len() + 3,
            ] {
                for salt in [0i32, 1, 977] {
                    let output: Vec<i16> = (0..len)
                        .map(|i| {
                            let x = reference.get(i).copied().unwrap_or(0.0) as i32;
                            (x + salt * (i as i32 % 3)).clamp(-32768, 32767) as i16
                        })
                        .collect();
                    let want = snr_db(&reference, &samples_to_f64(&output));
                    let got = prepared.snr_db(&output);
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len} salt {salt}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_reference_rejected() {
        let _ = snr_db(&[], &[]);
    }
}
