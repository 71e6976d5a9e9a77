//! The paper's primary contribution: the **DREAM** error-mitigation
//! technique, the error-mitigation framework it is evaluated in, and the
//! baselines it is compared against.
//!
//! Near-threshold data memories develop permanent stuck-at faults. An error
//! mitigation technique (EMT) decides what redundancy to store alongside
//! each 16-bit data word and how to reconstruct the word on read:
//!
//! * [`Dream`] — the paper's technique (§IV): exploit the sign-extension
//!   run in biosignal samples. Store 5 reliable side bits (sign + 4-bit
//!   mask ID) and reconstruct the whole MSB run — plus one extra bit that
//!   is always the inverted sign — on read. Corrects *any* number of
//!   faults in the protected region; LSB faults pass through.
//! * [`EccSecDed`] — the classic baseline: a (22,16) extended Hamming code
//!   (6 check bits in the same faulty array) correcting single and
//!   detecting double errors per word.
//! * [`NoProtection`] — raw storage, the energy baseline of §VI.
//! * [`EvenParity`] — a detect-only single-parity scheme, included as an
//!   extra reference point beyond the paper.
//!
//! [`ProtectedMemory`] composes a codec with a faulty data array and a
//! reliable side array, counts accesses and correction outcomes
//! ([`AccessStats`]), and prices a run via [`EnergyModelBundle`] — which is
//! how the §VI-B energy comparison and §VI-C trade-off exploration are
//! produced.
//!
//! # Example: a fault DREAM corrects and ECC cannot
//!
//! ```
//! use dream_core::{Dream, EccSecDed, EmtCodec, NoProtection};
//!
//! let word: i16 = -42; // long run of sign bits: 1111_1111_1101_0110
//! let dream = Dream::new();
//! let enc = dream.encode(word);
//! // Two faults in the MSB run — a double error, fatal for SEC/DED.
//! let corrupted = enc.code ^ 0b0110_0000_0000_0000;
//! assert_eq!(dream.decode(corrupted, enc.side).word, word);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod dream;
mod ecc;
mod emt;
mod protected;
mod simple;

pub use batch::{scalar_decode_batch, BatchDecode, TrialBatch};
pub use dream::Dream;
pub use ecc::EccSecDed;
pub use emt::{AnyCodec, DecodeOutcome, Decoded, EmtCodec, EmtKind, Encoded};
pub use protected::{AccessStats, EnergyModelBundle, ProtectedMemory};
pub use simple::{EvenParity, NoProtection};

/// Extra storage bits per data word required by an EMT of the mask/ID
/// family, per the paper's Formula 2: `1 + log2(data_size)`.
///
/// For the paper's 16-bit words this is 5 for DREAM. (ECC SEC/DED needs
/// `2 + log2(data_size)` = 6.)
///
/// ```
/// assert_eq!(dream_core::extra_bits_per_word(16), 5);
/// assert_eq!(dream_core::extra_bits_per_word(32), 6);
/// ```
///
/// # Panics
///
/// Panics if `data_bits` is not a power of two greater than 1.
pub fn extra_bits_per_word(data_bits: u32) -> u32 {
    assert!(
        data_bits.is_power_of_two() && data_bits > 1,
        "data size must be a power of two > 1"
    );
    1 + data_bits.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_2_matches_paper() {
        // §V: "1 + log2(16) = 5 extra-bits for the DREAM technique".
        assert_eq!(extra_bits_per_word(16), 5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn formula_2_rejects_odd_sizes() {
        let _ = extra_bits_per_word(12);
    }
}
