//! ECC SEC/DED baseline: extended Hamming (22,16).
//!
//! # The coverage-mask scheme
//!
//! A Hamming check bit `p ∈ {1, 2, 4, 8, 16}` is the parity of every
//! codeword position whose (1-based) index has bit `log2(p)` set. The
//! textbook formulation walks positions one by one (`for pos in 1..=21`)
//! with a nested membership test — O(positions × check bits) bit-serial
//! work per encode *and* per decode, which dominated campaign profiles.
//!
//! Since the coverage sets are fixed by the code, they are precomputed
//! here (at compile time) as five 21-bit **coverage masks** over the
//! storage-bit layout. Each parity is then a single
//! `(word & mask).count_ones() & 1` — one AND plus a parity reduction.
//! On the default baseline x86-64 target (no `popcnt`), LLVM lowers that
//! expression to a short parity sequence rather than a popcount: two XOR
//! folds of the 32-bit value down to a byte, then `setnp` on the x86
//! parity flag — five instructions, no branch. Decoding evaluates the 5
//! masks over the read codeword to form the syndrome, plus the overall
//! parity (6 parities).
//!
//! Encoding goes one step further. The codeword is a linear function of
//! the data bits (every bit is a data bit or an XOR of data bits), so the
//! 5 check masks + 1 overall parity are evaluated at compile time for
//! each value of the low and of the high data byte, and an encode is two
//! 256-entry table loads XORed together. Encodes run on every write of
//! the campaigns' scalar path, decodes only where a stuck cell is.
//! Data bits scatter into / gather out of their Hamming positions with
//! four shift-AND terms, because consecutive data bits land on
//! consecutive storage bits between check-bit positions.
//!
//! The historical bit-serial implementation is retained in the
//! `reference` test module and the two are proven equivalent exhaustively
//! over all 65,536 data words and a dense sweep of corrupted codewords.

use dream_energy::{Gate, Netlist};

use crate::batch::BatchDecode;
use crate::emt::{DecodeOutcome, Decoded, EmtCodec, EmtKind, Encoded};

/// Single-Error-Correction / Double-Error-Detection extended Hamming code
/// over 16-bit data words.
///
/// The classic EMT the paper compares DREAM against (\[14\] in the paper):
/// five Hamming check bits plus one overall parity bit — `2 + log2(16) = 6`
/// extra bits per word — all stored **in the same faulty array** as the
/// data (the array widens from 16 to 22 bits, which is exactly where ECC's
/// extra array energy comes from, §VI-B).
///
/// Behaviour under faults, which drives the Fig. 4c curve:
///
/// * 1 stuck bit per word → corrected,
/// * 2 stuck bits per word → detected but **not** corrected (the raw data
///   bits are returned); below 0.55 V such words become common and ECC
///   "underperforms, as it will detect but not correct the errors as DREAM
///   does" (§VI-A),
/// * ≥3 stuck bits → may miscorrect (a real SEC/DED hazard, faithfully
///   modelled).
///
/// ```
/// use dream_core::{EccSecDed, EmtCodec, DecodeOutcome};
/// let ecc = EccSecDed::new();
/// let enc = ecc.encode(-1234);
/// // Any single flipped bit is corrected:
/// let dec = ecc.decode(enc.code ^ (1 << 7), enc.side);
/// assert_eq!(dec.word, -1234);
/// assert_eq!(dec.outcome, DecodeOutcome::Corrected);
/// // A double flip is detected but not repaired:
/// let dec2 = ecc.decode(enc.code ^ 0b11, enc.side);
/// assert_eq!(dec2.outcome, DecodeOutcome::DetectedUncorrectable);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EccSecDed {
    _private: (),
}

/// Total codeword width: 16 data + 5 Hamming + 1 overall parity.
const CODE_BITS: u32 = 22;
/// Hamming positions run 1..=21; the overall parity lives in storage bit 21.
const OVERALL_BIT: u32 = 21;
/// Hamming positions (1-based) that hold data bits, in data-bit order.
const DATA_POSITIONS: [u32; 16] = [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21];
/// Hamming positions of the five check bits.
const PARITY_POSITIONS: [u32; 5] = [1, 2, 4, 8, 16];
/// Empirical common-subexpression sharing factor for synthesized XOR parity
/// trees (Design Compiler routinely merges shared pair terms).
const XOR_SHARING: f64 = 0.7;

/// Coverage mask of check bit `2^k` over the storage-bit layout: bit
/// `pos - 1` is set for every Hamming position `pos ∈ 1..=21` with
/// `pos & 2^k != 0` — including position `2^k` itself, so the same five
/// masks serve both the encoder (where the check-bit lanes are still
/// zero) and the decoder's syndrome computation (where they are not).
const fn coverage_masks() -> [u32; 5] {
    let mut masks = [0u32; 5];
    let mut k = 0;
    while k < 5 {
        let p = 1u32 << k;
        let mut pos = 1u32;
        while pos <= 21 {
            if pos & p != 0 {
                masks[k] |= 1 << (pos - 1);
            }
            pos += 1;
        }
        k += 1;
    }
    masks
}

/// The five check-bit coverage masks, fixed by the (22,16) code.
const COVERAGE_MASKS: [u32; 5] = coverage_masks();

/// Mask of the 21 Hamming positions (storage bits 0..=20); the overall
/// parity bit lives just above, in storage bit 21.
const HAMMING_MASK: u32 = (1 << OVERALL_BIT) - 1;

/// Scatters the 16 data bits into their Hamming positions.
///
/// `DATA_POSITIONS` maps data bit `i` to storage bit `DATA_POSITIONS[i]-1`:
/// runs of consecutive data bits land on consecutive storage bits between
/// the check-bit lanes, so the permutation is four shift-AND terms.
#[inline]
const fn scatter_data(data: u16) -> u32 {
    let d = data as u32;
    ((d & 0x0001) << 2) | ((d & 0x000E) << 3) | ((d & 0x07F0) << 4) | ((d & 0xF800) << 5)
}

/// Gathers the 16 data bits back out of their Hamming positions (the
/// inverse permutation of [`scatter_data`]).
#[inline]
const fn gather_data(code: u32) -> u16 {
    (((code >> 2) & 0x0001)
        | ((code >> 3) & 0x000E)
        | ((code >> 4) & 0x07F0)
        | ((code >> 5) & 0xF800)) as u16
}

/// Parity (0 or 1) of the covered bits of `word`.
#[inline]
const fn parity_over(word: u32, mask: u32) -> u32 {
    (word & mask).count_ones() & 1
}

/// The codeword of `data`, evaluated over the coverage masks: the data
/// bits scattered into place, the five check bits, then the overall
/// parity over all 21 Hamming positions.
const fn encode_bits(data: u16) -> u32 {
    let mut code = scatter_data(data);
    let mut k = 0;
    while k < 5 {
        // The check-bit lanes are still zero, so the mask sees exactly
        // the covered data bits.
        code |= parity_over(code, COVERAGE_MASKS[k]) << (PARITY_POSITIONS[k] - 1);
        k += 1;
    }
    code | parity_over(code, HAMMING_MASK) << OVERALL_BIT
}

/// `table[b]` is the codeword of the data word holding byte `b` at bit
/// `shift` and zeros elsewhere.
const fn byte_codewords(shift: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = encode_bits((b as u16) << shift);
        b += 1;
    }
    table
}

/// Codewords of the low and the high data byte. Every codeword bit is a
/// parity (an XOR) of data bits, so the code is linear over GF(2) and the
/// codeword of a word is the XOR of its two bytes' codewords: two loads
/// and an XOR per encode, where evaluating the masks costs six parity
/// reductions.
const LOW_BYTE_CODEWORDS: [u32; 256] = byte_codewords(0);
const HIGH_BYTE_CODEWORDS: [u32; 256] = byte_codewords(8);

impl EccSecDed {
    /// Creates the codec.
    pub fn new() -> Self {
        EccSecDed { _private: () }
    }

    /// Storage-bit index (0-based) of Hamming position `pos` (1-based).
    #[inline]
    fn bit_of_position(pos: u32) -> u32 {
        pos - 1
    }

    /// Number of data/check inputs feeding each encoder parity tree plus
    /// the overall tree — derived from the actual coverage sets so the
    /// netlist is counted, not asserted.
    fn encoder_tree_inputs() -> Vec<usize> {
        let mut trees: Vec<usize> = PARITY_POSITIONS
            .iter()
            .map(|&p| DATA_POSITIONS.iter().filter(|&&d| d & p != 0).count())
            .collect();
        // Overall parity covers all 21 Hamming positions.
        trees.push(21);
        trees
    }
}

impl EmtCodec for EccSecDed {
    fn name(&self) -> &'static str {
        "ECC SEC/DED"
    }

    fn kind(&self) -> EmtKind {
        EmtKind::EccSecDed
    }

    fn code_width(&self) -> u32 {
        CODE_BITS
    }

    fn side_bits(&self) -> u32 {
        0
    }

    #[inline]
    fn encode(&self, word: i16) -> Encoded {
        // The byte tables hold `encode_bits` of each byte (see there).
        let [low, high] = (word as u16).to_le_bytes();
        Encoded {
            code: LOW_BYTE_CODEWORDS[usize::from(low)] ^ HIGH_BYTE_CODEWORDS[usize::from(high)],
            side: 0,
        }
    }

    #[inline]
    fn decode(&self, code: u32, _side: u16) -> Decoded {
        let code = code & ((1u32 << CODE_BITS) - 1);
        // Syndrome bit k = parity of the read bits covered by check 2^k
        // (check bit included): 5 parities, plus 1 for the overall.
        let mut syndrome = 0u32;
        for (k, &mask) in COVERAGE_MASKS.iter().enumerate() {
            syndrome |= parity_over(code, mask) << k;
        }
        let overall_ok = code.count_ones() & 1 == 0;
        let (corrected_code, outcome) = match (syndrome, overall_ok) {
            (0, true) => (code, DecodeOutcome::Clean),
            // Error in the overall-parity bit itself: data unaffected.
            (0, false) => (code ^ (1 << OVERALL_BIT), DecodeOutcome::Corrected),
            // Odd number of errors with a syndrome: assume single, correct.
            (s, false) => {
                if (1..=21).contains(&s) {
                    (
                        code ^ (1 << Self::bit_of_position(s)),
                        DecodeOutcome::Corrected,
                    )
                } else {
                    // Syndrome points outside the code: >=3 errors.
                    (code, DecodeOutcome::DetectedUncorrectable)
                }
            }
            // Even number of errors, non-zero syndrome: double error.
            (_, true) => (code, DecodeOutcome::DetectedUncorrectable),
        };
        Decoded {
            word: gather_data(corrected_code) as i16,
            outcome,
        }
    }

    // The scalar decoder transposed: each coverage mask becomes an XOR
    // reduction over its covered planes, producing five *syndrome bit
    // planes* (bit *l* of `s[k]` is bit *k* of lane *l*'s syndrome), and the
    // scalar `match` on (syndrome, overall parity) becomes mask algebra:
    //
    // * `odd`    — lanes with odd overall parity (`overall_ok == false`),
    // * `s_zero` — lanes with syndrome 0,
    // * `gt21`   — lanes whose syndrome points outside the code (≥ 22,
    //   i.e. `s4 & (s3 | (s2 & s1))` over the syndrome bits),
    // * corrected lanes are exactly `odd & !gt21` (including the
    //   overall-parity-bit flip, which touches no data bit),
    // * uncorrectable lanes are `odd & gt21` (≥3 errors) plus
    //   `!odd & !s_zero` (double errors).
    //
    // A data bit flips only in corrected lanes whose syndrome equals its
    // Hamming position, computed as a 5-term AND over the syndrome planes.
    #[inline]
    fn decode_batch(&self, planes: &[u64], _side: u16) -> BatchDecode {
        assert_eq!(planes.len(), CODE_BITS as usize, "one plane per code bit");
        let mut s = [0u64; 5];
        for (k, &mask) in COVERAGE_MASKS.iter().enumerate() {
            let mut covered = mask;
            while covered != 0 {
                s[k] ^= planes[covered.trailing_zeros() as usize];
                covered &= covered - 1;
            }
        }
        let odd = planes.iter().fold(0u64, |acc, &p| acc ^ p);
        let s_zero = !(s[0] | s[1] | s[2] | s[3] | s[4]);
        let gt21 = s[4] & (s[3] | (s[2] & s[1]));
        let corrected = odd & !gt21;
        let mut out = BatchDecode::zero();
        out.corrected = corrected;
        out.uncorrectable = (odd & gt21) | (!odd & !s_zero);
        for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
            let mut eq = corrected;
            for (k, &sk) in s.iter().enumerate() {
                eq &= if pos >> k & 1 == 1 { sk } else { !sk };
            }
            out.data[i] = planes[Self::bit_of_position(pos) as usize] ^ eq;
        }
        out
    }

    fn encoder_netlist(&self) -> Netlist {
        let mut n = Netlist::new("ECC SEC/DED encoder");
        let raw_xors: usize = Self::encoder_tree_inputs()
            .iter()
            .map(|&inputs| inputs.saturating_sub(1))
            .sum();
        let shared = (raw_xors as f64 * XOR_SHARING).ceil() as usize;
        n.add(Gate::Xor2, shared);
        n
    }

    fn decoder_netlist(&self) -> Netlist {
        let mut n = Netlist::new("ECC SEC/DED decoder");
        // Syndrome trees re-compute each parity over its coverage set
        // *including* the stored check bit, plus the overall tree over all
        // 22 read bits.
        let raw_xors: usize = PARITY_POSITIONS
            .iter()
            .map(|&p| (1..=21u32).filter(|&pos| pos & p != 0).count())
            .map(|inputs| inputs.saturating_sub(1))
            .chain(std::iter::once(21usize)) // overall over 22 bits
            .sum();
        let shared = (raw_xors as f64 * XOR_SHARING).ceil() as usize;
        n.add(Gate::Xor2, shared);
        // Syndrome -> one-hot decode for all 22 correctable positions.
        n.add(Gate::AndN(5), 22);
        // Correction row.
        n.add(Gate::Xor2, 22);
        // Double-error-detected flag: syndrome != 0 AND overall parity even.
        n.add(Gate::OrN(5), 1);
        n.add(Gate::Not, 1);
        n.add(Gate::And2, 1);
        n
    }
}

/// The historical bit-serial implementation, kept verbatim as the oracle
/// the mask-based kernels are proven against.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn encode(word: i16) -> Encoded {
        let data = word as u16;
        let mut code: u32 = 0;
        // Scatter data bits into their Hamming positions.
        for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
            if data & (1 << i) != 0 {
                code |= 1 << EccSecDed::bit_of_position(pos);
            }
        }
        // Hamming check bits: parity over all covered positions.
        for &p in &PARITY_POSITIONS {
            let mut parity = 0u32;
            for pos in 1..=21u32 {
                if pos != p && pos & p != 0 {
                    parity ^= (code >> EccSecDed::bit_of_position(pos)) & 1;
                }
            }
            if parity != 0 {
                code |= 1 << EccSecDed::bit_of_position(p);
            }
        }
        // Overall parity over positions 1..=21 (extends SEC to SEC/DED).
        let overall = (code & ((1 << OVERALL_BIT) - 1)).count_ones() & 1;
        if overall != 0 {
            code |= 1 << OVERALL_BIT;
        }
        Encoded { code, side: 0 }
    }

    pub fn decode(code: u32) -> Decoded {
        let code = code & ((1u32 << CODE_BITS) - 1);
        // Syndrome: XOR of the Hamming positions of all set bits.
        let mut syndrome = 0u32;
        for pos in 1..=21u32 {
            if code & (1 << EccSecDed::bit_of_position(pos)) != 0 {
                syndrome ^= pos;
            }
        }
        let overall_ok = code.count_ones() & 1 == 0;
        let (corrected_code, outcome) = match (syndrome, overall_ok) {
            (0, true) => (code, DecodeOutcome::Clean),
            (0, false) => (code ^ (1 << OVERALL_BIT), DecodeOutcome::Corrected),
            (s, false) => {
                if (1..=21).contains(&s) {
                    (
                        code ^ (1 << EccSecDed::bit_of_position(s)),
                        DecodeOutcome::Corrected,
                    )
                } else {
                    (code, DecodeOutcome::DetectedUncorrectable)
                }
            }
            (_, true) => (code, DecodeOutcome::DetectedUncorrectable),
        };
        let mut data: u16 = 0;
        for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
            if corrected_code & (1 << EccSecDed::bit_of_position(pos)) != 0 {
                data |= 1 << i;
            }
        }
        Decoded {
            word: data as i16,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> EccSecDed {
        EccSecDed::new()
    }

    #[test]
    fn exhaustive_encode_matches_bit_serial_reference() {
        // Every one of the 65,536 data words must produce the exact
        // codeword of the historical implementation.
        let c = codec();
        for w in i16::MIN..=i16::MAX {
            assert_eq!(c.encode(w), reference::encode(w), "word {w}");
        }
    }

    #[test]
    fn exhaustive_round_trip_matches_bit_serial_reference() {
        // All 65,536 words round-trip identically through both codecs.
        let c = codec();
        for w in i16::MIN..=i16::MAX {
            let e = c.encode(w);
            let got = c.decode(e.code, e.side);
            let want = reference::decode(reference::encode(w).code);
            assert_eq!(got, want, "word {w}");
            assert_eq!(got.word, w);
            assert_eq!(got.outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    fn decode_matches_reference_on_dense_codeword_sweep() {
        // The decoders must agree on arbitrary (not necessarily valid)
        // 22-bit codewords, not just on encoder outputs: a dense stride
        // over the full 4.2M codeword space plus both all-zeros/ones.
        let c = codec();
        for code in (0u32..1 << CODE_BITS).step_by(7).chain([0, 0x3F_FFFF]) {
            assert_eq!(
                c.decode(code, 0),
                reference::decode(code),
                "code {code:#08x}"
            );
        }
    }

    mod equivalence_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Flipping up to two codeword bits of any encoded word yields
            /// the exact `Decoded` — word *and* `DecodeOutcome`
            /// classification — the bit-serial reference produces.
            #[test]
            fn le_two_flips_classified_identically(
                word in any::<i16>(),
                b1 in 0u32..22,
                b2 in 0u32..23,
            ) {
                let c = EccSecDed::new();
                // b2 == 22 means no second flip; b2 == b1 cancels back to
                // zero flips — the net is always 0..=2.
                let mut code = c.encode(word).code ^ (1 << b1);
                if b2 < 22 {
                    code ^= 1 << b2;
                }
                prop_assert_eq!(c.decode(code, 0), reference::decode(code));
            }

            /// The SWAR batch kernel over 64 *uniformly random* codeword
            /// lanes matches the transpose-and-decode oracle bit for bit
            /// (data planes and both outcome masks).
            #[test]
            fn batch_decode_matches_oracle_on_random_lanes(
                planes in prop::collection::vec(any::<u64>(), 22),
            ) {
                let c = EccSecDed::new();
                prop_assert_eq!(
                    c.decode_batch(&planes, 0),
                    crate::batch::scalar_decode_batch(&c, &planes, 0)
                );
            }

            /// Same pinning over lanes built as valid codewords with up to
            /// two flips each — dense coverage of the clean / corrected /
            /// double-error classification arms random planes rarely hit.
            #[test]
            fn batch_decode_matches_oracle_on_near_valid_lanes(
                lanes in prop::collection::vec(
                    (any::<i16>(), 0u32..22, 0u32..23),
                    64,
                ),
            ) {
                let c = EccSecDed::new();
                let mut planes = [0u64; 22];
                for (lane, &(word, b1, b2)) in lanes.iter().enumerate() {
                    let mut code = c.encode(word).code ^ (1 << b1);
                    if b2 < 22 {
                        code ^= 1 << b2;
                    }
                    for (p, plane) in planes.iter_mut().enumerate() {
                        *plane |= u64::from(code >> p & 1) << lane;
                    }
                }
                prop_assert_eq!(
                    c.decode_batch(&planes, 0),
                    crate::batch::scalar_decode_batch(&c, &planes, 0)
                );
            }
        }
    }

    #[test]
    fn coverage_masks_match_position_membership() {
        // Each mask is exactly the set of positions the textbook loop
        // visits for its check bit.
        for (k, &mask) in COVERAGE_MASKS.iter().enumerate() {
            let p = 1u32 << k;
            for pos in 1..=21u32 {
                let covered = mask & (1 << (pos - 1)) != 0;
                assert_eq!(covered, pos & p != 0, "check {p} position {pos}");
            }
            assert_eq!(mask >> 21, 0, "mask {k} leaks past the Hamming span");
        }
    }

    #[test]
    fn scatter_gather_are_inverse_permutations() {
        for w in [0u16, 1, 0xFFFF, 0xA5A5, 0x5A5A, 0x8001] {
            let scattered = scatter_data(w);
            assert_eq!(gather_data(scattered), w);
            // Scattered bits only occupy data positions.
            for &p in &PARITY_POSITIONS {
                assert_eq!(scattered & (1 << (p - 1)), 0, "check lane {p} dirty");
            }
            assert_eq!(scattered >> 21, 0);
        }
    }

    #[test]
    fn round_trip_without_faults() {
        let c = codec();
        for w in [-32768i16, -1, 0, 1, 32767, 21845, -21846] {
            let e = c.encode(w);
            let d = c.decode(e.code, e.side);
            assert_eq!(d.word, w);
            assert_eq!(d.outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        let c = codec();
        for w in [-32768i16, -1, 0, 12345, -12345, 32767] {
            let e = c.encode(w);
            for bit in 0..CODE_BITS {
                let d = c.decode(e.code ^ (1 << bit), e.side);
                assert_eq!(d.word, w, "word {w} bit {bit}");
                assert_eq!(d.outcome, DecodeOutcome::Corrected);
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        let c = codec();
        for w in [0i16, -1, 9876, -9876] {
            let e = c.encode(w);
            for b1 in 0..CODE_BITS {
                for b2 in (b1 + 1)..CODE_BITS {
                    let d = c.decode(e.code ^ (1 << b1) ^ (1 << b2), e.side);
                    assert_eq!(
                        d.outcome,
                        DecodeOutcome::DetectedUncorrectable,
                        "word {w} bits {b1},{b2} must be flagged, not miscorrected"
                    );
                }
            }
        }
    }

    #[test]
    fn minimum_distance_is_four() {
        // SEC/DED requires Hamming distance 4 between codewords; spot-check
        // against a sample of word pairs.
        let c = codec();
        let words = [
            0i16,
            1,
            2,
            3,
            -1,
            -2,
            255,
            256,
            0x5555u16 as i16,
            0x2AAAu16 as i16,
        ];
        for &a in &words {
            for &b in &words {
                if a == b {
                    continue;
                }
                let dist = (c.encode(a).code ^ c.encode(b).code).count_ones();
                assert!(dist >= 4, "{a} vs {b}: distance {dist}");
            }
        }
    }

    #[test]
    fn six_check_bits_as_formula_2() {
        // §V: 2 + log2(16) = 6 extra bits for ECC SEC/DED.
        assert_eq!(codec().code_width() - 16, 6);
    }

    #[test]
    fn triple_errors_may_miscorrect_but_never_panic() {
        let c = codec();
        let e = c.encode(4242);
        let mut miscorrected = 0u32;
        let mut flagged = 0u32;
        for b1 in 0..CODE_BITS {
            for b2 in (b1 + 1)..CODE_BITS {
                for b3 in (b2 + 1)..CODE_BITS {
                    let d = c.decode(e.code ^ (1 << b1) ^ (1 << b2) ^ (1 << b3), e.side);
                    match d.outcome {
                        DecodeOutcome::DetectedUncorrectable => flagged += 1,
                        _ => miscorrected += 1,
                    }
                }
            }
        }
        // Triple errors alias single-error syndromes most of the time — a
        // known SEC/DED limitation the low-voltage regime of Fig. 4c hits.
        assert!(miscorrected > 0);
        assert!(miscorrected + flagged == 22 * 21 * 20 / 6);
    }

    #[test]
    fn decoder_area_roughly_2_2x_dream_decoder() {
        use crate::Dream;
        let ecc_dec = codec().decoder_netlist().area_ge();
        let dream_dec = Dream::new().decoder_netlist().area_ge();
        let overhead = ecc_dec / dream_dec - 1.0;
        // Paper: ECC decoder needs ~120 % more area than DREAM's.
        assert!(
            (0.9..=1.5).contains(&overhead),
            "decoder area overhead {overhead:.2} out of the paper's ballpark"
        );
    }

    #[test]
    fn encoder_area_overhead_in_paper_ballpark() {
        use crate::Dream;
        let ecc_enc = codec().encoder_netlist().area_ge();
        let dream_enc = Dream::new().encoder_netlist().area_ge();
        let overhead = ecc_enc / dream_enc - 1.0;
        // Paper: ECC encoder needs ~28 % more area than DREAM's.
        assert!(
            (0.1..=0.6).contains(&overhead),
            "encoder area overhead {overhead:.2} out of the paper's ballpark"
        );
    }
}
