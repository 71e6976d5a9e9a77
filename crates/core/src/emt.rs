//! The error-mitigation-technique abstraction.

use std::fmt;

use dream_energy::Netlist;

use crate::{Dream, EccSecDed, EvenParity, NoProtection};

/// What an EMT stores for one 16-bit data word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Encoded {
    /// Bits written to the (faulty, voltage-scaled) data array. Width is
    /// [`EmtCodec::code_width`] bits.
    pub code: u32,
    /// Bits written to the reliable side array (DREAM's sign + mask ID).
    /// Width is [`EmtCodec::side_bits`] bits; zero for in-array schemes.
    pub side: u16,
}

/// What an EMT's read path produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// The reconstructed data word.
    pub word: i16,
    /// What the decoder believes happened.
    pub outcome: DecodeOutcome,
}

/// Classification of a single decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// The decoder saw no evidence of corruption.
    Clean,
    /// The decoder changed at least one bit while reconstructing.
    Corrected,
    /// The decoder detected corruption it cannot repair (ECC SEC/DED with a
    /// double error, parity with an odd flip count). The returned word is
    /// the best effort (raw data bits).
    DetectedUncorrectable,
}

/// An error mitigation technique for 16-bit words in a faulty memory.
///
/// Implementations are pure value transformations — the surrounding
/// [`ProtectedMemory`](crate::ProtectedMemory) owns storage, statistics and
/// energy accounting. The two netlist methods describe the hardware cost of
/// the write-path (encoder) and read-path (decoder) logic in gate
/// equivalents; `dream-energy` prices them.
pub trait EmtCodec {
    /// Human-readable technique name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// The selector this codec instantiates (lets the monomorphized
    /// [`ProtectedMemory`](crate::ProtectedMemory) report its technique
    /// without carrying a redundant field).
    fn kind(&self) -> EmtKind;

    /// Bits per word stored in the faulty data array (16 for raw storage,
    /// 22 for ECC SEC/DED, …).
    fn code_width(&self) -> u32;

    /// Bits per word stored in the reliable side array (5 for DREAM, 0 for
    /// in-array schemes).
    fn side_bits(&self) -> u32;

    /// Write path: derive what to store for `word`.
    fn encode(&self, word: i16) -> Encoded;

    /// Read path: reconstruct the word from possibly corrupted `code` bits
    /// and the (reliable) `side` bits.
    fn decode(&self, code: u32, side: u16) -> Decoded;

    /// Batched read path: decode 64 codewords at once, presented as
    /// `code_width` bit planes (bit *l* of `planes[p]` is bit *p* of lane
    /// *l*'s codeword), all sharing the same reliable `side` bits — the
    /// lane-per-trial layout of batched Monte-Carlo execution, where the
    /// side array is written identically by every trial.
    ///
    /// The default transposes and runs the scalar [`EmtCodec::decode`] per
    /// lane ([`crate::batch::scalar_decode_batch`]); codecs override it
    /// with SWAR kernels that must match the default bit for bit (pinned
    /// by differential proptests in each codec module).
    ///
    /// # Panics
    ///
    /// Panics if `planes` does not hold exactly `code_width` planes.
    fn decode_batch(&self, planes: &[u64], side: u16) -> crate::batch::BatchDecode {
        crate::batch::scalar_decode_batch(self, planes, side)
    }

    /// Gate-level structure of the encoder block.
    fn encoder_netlist(&self) -> Netlist;

    /// Gate-level structure of the decoder block.
    fn decoder_netlist(&self) -> Netlist;
}

/// The techniques evaluated in this reproduction.
///
/// `EmtKind` is the cheap, copyable selector the experiment harness sweeps
/// over; [`EmtKind::codec`] instantiates the actual codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EmtKind {
    /// Raw storage (paper Fig. 4a and the §VI energy baseline).
    None,
    /// Single even-parity bit, detect-only (extension beyond the paper).
    Parity,
    /// The paper's DREAM technique (Fig. 4b).
    Dream,
    /// ECC SEC/DED — extended Hamming (22,16) (Fig. 4c).
    EccSecDed,
}

impl EmtKind {
    /// All techniques, including the parity extension.
    pub fn all() -> [EmtKind; 4] {
        [
            EmtKind::None,
            EmtKind::Parity,
            EmtKind::Dream,
            EmtKind::EccSecDed,
        ]
    }

    /// The three techniques the paper's Fig. 4 compares.
    pub fn paper_set() -> [EmtKind; 3] {
        [EmtKind::None, EmtKind::Dream, EmtKind::EccSecDed]
    }

    /// Instantiates the codec.
    pub fn codec(self) -> AnyCodec {
        match self {
            EmtKind::None => AnyCodec::None(NoProtection::new()),
            EmtKind::Parity => AnyCodec::Parity(EvenParity::new()),
            EmtKind::Dream => AnyCodec::Dream(Dream::new()),
            EmtKind::EccSecDed => AnyCodec::Ecc(EccSecDed::new()),
        }
    }
}

impl fmt::Display for EmtKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EmtKind::None => "no protection",
            EmtKind::Parity => "parity",
            EmtKind::Dream => "DREAM",
            EmtKind::EccSecDed => "ECC SEC/DED",
        };
        f.write_str(s)
    }
}

/// A closed sum of the codecs in this crate.
///
/// Using an enum instead of trait objects keeps campaign state `Clone` and
/// the dispatch exhaustive — adding a technique forces every experiment to
/// decide how to treat it.
#[derive(Clone, Debug)]
pub enum AnyCodec {
    /// Raw storage.
    None(NoProtection),
    /// Detect-only parity.
    Parity(EvenParity),
    /// The DREAM technique.
    Dream(Dream),
    /// Extended Hamming SEC/DED.
    Ecc(EccSecDed),
}

impl EmtCodec for AnyCodec {
    fn name(&self) -> &'static str {
        match self {
            AnyCodec::None(c) => c.name(),
            AnyCodec::Parity(c) => c.name(),
            AnyCodec::Dream(c) => c.name(),
            AnyCodec::Ecc(c) => c.name(),
        }
    }

    fn kind(&self) -> EmtKind {
        match self {
            AnyCodec::None(c) => c.kind(),
            AnyCodec::Parity(c) => c.kind(),
            AnyCodec::Dream(c) => c.kind(),
            AnyCodec::Ecc(c) => c.kind(),
        }
    }

    fn code_width(&self) -> u32 {
        match self {
            AnyCodec::None(c) => c.code_width(),
            AnyCodec::Parity(c) => c.code_width(),
            AnyCodec::Dream(c) => c.code_width(),
            AnyCodec::Ecc(c) => c.code_width(),
        }
    }

    fn side_bits(&self) -> u32 {
        match self {
            AnyCodec::None(c) => c.side_bits(),
            AnyCodec::Parity(c) => c.side_bits(),
            AnyCodec::Dream(c) => c.side_bits(),
            AnyCodec::Ecc(c) => c.side_bits(),
        }
    }

    #[inline]
    fn encode(&self, word: i16) -> Encoded {
        match self {
            AnyCodec::None(c) => c.encode(word),
            AnyCodec::Parity(c) => c.encode(word),
            AnyCodec::Dream(c) => c.encode(word),
            AnyCodec::Ecc(c) => c.encode(word),
        }
    }

    #[inline]
    fn decode(&self, code: u32, side: u16) -> Decoded {
        match self {
            AnyCodec::None(c) => c.decode(code, side),
            AnyCodec::Parity(c) => c.decode(code, side),
            AnyCodec::Dream(c) => c.decode(code, side),
            AnyCodec::Ecc(c) => c.decode(code, side),
        }
    }

    #[inline]
    fn decode_batch(&self, planes: &[u64], side: u16) -> crate::batch::BatchDecode {
        match self {
            AnyCodec::None(c) => c.decode_batch(planes, side),
            AnyCodec::Parity(c) => c.decode_batch(planes, side),
            AnyCodec::Dream(c) => c.decode_batch(planes, side),
            AnyCodec::Ecc(c) => c.decode_batch(planes, side),
        }
    }

    fn encoder_netlist(&self) -> Netlist {
        match self {
            AnyCodec::None(c) => c.encoder_netlist(),
            AnyCodec::Parity(c) => c.encoder_netlist(),
            AnyCodec::Dream(c) => c.encoder_netlist(),
            AnyCodec::Ecc(c) => c.encoder_netlist(),
        }
    }

    fn decoder_netlist(&self) -> Netlist {
        match self {
            AnyCodec::None(c) => c.decoder_netlist(),
            AnyCodec::Parity(c) => c.decoder_netlist(),
            AnyCodec::Dream(c) => c.decoder_netlist(),
            AnyCodec::Ecc(c) => c.decoder_netlist(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_codec_round_trips_clean_words() {
        // Exhaustively `(word, Clean)`: the draw family's shared clean
        // pass replays every codec from one codec-agnostic trace on the
        // strength of exactly this.
        for kind in EmtKind::all() {
            let codec = kind.codec();
            for word in i16::MIN..=i16::MAX {
                let enc = codec.encode(word);
                let dec = codec.decode(enc.code, enc.side);
                assert_eq!(dec.word, word, "{kind} failed on {word}");
                assert_eq!(dec.outcome, DecodeOutcome::Clean, "{kind} on {word}");
            }
        }
    }

    #[test]
    fn widths_match_paper_formula() {
        // §V: 5 extra bits for DREAM (side), 6 for ECC (in-array).
        let dream = EmtKind::Dream.codec();
        assert_eq!(dream.code_width(), 16);
        assert_eq!(dream.side_bits(), 5);
        let ecc = EmtKind::EccSecDed.codec();
        assert_eq!(ecc.code_width(), 22);
        assert_eq!(ecc.side_bits(), 0);
        let none = EmtKind::None.codec();
        assert_eq!(none.code_width(), 16);
        assert_eq!(none.side_bits(), 0);
    }

    #[test]
    fn code_bits_never_exceed_32() {
        for kind in EmtKind::all() {
            let codec = kind.codec();
            assert!(codec.code_width() <= 32);
            let enc = codec.encode(-12345);
            if codec.code_width() < 32 {
                assert_eq!(enc.code >> codec.code_width(), 0, "{kind} leaks bits");
            }
        }
    }

    #[test]
    fn display_names_are_papers() {
        assert_eq!(EmtKind::Dream.to_string(), "DREAM");
        assert_eq!(EmtKind::EccSecDed.to_string(), "ECC SEC/DED");
    }
}
