//! Batched (lane-per-trial) decode results and per-trial bookkeeping for
//! bit-sliced Monte-Carlo execution.
//!
//! The campaign engine can run up to 64 trials of one grid point in
//! lockstep: all trials share a single clean computation pass, and at
//! every read of an address some trial corrupts, the codec decodes *all*
//! lanes at once from bit planes ([`EmtCodec::decode_batch`]). Exactness
//! is preserved by a divergence rule tracked in [`TrialBatch`]:
//!
//! * A lane whose decoded **word** equals the clean word behaves, from the
//!   application's point of view, exactly like the clean pass — the app
//!   reads the same values, computes the same outputs, and issues the same
//!   writes, so the lane's latched memory contents remain identical to the
//!   clean pass's forever. Only its per-read *outcome* classification
//!   (corrected / uncorrectable) may differ, and [`TrialBatch`] accumulates
//!   that as a signed delta against the clean pass's statistics.
//! * A lane whose decoded word *differs* from the clean word is **evicted**
//!   ([`TrialBatch::record_read`] drops it from the alive mask); the caller
//!   re-runs it on the ordinary scalar path from scratch. Batch output is
//!   therefore bit-identical to scalar output by construction.
//!
//! [`scalar_decode_batch`] is the transpose-and-decode reference that the
//! trait's default implementation uses and every SWAR override is pinned
//! against (the same oracle discipline as the codecs' `reference` test
//! modules).

use crate::emt::{DecodeOutcome, EmtCodec};
use crate::protected::AccessStats;

/// The decode of up to 64 codewords presented as bit planes: bit *l* of
/// every field describes lane (trial) *l*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchDecode {
    /// Decoded 16-bit data words, one plane per data bit position.
    pub data: [u64; 16],
    /// Lanes whose decode reported [`DecodeOutcome::Corrected`].
    pub corrected: u64,
    /// Lanes whose decode reported [`DecodeOutcome::DetectedUncorrectable`].
    pub uncorrectable: u64,
}

impl BatchDecode {
    /// An all-zero decode (every lane: word 0, outcome clean).
    pub fn zero() -> Self {
        BatchDecode {
            data: [0; 16],
            corrected: 0,
            uncorrectable: 0,
        }
    }
}

/// Reference implementation of [`EmtCodec::decode_batch`]: transpose each
/// lane's codeword out of the planes and run the scalar decoder. This is
/// the behaviour every SWAR override must reproduce bit for bit — the
/// codecs' differential proptests pin them against this function.
///
/// # Panics
///
/// Panics if `planes` does not hold exactly `codec.code_width()` planes.
pub fn scalar_decode_batch<C: EmtCodec + ?Sized>(
    codec: &C,
    planes: &[u64],
    side: u16,
) -> BatchDecode {
    assert_eq!(
        planes.len(),
        codec.code_width() as usize,
        "one plane per code bit"
    );
    let mut out = BatchDecode::zero();
    for lane in 0..64 {
        let mut code = 0u32;
        for (p, &plane) in planes.iter().enumerate() {
            code |= (((plane >> lane) & 1) as u32) << p;
        }
        let d = codec.decode(code, side);
        let word = d.word as u16;
        for (i, slot) in out.data.iter_mut().enumerate() {
            *slot |= u64::from((word >> i) & 1) << lane;
        }
        match d.outcome {
            DecodeOutcome::Corrected => out.corrected |= 1 << lane,
            DecodeOutcome::DetectedUncorrectable => out.uncorrectable |= 1 << lane,
            DecodeOutcome::Clean => {}
        }
    }
    out
}

/// Per-trial bookkeeping of one batched pass: which lanes are still riding
/// the clean computation, and each survivor's outcome-count delta against
/// the clean pass's [`AccessStats`].
#[derive(Clone, Debug)]
pub struct TrialBatch {
    lanes: usize,
    full: u64,
    alive: u64,
    /// Lanes abandoned by the adaptive bail-out (a subset of the evicted
    /// mask): they had *not* diverged when the batch bailed, but finishing
    /// the plane passes for a nearly-empty batch costs more than replaying
    /// the stragglers scalar.
    bailed: u64,
    /// Bail out when the alive population drops strictly below this count
    /// (0 disables bail-out).
    bail_below: u32,
    corrected: [i64; 64],
    uncorrectable: [i64; 64],
}

impl TrialBatch {
    /// A batch of `lanes` trials, all alive, with bail-out disabled.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64.
    pub fn new(lanes: usize) -> Self {
        Self::with_bailout(lanes, 0.0)
    }

    /// A batch of `lanes` trials that abandons the plane passes once the
    /// alive population drops strictly below `fraction` of the group
    /// (rounded up), handing every remaining lane to the scalar replay
    /// path. `0.0` never bails; `1.0` bails on the first eviction.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64, or if `fraction` is not in
    /// `0.0..=1.0`.
    pub fn with_bailout(lanes: usize, fraction: f64) -> Self {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "bail-out fraction must be in 0.0..=1.0, got {fraction}"
        );
        let full = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        TrialBatch {
            lanes,
            full,
            alive: full,
            bailed: 0,
            bail_below: (fraction * lanes as f64).ceil() as u32,
            corrected: [0; 64],
            uncorrectable: [0; 64],
        }
    }

    /// Number of lanes this batch was built for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes still riding the clean pass.
    #[inline]
    pub fn alive(&self) -> u64 {
        self.alive
    }

    /// Lanes evicted so far (to be finished on the scalar path) — both the
    /// diverged lanes and any lanes abandoned by the bail-out.
    pub fn evicted(&self) -> u64 {
        self.full & !self.alive
    }

    /// Lanes abandoned by the adaptive bail-out (a subset of
    /// [`evicted`](Self::evicted)): they had not diverged when the batch
    /// bailed, but too few lanes were left to amortize the plane passes.
    pub fn bailed(&self) -> u64 {
        self.bailed
    }

    /// Whether lane `lane` is still alive.
    pub fn is_alive(&self, lane: usize) -> bool {
        self.alive >> lane & 1 == 1
    }

    /// Accounts for `count` back-to-back reads of an address some lanes
    /// corrupt, all seeing the same stored code and decoding identically —
    /// one aggregated clean-trace entry.
    ///
    /// `active` selects the lanes with a stuck cell at the address (others
    /// already behave exactly like the clean pass and need no bookkeeping);
    /// `diverged` flags lanes whose decoded word differs from the clean
    /// word, and `corrected` / `uncorrectable` carry the batch decode's
    /// outcome masks. `clean` is the clean pass's own outcome for these
    /// reads, which the per-lane deltas are taken against.
    ///
    /// Diverged active lanes are evicted (eviction is count-independent: a
    /// diverged lane diverges on the first of the repeats); surviving
    /// active lanes accumulate `count × (lane outcome − clean outcome)`
    /// into their deltas.
    #[inline]
    pub fn record_read(
        &mut self,
        active: u64,
        diverged: u64,
        corrected: u64,
        uncorrectable: u64,
        clean: DecodeOutcome,
        count: u64,
    ) {
        let active = active & self.alive;
        self.alive &= !(diverged & active);
        let mut survivors = active & !diverged;
        let (clean_c, clean_u) = match clean {
            DecodeOutcome::Corrected => (1i64, 0i64),
            DecodeOutcome::DetectedUncorrectable => (0, 1),
            DecodeOutcome::Clean => (0, 0),
        };
        let count = count as i64;
        while survivors != 0 {
            let lane = survivors.trailing_zeros() as usize;
            survivors &= survivors - 1;
            self.corrected[lane] += ((corrected >> lane & 1) as i64 - clean_c) * count;
            self.uncorrectable[lane] += ((uncorrectable >> lane & 1) as i64 - clean_u) * count;
        }
        // Adaptive bail-out: once too few lanes survive to amortize the
        // batched plane passes, abandon the rest to the scalar replay.
        // Zeroing `alive` makes every later `active & alive()` mask empty,
        // so the remaining batched work vanishes without caller changes.
        if self.alive.count_ones() < self.bail_below {
            self.bailed |= self.alive;
            self.alive = 0;
        }
    }

    /// The access statistics lane `lane` would have produced on the scalar
    /// path, given the clean pass's `clean` statistics: identical access
    /// counts (a surviving lane reads and writes exactly what the clean
    /// pass did), outcome counts shifted by the lane's accumulated delta.
    ///
    /// Only meaningful for surviving lanes — evicted lanes must be re-run.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a delta would take a counter negative,
    /// which the divergence rule makes impossible.
    pub fn lane_stats(&self, lane: usize, clean: &AccessStats) -> AccessStats {
        let apply = |base: u64, delta: i64| -> u64 {
            let v = base as i64 + delta;
            debug_assert!(v >= 0, "outcome counter underflow");
            v as u64
        };
        AccessStats {
            reads: clean.reads,
            writes: clean.writes,
            corrected_reads: apply(clean.corrected_reads, self.corrected[lane]),
            uncorrectable_reads: apply(clean.uncorrectable_reads, self.uncorrectable[lane]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_batch_has_every_lane_alive() {
        let b = TrialBatch::new(64);
        assert_eq!(b.alive(), u64::MAX);
        assert_eq!(b.evicted(), 0);
        let b = TrialBatch::new(3);
        assert_eq!(b.alive(), 0b111);
        assert!(b.is_alive(2));
        assert!(!b.is_alive(3));
    }

    #[test]
    fn diverged_active_lanes_are_evicted_and_stay_evicted() {
        let mut b = TrialBatch::new(8);
        // Lane 1 diverges; lane 5 is flagged diverged but not active here.
        b.record_read(0b0000_0011, 0b0010_0010, 0, 0, DecodeOutcome::Clean, 1);
        assert_eq!(b.evicted(), 0b0000_0010);
        assert!(b.is_alive(5));
        // An evicted lane is no longer active even if its bit is passed.
        b.record_read(0b0000_0010, 0, 0b0000_0010, 0, DecodeOutcome::Clean, 1);
        let clean = AccessStats::default();
        assert_eq!(b.lane_stats(1, &clean).corrected_reads, 0);
    }

    #[test]
    fn survivor_deltas_shift_outcome_counts_both_ways() {
        let clean = AccessStats {
            reads: 100,
            writes: 40,
            corrected_reads: 3,
            uncorrectable_reads: 1,
        };
        let mut b = TrialBatch::new(4);
        // Clean read was Clean; lane 0 corrected, lane 2 uncorrectable.
        b.record_read(0b0101, 0, 0b0001, 0b0100, DecodeOutcome::Clean, 1);
        // Clean read was Corrected; lane 0 also corrected (no delta), lane
        // 1 read clean (delta −1 corrected).
        b.record_read(0b0011, 0, 0b0001, 0, DecodeOutcome::Corrected, 1);
        let s0 = b.lane_stats(0, &clean);
        assert_eq!((s0.reads, s0.writes), (100, 40));
        assert_eq!(s0.corrected_reads, 4);
        assert_eq!(s0.uncorrectable_reads, 1);
        let s1 = b.lane_stats(1, &clean);
        assert_eq!(s1.corrected_reads, 2);
        let s2 = b.lane_stats(2, &clean);
        assert_eq!(s2.uncorrectable_reads, 2);
        // Lane 3 was never active: exactly the clean statistics.
        assert_eq!(b.lane_stats(3, &clean), clean);
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=64")]
    fn oversized_batch_rejected() {
        let _ = TrialBatch::new(65);
    }

    #[test]
    #[should_panic(expected = "bail-out fraction must be in 0.0..=1.0")]
    fn out_of_range_bailout_fraction_rejected() {
        let _ = TrialBatch::with_bailout(8, 1.5);
    }

    #[test]
    fn bailout_abandons_survivors_once_population_drops_below_threshold() {
        // 8 lanes, 25% threshold: bail when fewer than 2 lanes survive.
        let mut b = TrialBatch::with_bailout(8, 0.25);
        b.record_read(0xFF, 0b0011_1111, 0, 0, DecodeOutcome::Clean, 1);
        assert_eq!(b.alive(), 0b1100_0000, "2 survivors is not below 2");
        assert_eq!(b.bailed(), 0);
        b.record_read(0xFF, 0b0100_0000, 0, 0, DecodeOutcome::Clean, 1);
        assert_eq!(b.alive(), 0, "1 survivor < 2 triggers the bail-out");
        assert_eq!(b.bailed(), 0b1000_0000, "the straggler, not the diverger");
        assert_eq!(b.evicted(), 0xFF, "every lane now replays scalar");
        // Bail-out is sticky: later reads account nothing.
        b.record_read(0xFF, 0, 0xFF, 0, DecodeOutcome::Clean, 1);
        let clean = AccessStats::default();
        assert_eq!(b.lane_stats(7, &clean).corrected_reads, 0);
    }

    #[test]
    fn full_bailout_fraction_bails_on_first_eviction() {
        let mut b = TrialBatch::with_bailout(4, 1.0);
        b.record_read(0b1111, 0b0001, 0, 0, DecodeOutcome::Clean, 1);
        assert_eq!(b.alive(), 0);
        assert_eq!(b.bailed(), 0b1110);
    }

    #[test]
    fn zero_bailout_fraction_never_bails() {
        let mut b = TrialBatch::with_bailout(4, 0.0);
        b.record_read(0b1111, 0b0111, 0, 0, DecodeOutcome::Clean, 1);
        assert_eq!(b.alive(), 0b1000, "last survivor rides to the end");
        assert_eq!(b.bailed(), 0);
    }

    #[test]
    fn repeated_reads_scale_survivor_deltas() {
        let clean = AccessStats {
            reads: 100,
            writes: 40,
            corrected_reads: 10,
            uncorrectable_reads: 0,
        };
        let mut b = TrialBatch::new(2);
        // 7 identical reads: clean pass was Corrected, lane 0 decodes
        // Clean (delta −7 corrected), lane 1 uncorrectable (delta −7
        // corrected, +7 uncorrectable).
        b.record_read(0b11, 0, 0, 0b10, DecodeOutcome::Corrected, 7);
        let s0 = b.lane_stats(0, &clean);
        assert_eq!(s0.corrected_reads, 3);
        assert_eq!(s0.uncorrectable_reads, 0);
        let s1 = b.lane_stats(1, &clean);
        assert_eq!(s1.corrected_reads, 3);
        assert_eq!(s1.uncorrectable_reads, 7);
    }

    mod swar_props {
        use crate::emt::{EmtCodec, EmtKind};
        use crate::scalar_decode_batch;
        use proptest::prelude::*;

        proptest! {
            /// Every codec's `decode_batch` — SWAR overrides and the
            /// `AnyCodec` dispatch alike — matches the transpose-and-decode
            /// oracle on random lanes and side words.
            #[test]
            fn every_codec_matches_the_scalar_oracle(
                planes in prop::collection::vec(any::<u64>(), 22),
                side in any::<u16>(),
            ) {
                for kind in EmtKind::all() {
                    let codec = kind.codec();
                    let width = codec.code_width() as usize;
                    prop_assert_eq!(
                        codec.decode_batch(&planes[..width], side),
                        scalar_decode_batch(&codec, &planes[..width], side),
                        "{}", kind
                    );
                }
            }
        }
    }
}
