//! Bit-plane (lane-per-trial) fault storage for batched Monte-Carlo
//! execution.
//!
//! A Monte-Carlo campaign runs many trials of the *same* record that
//! differ only in their stuck-at fault maps. [`BatchFaultPlanes`]
//! transposes up to [`MAX_LANES`] such maps into per-address bit planes:
//! for each faulty address it stores, per code-bit position, one `u64`
//! whose bit *l* describes lane (trial) *l*. A single clean computation
//! pass can then overlay every trial's corruption in O(width) word
//! operations per read ([`BatchFaultPlanes::overlay`]) instead of
//! re-running the pass per trial.
//!
//! Fault maps are *physical*; trials may additionally scramble the
//! logical→physical address mapping. Planes are indexed by **logical**
//! address — [`BatchFaultPlanes::add_lane`] resolves each physical fault
//! location through the lane's scrambler at build time, so the overlay
//! needs no per-access translation.
//!
//! Storage is sparse: at campaign bit-error rates the overwhelming
//! majority of addresses carry no fault in any lane, so plane entries are
//! allocated only for addresses some lane actually corrupts, with a dense
//! per-address lane mask ([`BatchFaultPlanes::dirty_mask`]) deciding in
//! O(1) whether a read needs the overlay at all. The touched addresses
//! themselves are kept in ascending order ([`BatchFaultPlanes::touched`]),
//! so a replay can walk just them instead of every recorded read, and a
//! re-arm ([`BatchFaultPlanes::clear`]) resets just them.

use crate::{AddressScrambler, FaultMap, StuckAt};

/// Maximum number of trials one [`BatchFaultPlanes`] (and the batched
/// execution built on it) can carry: one lane per bit of a `u64`.
pub const MAX_LANES: usize = 64;

/// Transposed stuck-at fault storage for up to [`MAX_LANES`] concurrent
/// trials (see the module docs).
///
/// ```
/// use dream_mem::{BatchFaultPlanes, FaultMap, StuckAt};
///
/// let mut map = FaultMap::empty(8, 16);
/// map.inject(3, 0, StuckAt::One);
/// let mut planes = BatchFaultPlanes::new(8, 16);
/// planes.add_lane(5, &map, None);
/// assert_eq!(planes.dirty_mask(3), 1 << 5);
/// let mut out = [0u64; 16];
/// planes.overlay(3, 0x0000, &mut out);
/// assert_eq!(out[0], 1 << 5); // lane 5 sees the stuck-at-one LSB
/// ```
#[derive(Clone, Debug)]
pub struct BatchFaultPlanes {
    words: usize,
    width: u32,
    lanes: usize,
    /// Per logical address: which lanes have at least one stuck cell here.
    dirty: Vec<u64>,
    /// Per logical address: index into the plane arena, or `CLEAN`.
    slot: Vec<u32>,
    /// One bit per logical address, set exactly when its `slot` is
    /// allocated: the touched addresses, ascending.
    touched: Vec<u64>,
    /// Stuck-cell masks, `width` planes per allocated entry: bit *l* of
    /// plane *p* says lane *l* has a stuck cell at bit *p*.
    sm: Vec<u64>,
    /// Stuck-cell values, same layout (meaningful only under `sm`).
    sv: Vec<u64>,
}

/// Sentinel slot for addresses no lane corrupts.
const CLEAN: u32 = u32::MAX;

impl BatchFaultPlanes {
    /// Empty plane storage over `words` addresses of `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 32 (the [`FaultMap`] word width
    /// bound).
    pub fn new(words: usize, width: u32) -> Self {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        BatchFaultPlanes {
            words,
            width,
            lanes: 0,
            dirty: vec![0; words],
            slot: vec![CLEAN; words],
            touched: vec![0; words.div_ceil(64)],
            sm: Vec::new(),
            sv: Vec::new(),
        }
    }

    /// Removes every fault and lane, keeping the allocations — the
    /// per-batch re-arm path. Resets only the touched addresses: O(touched
    /// + words / 64), not O(words).
    pub fn clear(&mut self) {
        self.lanes = 0;
        for chunk in 0..self.touched.len() {
            let mut bits = std::mem::take(&mut self.touched[chunk]);
            while bits != 0 {
                let addr = chunk * 64 + bits.trailing_zeros() as usize;
                self.dirty[addr] = 0;
                self.slot[addr] = CLEAN;
                bits &= bits - 1;
            }
        }
        self.sm.clear();
        self.sv.clear();
    }

    /// Number of addresses covered.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Plane width in bits (code bits per word).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of lanes occupied so far (highest installed lane + 1).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The plane-arena offset of `addr`, allocating its entry (and
    /// marking it touched) on first use.
    fn entry(&mut self, addr: usize) -> usize {
        assert!(addr < self.words, "address out of range");
        if self.slot[addr] == CLEAN {
            self.touched[addr / 64] |= 1 << (addr % 64);
            self.slot[addr] = u32::try_from(self.sm.len() / self.width as usize)
                .expect("plane arena exceeds u32 entries");
            self.sm.resize(self.sm.len() + self.width as usize, 0);
            self.sv.resize(self.sv.len() + self.width as usize, 0);
        }
        self.slot[addr] as usize * self.width as usize
    }

    /// Installs a single stuck cell for `lane` at logical `addr` / `bit` —
    /// the single-cell injection families build their batches from this.
    ///
    /// # Panics
    ///
    /// Panics if `lane` ≥ [`MAX_LANES`], `addr` is out of range, or `bit`
    /// ≥ the plane width.
    pub fn inject(&mut self, lane: usize, addr: usize, bit: u32, stuck: StuckAt) {
        assert!(lane < MAX_LANES, "lane out of range");
        assert!(bit < self.width, "bit out of range");
        self.lanes = self.lanes.max(lane + 1);
        let base = self.entry(addr);
        let l = 1u64 << lane;
        self.dirty[addr] |= l;
        self.sm[base + bit as usize] |= l;
        if stuck == StuckAt::One {
            self.sv[base + bit as usize] |= l;
        } else {
            self.sv[base + bit as usize] &= !l;
        }
    }

    /// Installs every fault of `map` as lane `lane`, resolving physical
    /// fault locations to logical addresses through `scrambler` when one
    /// is given. Faults at bit positions ≥ the plane width are skipped —
    /// the width-narrowing the scalar path applies when a shared
    /// widest-codeword map is installed into a narrower array.
    ///
    /// # Panics
    ///
    /// Panics if `lane` ≥ [`MAX_LANES`], the map covers a different word
    /// count, or the scrambler does.
    pub fn add_lane(&mut self, lane: usize, map: &FaultMap, scrambler: Option<&AddressScrambler>) {
        assert!(lane < MAX_LANES, "lane out of range");
        assert_eq!(map.words(), self.words, "fault map word count");
        if let Some(s) = scrambler {
            assert_eq!(s.words(), self.words, "scrambler word count");
        }
        self.lanes = self.lanes.max(lane + 1);
        for (word, bit, stuck) in map.iter_faults() {
            if bit >= self.width {
                continue;
            }
            let addr = match scrambler {
                Some(s) => s.to_logical(word),
                None => word,
            };
            let base = self.entry(addr);
            let l = 1u64 << lane;
            self.dirty[addr] |= l;
            self.sm[base + bit as usize] |= l;
            if stuck == StuckAt::One {
                self.sv[base + bit as usize] |= l;
            } else {
                self.sv[base + bit as usize] &= !l;
            }
        }
    }

    /// The logical addresses at which some lane has a stuck cell, in
    /// ascending order: exactly those with a nonzero
    /// [`BatchFaultPlanes::dirty_mask`]. Kept by [`BatchFaultPlanes::inject`],
    /// [`BatchFaultPlanes::add_lane`] and [`BatchFaultPlanes::clear`]
    /// themselves, so it holds after any sequence of them. Costs
    /// O(touched + words / 64).
    ///
    /// ```
    /// use dream_mem::{BatchFaultPlanes, StuckAt};
    ///
    /// let mut planes = BatchFaultPlanes::new(200, 16);
    /// planes.inject(2, 130, 4, StuckAt::One);
    /// planes.inject(0, 7, 0, StuckAt::Zero);
    /// planes.inject(1, 130, 9, StuckAt::Zero);
    /// assert_eq!(planes.touched().collect::<Vec<_>>(), [7, 130]);
    /// ```
    pub fn touched(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched
            .iter()
            .enumerate()
            .filter(|(_, &bits)| bits != 0)
            .flat_map(|(chunk, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let addr = chunk * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(addr)
                })
            })
    }

    /// Which lanes have at least one stuck cell at logical `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn dirty_mask(&self, addr: usize) -> u64 {
        self.dirty[addr]
    }

    /// Overlays the stored code word `code` at `addr` with every lane's
    /// stuck cells, writing `out.len()` bit planes: bit *l* of `out[p]` is
    /// bit *p* of the word lane *l* reads back. Lanes without faults at
    /// `addr` (and bits above `out.len()`) see `code` unchanged.
    ///
    /// `out` may be narrower than the plane width (a codec whose codeword
    /// is narrower than the shared fault-map width) — higher fault planes
    /// are simply not consulted, matching the scalar width-narrowing.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `out` is wider than the planes.
    #[inline]
    pub fn overlay(&self, addr: usize, code: u32, out: &mut [u64]) {
        assert!(
            out.len() <= self.width as usize,
            "overlay wider than planes"
        );
        if self.slot[addr] == CLEAN {
            for (p, slot) in out.iter_mut().enumerate() {
                *slot = 0u64.wrapping_sub(u64::from((code >> p) & 1));
            }
            return;
        }
        let base = self.slot[addr] as usize * self.width as usize;
        for (p, slot) in out.iter_mut().enumerate() {
            let broadcast = 0u64.wrapping_sub(u64::from((code >> p) & 1));
            let sm = self.sm[base + p];
            *slot = (broadcast & !sm) | (self.sv[base + p] & sm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: the word lane `l` reads for stored `code`.
    fn lane_view(
        planes: &BatchFaultPlanes,
        addr: usize,
        code: u32,
        lane: usize,
        width: u32,
    ) -> u32 {
        let mut out = vec![0u64; width as usize];
        planes.overlay(addr, code, &mut out);
        let mut word = 0u32;
        for (p, plane) in out.iter().enumerate() {
            word |= (((plane >> lane) & 1) as u32) << p;
        }
        word
    }

    #[test]
    fn clean_addresses_broadcast_the_code() {
        let planes = BatchFaultPlanes::new(4, 16);
        assert_eq!(planes.dirty_mask(2), 0);
        for lane in [0, 17, 63] {
            assert_eq!(lane_view(&planes, 2, 0xA5C3, lane, 16), 0xA5C3);
        }
    }

    #[test]
    fn overlay_matches_fault_map_apply_per_lane() {
        let mut planes = BatchFaultPlanes::new(32, 22);
        let mut maps = Vec::new();
        for lane in 0..MAX_LANES {
            let map = FaultMap::generate(32, 22, 0.05, lane as u64 + 7);
            planes.add_lane(lane, &map, None);
            maps.push(map);
        }
        for addr in 0..32 {
            for code in [0u32, 0x3F_FFFF, 0x2A_55AA] {
                for (lane, map) in maps.iter().enumerate() {
                    assert_eq!(
                        lane_view(&planes, addr, code, lane, 22),
                        map.apply(addr, code),
                        "addr {addr} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn dirty_mask_tracks_exactly_the_faulty_lanes() {
        let mut planes = BatchFaultPlanes::new(8, 16);
        planes.inject(3, 5, 0, StuckAt::One);
        planes.inject(9, 5, 15, StuckAt::Zero);
        planes.inject(9, 6, 2, StuckAt::One);
        assert_eq!(planes.dirty_mask(5), (1 << 3) | (1 << 9));
        assert_eq!(planes.dirty_mask(6), 1 << 9);
        assert_eq!(planes.dirty_mask(0), 0);
        assert_eq!(planes.lanes(), 10);
    }

    #[test]
    fn scrambled_lanes_resolve_to_logical_addresses() {
        let mut map = FaultMap::empty(16, 16);
        map.inject(0, 4, StuckAt::One);
        let scrambler = AddressScrambler::new(16, 0x5A5A);
        let logical = scrambler.to_logical(0);
        let mut planes = BatchFaultPlanes::new(16, 16);
        planes.add_lane(0, &map, Some(&scrambler));
        assert_eq!(planes.dirty_mask(logical), 1);
        for addr in 0..16 {
            if addr != logical {
                assert_eq!(planes.dirty_mask(addr), 0, "addr {addr}");
            }
        }
        assert_eq!(lane_view(&planes, logical, 0, 0, 16), 1 << 4);
    }

    #[test]
    fn narrow_overlay_skips_high_fault_planes() {
        // A fault at bit 20 of a 22-bit map must be invisible through a
        // 16-plane overlay — the behaviour of `FaultMap::with_width(16)`.
        let mut map = FaultMap::empty(4, 22);
        map.inject(1, 20, StuckAt::One);
        map.inject(1, 3, StuckAt::One);
        let mut planes = BatchFaultPlanes::new(4, 22);
        planes.add_lane(0, &map, None);
        assert_eq!(lane_view(&planes, 1, 0, 0, 16), 1 << 3);
        let narrowed = map.with_width(16);
        assert_eq!(lane_view(&planes, 1, 0, 0, 16), narrowed.apply(1, 0));
    }

    #[test]
    fn wide_add_lane_skips_bits_beyond_plane_width() {
        let mut map = FaultMap::empty(4, 22);
        map.inject(2, 21, StuckAt::One);
        let mut planes = BatchFaultPlanes::new(4, 16);
        planes.add_lane(0, &map, None);
        assert_eq!(planes.dirty_mask(2), 0);
    }

    #[test]
    fn clear_forgets_everything_and_is_reusable() {
        let mut planes = BatchFaultPlanes::new(8, 16);
        planes.inject(0, 1, 0, StuckAt::One);
        planes.clear();
        assert_eq!(planes.lanes(), 0);
        assert_eq!(planes.dirty_mask(1), 0);
        assert_eq!(lane_view(&planes, 1, 0x1234, 0, 16), 0x1234);
        planes.inject(1, 2, 5, StuckAt::Zero);
        assert_eq!(planes.dirty_mask(2), 1 << 1);
        assert_eq!(lane_view(&planes, 2, 0xFFFF, 1, 16), 0xFFFF & !(1 << 5));
    }

    #[test]
    fn reinjection_flips_polarity_like_fault_map_inject() {
        let mut planes = BatchFaultPlanes::new(4, 16);
        planes.inject(0, 1, 7, StuckAt::One);
        planes.inject(0, 1, 7, StuckAt::Zero);
        assert_eq!(lane_view(&planes, 1, 0xFFFF, 0, 16), 0xFFFF & !(1 << 7));
    }

    mod touched_props {
        use super::super::*;
        use proptest::prelude::*;

        /// One build step: a whole lane from a generated map (optionally
        /// scrambled), a single stuck cell, or a re-arm.
        #[derive(Clone, Debug)]
        enum Step {
            AddLane {
                lane: usize,
                seed: u64,
                scramble: Option<u64>,
            },
            Inject(usize, usize, u32, bool),
            Clear,
        }

        const WORDS: usize = 150;

        fn step() -> impl Strategy<Value = Step> {
            (
                0u8..8,
                0usize..MAX_LANES,
                any::<u64>(),
                0usize..WORDS,
                0u32..22,
                any::<bool>(),
            )
                .prop_map(|(kind, lane, seed, addr, bit, one)| match kind {
                    0..=2 => Step::AddLane {
                        lane,
                        seed,
                        scramble: one.then_some(seed.rotate_left(17)),
                    },
                    3..=6 => Step::Inject(lane, addr, bit, one),
                    _ => Step::Clear,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// After any interleaving of `add_lane`, `inject` and `clear`,
            /// `touched()` lists, ascending, exactly the addresses with a
            /// nonzero dirty mask, and the overlay of every other address
            /// is the broadcast code.
            #[test]
            fn touched_is_the_ascending_dirty_set(
                steps in prop::collection::vec(step(), 0..24),
                width in 1u32..=22,
            ) {
                let mut planes = BatchFaultPlanes::new(WORDS, width);
                for step in steps {
                    match step {
                        Step::AddLane { lane, seed, scramble } => {
                            let map = FaultMap::generate(WORDS, 22, 0.004, seed);
                            let scrambler = scramble.map(|key| AddressScrambler::new(WORDS, key));
                            planes.add_lane(lane, &map, scrambler.as_ref());
                        }
                        Step::Inject(lane, addr, bit, one) => {
                            let stuck = if one { StuckAt::One } else { StuckAt::Zero };
                            planes.inject(lane, addr, bit % width, stuck);
                        }
                        Step::Clear => planes.clear(),
                    }
                    let touched: Vec<usize> = planes.touched().collect();
                    let dirty: Vec<usize> =
                        (0..WORDS).filter(|&a| planes.dirty_mask(a) != 0).collect();
                    prop_assert_eq!(&touched, &dirty);
                    for addr in (0..WORDS).filter(|a| touched.binary_search(a).is_err()) {
                        let mut out = vec![0u64; width as usize];
                        planes.overlay(addr, 0x2A_55AA, &mut out);
                        for (p, plane) in out.iter().enumerate() {
                            let want = 0u64.wrapping_sub(u64::from((0x2A_55AAu32 >> p) & 1));
                            prop_assert_eq!(*plane, want, "addr {} plane {}", addr, p);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn lane_65_rejected() {
        let mut planes = BatchFaultPlanes::new(4, 16);
        planes.inject(MAX_LANES, 0, 0, StuckAt::One);
    }

    #[test]
    #[should_panic(expected = "overlay wider than planes")]
    fn over_wide_overlay_rejected() {
        let planes = BatchFaultPlanes::new(4, 16);
        let mut out = [0u64; 17];
        planes.overlay(0, 0, &mut out);
    }
}
