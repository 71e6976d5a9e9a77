//! Stuck-at fault maps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two permanent failure modes of a voltage-starved SRAM cell.
///
/// The paper injects both polarities: "Data corruption is caused by
/// permanent errors that occur at random positions and set the affected
/// memory bits to '1' or '0'" (§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StuckAt {
    /// The cell always reads 0 regardless of what was written.
    Zero,
    /// The cell always reads 1 regardless of what was written.
    One,
}

impl StuckAt {
    /// The bit value this fault forces.
    pub fn bit(self) -> u32 {
        match self {
            StuckAt::Zero => 0,
            StuckAt::One => 1,
        }
    }
}

/// A per-word stuck-at overlay for a memory array.
///
/// For every word the map stores which bit lanes are stuck (`stuck_mask`)
/// and the value they are stuck at (`stuck_val`). Applying the overlay to
/// read data is two bitwise operations, so fault injection adds O(1) work
/// per access regardless of how many faults exist.
///
/// Maps are value types: the paper evaluates all EMTs against *the same*
/// fault locations for fairness (§V), which callers get by cloning or
/// sharing one generated map.
///
/// The map also lists the words holding a stuck cell, so clearing it and
/// copying it into another map cost O(stuck words), not O(words): a
/// campaign re-arms maps thousands of times, and at scaled voltages only a
/// sliver of the words is faulty.
///
/// ```
/// use dream_mem::{FaultMap, StuckAt};
/// let mut map = FaultMap::empty(4, 16);
/// map.inject(2, 15, StuckAt::One); // MSB of word 2 stuck at 1
/// assert_eq!(map.apply(2, 0x0000), 0x8000);
/// assert_eq!(map.apply(1, 0x0000), 0x0000);
/// ```
#[derive(Clone, Debug)]
pub struct FaultMap {
    words: usize,
    width: u32,
    stuck_mask: Vec<u32>,
    stuck_val: Vec<u32>,
    /// Every word whose `stuck_mask` is non-zero, once each, in the order
    /// its first fault arrived.
    stuck_words: Vec<usize>,
    fault_count: usize,
}

/// Maps are equal when they stick the same cells at the same values; the
/// order in which the faults arrived does not matter.
impl PartialEq for FaultMap {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
            && self.width == other.width
            && self.fault_count == other.fault_count
            && self.stuck_mask == other.stuck_mask
            && self.stuck_val == other.stuck_val
    }
}

impl Eq for FaultMap {}

impl FaultMap {
    /// Creates a fault-free map for `words` words of `width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 32.
    pub fn empty(words: usize, width: u32) -> Self {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        FaultMap {
            words,
            width,
            stuck_mask: vec![0; words],
            stuck_val: vec![0; words],
            stuck_words: Vec::new(),
            fault_count: 0,
        }
    }

    /// Draws a random map where every bit cell is independently stuck with
    /// probability `ber` (polarity 50/50), deterministically from `seed`.
    ///
    /// Uses geometric skip-sampling: instead of flipping a coin per cell,
    /// the generator jumps directly between fault positions, so generation
    /// cost is proportional to the number of faults, not the number of
    /// cells. This is what makes the paper's 200-runs-per-voltage campaigns
    /// affordable at the 0.9 V end where faults are vanishingly rare.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not within `[0.0, 1.0]` or `width` is not in
    /// `1..=32`.
    pub fn generate(words: usize, width: u32, ber: f64, seed: u64) -> Self {
        let mut map = FaultMap::empty(words, width);
        map.regenerate(ber, seed);
        map
    }

    /// Clears every fault, leaving dimensions (and allocations) intact.
    /// Only the stuck words are touched.
    pub fn clear(&mut self) {
        for &w in &self.stuck_words {
            self.stuck_mask[w] = 0;
            self.stuck_val[w] = 0;
        }
        self.stuck_words.clear();
        self.fault_count = 0;
    }

    /// Redraws this map in place, exactly as [`FaultMap::generate`] would
    /// with the same dimensions — campaign workers reuse one allocation
    /// across thousands of trials.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not within `[0.0, 1.0]`.
    pub fn regenerate(&mut self, ber: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&ber), "ber must be a probability");
        self.clear();
        let (words, width) = (self.words, self.width);
        if ber == 0.0 || words == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let total_bits = words as u64 * u64::from(width);
        if ber >= 1.0 {
            for w in 0..words {
                for b in 0..width {
                    let stuck = if rng.gen::<bool>() {
                        StuckAt::One
                    } else {
                        StuckAt::Zero
                    };
                    self.inject(w, b, stuck);
                }
            }
            return;
        }
        // Geometric skipping: gap ~ floor(ln(U) / ln(1 - p)) cells between
        // consecutive faults.
        let log1m = (1.0 - ber).ln();
        let mut pos: u64 = 0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap = (u.ln() / log1m).floor() as u64;
            pos = match pos.checked_add(gap) {
                Some(p) => p,
                None => break,
            };
            if pos >= total_bits {
                break;
            }
            let word = (pos / u64::from(width)) as usize;
            let bit = (pos % u64::from(width)) as u32;
            let stuck = if rng.gen::<bool>() {
                StuckAt::One
            } else {
                StuckAt::Zero
            };
            self.inject(word, bit, stuck);
            pos += 1;
            if pos >= total_bits {
                break;
            }
        }
    }

    /// Forces `bit` of `word` to be stuck at the given polarity.
    ///
    /// Re-injecting an already-stuck bit overwrites its polarity without
    /// double-counting it.
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn inject(&mut self, word: usize, bit: u32, stuck: StuckAt) {
        assert!(word < self.words, "word index out of range");
        assert!(bit < self.width, "bit index out of range");
        let lane = 1u32 << bit;
        if self.stuck_mask[word] == 0 {
            self.stuck_words.push(word);
        }
        if self.stuck_mask[word] & lane == 0 {
            self.fault_count += 1;
        }
        self.stuck_mask[word] |= lane;
        match stuck {
            StuckAt::One => self.stuck_val[word] |= lane,
            StuckAt::Zero => self.stuck_val[word] &= !lane,
        }
    }

    /// Applies the overlay: returns what a read of `bits` stored in `word`
    /// actually sees.
    #[inline]
    pub fn apply(&self, word: usize, bits: u32) -> u32 {
        (bits & !self.stuck_mask[word]) | (self.stuck_val[word] & self.stuck_mask[word])
    }

    /// The stuck-bit lanes of `word`.
    #[inline]
    pub fn stuck_mask(&self, word: usize) -> u32 {
        self.stuck_mask[word]
    }

    /// The values the stuck lanes of `word` are forced to.
    #[inline]
    pub fn stuck_values(&self, word: usize) -> u32 {
        self.stuck_val[word] & self.stuck_mask[word]
    }

    /// Total number of stuck bit cells in the map.
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// Number of words covered by the map.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The words holding at least one stuck cell, each once, in the order
    /// their first fault was injected (not necessarily ascending).
    pub fn stuck_words(&self) -> &[usize] {
        &self.stuck_words
    }

    /// Number of words that contain at least `n` stuck bits — the quantity
    /// that decides whether ECC SEC/DED (which dies at 2 faults/word) or
    /// DREAM (which survives any count inside the mask) wins at a voltage.
    pub fn words_with_at_least(&self, n: u32) -> usize {
        self.stuck_mask
            .iter()
            .filter(|m| m.count_ones() >= n)
            .count()
    }

    /// Iterates over `(word, bit, polarity)` for every stuck cell, in word
    /// order and ascending bit order within a word.
    ///
    /// Maps are sparse, so the walk skips clean words with one test each
    /// and visits only the set bits of a stuck word: its cost follows the
    /// fault count, not `words × width`.
    pub fn iter_faults(&self) -> impl Iterator<Item = (usize, u32, StuckAt)> + '_ {
        self.stuck_mask
            .iter()
            .zip(&self.stuck_val)
            .enumerate()
            .filter(|(_, (&mask, _))| mask != 0)
            .flat_map(|(w, (&mask, &val))| {
                let mut rest = mask;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    let pol = if val >> b & 1 == 1 {
                        StuckAt::One
                    } else {
                        StuckAt::Zero
                    };
                    Some((w, b, pol))
                })
            })
    }

    /// Builds a map with the *same* fault pattern but a different word
    /// width, truncating faults that fall outside the new width.
    ///
    /// Used when comparing EMTs with different codeword widths (16-bit raw
    /// vs 22-bit ECC) over "the same set of error locations/mappings" as the
    /// paper prescribes.
    pub fn with_width(&self, width: u32) -> FaultMap {
        let mut out = FaultMap::empty(self.words, width);
        if width >= self.width {
            // Widening keeps every fault: no lanes exist above the source
            // width, so the pattern copies verbatim.
            out.stuck_mask.copy_from_slice(&self.stuck_mask);
            out.stuck_val.copy_from_slice(&self.stuck_val);
            out.stuck_words.clone_from(&self.stuck_words);
            out.fault_count = self.fault_count;
        } else {
            out.copy_narrowed_from(self);
        }
        out
    }

    /// Overwrites this map with the fault pattern of `src`, truncating
    /// faults outside this map's (narrower or equal) width — the in-place,
    /// allocation-free counterpart of [`FaultMap::with_width`]. It visits
    /// only this map's and `src`'s stuck words, so a trial re-arm costs
    /// O(faults), not O(words).
    ///
    /// # Panics
    ///
    /// Panics if the word counts differ or `src` is narrower than `self`.
    pub fn copy_narrowed_from(&mut self, src: &FaultMap) {
        assert_eq!(src.words, self.words, "fault map word count");
        assert!(
            src.width >= self.width,
            "source map must cover this map's width"
        );
        let keep = if self.width == 32 {
            u32::MAX
        } else {
            (1u32 << self.width) - 1
        };
        self.clear();
        for &w in &src.stuck_words {
            let mask = src.stuck_mask[w] & keep;
            if mask != 0 {
                self.stuck_mask[w] = mask;
                self.stuck_val[w] = src.stuck_val[w] & keep;
                self.stuck_words.push(w);
                self.fault_count += mask.count_ones() as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_is_transparent() {
        let map = FaultMap::empty(8, 16);
        for w in 0..8 {
            assert_eq!(map.apply(w, 0xA5A5), 0xA5A5);
        }
        assert_eq!(map.fault_count(), 0);
    }

    #[test]
    fn injection_forces_bits() {
        let mut map = FaultMap::empty(2, 16);
        map.inject(0, 3, StuckAt::One);
        map.inject(0, 5, StuckAt::Zero);
        assert_eq!(map.apply(0, 0x0000), 0x0008);
        assert_eq!(map.apply(0, 0xFFFF), 0xFFDF);
        assert_eq!(map.fault_count(), 2);
    }

    #[test]
    fn reinjection_does_not_double_count() {
        let mut map = FaultMap::empty(1, 16);
        map.inject(0, 7, StuckAt::One);
        map.inject(0, 7, StuckAt::Zero);
        assert_eq!(map.fault_count(), 1);
        assert_eq!(map.apply(0, 0xFFFF), 0xFF7F);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = FaultMap::generate(4096, 16, 1e-3, 7);
        let b = FaultMap::generate(4096, 16, 1e-3, 7);
        let c = FaultMap::generate(4096, 16, 1e-3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generation_count_tracks_ber() {
        let words = 65_536;
        let width = 16;
        let ber = 1e-3;
        let map = FaultMap::generate(words, width, ber, 99);
        let expected = words as f64 * f64::from(width) * ber;
        let got = map.fault_count() as f64;
        // 6-sigma band for a binomial with ~1049 expected faults.
        let sigma = (expected * (1.0 - ber)).sqrt();
        assert!(
            (got - expected).abs() < 6.0 * sigma,
            "got {got}, expected {expected} +- {sigma}"
        );
    }

    #[test]
    fn zero_ber_means_no_faults() {
        let map = FaultMap::generate(10_000, 22, 0.0, 1);
        assert_eq!(map.fault_count(), 0);
    }

    #[test]
    fn full_ber_sticks_everything() {
        let map = FaultMap::generate(64, 16, 1.0, 1);
        assert_eq!(map.fault_count(), 64 * 16);
        for w in 0..64 {
            assert_eq!(map.stuck_mask(w), 0xFFFF);
        }
    }

    #[test]
    fn iter_faults_agrees_with_count() {
        let map = FaultMap::generate(2048, 22, 5e-3, 3);
        assert_eq!(map.iter_faults().count(), map.fault_count());
        for (w, b, pol) in map.iter_faults() {
            assert!(map.stuck_mask(w) & (1 << b) != 0);
            assert_eq!((map.stuck_values(w) >> b) & 1, pol.bit());
        }
    }

    /// The word × bit scan `iter_faults` replaced: every bit position of
    /// every word, in order.
    fn naive_faults(map: &FaultMap) -> Vec<(usize, u32, StuckAt)> {
        let mut out = Vec::new();
        for w in 0..map.words() {
            for b in 0..map.width() {
                if map.stuck_mask(w) >> b & 1 == 1 {
                    let pol = if map.stuck_values(w) >> b & 1 == 1 {
                        StuckAt::One
                    } else {
                        StuckAt::Zero
                    };
                    out.push((w, b, pol));
                }
            }
        }
        out
    }

    #[test]
    fn iter_faults_matches_a_naive_word_by_bit_scan() {
        for width in [1, 16, 22, 32] {
            for (seed, ber) in [(1, 0.0), (2, 1e-3), (3, 5e-2), (4, 0.5), (5, 1.0)] {
                let mut map = FaultMap::generate(300, width, ber, seed);
                // The top bit (bit 31 at width 32) and fully stuck words
                // of both polarities.
                map.inject(7, width - 1, StuckAt::One);
                map.inject(299, width - 1, StuckAt::Zero);
                for b in 0..width {
                    map.inject(11, b, StuckAt::One);
                    map.inject(12, b, StuckAt::Zero);
                    let pol = if b % 2 == 0 {
                        StuckAt::One
                    } else {
                        StuckAt::Zero
                    };
                    map.inject(0, b, pol);
                }
                let got: Vec<_> = map.iter_faults().collect();
                assert_eq!(got, naive_faults(&map), "width {width}, ber {ber}");
                assert_eq!(got.len(), map.fault_count(), "width {width}, ber {ber}");
            }
        }
        let empty = FaultMap::empty(64, 32);
        assert_eq!(empty.iter_faults().count(), 0);
    }

    #[test]
    fn width_restriction_preserves_low_lanes() {
        let mut map = FaultMap::empty(4, 22);
        map.inject(1, 3, StuckAt::One);
        map.inject(1, 20, StuckAt::One);
        let narrow = map.with_width(16);
        assert_eq!(narrow.fault_count(), 1);
        assert_eq!(narrow.apply(1, 0), 0x0008);
    }

    #[test]
    fn regenerate_matches_generate() {
        let mut reused = FaultMap::generate(2048, 22, 5e-3, 1);
        reused.regenerate(2e-3, 42);
        assert_eq!(reused, FaultMap::generate(2048, 22, 2e-3, 42));
        reused.clear();
        assert_eq!(reused, FaultMap::empty(2048, 22));
    }

    #[test]
    fn widening_preserves_every_fault() {
        let narrow = FaultMap::generate(256, 16, 1e-2, 4);
        let wide = narrow.with_width(22);
        assert_eq!(wide.width(), 22);
        assert_eq!(wide.fault_count(), narrow.fault_count());
        for w in 0..256 {
            assert_eq!(wide.stuck_mask(w), narrow.stuck_mask(w));
            assert_eq!(wide.stuck_values(w), narrow.stuck_values(w));
        }
    }

    #[test]
    fn narrowed_copy_matches_with_width() {
        let wide = FaultMap::generate(512, 22, 1e-2, 9);
        let mut narrow = FaultMap::generate(512, 16, 0.5, 3); // stale content
        narrow.copy_narrowed_from(&wide);
        assert_eq!(narrow, wide.with_width(16));
    }

    /// The stuck-word list, sorted, against a scan of the masks.
    fn listed_matches_scan(map: &FaultMap) {
        let mut listed = map.stuck_words().to_vec();
        listed.sort_unstable();
        let scanned: Vec<usize> = (0..map.words())
            .filter(|&w| map.stuck_mask(w) != 0)
            .collect();
        assert_eq!(listed, scanned);
    }

    #[test]
    fn stuck_word_list_tracks_every_mutation() {
        let mut map = FaultMap::generate(300, 22, 0.03, 41);
        listed_matches_scan(&map);
        // Re-injecting a stuck word or a stuck cell lists it once.
        let w = map.stuck_words()[0];
        map.inject(w, 21, StuckAt::One);
        map.inject(w, 21, StuckAt::Zero);
        map.inject(299, 3, StuckAt::One);
        listed_matches_scan(&map);
        // A word stuck only above the narrow width drops out of the copy.
        let mut high = FaultMap::empty(300, 22);
        high.inject(7, 20, StuckAt::One);
        high.inject(8, 2, StuckAt::Zero);
        let mut narrow = FaultMap::generate(300, 16, 0.2, 5);
        narrow.copy_narrowed_from(&high);
        listed_matches_scan(&narrow);
        assert_eq!(narrow.stuck_words(), &[8]);
        assert_eq!(narrow.fault_count(), 1);
        listed_matches_scan(&map.with_width(32));
        map.clear();
        listed_matches_scan(&map);
        assert_eq!(map, FaultMap::empty(300, 22));
    }

    #[test]
    fn multi_fault_word_census() {
        let mut map = FaultMap::empty(4, 16);
        map.inject(0, 0, StuckAt::One);
        map.inject(0, 1, StuckAt::One);
        map.inject(2, 9, StuckAt::Zero);
        assert_eq!(map.words_with_at_least(1), 2);
        assert_eq!(map.words_with_at_least(2), 1);
        assert_eq!(map.words_with_at_least(3), 0);
    }
}
