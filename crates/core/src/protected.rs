//! Protected-memory composition: codec + faulty data array + reliable side
//! array + statistics + energy accounting.
//!
//! # Anatomy of an access
//!
//! A write runs the encoder and latches `(code, side)`; a read returns what
//! the decoder makes of the code bits seen through the fault overlay. Three
//! structural choices keep that pipeline off the campaign profiles:
//!
//! * **Monomorphization** — [`ProtectedMemory`] is generic over its codec
//!   `C: EmtCodec` (defaulting to the [`AnyCodec`] facade, so existing
//!   harness code is unchanged). Campaign arenas instantiate
//!   `ProtectedMemory<NoProtection>` etc., compiling every access down to
//!   the concrete codec kernel with no enum dispatch.
//! * **Decode at write time** — faults are permanent stuck-at cells (§V),
//!   so what a read of an address returns is fixed from one write of it
//!   to the next. The memory therefore keeps a *view*: per address, the
//!   word a read returns, plus two bitsets flagging reads the decoder
//!   reports `Corrected` or `DetectedUncorrectable`. A third bitset marks
//!   the *dirty* addresses, those some stuck lane touches. A write stores
//!   its word in the view and clears its outcome bits — every codec
//!   round-trips a word through a clean cell as `(word, Clean)` — and only
//!   a dirty address runs the decoder, once, on the faulty read-back. A
//!   read is then one load plus two bit tests, and a block read is a
//!   `memcpy` plus two masked popcounts per 64 words. A fresh memory
//!   fills the view with the decode of the zeroed arrays (DREAM's virgin
//!   read is a `Corrected` non-zero word) and decodes the dirty words
//!   through their faults; installing a scrambler rebuilds the whole view.
//!   Statistics (and therefore energy accounting) are bit-identical to
//!   decoding on every read: tests check each view read against the
//!   oracle `codec().decode(data_array().read(a), side_word(a))`.
//! * **Cheap re-arming** — the memory flags each 64-word chunk it writes.
//!   [`ProtectedMemory::rewind`] restores only the flagged chunks to their
//!   virgin state, and [`ProtectedMemory::reset_with_fault_map`] follows
//!   that with work on the old and new maps' stuck words only, so a
//!   campaign lane re-arms in time proportional to what it wrote and to
//!   its faults, not to the memory size.

use dream_energy::{calib, EnergyBreakdown, SramEnergyModel};
use dream_mem::{FaultMap, FaultySram, MemGeometry};

use crate::emt::{AnyCodec, DecodeOutcome, Decoded, EmtCodec, EmtKind};

/// Running access/outcome counters of a [`ProtectedMemory`].
///
/// These are the observables the §VI analyses need: access counts price the
/// dynamic energy, outcome counts explain *why* an EMT's SNR curve bends
/// (how often ECC hit an uncorrectable word, how often DREAM actually had
/// to repair something).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Word reads served.
    pub reads: u64,
    /// Word writes served.
    pub writes: u64,
    /// Reads where the decoder changed at least one bit.
    pub corrected_reads: u64,
    /// Reads flagged uncorrectable (ECC double errors, parity hits).
    pub uncorrectable_reads: u64,
}

impl AccessStats {
    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The energy models priced against a run's [`AccessStats`].
///
/// Bundles the CACTI-substitute models for the main (voltage-scaled) data
/// array and the small always-at-nominal side array holding DREAM's mask
/// bits, per the calibration in `dream_energy::calib`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModelBundle {
    /// Model of the main data array.
    pub main: SramEnergyModel,
    /// Model of the side (mask) array.
    pub side: SramEnergyModel,
    /// Supply of the side array (pinned high so it stays error-free, §IV-A).
    pub side_supply_v: f64,
}

impl EnergyModelBundle {
    /// The calibrated 32 nm / 343 K models used throughout the reproduction.
    pub fn date16() -> Self {
        EnergyModelBundle {
            main: SramEnergyModel::date16_main(),
            side: SramEnergyModel::date16_side(),
            side_supply_v: calib::MASK_SUPPLY_VOLTAGE,
        }
    }

    /// Energy of a run described by `stats` on a memory of `words` words
    /// protected by `codec`, with the data array at `data_v` volts for
    /// `seconds` of wall-clock time.
    ///
    /// Codec logic is priced in the data-array voltage domain: standard
    /// cells retain far more margin than SRAM bit cells at near-threshold
    /// voltages, so the paper's codecs can ride the scaled rail while the
    /// bit cells are the reliability limiter.
    pub fn run_energy(
        &self,
        codec: &dyn EmtCodec,
        stats: &AccessStats,
        words: usize,
        data_v: f64,
        seconds: f64,
    ) -> EnergyBreakdown {
        let accesses = stats.accesses() as f64;
        let mut e = EnergyBreakdown::new();
        e.data_dynamic_pj = accesses * self.main.access_energy_pj(codec.code_width(), data_v);
        if codec.side_bits() > 0 {
            e.side_dynamic_pj = accesses
                * self
                    .side
                    .access_energy_pj(codec.side_bits(), self.side_supply_v);
        }
        let enc = codec.encoder_netlist().op_energy_pj(data_v);
        let dec = codec.decoder_netlist().op_energy_pj(data_v);
        e.codec_pj = stats.writes as f64 * enc + stats.reads as f64 * dec;
        let data_cells = words * codec.code_width() as usize;
        e.leakage_pj = self.main.leakage_energy_pj(data_cells, data_v, seconds);
        if codec.side_bits() > 0 {
            let side_cells = words * codec.side_bits() as usize;
            e.leakage_pj += self
                .side
                .leakage_energy_pj(side_cells, self.side_supply_v, seconds);
        }
        e
    }
}

impl Default for EnergyModelBundle {
    fn default() -> Self {
        Self::date16()
    }
}

/// A word-addressable data memory protected by an EMT.
///
/// Composition mirrors the paper's platform (§V): the data array is a
/// [`FaultySram`] running at a scaled (fault-inducing) supply; the side
/// array holding DREAM's sign + mask-ID bits is modelled as always
/// error-free because it runs at nominal voltage. Every write runs the
/// encoder (and, for a word some stuck cell touches, the decoder on what
/// the faulty array reads back); every read returns that decode from the
/// memory's view (see the module docs) — and [`AccessStats`] accumulates
/// what happened.
///
/// The codec parameter defaults to the [`AnyCodec`] facade, so
/// `ProtectedMemory` with no type argument behaves exactly as before;
/// performance-critical callers monomorphize with
/// [`ProtectedMemory::with_codec`].
///
/// ```
/// use dream_core::{EmtKind, ProtectedMemory};
/// use dream_mem::{FaultMap, MemGeometry};
///
/// let geometry = MemGeometry::new(256, 16, 1);
/// // A memory at 0.55 V: draw stuck-at faults at the BER for that voltage.
/// let map = FaultMap::generate(256, 22, 1e-3, 7);
/// let mut mem = ProtectedMemory::with_fault_map(EmtKind::Dream, geometry, &map);
/// mem.write(3, -42);
/// let _ = mem.read(3); // corrected if the faults hit the sign-run
/// assert_eq!(mem.stats().reads, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ProtectedMemory<C: EmtCodec = AnyCodec> {
    codec: C,
    data: FaultySram,
    side: Vec<u16>,
    /// Per logical address, the word a read returns:
    /// `codec.decode(data.read(a), side[a]).word`, kept current by every
    /// operation that changes a term of that expression.
    view: Vec<i16>,
    /// Bit `a` set: a read of `a` decodes as [`DecodeOutcome::Corrected`].
    corrected: Vec<u64>,
    /// Bit `a` set: a read of `a` decodes as
    /// [`DecodeOutcome::DetectedUncorrectable`].
    uncorrectable: Vec<u64>,
    /// Bit `a` set: some stuck lane touches logical address `a`, so its
    /// read-back differs from the latched code and must be decoded.
    dirty: Vec<u64>,
    /// Entry `c` set: some logical address of chunk `c` (the 64 words
    /// of bitset block `c`) was written since the memory was last armed
    /// or rewound. Every word of an unset chunk is still in its virgin
    /// state, which is what lets [`ProtectedMemory::rewind`] restore only
    /// the written chunks. One flag per chunk keeps a write's bookkeeping
    /// a plain store, with no read-modify-write chain across writes.
    written: Vec<bool>,
    stats: AccessStats,
}

/// Visits the 64-bit blocks of a packed bitset that cover bits
/// `base..end`, passing each block's index and the mask of its bits
/// inside the range.
#[inline]
fn for_each_block(base: usize, end: usize, mut f: impl FnMut(usize, u64)) {
    let mut lo = base;
    while lo < end {
        let block = lo / 64;
        let hi = end.min((block + 1) * 64);
        f(block, (u64::MAX >> (64 - (hi - lo))) << (lo % 64));
        lo = hi;
    }
}

/// Sets (or clears) bits `base..end` of a packed bitset.
fn fill_bits(bits: &mut [u64], base: usize, end: usize, on: bool) {
    for_each_block(base, end, |block, mask| {
        if on {
            bits[block] |= mask;
        } else {
            bits[block] &= !mask;
        }
    });
}

/// Number of set bits among `base..end` of a packed bitset.
#[inline]
fn count_bits(bits: &[u64], base: usize, end: usize) -> u64 {
    let mut n = 0;
    for_each_block(base, end, |block, mask| {
        n += u64::from((bits[block] & mask).count_ones());
    });
    n
}

/// Bit `addr` of a packed bitset.
#[inline]
fn bit(bits: &[u64], addr: usize) -> bool {
    bits[addr / 64] >> (addr % 64) & 1 == 1
}

/// Sets bit `addr` of a packed bitset to `on`.
#[inline]
fn put_bit(bits: &mut [u64], addr: usize, on: bool) {
    let (block, lane) = (addr / 64, addr % 64);
    bits[block] = bits[block] & !(1 << lane) | u64::from(on) << lane;
}

impl ProtectedMemory<AnyCodec> {
    /// Creates a fault-free protected memory over `geometry` (given for the
    /// *16-bit* base layout; the data array widens automatically for codecs
    /// with in-array redundancy).
    pub fn new(kind: EmtKind, geometry: MemGeometry) -> Self {
        Self::with_codec(kind.codec(), geometry)
    }

    /// Creates a protected memory whose data array carries the stuck-at
    /// faults of `map`.
    ///
    /// `map` must be at least as wide as the codec's codeword so that **the
    /// same fault locations** can be shared across EMTs, as the paper's
    /// methodology requires; the map is narrowed to the codec's width
    /// (ECC's check-bit cells see the extra fault lanes — they are real
    /// cells in the same array).
    ///
    /// # Panics
    ///
    /// Panics if the map covers a different word count or is narrower than
    /// the codeword.
    pub fn with_fault_map(kind: EmtKind, geometry: MemGeometry, map: &FaultMap) -> Self {
        Self::with_codec_and_fault_map(kind.codec(), geometry, map)
    }
}

impl<C: EmtCodec> ProtectedMemory<C> {
    /// Creates a fault-free protected memory monomorphized over `codec` —
    /// the zero-dispatch path campaign arenas use.
    pub fn with_codec(codec: C, geometry: MemGeometry) -> Self {
        let width = codec.code_width();
        Self::build(codec, geometry, FaultMap::empty(geometry.words(), width))
    }

    /// Monomorphized counterpart of [`ProtectedMemory::with_fault_map`].
    ///
    /// # Panics
    ///
    /// Panics if the map covers a different word count or is narrower than
    /// the codeword.
    pub fn with_codec_and_fault_map(codec: C, geometry: MemGeometry, map: &FaultMap) -> Self {
        let width = codec.code_width();
        assert_eq!(map.words(), geometry.words(), "fault map word count");
        assert!(
            map.width() >= width,
            "shared fault map must cover the widest codeword"
        );
        let map = map.with_width(width);
        Self::build(codec, geometry, map)
    }

    fn build(codec: C, geometry: MemGeometry, map: FaultMap) -> Self {
        let data_geometry = geometry.with_width(codec.code_width());
        let data = FaultySram::with_faults(data_geometry, map);
        let words = geometry.words();
        let blocks = words.div_ceil(64);
        let mut mem = ProtectedMemory {
            codec,
            data,
            side: vec![0u16; words],
            view: vec![0i16; words],
            corrected: vec![0u64; blocks],
            uncorrectable: vec![0u64; blocks],
            dirty: vec![0u64; blocks],
            written: vec![false; blocks],
            stats: AccessStats::default(),
        };
        for &addr in mem.data.fault_map().stuck_words() {
            put_bit(&mut mem.dirty, addr, true);
        }
        mem.load_virgin_view(0, words);
        mem
    }

    /// Fills the view of `base..end` with what reads of the zeroed arrays
    /// return: the codec's decode of `(0, 0)` on clean words, and the
    /// decode of the faulty read-back on dirty ones. `dirty` must be
    /// current and the arrays zero over the range.
    fn load_virgin_view(&mut self, base: usize, end: usize) {
        let virgin = self.codec.decode(0, 0);
        self.view[base..end].fill(virgin.word);
        let corrected = virgin.outcome == DecodeOutcome::Corrected;
        let uncorrectable = virgin.outcome == DecodeOutcome::DetectedUncorrectable;
        fill_bits(&mut self.corrected, base, end, corrected);
        fill_bits(&mut self.uncorrectable, base, end, uncorrectable);
        self.decode_dirty(base, end);
    }

    /// Re-decodes every dirty address in `base..end` from its faulty
    /// read-back, storing the word and outcome in the view.
    fn decode_dirty(&mut self, base: usize, end: usize) {
        for_each_block(base, end, |block, mask| {
            let mut pending = self.dirty[block] & mask;
            while pending != 0 {
                let addr = block * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let decoded = self.codec.decode(self.data.read(addr), self.side[addr]);
                self.store(addr, decoded);
            }
        });
    }

    /// Records `decoded` as what a read of `addr` returns.
    #[inline]
    fn store(&mut self, addr: usize, decoded: Decoded) {
        self.view[addr] = decoded.word;
        put_bit(
            &mut self.corrected,
            addr,
            decoded.outcome == DecodeOutcome::Corrected,
        );
        put_bit(
            &mut self.uncorrectable,
            addr,
            decoded.outcome == DecodeOutcome::DetectedUncorrectable,
        );
    }

    /// Returns this memory to the virgin state of its current arming:
    /// zeroed data and side arrays, cleared statistics, and the installed
    /// fault map and scrambler kept.
    ///
    /// Observationally identical to a fresh memory armed with the same
    /// map and scrambler. Only words written since the arming (or the last
    /// rewind) differ from that state, so the cost is proportional to the
    /// words written (in 64-word chunks) plus one flag per chunk, not to
    /// the memory size: a campaign running several apps on one armed lane
    /// rewinds between them.
    pub fn rewind(&mut self) {
        let words = self.words();
        let mut chunk = 0;
        while chunk < self.written.len() {
            if !self.written[chunk] {
                chunk += 1;
                continue;
            }
            // Restore each run of consecutive written chunks at once.
            let first = chunk;
            while chunk < self.written.len() && self.written[chunk] {
                self.written[chunk] = false;
                chunk += 1;
            }
            let (base, end) = (first * 64, words.min(chunk * 64));
            self.data
                .write_block_from(base, std::iter::repeat_n(0, end - base));
            self.side[base..end].fill(0);
            self.load_virgin_view(base, end);
        }
        self.stats = AccessStats::default();
    }

    /// Re-arms this memory for a fresh campaign trial: installs a
    /// width-narrowed copy of `map`, zeroes the data and side arrays, and
    /// clears the statistics.
    ///
    /// Observationally identical to rebuilding with
    /// [`ProtectedMemory::with_fault_map`] on the same geometry, but reuses
    /// every allocation — the executor's worker arenas call this once per
    /// trial instead of constructing a new memory. Any installed address
    /// scrambler is removed (fresh construction has none); trials that
    /// scramble must re-install their own key afterwards.
    ///
    /// The cost is a [`ProtectedMemory::rewind`] plus work on the old and
    /// new maps' stuck words only: those words' view entries and dirty
    /// bits are swapped and the map copy visits nothing else, so no step
    /// is O(words) beyond the rewind's one flag per 64-word chunk. On
    /// DWT's 8,192 words with one stuck cell (best of 2,000 on a 2-vCPU
    /// Xeon host) a re-arm costs ~2.6 µs right after a DWT run and
    /// ~0.15 µs on an unwritten memory, against 10–13 µs either way for a
    /// re-arm that rebuilds every word.
    ///
    /// # Panics
    ///
    /// Panics if the map covers a different word count or is narrower than
    /// the codeword.
    pub fn reset_with_fault_map(&mut self, map: &FaultMap) {
        assert_eq!(map.words(), self.words(), "fault map word count");
        assert!(
            map.width() >= self.codec.code_width(),
            "shared fault map must cover the widest codeword"
        );
        // Virgin under the old arming; then the old map's stuck words
        // read as clean virgin words.
        self.rewind();
        let virgin = self.codec.decode(0, 0);
        for i in 0..self.data.fault_map().stuck_words().len() {
            let addr = self.data.logical(self.data.fault_map().stuck_words()[i]);
            put_bit(&mut self.dirty, addr, false);
            self.store(addr, virgin);
        }
        // The new map, unscrambled: its stuck words decode through their
        // faults.
        self.data
            .set_scrambler(dream_mem::AddressScrambler::identity(self.words()));
        self.data.reload_faults(map);
        for i in 0..self.data.fault_map().stuck_words().len() {
            let addr = self.data.fault_map().stuck_words()[i];
            put_bit(&mut self.dirty, addr, true);
            let decoded = self.codec.decode(self.data.read(addr), self.side[addr]);
            self.store(addr, decoded);
        }
    }

    /// The technique protecting this memory.
    pub fn kind(&self) -> EmtKind {
        self.codec.kind()
    }

    /// The codec instance (for netlists and widths).
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// Number of addressable words.
    pub fn words(&self) -> usize {
        self.data.geometry().words()
    }

    /// Access statistics accumulated since construction or the last
    /// [`ProtectedMemory::reset_stats`].
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Clears the access statistics.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// The underlying faulty array (for fault census in reports).
    pub fn data_array(&self) -> &FaultySram {
        &self.data
    }

    /// The raw code bits latched at `addr` — the stored codeword before
    /// any fault overlay. On a fault-free memory this is exactly what a
    /// read decodes; clean-trace recording snapshots it per read so a
    /// batched replay can re-decode the same code under per-lane faults.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn stored_code(&self, addr: usize) -> u32 {
        self.data.read_raw(addr)
    }

    /// The reliable side word at `addr` (DREAM's sign/mask-ID bits;
    /// zero for codecs without a side array).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn side_word(&self, addr: usize) -> u16 {
        self.side[addr]
    }

    /// Installs a logical→physical address scrambler on the data array
    /// (the paper's §V re-randomization logic). The side array is indexed
    /// logically — its cells are fault-free, so scrambling it would change
    /// nothing observable.
    ///
    /// # Panics
    ///
    /// Panics if the scrambler does not cover the whole array.
    pub fn set_scrambler(&mut self, scrambler: dream_mem::AddressScrambler) {
        self.data.set_scrambler(scrambler);
        // Cells written so far now serve scattered logical addresses, so a
        // later rewind restores the whole array.
        if self.written.contains(&true) {
            self.written.fill(true);
        }
        // Remapping moves which latched bits and stuck lanes a logical
        // address sees, so the dirty set and the whole view are rebuilt —
        // O(words), paid once per re-randomization.
        for addr in 0..self.words() {
            put_bit(&mut self.dirty, addr, self.data.stuck_mask_at(addr) != 0);
            let decoded = self.codec.decode(self.data.read(addr), self.side[addr]);
            self.store(addr, decoded);
        }
    }

    /// Writes a data word: encoder → faulty array (+ side array).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: usize, word: i16) {
        let enc = self.codec.encode(word);
        self.data.write(addr, enc.code);
        self.side[addr] = enc.side;
        self.written[addr / 64] = true;
        // decode(encode(w)) == (w, Clean) for every codec (proven
        // exhaustively in the codec test suites), so only a word some
        // stuck lane touches needs a decoder call.
        let decoded = if bit(&self.dirty, addr) {
            self.codec.decode(self.data.read(addr), enc.side)
        } else {
            Decoded {
                word,
                outcome: DecodeOutcome::Clean,
            }
        };
        self.store(addr, decoded);
        self.stats.writes += 1;
    }

    /// Reads a data word: faulty array (+ side array) → decoder.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&mut self, addr: usize) -> i16 {
        self.read_decoded(addr).word
    }

    /// Reads a word together with the decoder's outcome classification.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read_decoded(&mut self, addr: usize) -> Decoded {
        let outcome = if bit(&self.corrected, addr) {
            DecodeOutcome::Corrected
        } else if bit(&self.uncorrectable, addr) {
            DecodeOutcome::DetectedUncorrectable
        } else {
            DecodeOutcome::Clean
        };
        let decoded = Decoded {
            word: self.view[addr],
            outcome,
        };
        self.stats.reads += 1;
        match decoded.outcome {
            DecodeOutcome::Corrected => self.stats.corrected_reads += 1,
            DecodeOutcome::DetectedUncorrectable => self.stats.uncorrectable_reads += 1,
            DecodeOutcome::Clean => {}
        }
        decoded
    }

    /// Writes `data.len()` consecutive words starting at `base` — the
    /// block counterpart of [`ProtectedMemory::write`], with the bounds
    /// check hoisted out of the per-word loop. Statistics advance exactly
    /// as `data.len()` single writes would.
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the memory.
    pub fn write_block(&mut self, base: usize, data: &[i16]) {
        self.preload_block(base, data);
        self.stats.writes += data.len() as u64;
    }

    /// [`ProtectedMemory::write_block`] without the statistics: latches
    /// exactly the cells a counted write would, but leaves
    /// [`AccessStats::writes`] untouched. This is how a
    /// resumed trial rebuilds the memory image an earlier stretch of the
    /// run left behind without charging that stretch's writes again.
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the memory.
    pub fn preload_block(&mut self, base: usize, data: &[i16]) {
        let end = base
            .checked_add(data.len())
            .expect("block end overflows usize");
        assert!(end <= self.words(), "block write out of range");
        if base < end {
            self.written[base / 64..=(end - 1) / 64].fill(true);
        }
        let codec = &self.codec;
        let codes = data
            .iter()
            .zip(&mut self.side[base..end])
            .map(|(&word, side)| {
                let enc = codec.encode(word);
                *side = enc.side;
                enc.code
            });
        self.data.write_block_from(base, codes);
        self.view[base..end].copy_from_slice(data);
        fill_bits(&mut self.corrected, base, end, false);
        fill_bits(&mut self.uncorrectable, base, end, false);
        self.decode_dirty(base, end);
    }

    /// Reads `out.len()` consecutive words starting at `base` — the block
    /// counterpart of [`ProtectedMemory::read`]. Statistics advance
    /// exactly as `out.len()` single reads would.
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the memory.
    pub fn read_block(&mut self, base: usize, out: &mut [i16]) {
        let end = base
            .checked_add(out.len())
            .expect("block end overflows usize");
        assert!(end <= self.words(), "block read out of range");
        self.stats.reads += out.len() as u64;
        out.copy_from_slice(&self.view[base..end]);
        self.stats.corrected_reads += count_bits(&self.corrected, base, end);
        self.stats.uncorrectable_reads += count_bits(&self.uncorrectable, base, end);
    }

    /// Prices the accumulated statistics with `bundle` at supply `data_v`
    /// over `seconds` of run time.
    pub fn energy(&self, bundle: &EnergyModelBundle, data_v: f64, seconds: f64) -> EnergyBreakdown {
        bundle.run_energy(&self.codec, &self.stats, self.words(), data_v, seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_mem::StuckAt;

    fn geometry() -> MemGeometry {
        MemGeometry::new(64, 16, 1)
    }

    #[test]
    fn clean_memory_round_trips_all_emts() {
        for kind in EmtKind::all() {
            let mut mem = ProtectedMemory::new(kind, geometry());
            for (i, w) in [-32768i16, -100, 0, 100, 32767].iter().enumerate() {
                mem.write(i, *w);
            }
            for (i, w) in [-32768i16, -100, 0, 100, 32767].iter().enumerate() {
                assert_eq!(mem.read(i), *w, "{kind}");
            }
        }
    }

    #[test]
    fn dream_corrects_msb_fault_none_does_not() {
        let mut map = FaultMap::empty(64, 22);
        map.inject(0, 15, StuckAt::One); // sign-region fault
        let mut raw = ProtectedMemory::with_fault_map(EmtKind::None, geometry(), &map);
        raw.write(0, 100);
        assert_ne!(raw.read(0), 100);

        let mut dream = ProtectedMemory::with_fault_map(EmtKind::Dream, geometry(), &map);
        dream.write(0, 100);
        assert_eq!(dream.read(0), 100);
        assert_eq!(dream.stats().corrected_reads, 1);
    }

    #[test]
    fn ecc_corrects_single_fails_double() {
        let mut map = FaultMap::empty(64, 22);
        map.inject(0, 4, StuckAt::One);
        map.inject(1, 4, StuckAt::One);
        map.inject(1, 9, StuckAt::One);
        let mut ecc = ProtectedMemory::with_fault_map(EmtKind::EccSecDed, geometry(), &map);
        ecc.write(0, 0);
        ecc.write(1, 0);
        let single = ecc.read_decoded(0);
        assert_eq!(single.word, 0);
        // Word 1 has two stuck-at-1 cells on a zero word: double error.
        let double = ecc.read_decoded(1);
        assert_eq!(double.outcome, DecodeOutcome::DetectedUncorrectable);
        assert_eq!(ecc.stats().uncorrectable_reads, 1);
    }

    #[test]
    fn stats_count_accesses() {
        let mut mem = ProtectedMemory::new(EmtKind::Dream, geometry());
        for i in 0..10 {
            mem.write(i, i as i16);
        }
        for i in 0..5 {
            let _ = mem.read(i);
        }
        let s = mem.stats();
        assert_eq!(s.writes, 10);
        assert_eq!(s.reads, 5);
        assert_eq!(s.accesses(), 15);
        mem.reset_stats();
        assert_eq!(mem.stats().accesses(), 0);
    }

    #[test]
    fn reset_is_equivalent_to_fresh_construction() {
        let wide = FaultMap::generate(64, 22, 0.02, 5);
        for kind in EmtKind::paper_set() {
            // A reused memory carrying stale data, stats, faults and a
            // stale address scrambler…
            let stale = FaultMap::generate(64, 22, 0.05, 99);
            let mut reused = ProtectedMemory::with_fault_map(kind, geometry(), &stale);
            reused.set_scrambler(dream_mem::AddressScrambler::new(64, 0xBAD));
            for i in 0..64 {
                reused.write(i, (i as i16) - 31);
                let _ = reused.read(i);
            }
            reused.reset_with_fault_map(&wide);
            // …must behave exactly like a freshly built one.
            let mut fresh = ProtectedMemory::with_fault_map(kind, geometry(), &wide);
            assert_eq!(reused.stats(), AccessStats::default(), "{kind}");
            for i in 0..64 {
                reused.write(i, (i as i16) * 3 - 90);
                fresh.write(i, (i as i16) * 3 - 90);
            }
            for i in 0..64 {
                assert_eq!(reused.read(i), fresh.read(i), "{kind} word {i}");
            }
            assert_eq!(reused.stats(), fresh.stats(), "{kind}");
        }
    }

    #[test]
    fn energy_ordering_matches_paper_vi_b() {
        // Same workload on each EMT at 0.7 V: DREAM must cost less than
        // ECC, and both more than no protection.
        let bundle = EnergyModelBundle::date16();
        let mut totals = Vec::new();
        for kind in EmtKind::paper_set() {
            let mut mem = ProtectedMemory::new(kind, geometry());
            for i in 0..64 {
                mem.write(i, (i * 17) as i16);
            }
            for _ in 0..2 {
                for i in 0..64 {
                    let _ = mem.read(i);
                }
            }
            totals.push((kind, mem.energy(&bundle, 0.7, 1e-4).total_pj()));
        }
        let none = totals[0].1;
        let dream = totals[1].1;
        let ecc = totals[2].1;
        assert!(none < dream, "protection must cost something");
        assert!(dream < ecc, "DREAM must undercut ECC (paper §VI-B)");
    }

    #[test]
    #[should_panic(expected = "widest codeword")]
    fn narrow_shared_map_rejected() {
        let map = FaultMap::empty(64, 16);
        let _ = ProtectedMemory::with_fault_map(EmtKind::EccSecDed, geometry(), &map);
    }

    #[test]
    fn block_transfers_match_word_at_a_time_accesses() {
        let map = FaultMap::generate(64, 22, 0.02, 17);
        for kind in EmtKind::all() {
            let mut word_mem = ProtectedMemory::with_fault_map(kind, geometry(), &map);
            let mut block_mem = ProtectedMemory::with_fault_map(kind, geometry(), &map);
            let data: Vec<i16> = (0..40).map(|i| (i * 997 - 11_000) as i16).collect();
            for (i, &w) in data.iter().enumerate() {
                word_mem.write(3 + i, w);
            }
            block_mem.write_block(3, &data);
            let word_reads: Vec<i16> = (0..40).map(|i| word_mem.read(3 + i)).collect();
            let mut block_reads = vec![0i16; 40];
            block_mem.read_block(3, &mut block_reads);
            assert_eq!(word_reads, block_reads, "{kind}");
            assert_eq!(word_mem.stats(), block_mem.stats(), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "block read out of range")]
    fn overrunning_block_read_rejected() {
        let mut mem = ProtectedMemory::new(EmtKind::Dream, geometry());
        let mut buf = vec![0i16; 8];
        mem.read_block(60, &mut buf);
    }

    /// The reference decoder a view read must equal: the codec run on
    /// the faulty read-back and the side word of `addr`.
    fn oracle(mem: &ProtectedMemory, addr: usize) -> Decoded {
        mem.codec()
            .decode(mem.data_array().read(addr), mem.side_word(addr))
    }

    #[test]
    fn uninitialized_reads_match_the_decoder() {
        // Reading a never-written word decodes the zeroed arrays — for
        // DREAM that is a *Corrected* non-zero word (side word 0 means
        // "run of 1, positive"), which the view must reproduce exactly.
        for kind in EmtKind::all() {
            let mut mem = ProtectedMemory::new(kind, geometry());
            for a in 0..8 {
                let want = oracle(&mem, a);
                assert_eq!(mem.read_decoded(a), want, "{kind} word {a}");
            }
        }
    }

    #[test]
    fn scrambler_install_rebuilds_the_view() {
        // Installing a scrambler *after* writes remaps which latched bits
        // each logical address sees; view reads must still match the full
        // decoder exactly.
        let map = FaultMap::generate(64, 22, 0.05, 23);
        for kind in EmtKind::paper_set() {
            let mut mem = ProtectedMemory::with_fault_map(kind, geometry(), &map);
            for i in 0..64 {
                mem.write(i, (i as i16) * 411 - 13_000);
            }
            mem.set_scrambler(dream_mem::AddressScrambler::new(64, 0xC0FFEE));
            for a in 0..64 {
                let want = oracle(&mem, a);
                assert_eq!(mem.read_decoded(a), want, "{kind} word {a}");
            }
        }
    }

    #[test]
    fn monomorphized_memory_matches_facade() {
        use crate::Dream;
        let map = FaultMap::generate(64, 22, 0.03, 31);
        let mut facade = ProtectedMemory::with_fault_map(EmtKind::Dream, geometry(), &map);
        let mut typed = ProtectedMemory::with_codec_and_fault_map(Dream::new(), geometry(), &map);
        assert_eq!(typed.kind(), EmtKind::Dream);
        for i in 0..64 {
            facade.write(i, (i as i16) - 32);
            typed.write(i, (i as i16) - 32);
        }
        for i in 0..64 {
            assert_eq!(facade.read_decoded(i), typed.read_decoded(i), "word {i}");
        }
        assert_eq!(facade.stats(), typed.stats());
    }

    mod view_props {
        use super::super::*;
        use dream_mem::AddressScrambler;
        use proptest::prelude::*;

        /// Not a multiple of 64, so the last bitset block is partial.
        const WORDS: usize = 150;

        #[derive(Clone, Debug)]
        enum Op {
            Write(usize, i16),
            WriteBlock(usize, Vec<i16>),
            PreloadBlock(usize, Vec<i16>),
            Read(usize),
            ReadBlock(usize, usize),
            Scramble(u64),
            Reset(f64, u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            op_of(0..7)
        }

        /// Accesses only: writes, block writes, preloads and reads.
        fn access() -> impl Strategy<Value = Op> {
            op_of(0..5)
        }

        /// An operation whose kind is drawn from `kinds` (indices into
        /// the match below).
        fn op_of(kinds: std::ops::Range<u8>) -> impl Strategy<Value = Op> {
            (
                kinds,
                0..WORDS,
                0usize..80,
                any::<i16>(),
                any::<u64>(),
                0.0f64..0.3,
            )
                .prop_map(|(kind, addr, len, word, seed, ber)| {
                    let len = len.min(WORDS - addr);
                    let block = (0..len as i16)
                        .map(|i| word.wrapping_add(i.wrapping_mul(977)))
                        .collect();
                    match kind {
                        0 => Op::Write(addr, word),
                        1 => Op::WriteBlock(addr, block),
                        2 => Op::PreloadBlock(addr, block),
                        3 => Op::Read(addr),
                        4 => Op::ReadBlock(addr, len),
                        5 => Op::Scramble(seed),
                        // A fault-free map now and then, BER up to 0.3.
                        _ => Op::Reset(if ber < 0.03 { 0.0 } else { ber }, seed),
                    }
                })
        }

        /// The reference decoder of `addr`, and `stats` advanced by one
        /// read with its outcome.
        fn oracle_read(mem: &ProtectedMemory, addr: usize, stats: &mut AccessStats) -> Decoded {
            let d = super::oracle(mem, addr);
            stats.reads += 1;
            match d.outcome {
                DecodeOutcome::Corrected => stats.corrected_reads += 1,
                DecodeOutcome::DetectedUncorrectable => stats.uncorrectable_reads += 1,
                DecodeOutcome::Clean => {}
            }
            d
        }

        /// Applies one access to `mem` (scrambles and resets are not
        /// accesses and are ignored).
        fn apply(mem: &mut ProtectedMemory, op: &Op) {
            match op {
                Op::Write(addr, word) => mem.write(*addr, *word),
                Op::WriteBlock(base, data) => mem.write_block(*base, data),
                Op::PreloadBlock(base, data) => mem.preload_block(*base, data),
                Op::Read(addr) => {
                    let _ = mem.read_decoded(*addr);
                }
                Op::ReadBlock(base, len) => mem.read_block(*base, &mut vec![0i16; *len]),
                Op::Scramble(_) | Op::Reset(..) => {}
            }
        }

        /// `got` and `want` latch the same codes and side words, read
        /// every word identically (word and outcome), and count the same
        /// statistics before and after those reads.
        fn same_memory(
            got: &mut ProtectedMemory,
            want: &mut ProtectedMemory,
            what: &str,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(got.stats(), want.stats(), "{} stats", what);
            for a in 0..WORDS {
                prop_assert_eq!(
                    got.stored_code(a),
                    want.stored_code(a),
                    "{} code {}",
                    what,
                    a
                );
                prop_assert_eq!(got.side_word(a), want.side_word(a), "{} side {}", what, a);
                prop_assert_eq!(
                    got.read_decoded(a),
                    want.read_decoded(a),
                    "{} read {}",
                    what,
                    a
                );
            }
            prop_assert_eq!(got.stats(), want.stats(), "{} stats after reads", what);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Random sequences of every mutating and reading operation,
            /// including reads of never-written words and scramblers
            /// installed after writes, read identically (word, outcome and
            /// statistics) to the reference decoder, and identically from
            /// a re-armed memory and a freshly constructed one, for every
            /// EMT.
            #[test]
            fn view_reads_match_the_decoder_and_fresh_memories(
                ber in 0.0f64..0.3,
                seed in any::<u64>(),
                ops in prop::collection::vec(op(), 1..48),
            ) {
                let geometry = MemGeometry::new(WORDS, 16, 1);
                for kind in EmtKind::all() {
                    let map = FaultMap::generate(WORDS, 22, ber, seed);
                    let mut view = ProtectedMemory::with_fault_map(kind, geometry, &map);
                    let mut fresh = view.clone();
                    let mut expected = AccessStats::default();
                    for (step, op) in ops.iter().enumerate() {
                        match op {
                            Op::Write(addr, word) => {
                                view.write(*addr, *word);
                                fresh.write(*addr, *word);
                                expected.writes += 1;
                            }
                            Op::WriteBlock(base, data) => {
                                view.write_block(*base, data);
                                fresh.write_block(*base, data);
                                expected.writes += data.len() as u64;
                            }
                            Op::PreloadBlock(base, data) => {
                                view.preload_block(*base, data);
                                fresh.preload_block(*base, data);
                            }
                            Op::Read(addr) => {
                                let want = oracle_read(&view, *addr, &mut expected);
                                prop_assert_eq!(view.read_decoded(*addr), want, "{} step {} {:?}", kind, step, op);
                                prop_assert_eq!(fresh.read_decoded(*addr), want, "{} step {} {:?}", kind, step, op);
                            }
                            Op::ReadBlock(base, len) => {
                                let want: Vec<i16> = (*base..base + len)
                                    .map(|a| oracle_read(&view, a, &mut expected).word)
                                    .collect();
                                for mem in [&mut view, &mut fresh] {
                                    let mut out = vec![0i16; *len];
                                    mem.read_block(*base, &mut out);
                                    prop_assert_eq!(&out, &want, "{} step {} {:?}", kind, step, op);
                                }
                            }
                            Op::Scramble(key) => {
                                view.set_scrambler(AddressScrambler::new(WORDS, *key));
                                fresh.set_scrambler(AddressScrambler::new(WORDS, *key));
                            }
                            Op::Reset(ber, seed) => {
                                let map = FaultMap::generate(WORDS, 22, *ber, *seed);
                                view.reset_with_fault_map(&map);
                                fresh = ProtectedMemory::with_fault_map(kind, geometry, &map);
                                expected = AccessStats::default();
                            }
                        }
                        prop_assert_eq!(view.stats(), expected, "{} step {}", kind, step);
                        prop_assert_eq!(fresh.stats(), expected, "{} step {}", kind, step);
                    }
                }
            }

            /// After arbitrary accesses, with a scrambler installed before
            /// any of them (or none), `rewind` leaves a memory
            /// indistinguishable from a fresh one armed with the same map
            /// and scrambler, and it keeps behaving so when the same
            /// accesses run again. Re-arming with a second map then leaves
            /// none of the first map's stuck cells behind.
            #[test]
            fn rewind_and_rearm_match_fresh_memories(
                ber in 0.0f64..0.3,
                seed in any::<u64>(),
                scramble in (0usize..60, any::<u64>()),
                ops in prop::collection::vec(access(), 0..40),
                next in (0.0f64..0.3, any::<u64>()),
            ) {
                let geometry = MemGeometry::new(WORDS, 16, 1);
                let map = FaultMap::generate(WORDS, 22, ber, seed);
                let next_map = FaultMap::generate(WORDS, 22, next.0, next.1);
                // Installed before op `at`; past the end means never.
                let (at, key) = scramble;
                let scrambler = (at <= ops.len()).then(|| AddressScrambler::new(WORDS, key));
                for kind in EmtKind::all() {
                    // Armed by a re-arm from a stale map, so the sparse
                    // swap is exercised from the first trial on.
                    let mut mem = ProtectedMemory::with_fault_map(kind, geometry, &next_map);
                    mem.write_block(0, &[7; WORDS]);
                    mem.reset_with_fault_map(&map);
                    for round in 0..2 {
                        for (i, op) in ops.iter().enumerate() {
                            if round == 0 && i == at {
                                mem.set_scrambler(scrambler.expect("in range"));
                            }
                            apply(&mut mem, op);
                        }
                        if round == 0 && at == ops.len() {
                            mem.set_scrambler(scrambler.expect("in range"));
                        }
                        mem.rewind();
                        let mut fresh = ProtectedMemory::with_fault_map(kind, geometry, &map);
                        if let Some(s) = scrambler {
                            fresh.set_scrambler(s);
                        }
                        same_memory(&mut mem, &mut fresh, &format!("{kind} rewind {round}"))?;
                        // What the rewind leaves must also run like fresh.
                        for op in &ops {
                            apply(&mut mem, op);
                            apply(&mut fresh, op);
                        }
                        same_memory(&mut mem, &mut fresh, &format!("{kind} rerun {round}"))?;
                    }
                    mem.reset_with_fault_map(&next_map);
                    let narrow = next_map.with_width(mem.codec().code_width());
                    prop_assert_eq!(mem.data_array().fault_map(), &narrow, "{} map", kind);
                    for a in 0..WORDS {
                        prop_assert_eq!(
                            mem.data_array().stuck_mask_at(a),
                            narrow.stuck_mask(a),
                            "{} word {} keeps a stale stuck cell", kind, a
                        );
                    }
                    let mut want = ProtectedMemory::with_fault_map(kind, geometry, &next_map);
                    same_memory(&mut mem, &mut want, &format!("{kind} re-armed"))?;
                }
            }
        }
    }
}
