//! Protected-memory composition: codec + faulty data array + reliable side
//! array + statistics + energy accounting.
//!
//! # Anatomy of an access
//!
//! A write runs the encoder and stores `(code, side)`; a read loads the
//! code bits through the fault overlay and runs the decoder. Two
//! structural optimizations keep that pipeline off the campaign profiles:
//!
//! * **Monomorphization** — [`ProtectedMemory`] is generic over its codec
//!   `C: EmtCodec` (defaulting to the [`AnyCodec`] facade, so existing
//!   harness code is unchanged). Campaign arenas instantiate
//!   `ProtectedMemory<NoProtection>` etc., compiling every access down to
//!   the concrete codec kernel with no enum dispatch.
//! * **Clean-word fast path** — the overwhelming majority of words have no
//!   stuck cell at a given voltage, and a clean word reads back exactly the
//!   bits the encoder produced. The memory therefore keeps a *shadow* of
//!   the decode result each stored word would produce absent faults; when
//!   [`FaultySram::is_word_clean`] says no stuck lane touches the word, the
//!   read returns the shadow entry and skips the decoder entirely.
//!   Statistics (and therefore energy accounting) are bit-identical either
//!   way, because the shadow stores the full [`Decoded`] — including the
//!   outcome a decode of the reset state would report.

use std::sync::atomic::{AtomicBool, Ordering};

use dream_energy::{calib, EnergyBreakdown, SramEnergyModel};
use dream_mem::{FaultMap, FaultySram, MemGeometry};

use crate::emt::{AnyCodec, DecodeOutcome, Decoded, EmtCodec, EmtKind};

/// Process-wide kill switch for the clean-word fast path, for differential
/// tests that must compare fast-path and full-decoder behaviour of whole
/// campaigns. Memories sample it at construction and on
/// [`ProtectedMemory::reset_with_fault_map`].
static FORCE_FULL_DECODE: AtomicBool = AtomicBool::new(false);

/// Test-only: force every subsequently built (or re-armed) memory to run
/// the full decoder on every read, disabling the clean-word fast path.
///
/// Both settings are observationally equivalent by construction; the
/// differential suite in `tests/fast_path.rs` proves it on real campaigns.
pub fn force_full_decode(disable_fast_path: bool) {
    FORCE_FULL_DECODE.store(disable_fast_path, Ordering::SeqCst);
}

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
/// encoder, every read runs the decoder — or, for words untouched by any
/// stuck cell, the clean-word fast path (see the module docs) — and
/// [`AccessStats`] accumulates what happened.
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
    /// Per-address decode result the stored word produces absent faults:
    /// what the clean-word fast path returns instead of running the
    /// decoder. Writes refresh it with `(word, Clean)` — the round-trip
    /// identity every codec guarantees — and resets refresh it with the
    /// decode of the zeroed arrays.
    shadow: Vec<Decoded>,
    fast_path: bool,
    stats: AccessStats,
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
        let side = vec![0u16; geometry.words()];
        let shadow = vec![codec.decode(0, 0); geometry.words()];
        ProtectedMemory {
            codec,
            data,
            side,
            shadow,
            fast_path: !FORCE_FULL_DECODE.load(Ordering::Relaxed),
            stats: AccessStats::default(),
        }
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
        self.data.reload_faults(map);
        self.data.fill(0);
        self.data
            .set_scrambler(dream_mem::AddressScrambler::identity(self.words()));
        self.side.fill(0);
        self.shadow.fill(self.codec.decode(0, 0));
        self.fast_path = !FORCE_FULL_DECODE.load(Ordering::Relaxed);
        self.stats = AccessStats::default();
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
        // Remapping moves which latched bits a logical address sees, so the
        // fault-free decode shadow is rebuilt from the raw (unfaulted)
        // array contents — O(words), paid once per re-randomization.
        for addr in 0..self.shadow.len() {
            self.shadow[addr] = self.codec.decode(self.data.read_raw(addr), self.side[addr]);
        }
    }

    /// Test-only: enables or disables this memory's clean-word fast path
    /// (both settings are observationally identical; differential tests
    /// compare them).
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
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
        // decode(encode(w)) == (w, Clean) for every codec (proven
        // exhaustively in the codec test suites), so the fast-path shadow
        // needs no decoder call here.
        self.shadow[addr] = Decoded {
            word,
            outcome: DecodeOutcome::Clean,
        };
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
        let decoded = if self.fast_path && self.data.is_word_clean(addr) {
            // No stuck lane touches this word: the stored code reads back
            // exactly as written and the shadow holds its decode.
            self.shadow[addr]
        } else {
            let code = self.data.read(addr);
            self.codec.decode(code, self.side[addr])
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
        for (i, &word) in data.iter().enumerate() {
            let addr = base + i;
            let enc = self.codec.encode(word);
            self.data.write(addr, enc.code);
            self.side[addr] = enc.side;
            self.shadow[addr] = Decoded {
                word,
                outcome: DecodeOutcome::Clean,
            };
        }
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
        let mut corrected = 0u64;
        let mut uncorrectable = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let addr = base + i;
            let decoded = if self.fast_path && self.data.is_word_clean(addr) {
                self.shadow[addr]
            } else {
                let code = self.data.read(addr);
                self.codec.decode(code, self.side[addr])
            };
            match decoded.outcome {
                DecodeOutcome::Corrected => corrected += 1,
                DecodeOutcome::DetectedUncorrectable => uncorrectable += 1,
                DecodeOutcome::Clean => {}
            }
            *slot = decoded.word;
        }
        self.stats.reads += out.len() as u64;
        self.stats.corrected_reads += corrected;
        self.stats.uncorrectable_reads += uncorrectable;
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

    #[test]
    fn uninitialized_reads_identical_with_and_without_fast_path() {
        // Reading a never-written word decodes the zeroed arrays — for
        // DREAM that is a *Corrected* non-zero word (side word 0 means
        // "run of 1, positive"), which the shadow must reproduce exactly.
        for kind in EmtKind::all() {
            let run = |fast: bool| {
                let mut mem = ProtectedMemory::new(kind, geometry());
                mem.set_fast_path(fast);
                let decoded: Vec<_> = (0..8).map(|a| mem.read_decoded(a)).collect();
                (decoded, mem.stats())
            };
            assert_eq!(run(true), run(false), "{kind}");
        }
    }

    #[test]
    fn scrambler_install_rebuilds_the_fast_path_shadow() {
        // Installing a scrambler *after* writes remaps which latched bits
        // each logical address sees; fast-path reads must still match the
        // full decoder exactly.
        let map = FaultMap::generate(64, 22, 0.05, 23);
        for kind in EmtKind::paper_set() {
            let run = |fast: bool| {
                let mut mem = ProtectedMemory::with_fault_map(kind, geometry(), &map);
                mem.set_fast_path(fast);
                for i in 0..64 {
                    mem.write(i, (i as i16) * 411 - 13_000);
                }
                mem.set_scrambler(dream_mem::AddressScrambler::new(64, 0xC0FFEE));
                let reads: Vec<_> = (0..64).map(|a| mem.read_decoded(a)).collect();
                (reads, mem.stats())
            };
            assert_eq!(run(true), run(false), "{kind}");
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
}
