//! The faulty word array.

use crate::{AddressScrambler, FaultMap, MemGeometry};

/// A bit-accurate SRAM array with a stuck-at fault overlay.
///
/// Writes record the *true* bits; reads return the bits as seen through the
/// [`FaultMap`], i.e. stuck cells return their stuck value regardless of
/// what was written. This mirrors real silicon: a stuck-at cell physically
/// accepts the write but cannot hold the value.
///
/// An optional [`AddressScrambler`] remaps logical word addresses before the
/// array is indexed, modelling the paper's logical/physical randomization
/// logic (§V).
///
/// Access counting is left to higher layers (`dream-core`'s protected
/// memory and `dream-soc`'s ports) so this type stays a pure storage model.
///
/// ```
/// use dream_mem::{FaultMap, FaultySram, MemGeometry, StuckAt};
/// let g = MemGeometry::new(8, 16, 1);
/// let mut map = FaultMap::empty(8, 16);
/// map.inject(3, 0, StuckAt::One);
/// let mut sram = FaultySram::with_faults(g, map);
/// sram.write(3, 0x0000);
/// assert_eq!(sram.read(3), 0x0001); // LSB stuck at one
/// assert_eq!(sram.read_raw(3), 0x0000); // the latch itself holds the write
/// ```
#[derive(Clone, Debug)]
pub struct FaultySram {
    geometry: MemGeometry,
    cells: Vec<u32>,
    faults: FaultMap,
    scrambler: AddressScrambler,
    /// Cached `scrambler.is_identity()`: the overwhelmingly common case,
    /// checked once per scrambler install instead of once per access.
    identity_map: bool,
    width_mask: u32,
}

impl FaultySram {
    /// Creates a fault-free array of the given geometry.
    pub fn new(geometry: MemGeometry) -> Self {
        Self::with_faults(
            geometry,
            FaultMap::empty(geometry.words(), geometry.bits_per_word()),
        )
    }

    /// Creates an array with the given fault overlay.
    ///
    /// # Panics
    ///
    /// Panics if the fault map's dimensions do not match the geometry.
    pub fn with_faults(geometry: MemGeometry, faults: FaultMap) -> Self {
        assert_eq!(faults.words(), geometry.words(), "fault map word count");
        assert_eq!(
            faults.width(),
            geometry.bits_per_word(),
            "fault map word width"
        );
        let width = geometry.bits_per_word();
        let width_mask = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        FaultySram {
            geometry,
            cells: vec![0; geometry.words()],
            faults,
            scrambler: AddressScrambler::identity(geometry.words()),
            identity_map: true,
            width_mask,
        }
    }

    /// Installs an address scrambler (logical→physical remapping).
    pub fn set_scrambler(&mut self, scrambler: AddressScrambler) {
        assert_eq!(
            scrambler.words(),
            self.geometry.words(),
            "scrambler must cover the whole array"
        );
        self.identity_map = scrambler.is_identity();
        self.scrambler = scrambler;
    }

    /// Logical→physical translation with the identity fast path.
    #[inline]
    fn phys(&self, addr: usize) -> usize {
        if self.identity_map {
            addr
        } else {
            self.scrambler.to_physical(addr)
        }
    }

    /// The logical address that physical word `phys` serves (the inverse
    /// of the scrambler; identity when none is installed).
    #[inline]
    pub fn logical(&self, phys: usize) -> usize {
        if self.identity_map {
            phys
        } else {
            self.scrambler.to_logical(phys)
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &MemGeometry {
        &self.geometry
    }

    /// The fault overlay.
    pub fn fault_map(&self) -> &FaultMap {
        &self.faults
    }

    /// Replaces the fault overlay with a width-narrowed copy of `src`
    /// without reallocating — the campaign executor's per-trial re-arm
    /// path (`src` may be wider than this array, as with the shared
    /// widest-codeword maps).
    ///
    /// # Panics
    ///
    /// Panics if `src` covers a different word count or is narrower than
    /// the array.
    pub fn reload_faults(&mut self, src: &FaultMap) {
        self.faults.copy_narrowed_from(src);
    }

    /// Writes `bits` to logical address `addr` (bits above the word width
    /// are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: usize, bits: u32) {
        let phys = self.phys(addr);
        self.cells[phys] = bits & self.width_mask;
    }

    /// Reads logical address `addr` through the fault overlay.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&self, addr: usize) -> u32 {
        let phys = self.phys(addr);
        self.faults.apply(phys, self.cells[phys])
    }

    /// Reads the latched bits without the fault overlay (debug/oracle view;
    /// no physical read port behaves like this on degraded silicon).
    #[inline]
    pub fn read_raw(&self, addr: usize) -> u32 {
        self.cells[self.phys(addr)]
    }

    /// Reads `out.len()` consecutive logical words starting at `base`
    /// through the fault overlay.
    ///
    /// Equivalent to `out.len()` calls of [`FaultySram::read`], but the
    /// bounds and the scrambler identity check are paid once per block
    /// instead of once per word — the streaming path for DSP windows.
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the array.
    pub fn read_block(&self, base: usize, out: &mut [u32]) {
        let end = base
            .checked_add(out.len())
            .expect("block end overflows usize");
        assert!(end <= self.geometry.words(), "block out of range");
        if self.identity_map {
            for (i, slot) in out.iter_mut().enumerate() {
                let phys = base + i;
                *slot = self.faults.apply(phys, self.cells[phys]);
            }
        } else {
            for (i, slot) in out.iter_mut().enumerate() {
                let phys = self.scrambler.to_physical(base + i);
                *slot = self.faults.apply(phys, self.cells[phys]);
            }
        }
    }

    /// Writes `vals` to consecutive logical addresses starting at `base`
    /// (the block counterpart of [`FaultySram::write`]).
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the array.
    pub fn write_block(&mut self, base: usize, vals: &[u32]) {
        self.write_block_from(base, vals.iter().copied());
    }

    /// Writes the values `bits` yields to consecutive logical words
    /// starting at `base` — a block write whose values are computed on
    /// the fly (an encoder's codes, a fill) with no staging buffer.
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the array.
    #[inline]
    pub fn write_block_from(&mut self, base: usize, bits: impl ExactSizeIterator<Item = u32>) {
        let end = base
            .checked_add(bits.len())
            .expect("block end overflows usize");
        assert!(end <= self.geometry.words(), "block out of range");
        if self.identity_map {
            for (cell, v) in self.cells[base..end].iter_mut().zip(bits) {
                *cell = v & self.width_mask;
            }
        } else {
            for (addr, v) in (base..end).zip(bits) {
                let phys = self.scrambler.to_physical(addr);
                self.cells[phys] = v & self.width_mask;
            }
        }
    }

    /// The stuck-bit lanes seen by the logical word `addr` (the fault map
    /// is physical; this resolves the scrambling for callers).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn stuck_mask_at(&self, addr: usize) -> u32 {
        self.faults.stuck_mask(self.phys(addr))
    }

    /// Number of stuck bits affecting the logical word `addr`.
    pub fn stuck_bits_at(&self, addr: usize) -> u32 {
        self.stuck_mask_at(addr).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StuckAt;

    fn small() -> MemGeometry {
        MemGeometry::new(16, 16, 1)
    }

    #[test]
    fn clean_memory_round_trips() {
        let mut sram = FaultySram::new(small());
        for a in 0..16 {
            sram.write(a, (a as u32) * 0x111);
        }
        for a in 0..16 {
            assert_eq!(sram.read(a), (a as u32) * 0x111);
        }
    }

    #[test]
    fn stuck_bits_corrupt_reads_not_latches() {
        let mut map = FaultMap::empty(16, 16);
        map.inject(5, 15, StuckAt::Zero);
        let mut sram = FaultySram::with_faults(small(), map);
        sram.write(5, 0xFFFF);
        assert_eq!(sram.read(5), 0x7FFF);
        assert_eq!(sram.read_raw(5), 0xFFFF);
        assert_eq!(sram.stuck_bits_at(5), 1);
    }

    #[test]
    fn writes_mask_to_width() {
        let g = MemGeometry::new(4, 5, 1);
        let mut sram = FaultySram::new(g);
        sram.write(0, 0xFFFF_FFFF);
        assert_eq!(sram.read(0), 0b1_1111);
    }

    #[test]
    fn scrambler_moves_fault_to_other_logical_address() {
        let mut map = FaultMap::empty(16, 16);
        map.inject(0, 0, StuckAt::One);
        let mut sram = FaultySram::with_faults(small(), map);
        sram.set_scrambler(AddressScrambler::new(16, 0x5A5A));
        // Exactly one logical address now sees the stuck bit.
        let mut hit = Vec::new();
        for a in 0..16 {
            sram.write(a, 0);
            if sram.read(a) != 0 {
                hit.push(a);
            }
        }
        assert_eq!(hit.len(), 1);
    }

    #[test]
    #[should_panic(expected = "fault map word width")]
    fn mismatched_fault_width_rejected() {
        let _ = FaultySram::with_faults(small(), FaultMap::empty(16, 22));
    }

    #[test]
    fn stuck_mask_accessor_resolves_scrambling() {
        let mut map = FaultMap::empty(16, 16);
        map.inject(7, 3, StuckAt::One);
        let mut sram = FaultySram::with_faults(small(), map);
        assert_eq!(sram.stuck_mask_at(7), 0b1000);
        assert_eq!(sram.stuck_mask_at(6), 0);
        // After scrambling, exactly one *logical* address sees the fault,
        // and the accessor must agree with the read path about which.
        sram.set_scrambler(AddressScrambler::new(16, 0xFEED));
        let dirty: Vec<usize> = (0..16).filter(|&a| sram.stuck_mask_at(a) != 0).collect();
        assert_eq!(dirty.len(), 1);
        for a in 0..16 {
            sram.write(a, 0);
            assert_eq!(sram.read(a) != 0, sram.stuck_mask_at(a) != 0, "addr {a}");
        }
    }

    #[test]
    fn block_transfers_match_word_at_a_time() {
        let mut map = FaultMap::empty(16, 16);
        map.inject(4, 0, StuckAt::One);
        map.inject(9, 15, StuckAt::Zero);
        for key in [None, Some(0xABCD_u64)] {
            let mut a = FaultySram::with_faults(small(), map.clone());
            let mut b = FaultySram::with_faults(small(), map.clone());
            if let Some(key) = key {
                a.set_scrambler(AddressScrambler::new(16, key));
                b.set_scrambler(AddressScrambler::new(16, key));
            }
            let vals: Vec<u32> = (0..12).map(|i| (i * 0x1111) as u32).collect();
            for (i, &v) in vals.iter().enumerate() {
                a.write(2 + i, v);
            }
            b.write_block(2, &vals);
            let word_reads: Vec<u32> = (0..12).map(|i| a.read(2 + i)).collect();
            let mut block_reads = vec![0u32; 12];
            b.read_block(2, &mut block_reads);
            assert_eq!(word_reads, block_reads, "scrambled={}", key.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn overrunning_block_rejected() {
        let sram = FaultySram::new(small());
        let mut out = vec![0u32; 4];
        sram.read_block(14, &mut out);
    }
}
