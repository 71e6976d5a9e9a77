//! The word-storage abstraction the applications compute through.

/// A word-addressable 16-bit data memory.
///
/// The applications allocate *all* their buffers — input, intermediate and
/// output — inside one `WordStorage` and perform every load and store
/// through it. Implementations decide what a "memory" is:
///
/// * [`VecStorage`] — plain process memory: fault-free, used for golden
///   runs and tests,
/// * `dream-core`'s protected memory and `dream-soc`'s memory ports wrap a
///   faulty, EMT-protected array, which is how the paper's fault-injection
///   campaigns corrupt exactly the data that would live in the device's
///   voltage-scaled SRAM while register-resident intermediates stay clean.
///
/// Reads take `&mut self` because reading a protected memory updates its
/// access statistics (and, on real degraded silicon, is where faults bite).
pub trait WordStorage {
    /// Number of addressable words.
    fn len(&self) -> usize;

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= len()`.
    fn read(&mut self, addr: usize) -> i16;

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= len()`.
    fn write(&mut self, addr: usize, value: i16);

    /// True when the storage has no words.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes `data.len()` consecutive words starting at `base` — the
    /// block-transfer path DSP windows stream through.
    ///
    /// Semantically identical to per-word [`WordStorage::write`] calls
    /// (same words touched, same order, same statistics on instrumented
    /// storages), but implementations override it to pay dispatch and
    /// bounds/scrambler derivation once per block instead of once per
    /// word.
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the storage.
    fn write_block(&mut self, base: usize, data: &[i16]) {
        for (i, &v) in data.iter().enumerate() {
            self.write(base + i, v);
        }
    }

    /// Reads `out.len()` consecutive words starting at `base` into `out`
    /// (the read counterpart of [`WordStorage::write_block`]).
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the storage.
    fn read_block(&mut self, base: usize, out: &mut [i16]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read(base + i);
        }
    }

    /// Bulk-stores `data` starting at `base` (alias of
    /// [`WordStorage::write_block`], kept for callers reading better as
    /// slice operations).
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the storage.
    fn store_slice(&mut self, base: usize, data: &[i16]) {
        self.write_block(base, data);
    }

    /// Bulk-loads `len` words starting at `base` via
    /// [`WordStorage::read_block`].
    ///
    /// # Panics
    ///
    /// Panics if the region overruns the storage.
    fn load_slice(&mut self, base: usize, len: usize) -> Vec<i16> {
        let mut out = vec![0i16; len];
        self.read_block(base, &mut out);
        out
    }
}

/// Fault-free storage backed by a `Vec<i16>` — the golden-run memory.
///
/// ```
/// use dream_dsp::{VecStorage, WordStorage};
/// let mut mem = VecStorage::new(8);
/// mem.write(3, -7);
/// assert_eq!(mem.read(3), -7);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VecStorage {
    words: Vec<i16>,
}

impl VecStorage {
    /// Creates a zero-initialized storage of `words` words.
    pub fn new(words: usize) -> Self {
        VecStorage {
            words: vec![0; words],
        }
    }

    /// Borrows the underlying words.
    pub fn as_slice(&self) -> &[i16] {
        &self.words
    }
}

impl WordStorage for VecStorage {
    fn len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn read(&mut self, addr: usize) -> i16 {
        self.words[addr]
    }

    #[inline]
    fn write(&mut self, addr: usize, value: i16) {
        self.words[addr] = value;
    }

    fn write_block(&mut self, base: usize, data: &[i16]) {
        self.words[base..base + data.len()].copy_from_slice(data);
    }

    fn read_block(&mut self, base: usize, out: &mut [i16]) {
        out.copy_from_slice(&self.words[base..base + out.len()]);
    }
}

impl WordStorage for &mut dyn WordStorage {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn read(&mut self, addr: usize) -> i16 {
        (**self).read(addr)
    }

    fn write(&mut self, addr: usize, value: i16) {
        (**self).write(addr, value)
    }

    fn write_block(&mut self, base: usize, data: &[i16]) {
        (**self).write_block(base, data)
    }

    fn read_block(&mut self, base: usize, out: &mut [i16]) {
        (**self).read_block(base, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut s = VecStorage::new(4);
        s.write(0, 1);
        s.write(3, -1);
        assert_eq!(s.read(0), 1);
        assert_eq!(s.read(3), -1);
        assert_eq!(s.read(1), 0);
    }

    #[test]
    fn bulk_helpers() {
        let mut s = VecStorage::new(10);
        s.store_slice(2, &[5, 6, 7]);
        assert_eq!(s.load_slice(1, 5), vec![0, 5, 6, 7, 0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let mut s = VecStorage::new(2);
        let _ = s.read(2);
    }

    #[test]
    fn dyn_adapter_works() {
        let mut s = VecStorage::new(4);
        let d: &mut dyn WordStorage = &mut s;
        d.write(1, 9);
        assert_eq!(d.read(1), 9);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn block_transfers_round_trip() {
        let mut s = VecStorage::new(8);
        s.write_block(2, &[4, 5, 6]);
        let mut out = vec![0i16; 5];
        s.read_block(1, &mut out);
        assert_eq!(out, vec![0, 4, 5, 6, 0]);
        // Through the dyn adapter as well (the path the apps take).
        let d: &mut dyn WordStorage = &mut s;
        d.write_block(0, &[-1, -2]);
        let mut out2 = vec![0i16; 2];
        d.read_block(0, &mut out2);
        assert_eq!(out2, vec![-1, -2]);
    }

    #[test]
    #[should_panic]
    fn overrunning_block_panics() {
        let mut s = VecStorage::new(4);
        s.write_block(3, &[1, 2]);
    }
}
