//! The protected memory's view read path must be unobservable. On real
//! DWT, matrix-filter and compressed-sensing runs over a mid-BER fault
//! map, every read an application makes must return what the reference
//! decoder makes of the same cells,
//! `codec().decode(data_array().read(a), side_word(a))`: same word, same
//! outcome, and therefore the same access statistics, for every EMT.

use dream_suite::core::{AccessStats, DecodeOutcome, Decoded, EmtCodec, EmtKind, ProtectedMemory};
use dream_suite::dsp::{AppKind, WordStorage};
use dream_suite::ecg::Database;
use dream_suite::mem::{BerModel, FaultMap};
use dream_suite::sim::campaign::{banked_geometry, ProtectedStorage};

/// Serves an application from a protected memory and asserts that each
/// read equals the reference decoder, tallying the statistics the
/// decoder implies.
struct OracleStorage<'a> {
    mem: &'a mut ProtectedMemory,
    expected: AccessStats,
}

impl OracleStorage<'_> {
    fn oracle(&mut self, addr: usize) -> Decoded {
        let mem = &*self.mem;
        let d = mem
            .codec()
            .decode(mem.data_array().read(addr), mem.side_word(addr));
        self.expected.reads += 1;
        match d.outcome {
            DecodeOutcome::Corrected => self.expected.corrected_reads += 1,
            DecodeOutcome::DetectedUncorrectable => self.expected.uncorrectable_reads += 1,
            DecodeOutcome::Clean => {}
        }
        d
    }
}

impl WordStorage for OracleStorage<'_> {
    fn len(&self) -> usize {
        self.mem.words()
    }

    fn read(&mut self, addr: usize) -> i16 {
        let want = self.oracle(addr);
        let got = self.mem.read_decoded(addr);
        assert_eq!(got, want, "read of word {addr}");
        got.word
    }

    fn write(&mut self, addr: usize, value: i16) {
        self.mem.write(addr, value);
        self.expected.writes += 1;
    }

    fn write_block(&mut self, base: usize, data: &[i16]) {
        self.mem.write_block(base, data);
        self.expected.writes += data.len() as u64;
    }

    fn read_block(&mut self, base: usize, out: &mut [i16]) {
        let want: Vec<i16> = (base..base + out.len())
            .map(|a| self.oracle(a).word)
            .collect();
        self.mem.read_block(base, out);
        assert_eq!(out, &want[..], "block read at word {base}");
    }
}

/// One mid-BER trial per (app, EMT): every view read matches the
/// decoder, the memory's statistics match the decoder's tally, and the
/// campaign adapter yields the same output and statistics as the
/// checking wrapper.
#[test]
fn mid_ber_trial_has_identical_output_and_stats() {
    let record = Database::record(100, 512);
    let ber = BerModel::date16().ber(0.6); // mid-range voltage
    let mut decoder_work = 0;
    // DWT and matrix filtering move every word through block transfers;
    // compressed sensing writes its outputs word by word, so the
    // single-word write path sees stuck cells too.
    for app_kind in [
        AppKind::Dwt,
        AppKind::MatrixFilter,
        AppKind::CompressedSensing,
    ] {
        let app = app_kind.instantiate(512);
        let geometry = banked_geometry(app.memory_words());
        let map = FaultMap::generate(geometry.words(), 22, ber, 0xFA57);
        for kind in EmtKind::all() {
            let mut mem = ProtectedMemory::with_fault_map(kind, geometry, &map);
            let mut checked = OracleStorage {
                mem: &mut mem,
                expected: AccessStats::default(),
            };
            let out = app.run(&record.samples, &mut checked);
            let expected = checked.expected;
            assert_eq!(mem.stats(), expected, "{app_kind} {kind}");
            assert!(
                expected.reads > 0 && expected.writes > 0,
                "{app_kind} {kind}"
            );
            decoder_work += expected.corrected_reads + expected.uncorrectable_reads;

            let mut plain = ProtectedMemory::with_fault_map(kind, geometry, &map);
            let plain_out = app.run(&record.samples, &mut ProtectedStorage::new(&mut plain));
            assert_eq!(plain_out, out, "{app_kind} {kind}");
            assert_eq!(plain.stats(), expected, "{app_kind} {kind}");
        }
    }
    assert!(
        decoder_work > 0,
        "the map must make some decoder outcome non-clean"
    );
}
