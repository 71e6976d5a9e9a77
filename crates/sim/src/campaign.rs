//! Shared campaign plumbing: seeds, storage adapters, SNR conventions,
//! and the geometry/record-suite selection every figure runner shares.

use dream_core::{
    AccessStats, AnyCodec, DecodeOutcome, Dream, EccSecDed, EmtCodec, EmtKind, Encoded, EvenParity,
    NoProtection, ProtectedMemory, TrialBatch,
};
use dream_dsp::{BiomedicalApp, WordStorage};
use dream_ecg::{Database, NoiseModel, Record};
use dream_mem::{BatchFaultPlanes, FaultMap, MemGeometry, MAX_LANES};

use crate::exec::{self, ExecConfig};

/// Maximum SNR reported by the harness (dB). Runs whose output matches the
/// reference exactly (possible for the delineation app, whose fiducial
/// positions are integers) would otherwise be `+inf`; figures need a finite
/// ceiling, and 100 dB is above every fixed-point quantization ceiling the
/// applications exhibit.
pub const SNR_CAP_DB: f64 = 100.0;

/// Clamps an SNR to the reporting range (also flooring `-inf` for
/// all-wrong outputs so averages stay finite).
pub fn cap_snr(snr_db: f64) -> f64 {
    snr_db.clamp(-20.0, SNR_CAP_DB)
}

/// Deterministic per-(point, run) seed: every experiment derives its fault
/// maps from this, so re-running any figure reproduces identical numbers
/// and all EMTs at a given (point, run) share one fault map, as the
/// paper's methodology requires (§V).
pub fn fault_seed(base: u64, point: usize, run: usize) -> u64 {
    splitmix64(
        base ^ (point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (run as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Smallest 16-bank geometry that fits `words` (the characterizations do
/// not need the full 32 kB array; a right-sized one keeps campaigns fast).
///
/// All four figure runners derive their memory shapes from this one
/// helper, so the banked layout is decided in exactly one place.
pub fn banked_geometry(words: usize) -> MemGeometry {
    let banks = 16;
    MemGeometry::new(words.div_ceil(banks) * banks, 16, banks)
}

/// The record suite a campaign averages over: the standard
/// [`Database::date16_suite`] truncated to at most `max_records` entries.
pub fn record_suite(window: usize, max_records: usize) -> Vec<Record> {
    record_suite_with_noise(window, max_records, 1.0)
}

/// [`record_suite`] with the acquisition-noise amplitudes scaled by
/// `noise_scale` (1.0 reproduces the standard suite bit for bit — the
/// scenario engine's noise-sweep axis).
///
/// Records are seeded by their id, so only the first `max_records` are
/// synthesized: the result equals the full suite truncated.
pub fn record_suite_with_noise(window: usize, max_records: usize, noise_scale: f64) -> Vec<Record> {
    let model = NoiseModel::date16().scaled(noise_scale);
    (0..max_records.min(Database::SUITE_SIZE))
        .map(|index| suite_record(window, index, &model))
        .collect()
}

/// Record `index` of the suite under the noise `model`: entry `index` of
/// [`record_suite_with_noise`] at the model's scale, synthesized alone.
///
/// # Panics
///
/// Panics if `index` is not below [`Database::SUITE_SIZE`].
pub(crate) fn suite_record(window: usize, index: usize, model: &NoiseModel) -> Record {
    assert!(
        index < Database::SUITE_SIZE,
        "suite index {index} out of range"
    );
    Database::record_with_noise(Database::FIRST_ID + index as u16, window, model)
}

/// Double-precision reference outputs (`x_theo` of Formula 1) of `app`
/// over `records`, on the environment's worker count
/// ([`ExecConfig::from_env`]).
///
/// This two-argument form exists for the benchmark's engine mirror
/// (`benchmark/src/mirror.rs`), which replays the engine's call sequence
/// outside a `CampaignRunner`; it goes once ROADMAP item 2 retires the
/// mirror. The engine calls `reference_outputs_on` with its campaign's
/// own thread count.
pub fn reference_outputs(app: &dyn BiomedicalApp, records: &[Record]) -> Vec<Vec<f64>> {
    reference_outputs_on(ExecConfig::from_env().threads, app, records)
}

/// Double-precision reference outputs of `app` over `records`, computed
/// once per campaign — in parallel across records on up to `threads`
/// workers — and then shared read-only by every trial.
pub(crate) fn reference_outputs_on(
    threads: usize,
    app: &dyn BiomedicalApp,
    records: &[Record],
) -> Vec<Vec<f64>> {
    exec::run_trials(
        threads,
        records,
        || (),
        |(), record, _| app.run_reference(&record.samples),
    )
}

/// Adapter exposing a [`ProtectedMemory`] as application storage, without
/// the tracing overhead of `dream-soc`'s ports — the SNR experiments only
/// need values, not cycle counts.
///
/// Generic over the memory's codec (defaulting to the [`AnyCodec`]
/// facade): wrapping a monomorphized memory keeps the whole per-access
/// path free of enum dispatch behind the one unavoidable `dyn
/// WordStorage` call the applications make.
pub struct ProtectedStorage<'a, C: EmtCodec = AnyCodec> {
    mem: &'a mut ProtectedMemory<C>,
}

impl<'a, C: EmtCodec> ProtectedStorage<'a, C> {
    /// Wraps a protected memory.
    pub fn new(mem: &'a mut ProtectedMemory<C>) -> Self {
        ProtectedStorage { mem }
    }
}

impl<C: EmtCodec> WordStorage for ProtectedStorage<'_, C> {
    fn len(&self) -> usize {
        self.mem.words()
    }

    #[inline]
    fn read(&mut self, addr: usize) -> i16 {
        self.mem.read(addr)
    }

    #[inline]
    fn write(&mut self, addr: usize, value: i16) {
        self.mem.write(addr, value)
    }

    fn write_block(&mut self, base: usize, data: &[i16]) {
        self.mem.write_block(base, data)
    }

    fn read_block(&mut self, base: usize, out: &mut [i16]) {
        self.mem.read_block(base, out)
    }
}

/// One aggregated read event of a clean pass: while the stored code at
/// `addr` was `code` (side word `side`), the clean pass read the address
/// `count` times, decoding `word` with `outcome`. `stage` is the app
/// stage of the first of those reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TraceEvent {
    addr: u32,
    code: u32,
    side: u16,
    word: i16,
    outcome: DecodeOutcome,
    stage: u16,
    count: u64,
}

/// Stable counting sort of `items` by `key`, which must be below `keys`.
fn counting_sort<E: Copy>(items: Vec<E>, keys: usize, key: impl Fn(&E) -> usize) -> Vec<E> {
    let Some(&first) = items.first() else {
        return items;
    };
    let mut next = vec![0usize; keys + 1];
    for e in &items {
        next[key(e) + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut out = vec![first; items.len()];
    for e in &items {
        let slot = &mut next[key(e)];
        out[*slot] = *e;
        *slot += 1;
    }
    out
}

/// No event yet (an address's empty chain).
const NO_EVENT: u32 = u32::MAX;

/// The read epochs of a recorded pass, in one flat event list: `head`
/// holds each address's newest event and `prev` chains every event to the
/// address's previous one. The clean decode is a pure function of the
/// stored word, and an address's word only changes when it is written, so
/// a lookup almost always matches the address's newest event and the
/// chain walk is O(1) in practice. Reads of a word the address held
/// before (a write restored it) merge into that word's earlier event.
struct Epochs<E> {
    events: Vec<E>,
    prev: Vec<u32>,
    head: Vec<u32>,
}

impl<E: Copy> Epochs<E> {
    fn new(words: usize) -> Self {
        Epochs {
            events: Vec::new(),
            prev: Vec::new(),
            head: vec![NO_EVENT; words],
        }
    }

    /// The newest event of `addr` that `same` accepts, or else `fresh()`
    /// appended as the newest event of `addr`: the event's index.
    #[inline]
    fn find_or_push(
        &mut self,
        addr: usize,
        same: impl Fn(&E) -> bool,
        fresh: impl FnOnce() -> E,
    ) -> usize {
        let mut i = self.head[addr];
        while i != NO_EVENT {
            if same(&self.events[i as usize]) {
                return i as usize;
            }
            i = self.prev[i as usize];
        }
        let i = self.events.len();
        self.events.push(fresh());
        self.prev.push(self.head[addr]);
        self.head[addr] = u32::try_from(i).expect("too many trace events");
        i
    }

    /// The events in (address, epoch) order.
    fn by_address(self, addr: impl Fn(&E) -> usize) -> Vec<E> {
        let words = self.head.len();
        counting_sort(self.events, words, addr)
    }
}

/// Where each stage of a clean pass starts: the reads made before it,
/// and the pass's writes in program order, packed into runs of
/// consecutive addresses. Replaying the runs of stages `0..k` into a
/// freshly armed memory rebuilds exactly the image those stages left —
/// words never written stay virgin, so the codec-dependent virgin decode
/// is reproduced too.
#[derive(Default)]
struct StageLog {
    /// Clean reads made before each stage; the last entry counts
    /// everything before the output readback.
    stage_reads: Vec<u64>,
    words: Vec<i16>,
    /// `(base address, length)` of each run.
    runs: Vec<(u32, u32)>,
    /// Index into `runs` where each stage's writes begin.
    stage_runs: Vec<usize>,
}

impl StageLog {
    fn begin_stage(&mut self, reads: u64) {
        self.stage_reads.push(reads);
        self.stage_runs.push(self.runs.len());
    }

    fn push(&mut self, addr: usize, word: i16) {
        // A run never straddles a stage boundary.
        let in_stage = self.runs.len() > self.stage_runs.last().copied().unwrap_or(0);
        match self.runs.last_mut() {
            Some((base, len)) if in_stage && *base as usize + *len as usize == addr => *len += 1,
            _ => self.runs.push((addr as u32, 1)),
        }
        self.words.push(word);
    }

    /// The `(base, words)` runs stages `0..stage` wrote, in order.
    fn prefix(&self, stage: usize) -> impl Iterator<Item = (usize, &[i16])> + '_ {
        let mut offset = 0usize;
        self.runs[..self.stage_runs[stage]]
            .iter()
            .map(move |&(base, len)| {
                let words = &self.words[offset..offset + len as usize];
                offset += len as usize;
                (base as usize, words)
            })
    }
}

/// A compressed record of one clean (fault-free) application pass: every
/// distinct `(address, stored code, side word)` a read observed, with its
/// repeat count and the stage of its first read, plus the pass's output
/// and access statistics.
///
/// The trace depends only on (EMT, app, record) — never on the fault draw
/// — so one recording serves every batched group of a campaign, replayed
/// ([`EmtMemory::replay_trace`]) against each group's fault planes instead
/// of re-running the application. Aggregating events (dropping read order)
/// is sound because the replay's observables are order-independent:
/// a lane's final eviction only asks whether *any* read diverged, and
/// survivor deltas accumulate over *all* reads the lane corrupts —
/// evicted lanes' deltas are never consumed.
///
/// The injection family records one per (EMT, app, record) directly on
/// the EMT's memory; the draw family replays a shared [`RawTrace`]
/// instead, except for an app that reads before writing.
///
/// A directly recorded trace orders its events by (first-read stage,
/// address, epoch). A stuck cell decodes every read of one event
/// identically, so the first event that evicts a lane carries the
/// earliest stage at which the lane read a diverging word: every read of
/// the stages before it returned the clean word. Such a trace also keeps
/// a stage log (per-stage read offsets and the pass's writes), which lets
/// an evicted lane resume at that stage instead of re-running the clean
/// prefix ([`EmtMemory::run_app_resumed`]). A trace derived from a
/// [`RawTrace`] ([`EmtMemory::derive_trace`], kept for the benchmark
/// mirror) keeps neither: its events stay in (address, epoch) order,
/// like the raw trace's.
pub struct CleanTrace {
    events: Vec<TraceEvent>,
    output: Vec<i16>,
    stats: AccessStats,
    /// Direct recordings only (see the type docs).
    stages: Option<StageLog>,
}

impl CleanTrace {
    /// Records `app` running over `input` on the fault-free `mem`
    /// (reset by the caller), capturing the stored code behind every read
    /// and every write in order, stage by stage.
    ///
    /// Reads land in one flat [`Epochs`] list, which is sorted by address
    /// and then, stably, by stage at the end. Block accesses go through
    /// the per-word `WordStorage` defaults, so the recorded statistics
    /// are identical to a batched clean pass's.
    fn record<C: EmtCodec>(
        mem: &mut ProtectedMemory<C>,
        app: &dyn BiomedicalApp,
        input: &[i16],
    ) -> CleanTrace {
        struct Recorder<'a, C: EmtCodec> {
            mem: &'a mut ProtectedMemory<C>,
            // On a fault-free memory the clean decode is a pure function
            // of (addr, code, side).
            epochs: Epochs<TraceEvent>,
            stage: u16,
            log: StageLog,
        }
        impl<C: EmtCodec> Recorder<'_, C> {
            /// Marks the start of stage `k` (`k == app.stages()`: the
            /// output readback).
            fn begin_stage(&mut self, k: usize) {
                self.stage = k as u16;
                self.log.begin_stage(self.mem.stats().reads);
            }
        }
        impl<C: EmtCodec> WordStorage for Recorder<'_, C> {
            fn len(&self) -> usize {
                self.mem.words()
            }

            fn read(&mut self, addr: usize) -> i16 {
                let code = self.mem.stored_code(addr);
                let side = self.mem.side_word(addr);
                let d = self.mem.read_decoded(addr);
                let fresh = || TraceEvent {
                    addr: addr as u32,
                    code,
                    side,
                    word: d.word,
                    outcome: d.outcome,
                    stage: self.stage,
                    count: 0,
                };
                let i = self
                    .epochs
                    .find_or_push(addr, |e| e.code == code && e.side == side, fresh);
                self.epochs.events[i].count += 1;
                d.word
            }

            fn write(&mut self, addr: usize, value: i16) {
                self.mem.write(addr, value);
                self.log.push(addr, value);
            }
        }
        let words = mem.words();
        let mut recorder = Recorder {
            mem,
            epochs: Epochs::new(words),
            stage: 0,
            log: StageLog::default(),
        };
        // `BiomedicalApp::run`, with every stage boundary marked.
        let stages = app.stages();
        assert!(stages < usize::from(u16::MAX), "too many stages to tag");
        assert_eq!(input.len(), app.input_len(), "input length mismatch");
        for k in 0..stages {
            recorder.begin_stage(k);
            app.run_stage(k, input, &mut recorder);
        }
        recorder.begin_stage(stages);
        let output = app.read_output(&mut recorder);
        // (stage, address, epoch) order: stable sorts by address, then
        // by stage.
        let events = recorder.epochs.by_address(|e| e.addr as usize);
        CleanTrace {
            events: counting_sort(events, stages + 1, |e| usize::from(e.stage)),
            output,
            stats: recorder.mem.stats(),
            stages: Some(recorder.log),
        }
    }

    /// The clean pass's output samples.
    pub fn output(&self) -> &[i16] {
        &self.output
    }

    /// The clean pass's access statistics — the baseline
    /// [`TrialBatch::lane_stats`] offsets from.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Number of aggregated `(address, code, side)` events.
    pub fn events(&self) -> usize {
        self.events.len()
    }

    /// Clean reads the pass made before `stage` (`stage == app.stages()`
    /// counts everything before the output readback) — the reads a lane
    /// resumed at `stage` does not re-execute.
    ///
    /// # Panics
    ///
    /// Panics if the trace was derived from a [`RawTrace`] or
    /// `stage > app.stages()`.
    pub fn reads_before(&self, stage: usize) -> u64 {
        self.stage_log().stage_reads[stage]
    }

    fn stage_log(&self) -> &StageLog {
        self.stages
            .as_ref()
            .expect("only directly recorded traces keep their stages")
    }

    /// Replays this trace against one batched group's fault planes:
    /// every event some still-alive lane corrupts is overlaid and decoded
    /// for all lanes at once, evicting diverged lanes and accumulating
    /// survivor deltas into `batch` — the exact bookkeeping the lanes'
    /// scalar runs imply, at the cost of the dirty events only. Returns as
    /// soon as no lane is alive.
    ///
    /// `lanes` restricts the replay to a subset of the batch: only those
    /// lanes are decoded, evicted, or credited. This is what lets one
    /// group mix trials over *different* records — each record's trace
    /// replays on exactly the lanes that drew it, sharing the group's
    /// plane transposition.
    ///
    /// Returns, per lane, the stage of the event at which the lane was
    /// evicted; entries of lanes still alive are 0.
    /// On a directly recorded (stage-ordered) trace that is the earliest
    /// stage the lane can resume at.
    fn replay<C: EmtCodec + ?Sized>(
        &self,
        codec: &C,
        planes: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) -> [u16; MAX_LANES] {
        let mut word_planes = [0u64; 32];
        let mut left_at = [0u16; MAX_LANES];
        for e in &self.events {
            let alive = batch.alive();
            let active = planes.dirty_mask(e.addr as usize) & alive & lanes;
            if active == 0 {
                if alive & lanes == 0 {
                    break;
                }
                continue;
            }
            let encoded = Encoded {
                code: e.code,
                side: e.side,
            };
            let d = decode_lanes(codec, planes, e.addr, encoded, e.word, &mut word_planes);
            batch.record_read(
                active,
                d.diverged,
                d.corrected,
                d.uncorrectable,
                e.outcome,
                e.count,
            );
            let mut left = alive & !batch.alive();
            while left != 0 {
                left_at[left.trailing_zeros() as usize] = e.stage;
                left &= left - 1;
            }
        }
        left_at
    }
}

/// Every lane's decode of one clean read under its faults: the lanes
/// whose word differs from the clean word, and the decoder's corrected
/// and uncorrectable lane masks.
struct LaneDecode {
    diverged: u64,
    corrected: u64,
    uncorrectable: u64,
}

/// Overlays every lane's faults at `addr` on the clean `stored` codeword
/// and decodes all lanes at once against the clean `word`. `word_planes`
/// is the caller's scratch, hoisted out of its event loop.
#[inline]
fn decode_lanes<C: EmtCodec + ?Sized>(
    codec: &C,
    planes: &BatchFaultPlanes,
    addr: u32,
    stored: Encoded,
    word: i16,
    word_planes: &mut [u64; 32],
) -> LaneDecode {
    let width = codec.code_width() as usize;
    planes.overlay(addr as usize, stored.code, &mut word_planes[..width]);
    let d = codec.decode_batch(&word_planes[..width], stored.side);
    let clean_word = word as u16;
    let mut diverged = 0u64;
    for (i, &plane) in d.data.iter().enumerate() {
        let clean_plane = 0u64.wrapping_sub(u64::from(clean_word >> i & 1));
        diverged |= plane ^ clean_plane;
    }
    LaneDecode {
        diverged,
        corrected: d.corrected,
        uncorrectable: d.uncorrectable,
    }
}

/// One aggregated read event of a raw (codec-agnostic) clean pass: while
/// the *logical word* at its address was `word`, the pass read the
/// address `count` times. The address is the event's group in
/// [`RawTrace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RawEvent {
    count: u32,
    word: i16,
}

/// One closed read epoch of a raw recording, in program order: `count`
/// reads of `addr` while it held `word`.
#[derive(Clone, Copy)]
struct RawEpoch {
    addr: u32,
    word: i16,
    count: u32,
}

/// A codec-agnostic clean pass: the application run over plain word
/// storage, with every `(address, stored word)` epoch a read observed.
///
/// On fault-free memory every codec round-trips written words exactly
/// (`decode(encode(w)) == (w, Clean)` — pinned by the exhaustive codec
/// tests), so the application's clean dynamics do not depend on the EMT:
/// one raw recording per (app, record) *is* the clean pass of every EMT.
/// The draw family replays it directly under each EMT
/// ([`EmtMemory::replay_raw_trace`]), encoding a word with that EMT's
/// codec only at the events some lane's faults touch. Its output, and
/// hence its reference SNR, are shared by every EMT too.
///
/// The one case where dynamics *would* diverge is a read of a
/// never-written address: after [`ProtectedMemory::reset_with_fault_map`]
/// those hold raw code 0 / side 0, and `decode(0, 0)` is codec-dependent
/// (Dream's is not word 0). [`RawTrace::record`] detects any
/// read-before-write and returns `None`, making the caller fall back to
/// per-EMT [`EmtMemory::record_trace`] — exactness is never assumed.
///
/// Events are indexed by address: `events[offsets[a]..offsets[a + 1]]`
/// are address `a`'s, one per distinct word it was read holding, in the
/// order the pass first read each. An event is 8 bytes (a count and a
/// word), and the index 4 bytes per word of the app's footprint. So a
/// replay visits only the addresses its lanes' faults touch
/// ([`BatchFaultPlanes::touched`]), in the same ascending (address,
/// epoch) order a full scan would.
///
/// Recording is flat: a read only bumps its address's pending count (a
/// block read, one pass over a slice), and a write closes the address's
/// epoch into a log in program order. One counting pass over the log
/// then groups the epochs by address and merges each repeat of a word
/// into that word's first event. No allocation is made per address.
pub struct RawTrace {
    offsets: Vec<u32>,
    events: Vec<RawEvent>,
    output: Vec<i16>,
    reads: u64,
    writes: u64,
}

impl RawTrace {
    /// Runs `app` over `input` on plain zeroed storage of `words` words
    /// (at least `app.memory_words()`; the engine passes exactly that),
    /// recording word epochs per address. Returns `None` if the app read
    /// an address before writing it (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the pass makes more than `u32::MAX` reads.
    pub fn record(app: &dyn BiomedicalApp, input: &[i16], words: usize) -> Option<RawTrace> {
        struct Recorder {
            values: Vec<i16>,
            written: Vec<bool>,
            // Reads of each address's current word since its epoch
            // opened: a read is one increment, and a block read one pass
            // over a slice.
            pending: Vec<u32>,
            log: Vec<RawEpoch>,
            reads: u64,
            writes: u64,
            premature: bool,
        }
        impl Recorder {
            /// Closes the read epoch of `addr` into the log; called
            /// before the word changes, and once for every address at
            /// the end.
            #[inline]
            fn close(&mut self, addr: usize) {
                let count = std::mem::take(&mut self.pending[addr]);
                if count == 0 {
                    return;
                }
                self.premature |= !self.written[addr];
                self.log.push(RawEpoch {
                    addr: addr as u32,
                    word: self.values[addr],
                    count,
                });
            }
        }
        impl WordStorage for Recorder {
            fn len(&self) -> usize {
                self.values.len()
            }

            fn read(&mut self, addr: usize) -> i16 {
                self.reads += 1;
                self.pending[addr] += 1;
                self.values[addr]
            }

            fn write(&mut self, addr: usize, value: i16) {
                self.writes += 1;
                self.close(addr);
                self.written[addr] = true;
                self.values[addr] = value;
            }

            fn write_block(&mut self, base: usize, data: &[i16]) {
                let range = base..base + data.len();
                self.writes += data.len() as u64;
                for addr in range.clone() {
                    self.close(addr);
                }
                self.written[range.clone()].fill(true);
                self.values[range].copy_from_slice(data);
            }

            fn read_block(&mut self, base: usize, out: &mut [i16]) {
                let range = base..base + out.len();
                self.reads += out.len() as u64;
                for p in &mut self.pending[range.clone()] {
                    *p += 1;
                }
                out.copy_from_slice(&self.values[range]);
            }
        }
        let mut recorder = Recorder {
            values: vec![0; words],
            written: vec![false; words],
            pending: vec![0; words],
            log: Vec::new(),
            reads: 0,
            writes: 0,
            premature: false,
        };
        let output = app.run(input, &mut recorder);
        // Every count is at most the pass's reads, so none has wrapped.
        assert!(
            recorder.reads <= u64::from(u32::MAX),
            "{} reads overflow a raw event's count",
            recorder.reads
        );
        for addr in 0..words {
            recorder.close(addr);
        }
        if recorder.premature {
            return None;
        }
        let (offsets, events) = group_epochs(&recorder.log, words);
        Some(RawTrace {
            offsets,
            events,
            output,
            reads: recorder.reads,
            writes: recorder.writes,
        })
    }

    /// Number of addresses the trace indexes (its recording's `words`).
    fn words(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The events of `addr`, in first-read order.
    #[inline]
    fn events_at(&self, addr: usize) -> &[RawEvent] {
        &self.events[self.offsets[addr] as usize..self.offsets[addr + 1] as usize]
    }

    /// The raw pass's output samples — identical to every EMT's clean
    /// output (word round-tripping again), so reference SNRs can be
    /// computed once per (app, record).
    pub fn output(&self) -> &[i16] {
        &self.output
    }

    /// Every EMT's clean access statistics: the pass's reads and writes,
    /// and no corrected or uncorrectable read (every clean decode is
    /// `Clean`) — the baseline [`TrialBatch::lane_stats`] offsets from.
    pub fn stats(&self) -> AccessStats {
        AccessStats {
            reads: self.reads,
            writes: self.writes,
            corrected_reads: 0,
            uncorrectable_reads: 0,
        }
    }

    /// [`CleanTrace::replay`]'s contract for `codec`'s memory, on the
    /// codec-agnostic events: an event no active lane's planes mark dirty
    /// skips untouched, and a dirty one encodes its clean word with
    /// `codec` before the overlay and batched decode. The clean outcome
    /// is always `Clean`. Lanes leave at no recorded stage, since the
    /// draw family re-runs evicted lanes from stage 0.
    ///
    /// Only the addresses `planes` marks touched are visited, ascending,
    /// so the cost follows the faults, not the trace. Every skipped event
    /// has no dirty lane, so the batch sees the same
    /// [`TrialBatch::record_read`] sequence as a scan of every event in
    /// (address, epoch) order, and evicts identically.
    fn replay<C: EmtCodec + ?Sized>(
        &self,
        codec: &C,
        planes: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) {
        let mut word_planes = [0u64; 32];
        for addr in planes.touched() {
            if addr >= self.words() {
                break;
            }
            let dirty = planes.dirty_mask(addr);
            for e in self.events_at(addr) {
                let alive = batch.alive();
                if alive & lanes == 0 {
                    return;
                }
                // Lanes only ever leave, so once no alive lane of the
                // sub-group is dirty here, none is for this address.
                let active = dirty & alive & lanes;
                if active == 0 {
                    break;
                }
                let stored = codec.encode(e.word);
                let d = decode_lanes(codec, planes, addr as u32, stored, e.word, &mut word_planes);
                batch.record_read(
                    active,
                    d.diverged,
                    d.corrected,
                    d.uncorrectable,
                    DecodeOutcome::Clean,
                    u64::from(e.count),
                );
            }
        }
    }
}

/// Groups a raw recording's epoch `log` (program order) by address for
/// [`RawTrace`]: one counting pass, stable within an address, then each
/// repeat of a word merges into that word's first event. Returns the
/// `words + 1` offsets and the events.
fn group_epochs(log: &[RawEpoch], words: usize) -> (Vec<u32>, Vec<RawEvent>) {
    let total = u32::try_from(log.len()).expect("too many raw trace epochs");
    let mut offsets = vec![0u32; words + 1];
    for e in log {
        offsets[e.addr as usize + 1] += 1;
    }
    for a in 1..=words {
        offsets[a] += offsets[a - 1];
    }
    debug_assert_eq!(offsets[words], total);
    let mut next = offsets.clone();
    let mut events = vec![RawEvent::default(); log.len()];
    for e in log {
        let slot = &mut next[e.addr as usize];
        events[*slot as usize] = RawEvent {
            count: e.count,
            word: e.word,
        };
        *slot += 1;
    }
    // Merge in place: an address's distinct words are few, and the kept
    // events never overtake the epochs still to be read.
    let mut kept = 0usize;
    for a in 0..words {
        let (begin, end) = (offsets[a] as usize, offsets[a + 1] as usize);
        offsets[a] = kept as u32;
        let first = kept;
        for i in begin..end {
            let e = events[i];
            match events[first..kept].iter_mut().find(|f| f.word == e.word) {
                Some(f) => f.count += e.count,
                None => {
                    events[kept] = e;
                    kept += 1;
                }
            }
        }
    }
    offsets[words] = kept as u32;
    events.truncate(kept);
    events.shrink_to_fit();
    (offsets, events)
}

impl CleanTrace {
    /// Materializes the [`CleanTrace`] a direct [`CleanTrace::record`] on
    /// `codec`'s memory would have produced, from one codec-agnostic
    /// [`RawTrace`]: each event's word is encoded, and decoded for its
    /// clean outcome, in place (a few table operations each). The
    /// events stay in the raw pass's (address, epoch) order, carry no
    /// stage (0), and no [`StageLog`] is kept (see the [`CleanTrace`]
    /// docs).
    ///
    /// Only [`EmtMemory::derive_trace`], the benchmark mirror's seam,
    /// calls this: the engine replays raw traces directly.
    fn derive<C: EmtCodec>(codec: &C, raw: &RawTrace) -> CleanTrace {
        let mut corrected = 0u64;
        let mut uncorrectable = 0u64;
        let events = (0..raw.words())
            .flat_map(|addr| raw.events_at(addr).iter().map(move |e| (addr, e)))
            .map(|(addr, e)| {
                let count = u64::from(e.count);
                let enc = codec.encode(e.word);
                let d = codec.decode(enc.code, enc.side);
                debug_assert_eq!(d.word, e.word, "codec does not round-trip {}", e.word);
                match d.outcome {
                    DecodeOutcome::Corrected => corrected += count,
                    DecodeOutcome::DetectedUncorrectable => uncorrectable += count,
                    DecodeOutcome::Clean => {}
                }
                TraceEvent {
                    addr: addr as u32,
                    code: enc.code,
                    side: enc.side,
                    word: e.word,
                    outcome: d.outcome,
                    stage: 0,
                    count,
                }
            })
            .collect();
        CleanTrace {
            events,
            output: raw.output.clone(),
            stats: AccessStats {
                reads: raw.reads,
                writes: raw.writes,
                corrected_reads: corrected,
                uncorrectable_reads: uncorrectable,
            },
            stages: None,
        }
    }
}

/// Rebuilds on `m` (freshly armed by the caller) the image stages
/// `0..stage` of `trace`'s clean pass left, without counting those
/// writes, then runs `app` from `stage` on.
fn resume_on<C: EmtCodec>(
    m: &mut ProtectedMemory<C>,
    app: &dyn BiomedicalApp,
    input: &[i16],
    trace: &CleanTrace,
    stage: usize,
) -> Vec<i16> {
    for (base, words) in trace.stage_log().prefix(stage) {
        m.preload_block(base, words);
    }
    app.run_from(stage, input, &mut ProtectedStorage::new(m))
}

/// A protected memory monomorphized per technique: one enum dispatch when
/// a trial *starts an app run*, zero dispatch per access — the arena type
/// the voltage-sweep campaigns hold one of per EMT.
#[allow(missing_docs)]
pub enum EmtMemory {
    None(ProtectedMemory<NoProtection>),
    Parity(ProtectedMemory<EvenParity>),
    Dream(ProtectedMemory<Dream>),
    Ecc(ProtectedMemory<EccSecDed>),
}

impl EmtMemory {
    /// Builds the fault-free monomorphized memory for `kind`.
    pub fn new(kind: EmtKind, geometry: MemGeometry) -> Self {
        match kind {
            EmtKind::None => {
                EmtMemory::None(ProtectedMemory::with_codec(NoProtection::new(), geometry))
            }
            EmtKind::Parity => {
                EmtMemory::Parity(ProtectedMemory::with_codec(EvenParity::new(), geometry))
            }
            EmtKind::Dream => EmtMemory::Dream(ProtectedMemory::with_codec(Dream::new(), geometry)),
            EmtKind::EccSecDed => {
                EmtMemory::Ecc(ProtectedMemory::with_codec(EccSecDed::new(), geometry))
            }
        }
    }

    /// Re-arms for a fresh trial (see
    /// [`ProtectedMemory::reset_with_fault_map`]).
    pub fn reset_with_fault_map(&mut self, map: &FaultMap) {
        match self {
            EmtMemory::None(m) => m.reset_with_fault_map(map),
            EmtMemory::Parity(m) => m.reset_with_fault_map(map),
            EmtMemory::Dream(m) => m.reset_with_fault_map(map),
            EmtMemory::Ecc(m) => m.reset_with_fault_map(map),
        }
    }

    /// Returns to the virgin state of the current arming, keeping its map
    /// and scrambler (see [`ProtectedMemory::rewind`]): how one armed lane
    /// runs several apps in turn.
    pub fn rewind(&mut self) {
        match self {
            EmtMemory::None(m) => m.rewind(),
            EmtMemory::Parity(m) => m.rewind(),
            EmtMemory::Dream(m) => m.rewind(),
            EmtMemory::Ecc(m) => m.rewind(),
        }
    }

    /// Installs a logical→physical address scrambler (the §V randomized
    /// mapping); [`EmtMemory::reset_with_fault_map`] restores identity, so
    /// call this after the per-trial reset.
    pub fn set_scrambler(&mut self, scrambler: dream_mem::AddressScrambler) {
        match self {
            EmtMemory::None(m) => m.set_scrambler(scrambler),
            EmtMemory::Parity(m) => m.set_scrambler(scrambler),
            EmtMemory::Dream(m) => m.set_scrambler(scrambler),
            EmtMemory::Ecc(m) => m.set_scrambler(scrambler),
        }
    }

    /// Access statistics of the last run.
    pub fn stats(&self) -> AccessStats {
        match self {
            EmtMemory::None(m) => m.stats(),
            EmtMemory::Parity(m) => m.stats(),
            EmtMemory::Dream(m) => m.stats(),
            EmtMemory::Ecc(m) => m.stats(),
        }
    }

    /// Runs `app` with all buffers in this memory — the single dispatch
    /// point behind which every access is monomorphized.
    pub fn run_app(&mut self, app: &dyn BiomedicalApp, input: &[i16]) -> Vec<i16> {
        match self {
            EmtMemory::None(m) => app.run(input, &mut ProtectedStorage::new(m)),
            EmtMemory::Parity(m) => app.run(input, &mut ProtectedStorage::new(m)),
            EmtMemory::Dream(m) => app.run(input, &mut ProtectedStorage::new(m)),
            EmtMemory::Ecc(m) => app.run(input, &mut ProtectedStorage::new(m)),
        }
    }

    /// Runs `app` once on this (fault-free, freshly reset) memory and
    /// records its stage-ordered [`CleanTrace`], write log included —
    /// the pass every batched group of the campaign then
    /// [`EmtMemory::replay_trace`]s instead of re-running.
    pub fn record_trace(&mut self, app: &dyn BiomedicalApp, input: &[i16]) -> CleanTrace {
        match self {
            EmtMemory::None(m) => CleanTrace::record(m, app, input),
            EmtMemory::Parity(m) => CleanTrace::record(m, app, input),
            EmtMemory::Dream(m) => CleanTrace::record(m, app, input),
            EmtMemory::Ecc(m) => CleanTrace::record(m, app, input),
        }
    }

    /// Derives this EMT's [`CleanTrace`] from one codec-agnostic
    /// [`RawTrace`] (see that type: sound because every codec round-trips
    /// written words and the raw recording rejects read-before-write).
    /// Equality with a direct [`EmtMemory::record_trace`] is pinned by
    /// `derived_trace_matches_direct_recording_for_every_emt` below.
    ///
    /// The engine does not call this: it replays the raw trace itself
    /// ([`EmtMemory::replay_raw_trace`]). It stays public for the
    /// benchmark's engine mirror (`benchmark/src/mirror.rs`), which still
    /// derives per-EMT traces, and goes once ROADMAP item 2 retires the
    /// mirror.
    pub fn derive_trace(&self, raw: &RawTrace) -> CleanTrace {
        match self {
            EmtMemory::None(m) => CleanTrace::derive(m.codec(), raw),
            EmtMemory::Parity(m) => CleanTrace::derive(m.codec(), raw),
            EmtMemory::Dream(m) => CleanTrace::derive(m.codec(), raw),
            EmtMemory::Ecc(m) => CleanTrace::derive(m.codec(), raw),
        }
    }

    /// Replays a recorded clean pass against one batched group's fault
    /// planes (see [`CleanTrace`]): `batch` evicts exactly the lanes whose
    /// scalar run on their own fault map would read a word differing from
    /// the clean pass's, and each survivor's [`TrialBatch::lane_stats`]
    /// equals that scalar run's statistics. `lanes` masks the replay to
    /// the sub-group that drew this trace's record (`u64::MAX` for every
    /// lane).
    pub fn replay_trace(
        &self,
        trace: &CleanTrace,
        faults: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) {
        self.replay_trace_staged(trace, faults, batch, lanes);
    }

    /// [`EmtMemory::replay_trace`] of the clean pass every EMT shares: the
    /// same evictions and survivor statistics (offset from
    /// [`RawTrace::stats`]) as replaying this EMT's own recorded trace.
    pub fn replay_raw_trace(
        &self,
        trace: &RawTrace,
        faults: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) {
        match self {
            EmtMemory::None(m) => trace.replay(m.codec(), faults, batch, lanes),
            EmtMemory::Parity(m) => trace.replay(m.codec(), faults, batch, lanes),
            EmtMemory::Dream(m) => trace.replay(m.codec(), faults, batch, lanes),
            EmtMemory::Ecc(m) => trace.replay(m.codec(), faults, batch, lanes),
        }
    }

    /// [`EmtMemory::replay_trace`] that also reports, per lane, the stage
    /// at which each evicted lane left the batch: every read of the
    /// stages before it returned the clean word, so the lane can
    /// [`EmtMemory::run_app_resumed`] there. Entries of surviving lanes
    /// are 0.
    pub fn replay_trace_staged(
        &self,
        trace: &CleanTrace,
        faults: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) -> [u16; MAX_LANES] {
        match self {
            EmtMemory::None(m) => trace.replay(m.codec(), faults, batch, lanes),
            EmtMemory::Parity(m) => trace.replay(m.codec(), faults, batch, lanes),
            EmtMemory::Dream(m) => trace.replay(m.codec(), faults, batch, lanes),
            EmtMemory::Ecc(m) => trace.replay(m.codec(), faults, batch, lanes),
        }
    }

    /// [`EmtMemory::run_app`] for a lane that rode `trace`'s clean pass
    /// up to `stage`: rebuilds the image the clean stages `0..stage` left
    /// (an uncounted write-log preload onto this freshly armed memory),
    /// then runs stages `stage..` and the readback. The output equals a
    /// full [`EmtMemory::run_app`] on the same fault map whenever every
    /// read before `stage` decodes clean, which is what
    /// [`EmtMemory::replay_trace_staged`] reports. Only the suffix's
    /// accesses are counted in [`EmtMemory::stats`].
    ///
    /// # Panics
    ///
    /// Panics if `trace` was derived from a [`RawTrace`] (derived traces
    /// keep no stage log) or `stage > app.stages()`.
    pub fn run_app_resumed(
        &mut self,
        app: &dyn BiomedicalApp,
        input: &[i16],
        trace: &CleanTrace,
        stage: usize,
    ) -> Vec<i16> {
        match self {
            EmtMemory::None(m) => resume_on(m, app, input, trace, stage),
            EmtMemory::Parity(m) => resume_on(m, app, input, trace, stage),
            EmtMemory::Dream(m) => resume_on(m, app, input, trace, stage),
            EmtMemory::Ecc(m) => resume_on(m, app, input, trace, stage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_core::EmtKind;
    use dream_mem::{MemGeometry, StuckAt};

    #[test]
    fn seeds_are_distinct_across_points_and_runs() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..20 {
            for r in 0..50 {
                assert!(seen.insert(fault_seed(1, p, r)));
            }
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(fault_seed(7, 3, 9), fault_seed(7, 3, 9));
        assert_ne!(fault_seed(7, 3, 9), fault_seed(8, 3, 9));
    }

    #[test]
    fn cap_bounds_both_ends() {
        assert_eq!(cap_snr(f64::INFINITY), SNR_CAP_DB);
        assert_eq!(cap_snr(f64::NEG_INFINITY), -20.0);
        assert_eq!(cap_snr(42.0), 42.0);
    }

    #[test]
    fn banked_geometry_rounds_up_to_full_banks() {
        let g = banked_geometry(100);
        assert_eq!(g.words(), 112); // next multiple of 16
        assert_eq!(g.words() % 16, 0);
        assert_eq!(banked_geometry(160).words(), 160);
    }

    #[test]
    fn record_suite_truncates() {
        assert_eq!(record_suite(256, 3).len(), 3);
        assert_eq!(
            record_suite(256, usize::MAX).len(),
            dream_ecg::Database::SUITE_SIZE
        );
    }

    #[test]
    fn unit_noise_scale_matches_standard_suite() {
        assert_eq!(record_suite_with_noise(256, 3, 1.0), record_suite(256, 3));
        assert_ne!(
            record_suite_with_noise(256, 3, 4.0),
            record_suite(256, 3),
            "a 4x noise floor must perturb the quantized samples"
        );
    }

    #[test]
    fn reference_outputs_match_direct_computation() {
        let records = record_suite(256, 2);
        let app = dream_dsp::AppKind::Dwt.instantiate(256);
        let refs = reference_outputs(&*app, &records);
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0], app.run_reference(&records[0].samples));
        assert_eq!(refs[1], app.run_reference(&records[1].samples));
    }

    #[test]
    fn storage_adapter_round_trips() {
        let mut mem = ProtectedMemory::new(EmtKind::Dream, MemGeometry::new(32, 16, 1));
        let mut s = ProtectedStorage::new(&mut mem);
        s.write(3, -99);
        assert_eq!(s.read(3), -99);
        assert_eq!(s.len(), 32);
        s.write_block(10, &[7, -8, 9]);
        let mut out = vec![0i16; 3];
        s.read_block(10, &mut out);
        assert_eq!(out, vec![7, -8, 9]);
    }

    /// Runs an app on a clean memory and, in lockstep, on one lane's
    /// faulty memory: both see every write, the app sees only clean words,
    /// and `diverged` latches once the faulty memory decodes a different
    /// word. Until then the faulty memory's statistics are exactly that
    /// lane's scalar run.
    struct Lockstep<'a> {
        clean: &'a mut ProtectedMemory,
        faulty: &'a mut ProtectedMemory,
        diverged: bool,
    }

    impl WordStorage for Lockstep<'_> {
        fn len(&self) -> usize {
            self.clean.words()
        }

        fn read(&mut self, addr: usize) -> i16 {
            let word = self.clean.read(addr);
            self.diverged |= self.faulty.read(addr) != word;
            word
        }

        fn write(&mut self, addr: usize, value: i16) {
            self.clean.write(addr, value);
            self.faulty.write(addr, value);
        }
    }

    #[test]
    fn trace_replay_matches_per_lane_scalar_runs() {
        // Replaying the compressed clean trace must evict exactly the
        // lanes whose scalar run reads a diverging word, and leave every
        // survivor with its scalar run's statistics — for every codec, on
        // fault maps dense enough to evict some lanes and spare others.
        let app = dream_dsp::AppKind::Dwt.instantiate(256);
        let geometry = banked_geometry(app.memory_words());
        let samples = record_suite(256, 1)[0].samples.clone();
        let lanes = 8;
        let maps: Vec<FaultMap> = (0..lanes)
            .map(|lane| {
                let ber = 0.0005 * (lane + 1) as f64;
                FaultMap::generate(geometry.words(), 22, ber, 40 + lane as u64)
            })
            .collect();
        let mut planes = BatchFaultPlanes::new(geometry.words(), 22);
        for (lane, map) in maps.iter().enumerate() {
            planes.add_lane(lane, map, None);
        }
        let mut survived = 0;
        let mut evicted = 0;
        for kind in EmtKind::all() {
            let mut mem = EmtMemory::new(kind, geometry);
            mem.reset_with_fault_map(&FaultMap::empty(geometry.words(), 22));
            let trace = mem.record_trace(&*app, &samples);
            assert!(trace.events() > 0, "{kind}: trace must not be empty");
            let mut replayed = TrialBatch::new(lanes);
            mem.replay_trace(&trace, &planes, &mut replayed, u64::MAX);
            for (lane, map) in maps.iter().enumerate() {
                let mut clean = ProtectedMemory::new(kind, geometry);
                let mut faulty = ProtectedMemory::with_fault_map(kind, geometry, map);
                let mut storage = Lockstep {
                    clean: &mut clean,
                    faulty: &mut faulty,
                    diverged: false,
                };
                let out = app.run(&samples, &mut storage);
                let diverged = storage.diverged;
                assert_eq!(trace.output(), &out[..], "{kind}: clean output");
                assert_eq!(trace.stats(), clean.stats(), "{kind}: clean stats");
                assert_eq!(
                    replayed.is_alive(lane),
                    !diverged,
                    "{kind} lane {lane}: eviction iff divergence"
                );
                if diverged {
                    evicted += 1;
                } else {
                    survived += 1;
                    assert_eq!(
                        replayed.lane_stats(lane, &trace.stats()),
                        faulty.stats(),
                        "{kind} lane {lane}: survivor statistics"
                    );
                }
            }
        }
        // The fixed seeds must exercise both outcomes of the rule.
        assert!(survived > 0, "no lane survived anywhere");
        assert!(evicted > 0, "no lane diverged anywhere");
    }

    #[test]
    fn resumed_lanes_reproduce_from_scratch_runs() {
        // Lanes with many stuck cells (unlike the single-cell injection
        // family) make the event order matter: the event that evicts a
        // lane must carry its earliest diverging stage, or the resume
        // skips a stage that read a corrupted word.
        let lanes = 12;
        let mut resumed_past_zero = 0;
        for app_kind in dream_dsp::AppKind::extended() {
            let app = app_kind.instantiate(512);
            let geometry = banked_geometry(app.memory_words());
            let samples = record_suite(512, 1)[0].samples.clone();
            let maps: Vec<FaultMap> = (0..lanes)
                .map(|lane| {
                    let ber = 0.00005 * (lane + 1) as f64;
                    FaultMap::generate(geometry.words(), 22, ber, 90 + lane as u64)
                })
                .collect();
            let mut planes = BatchFaultPlanes::new(geometry.words(), 22);
            for (lane, map) in maps.iter().enumerate() {
                planes.add_lane(lane, map, None);
            }
            for kind in [EmtKind::None, EmtKind::Dream] {
                let mut mem = EmtMemory::new(kind, geometry);
                mem.reset_with_fault_map(&FaultMap::empty(geometry.words(), 22));
                let trace = mem.record_trace(&*app, &samples);
                assert!(
                    trace.events.windows(2).all(|w| w[0].stage <= w[1].stage),
                    "{app_kind:?}/{kind}: events not stage-major"
                );
                let mut batch = TrialBatch::new(lanes);
                let left_at = mem.replay_trace_staged(&trace, &planes, &mut batch, u64::MAX);
                for (lane, map) in maps.iter().enumerate() {
                    if batch.is_alive(lane) {
                        continue;
                    }
                    let stage = usize::from(left_at[lane]);
                    mem.reset_with_fault_map(map);
                    let full = mem.run_app(&*app, &samples);
                    mem.reset_with_fault_map(map);
                    let resumed = mem.run_app_resumed(&*app, &samples, &trace, stage);
                    assert_eq!(
                        resumed, full,
                        "{app_kind:?}/{kind} lane {lane}: resumed at stage {stage}"
                    );
                    resumed_past_zero += usize::from(stage > 0);
                }
            }
        }
        assert!(resumed_past_zero > 0, "no lane resumed past stage 0");
    }

    #[test]
    fn derived_trace_matches_direct_recording_for_every_emt() {
        // One codec-agnostic raw pass must yield, for every EMT, the
        // byte-identical CleanTrace a direct recording on that EMT's
        // memory produces: same events (addresses, codes, side words,
        // outcomes, counts), same output, same stats. The direct
        // recording alone is stage-tagged and stage-major; the derived
        // trace is address-major — so the direct events, stably re-sorted
        // by address with their stage tags dropped, must equal the
        // derived ones exactly.
        for app_kind in dream_dsp::AppKind::all() {
            // 512: large enough for the delineator's one-second minimum.
            let app = app_kind.instantiate(512);
            let geometry = banked_geometry(app.memory_words());
            let samples = record_suite(512, 1)[0].samples.clone();
            let empty = FaultMap::empty(geometry.words(), 22);
            let raw = RawTrace::record(&*app, &samples, geometry.words())
                .unwrap_or_else(|| panic!("{app_kind:?} reads before writing"));
            for kind in EmtKind::all() {
                let mut mem = EmtMemory::new(kind, geometry);
                mem.reset_with_fault_map(&empty);
                let direct = mem.record_trace(&*app, &samples);
                let derived = mem.derive_trace(&raw);
                let mut by_address = direct.events.clone();
                by_address.sort_by_key(|e| e.addr);
                for e in &mut by_address {
                    e.stage = 0;
                }
                assert_eq!(derived.events, by_address, "{app_kind:?}/{kind}: events");
                assert_eq!(derived.output, direct.output, "{app_kind:?}/{kind}: output");
                assert_eq!(
                    derived.stats(),
                    direct.stats(),
                    "{app_kind:?}/{kind}: stats"
                );
            }
        }
    }

    #[test]
    fn raw_trace_rejects_read_before_write() {
        // decode(0, 0) is codec-dependent (Dream's is not word 0), so a
        // pass touching a never-written address cannot be shared across
        // EMTs — the recorder must refuse instead of silently diverging.
        struct ReadsFirst;
        impl BiomedicalApp for ReadsFirst {
            fn name(&self) -> &'static str {
                "reads-first"
            }
            fn kind(&self) -> dream_dsp::AppKind {
                dream_dsp::AppKind::Dwt
            }
            fn input_len(&self) -> usize {
                0
            }
            fn output_len(&self) -> usize {
                1
            }
            fn memory_words(&self) -> usize {
                8
            }
            fn stages(&self) -> usize {
                1
            }
            fn run_stage(&self, _k: usize, _input: &[i16], mem: &mut dyn WordStorage) {
                let v = mem.read(3);
                mem.write(0, v);
            }
            fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
                vec![mem.read(0)]
            }
            fn run_reference(&self, _input: &[i16]) -> Vec<f64> {
                vec![0.0]
            }
        }
        assert!(RawTrace::record(&ReadsFirst, &[], 8).is_none());
        // Sanity: the Dream virgin decode really is the divergent case
        // the rejection guards against.
        let d = Dream::new();
        assert_ne!(d.decode(0, 0).word, 0, "virgin Dream reads are nonzero");
    }

    /// One access of a [`Scripted`] app.
    #[derive(Clone, Debug)]
    enum Op {
        Write(usize, i16),
        WriteBlock(usize, Vec<i16>),
        Read(usize),
        ReadBlock(usize, usize),
    }

    /// An app that runs a fixed access script, one op list per stage, and
    /// reads its output back from the first [`SCRIPT_OUTPUT`] words.
    struct Scripted {
        words: usize,
        stages: Vec<Vec<Op>>,
    }

    const SCRIPT_OUTPUT: usize = 2;

    impl BiomedicalApp for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn kind(&self) -> dream_dsp::AppKind {
            dream_dsp::AppKind::Dwt
        }
        fn input_len(&self) -> usize {
            0
        }
        fn output_len(&self) -> usize {
            SCRIPT_OUTPUT
        }
        fn memory_words(&self) -> usize {
            self.words
        }
        fn stages(&self) -> usize {
            self.stages.len()
        }
        fn run_stage(&self, k: usize, _input: &[i16], mem: &mut dyn WordStorage) {
            for op in &self.stages[k] {
                match op {
                    Op::Write(addr, v) => mem.write(*addr, *v),
                    Op::WriteBlock(base, data) => mem.write_block(*base, data),
                    Op::Read(addr) => {
                        mem.read(*addr);
                    }
                    Op::ReadBlock(base, len) => mem.read_block(*base, &mut vec![0; *len]),
                }
            }
        }
        fn read_output(&self, mem: &mut dyn WordStorage) -> Vec<i16> {
            let mut out = vec![0; SCRIPT_OUTPUT];
            mem.read_block(0, &mut out);
            out
        }
        fn run_reference(&self, _input: &[i16]) -> Vec<f64> {
            vec![0.0; SCRIPT_OUTPUT]
        }
    }

    impl Scripted {
        /// Every distinct `(address, word)` pair the script reads.
        fn read_pairs(&self) -> std::collections::HashSet<(usize, i16)> {
            let mut values = vec![0i16; self.words];
            let mut pairs = std::collections::HashSet::new();
            for op in self.stages.iter().flatten() {
                match op {
                    Op::Write(addr, v) => values[*addr] = *v,
                    Op::WriteBlock(base, data) => {
                        values[*base..*base + data.len()].copy_from_slice(data)
                    }
                    Op::Read(addr) => {
                        pairs.insert((*addr, values[*addr]));
                    }
                    Op::ReadBlock(base, len) => {
                        pairs.extend((*base..*base + len).map(|a| (a, values[a])));
                    }
                }
            }
            pairs.extend((0..SCRIPT_OUTPUT).map(|a| (a, values[a])));
            pairs
        }
    }

    const SCRIPT_WORDS: usize = 16;

    /// One arbitrary script op: (kind, address, data, stage).
    type ScriptOp = (u8, usize, Vec<i16>, usize);

    /// Arbitrary ops over [`SCRIPT_WORDS`] words and three stages, on a
    /// tiny value alphabet, so addresses often get an earlier word back.
    fn script_ops() -> impl proptest::prelude::Strategy<Value = Vec<ScriptOp>> {
        proptest::prop::collection::vec(
            (
                0u8..4,
                0usize..SCRIPT_WORDS,
                proptest::prop::collection::vec(-3i16..=3, 1..6),
                0usize..3,
            ),
            0..60,
        )
    }

    /// The [`Scripted`] app of `script`: a block write of `init` first
    /// (so nothing is read before it is written), the script's ops in
    /// their stages, and a fixed write-x/write-y/write-x tail at the
    /// `restore` address that always gives an address an earlier word
    /// back.
    fn scripted_app(init: Vec<i16>, script: Vec<ScriptOp>, restore: (usize, i16)) -> Scripted {
        let mut stages = vec![vec![Op::WriteBlock(0, init)], Vec::new(), Vec::new()];
        for (kind, addr, data, stage) in script {
            let len = data.len();
            let base = addr.min(SCRIPT_WORDS - len);
            stages[stage].push(match kind {
                0 => Op::Write(addr, data[0]),
                1 => Op::WriteBlock(base, data),
                2 => Op::Read(addr),
                _ => Op::ReadBlock(base, len),
            });
        }
        let (addr, x) = restore;
        let y = if x == 3 { -3 } else { x + 1 };
        stages[2].extend([
            Op::Write(addr, x),
            Op::Read(addr),
            Op::Write(addr, y),
            Op::Read(addr),
            Op::Write(addr, x),
            Op::Read(addr),
        ]);
        Scripted {
            words: SCRIPT_WORDS,
            stages,
        }
    }

    /// Cases per recorder and replay property: 64, or `PROPTEST_CASES`
    /// when set (CI's full-scale job runs 2048).
    fn property_cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// The raw recorder before it went flat, kept as the test oracle: one
    /// [`Epochs`] list, each read epoch folded into its address's event of
    /// the same word (or a new one) as the epoch closes, and one counting
    /// sort by address at the end. Returns `(address, word, count)` in
    /// (address, first-read) order, or `None` on a read before a write.
    fn epochs_raw_events(
        app: &dyn BiomedicalApp,
        input: &[i16],
        words: usize,
    ) -> Option<Vec<(u32, i16, u64)>> {
        struct Recorder {
            values: Vec<i16>,
            written: Vec<bool>,
            pending: Vec<u64>,
            epochs: Epochs<(u32, i16, u64)>,
            premature: bool,
        }
        impl Recorder {
            fn settle(&mut self, addr: usize) {
                let reads = std::mem::take(&mut self.pending[addr]);
                if reads == 0 {
                    return;
                }
                self.premature |= !self.written[addr];
                let word = self.values[addr];
                let fresh = || (addr as u32, word, 0);
                let i = self.epochs.find_or_push(addr, |e| e.1 == word, fresh);
                self.epochs.events[i].2 += reads;
            }
        }
        impl WordStorage for Recorder {
            fn len(&self) -> usize {
                self.values.len()
            }
            fn read(&mut self, addr: usize) -> i16 {
                self.pending[addr] += 1;
                self.values[addr]
            }
            fn write(&mut self, addr: usize, value: i16) {
                self.settle(addr);
                self.written[addr] = true;
                self.values[addr] = value;
            }
        }
        let mut recorder = Recorder {
            values: vec![0; words],
            written: vec![false; words],
            pending: vec![0; words],
            epochs: Epochs::new(words),
            premature: false,
        };
        app.run(input, &mut recorder);
        for addr in 0..words {
            recorder.settle(addr);
        }
        (!recorder.premature).then(|| recorder.epochs.by_address(|e| e.0 as usize))
    }

    /// `raw`'s events flattened to `(address, word, count)`.
    fn raw_events(raw: &RawTrace) -> Vec<(u32, i16, u64)> {
        (0..raw.words())
            .flat_map(|a| {
                raw.events_at(a)
                    .iter()
                    .map(move |e| (a as u32, e.word, u64::from(e.count)))
            })
            .collect()
    }

    /// The raw replay before it went sparse, kept as the test oracle:
    /// every event of every address, in (address, epoch) order.
    fn replay_full_scan<C: EmtCodec + ?Sized>(
        raw: &RawTrace,
        codec: &C,
        planes: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) {
        let mut word_planes = [0u64; 32];
        for (addr, word, count) in raw_events(raw) {
            let alive = batch.alive();
            let active = planes.dirty_mask(addr as usize) & alive & lanes;
            if active == 0 {
                if alive & lanes == 0 {
                    break;
                }
                continue;
            }
            let stored = codec.encode(word);
            let d = decode_lanes(codec, planes, addr, stored, word, &mut word_planes);
            batch.record_read(
                active,
                d.diverged,
                d.corrected,
                d.uncorrectable,
                DecodeOutcome::Clean,
                count,
            );
        }
    }

    #[test]
    fn raw_recorders_agree_on_every_app() {
        // The flat recorder against the epochs oracle on the real apps,
        // whose traces are far larger than any script's.
        for app_kind in dream_dsp::AppKind::extended() {
            let app = app_kind.instantiate(512);
            let samples = record_suite(512, 1)[0].samples.clone();
            for words in [
                app.memory_words(),
                banked_geometry(app.memory_words()).words(),
            ] {
                let raw = RawTrace::record(&*app, &samples, words);
                let oracle = epochs_raw_events(&*app, &samples, words);
                assert_eq!(raw.as_ref().map(raw_events), oracle, "{app_kind:?}");
            }
        }
    }

    /// One step of a [`BatchFaultPlanes`] build: a whole generated lane
    /// (optionally scrambled), one stuck cell, or a re-arm.
    #[derive(Clone, Debug)]
    enum PlaneStep {
        AddLane(usize, u64, bool),
        Inject(usize, usize, u32, bool),
        Clear,
    }

    fn plane_steps() -> impl proptest::prelude::Strategy<Value = Vec<PlaneStep>> {
        use proptest::prelude::Strategy;
        proptest::prop::collection::vec(
            (
                0u8..8,
                0usize..MAX_LANES,
                proptest::any::<u64>(),
                0usize..SCRIPT_WORDS,
                0u32..22,
                proptest::any::<bool>(),
            )
                .prop_map(|(kind, lane, seed, addr, bit, one)| match kind {
                    0..=2 => PlaneStep::AddLane(lane, seed, one),
                    3..=6 => PlaneStep::Inject(lane, addr, bit, one),
                    _ => PlaneStep::Clear,
                }),
            0..24,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(property_cases()))]

        #[test]
        fn flat_recorder_matches_the_epochs_recorder(
            init in proptest::prop::collection::vec(-3i16..=3, SCRIPT_WORDS),
            script in script_ops(),
            restore in (0usize..SCRIPT_WORDS, -3i16..=3),
            skip_init in proptest::any::<bool>(),
        ) {
            // The same events, in the same order, with the same counts;
            // and both reject a read before a write (scripts without
            // their initial block write may read a virgin word).
            let mut app = scripted_app(init, script, restore);
            if skip_init {
                app.stages[0].remove(0);
            }
            // Wider than the app: the tail addresses are never read.
            let words = SCRIPT_WORDS + 5;
            let raw = RawTrace::record(&app, &[], words);
            let oracle = epochs_raw_events(&app, &[], words);
            proptest::prop_assert_eq!(raw.as_ref().map(raw_events), oracle);
            if let Some(raw) = raw {
                proptest::prop_assert_eq!(raw.offsets.len(), words + 1);
                proptest::prop_assert_eq!(raw.events.len(), app.read_pairs().len());
            }
        }

        #[test]
        fn sparse_raw_replay_matches_a_full_scan(
            init in proptest::prop::collection::vec(-3i16..=3, SCRIPT_WORDS),
            script in script_ops(),
            restore in (0usize..SCRIPT_WORDS, -3i16..=3),
            steps in plane_steps(),
            masks in (proptest::any::<u64>(), proptest::any::<u64>()),
        ) {
            // Planes built by any interleaving of `add_lane`, `inject` and
            // `clear` (on a geometry wider than the trace, so some faults
            // lie past its last address) replay the raw trace exactly as a
            // scan of every event does: the same alive and evicted lanes
            // and every lane's statistics, for two masked sub-groups.
            let app = scripted_app(init, script, restore);
            let raw = RawTrace::record(&app, &[], app.memory_words())
                .expect("the script writes every word first");
            let words = 2 * SCRIPT_WORDS;
            let mut planes = BatchFaultPlanes::new(words, 22);
            for step in steps {
                match step {
                    PlaneStep::AddLane(lane, seed, scramble) => {
                        let map = FaultMap::generate(words, 22, 0.01, seed);
                        let scrambler = scramble.then(|| dream_mem::AddressScrambler::new(words, seed));
                        planes.add_lane(lane, &map, scrambler.as_ref());
                    }
                    PlaneStep::Inject(lane, addr, bit, one) => {
                        let stuck = if one { StuckAt::One } else { StuckAt::Zero };
                        planes.inject(lane, addr, bit, stuck);
                    }
                    PlaneStep::Clear => planes.clear(),
                }
            }
            let lanes = planes.lanes().max(1);
            let all = u64::MAX >> (MAX_LANES - lanes);
            let (replayed, split) = masks;
            let masks = [replayed & split & all, replayed & !split & all];
            for kind in EmtKind::all() {
                let mem = EmtMemory::new(kind, banked_geometry(words));
                let mut sparse = TrialBatch::new(lanes);
                let mut full = TrialBatch::new(lanes);
                for mask in masks {
                    mem.replay_raw_trace(&raw, &planes, &mut sparse, mask);
                    match &mem {
                        EmtMemory::None(m) => replay_full_scan(&raw, m.codec(), &planes, &mut full, mask),
                        EmtMemory::Parity(m) => replay_full_scan(&raw, m.codec(), &planes, &mut full, mask),
                        EmtMemory::Dream(m) => replay_full_scan(&raw, m.codec(), &planes, &mut full, mask),
                        EmtMemory::Ecc(m) => replay_full_scan(&raw, m.codec(), &planes, &mut full, mask),
                    }
                }
                proptest::prop_assert_eq!(sparse.alive(), full.alive(), "{}", kind);
                proptest::prop_assert_eq!(sparse.evicted(), full.evicted(), "{}", kind);
                for lane in 0..lanes {
                    proptest::prop_assert_eq!(
                        sparse.lane_stats(lane, &raw.stats()),
                        full.lane_stats(lane, &raw.stats()),
                        "{} lane {}", kind, lane
                    );
                }
            }
        }

        #[test]
        fn flat_recorders_match_for_arbitrary_scripts(
            init in proptest::prop::collection::vec(-3i16..=3, SCRIPT_WORDS),
            script in script_ops(),
            restore in (0usize..SCRIPT_WORDS, -3i16..=3),
        ) {
            // The derived trace of any script equals its direct recording
            // re-sorted by address, for every EMT, and holds exactly one
            // event per distinct (address, word) read.
            let app = scripted_app(init, script, restore);
            let geometry = banked_geometry(SCRIPT_WORDS);
            let raw = RawTrace::record(&app, &[], geometry.words())
                .expect("the script writes every word first");
            let pairs = app.read_pairs().len();
            proptest::prop_assert_eq!(raw.events.len(), pairs);
            for kind in EmtKind::all() {
                let mut mem = EmtMemory::new(kind, geometry);
                mem.reset_with_fault_map(&FaultMap::empty(geometry.words(), 22));
                let direct = mem.record_trace(&app, &[]);
                let derived = mem.derive_trace(&raw);
                let mut by_address = direct.events.clone();
                by_address.sort_by_key(|e| e.addr);
                for e in &mut by_address {
                    e.stage = 0;
                }
                proptest::prop_assert_eq!(&derived.events, &by_address, "{}: events", kind);
                proptest::prop_assert_eq!(direct.events(), pairs, "{}: event count", kind);
                proptest::prop_assert_eq!(&derived.output, &direct.output, "{}: output", kind);
                proptest::prop_assert_eq!(derived.stats(), direct.stats(), "{}: stats", kind);
            }
        }

        #[test]
        fn raw_replay_matches_direct_replay(
            init in proptest::prop::collection::vec(-3i16..=3, SCRIPT_WORDS),
            script in script_ops(),
            restore in (0usize..SCRIPT_WORDS, -3i16..=3),
            lanes in 1usize..=MAX_LANES,
            stuck in proptest::prop::collection::vec(
                (0usize..MAX_LANES, 0usize..SCRIPT_WORDS, 0u32..22, proptest::any::<bool>()),
                0..48,
            ),
            masks in (proptest::any::<u64>(), proptest::any::<u64>()),
        ) {
            // Replaying the shared raw trace under an EMT leaves the batch
            // a replay of that EMT's own recording leaves: against the
            // direct (stage-ordered) recording, the same alive and evicted
            // lanes and survivor statistics; and against the derived
            // trace, whose events come in the raw trace's order, the same
            // batch down to every lane's statistics. The lanes replay as two masked sub-groups, like
            // lanes that drew two records, and some lanes may replay none.
            let app = scripted_app(init, script, restore);
            let geometry = banked_geometry(SCRIPT_WORDS);
            let raw = RawTrace::record(&app, &[], app.memory_words())
                .expect("the script writes every word first");
            let mut planes = BatchFaultPlanes::new(geometry.words(), 22);
            for (lane, addr, bit, one) in stuck {
                let stuck = if one { StuckAt::One } else { StuckAt::Zero };
                planes.inject(lane % lanes, addr, bit, stuck);
            }
            let all = u64::MAX >> (MAX_LANES - lanes);
            let (replayed, split) = masks;
            let masks = [replayed & split & all, replayed & !split & all];
            for kind in EmtKind::all() {
                let mut mem = EmtMemory::new(kind, geometry);
                mem.reset_with_fault_map(&FaultMap::empty(geometry.words(), 22));
                let direct = mem.record_trace(&app, &[]);
                let derived = mem.derive_trace(&raw);
                let replay = |own: &CleanTrace| {
                    let mut from_raw = TrialBatch::new(lanes);
                    let mut from_own = TrialBatch::new(lanes);
                    for mask in masks {
                        mem.replay_raw_trace(&raw, &planes, &mut from_raw, mask);
                        mem.replay_trace(own, &planes, &mut from_own, mask);
                    }
                    (from_raw, from_own)
                };
                let (from_raw, from_direct) = replay(&direct);
                proptest::prop_assert_eq!(from_raw.alive(), from_direct.alive(), "{}", kind);
                proptest::prop_assert_eq!(from_raw.evicted(), from_direct.evicted(), "{}", kind);
                proptest::prop_assert_eq!(raw.stats(), direct.stats(), "{}: clean stats", kind);
                for lane in (0..lanes).filter(|&l| from_raw.is_alive(l)) {
                    proptest::prop_assert_eq!(
                        from_raw.lane_stats(lane, &raw.stats()),
                        from_direct.lane_stats(lane, &direct.stats()),
                        "{} lane {}", kind, lane
                    );
                }
                let (from_raw, from_derived) = replay(&derived);
                proptest::prop_assert_eq!(from_raw.alive(), from_derived.alive(), "{}", kind);
                proptest::prop_assert_eq!(from_raw.evicted(), from_derived.evicted(), "{}", kind);
                for lane in 0..lanes {
                    proptest::prop_assert_eq!(
                        from_raw.lane_stats(lane, &raw.stats()),
                        from_derived.lane_stats(lane, &derived.stats()),
                        "{} lane {}", kind, lane
                    );
                }
            }
        }
    }

    #[test]
    fn record_suite_is_a_prefix_of_the_full_suite() {
        // Only the records a campaign draws are synthesized; each is
        // seeded by its id, so any prefix equals the full suite truncated.
        for scale in [0.0, 1.0, 4.0] {
            let model = dream_ecg::NoiseModel::date16().scaled(scale);
            let full = Database::date16_suite_with_noise(64, &model);
            for n in 0..=12 {
                let expected = &full[..n.min(full.len())];
                assert_eq!(
                    record_suite_with_noise(64, n, scale),
                    expected,
                    "{n} records at noise scale {scale}"
                );
            }
        }
    }

    #[test]
    fn emt_memory_matches_facade_memory() {
        // The monomorphized arena wrapper must be observationally
        // identical to the AnyCodec facade on the same fault map.
        let app = dream_dsp::AppKind::Dwt.instantiate(256);
        let geometry = banked_geometry(app.memory_words());
        let map = dream_mem::FaultMap::generate(geometry.words(), 22, 0.003, 5);
        let record: Vec<i16> = (0..256).map(|i| (i * 97 - 11_000) as i16).collect();
        for kind in EmtKind::all() {
            let mut typed = EmtMemory::new(kind, geometry);
            typed.reset_with_fault_map(&map);
            let typed_out = typed.run_app(&*app, &record);
            let mut facade = ProtectedMemory::with_fault_map(kind, geometry, &map);
            let facade_out = {
                let mut storage = ProtectedStorage::new(&mut facade);
                app.run(&record, &mut storage)
            };
            assert_eq!(typed_out, facade_out, "{kind}");
            assert_eq!(typed.stats(), facade.stats(), "{kind}");
        }
    }
}
