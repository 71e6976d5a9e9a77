//! Shared campaign plumbing: seeds, storage adapters, SNR conventions,
//! and the geometry/record-suite selection every figure runner shares.

use dream_core::{
    AccessStats, AnyCodec, DecodeOutcome, Dream, EccSecDed, EmtCodec, EmtKind, EvenParity,
    NoProtection, ProtectedMemory, TrialBatch,
};
use dream_dsp::{BiomedicalApp, WordStorage};
use dream_ecg::{Database, Record};
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
    let model = dream_ecg::NoiseModel::date16().scaled(noise_scale);
    (Database::FIRST_ID..)
        .take(max_records.min(Database::SUITE_SIZE))
        .map(|id| Database::record_with_noise(id, window, &model))
        .collect()
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
/// A directly recorded trace orders its events by (first-read stage,
/// address, epoch). A stuck cell decodes every read of one event
/// identically, so the first event that evicts a lane carries the
/// earliest stage at which the lane read a diverging word: every read of
/// the stages before it returned the clean word. Such a trace also keeps
/// a stage log (per-stage read offsets and the pass's writes), which lets
/// an evicted lane resume at that stage instead of re-running the clean
/// prefix ([`EmtMemory::run_app_resumed`]). A trace derived from a
/// [`RawTrace`] for the draw family, which replays evicted lanes from
/// stage 0, keeps neither: its events stay in (address, epoch) order,
/// which replays faster under many-fault planes.
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
    /// plane transposition and bail-out budget.
    ///
    /// Returns, per lane, the stage of the event at which the lane left
    /// the batch (evicted or bailed); entries of lanes still alive are 0.
    /// On a directly recorded (stage-ordered) trace that is the earliest
    /// stage the lane can resume at.
    fn replay<C: EmtCodec + ?Sized>(
        &self,
        codec: &C,
        planes: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) -> [u16; MAX_LANES] {
        let width = codec.code_width() as usize;
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
            planes.overlay(e.addr as usize, e.code, &mut word_planes[..width]);
            let d = codec.decode_batch(&word_planes[..width], e.side);
            let clean_word = e.word as u16;
            let mut diverged = 0u64;
            for (i, &plane) in d.data.iter().enumerate() {
                let clean_plane = 0u64.wrapping_sub(u64::from(clean_word >> i & 1));
                diverged |= plane ^ clean_plane;
            }
            batch.record_read(
                active,
                diverged,
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

/// One aggregated read event of a raw (codec-agnostic) clean pass: while
/// the *logical word* at `addr` was `word`, the pass read the address
/// `count` times.
#[derive(Clone, Copy, Debug)]
struct RawEvent {
    addr: u32,
    word: i16,
    count: u64,
}

/// A codec-agnostic clean pass: the application run over plain word
/// storage, with every `(address, stored word)` epoch a read observed.
///
/// On fault-free memory every codec round-trips written words exactly
/// (`decode(encode(w)) == (w, Clean)` — pinned by the exhaustive codec
/// tests), so the application's clean dynamics do not depend on the EMT:
/// one raw recording per (app, record) yields the [`CleanTrace`] of
/// *every* EMT via [`EmtMemory::derive_trace`], re-encoding each distinct word
/// instead of re-running the application four times.
///
/// The one case where dynamics *would* diverge is a read of a
/// never-written address: after [`ProtectedMemory::reset_with_fault_map`]
/// those hold raw code 0 / side 0, and `decode(0, 0)` is codec-dependent
/// (Dream's is not word 0). [`RawTrace::record`] detects any
/// read-before-write and returns `None`, making the caller fall back to
/// per-EMT [`EmtMemory::record_trace`] — exactness is never assumed.
///
/// Recording is flat: a read only bumps its address's pending count (a
/// block read, one pass over a slice), and the count is folded into one
/// `Epochs` list when the address is next written or the pass ends. No
/// allocation is made per address, and one counting sort puts the events
/// in (address, epoch) order at the end.
pub struct RawTrace {
    events: Vec<RawEvent>,
    output: Vec<i16>,
    reads: u64,
    writes: u64,
}

impl RawTrace {
    /// Runs `app` over `input` on plain zeroed storage of `words` words,
    /// recording word epochs per address. Returns `None` if the app read
    /// an address before writing it (see the type docs).
    pub fn record(app: &dyn BiomedicalApp, input: &[i16], words: usize) -> Option<RawTrace> {
        struct Recorder {
            values: Vec<i16>,
            written: Vec<bool>,
            // Reads of each address's current word not yet folded into
            // its epoch event: a read is one increment, and a block read
            // one pass over a slice.
            pending: Vec<u64>,
            epochs: Epochs<RawEvent>,
            reads: u64,
            writes: u64,
            premature: bool,
        }
        impl Recorder {
            /// Folds the pending reads of `addr` into the event of its
            /// current word; called before the word changes, and once for
            /// every address at the end.
            #[inline]
            fn settle(&mut self, addr: usize) {
                let reads = std::mem::take(&mut self.pending[addr]);
                if reads == 0 {
                    return;
                }
                self.premature |= !self.written[addr];
                let word = self.values[addr];
                let fresh = || RawEvent {
                    addr: addr as u32,
                    word,
                    count: 0,
                };
                let i = self.epochs.find_or_push(addr, |e| e.word == word, fresh);
                self.epochs.events[i].count += reads;
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
                self.settle(addr);
                self.written[addr] = true;
                self.values[addr] = value;
            }

            fn write_block(&mut self, base: usize, data: &[i16]) {
                let range = base..base + data.len();
                self.writes += data.len() as u64;
                for addr in range.clone() {
                    self.settle(addr);
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
            epochs: Epochs::new(words),
            reads: 0,
            writes: 0,
            premature: false,
        };
        let output = app.run(input, &mut recorder);
        for addr in 0..words {
            recorder.settle(addr);
        }
        if recorder.premature {
            return None;
        }
        Some(RawTrace {
            events: recorder.epochs.by_address(|e| e.addr as usize),
            output,
            reads: recorder.reads,
            writes: recorder.writes,
        })
    }

    /// The raw pass's output samples — identical to every EMT's clean
    /// output (word round-tripping again), so reference SNRs can be
    /// computed once per (app, record).
    pub fn output(&self) -> &[i16] {
        &self.output
    }
}

impl CleanTrace {
    /// Materializes the [`CleanTrace`] a direct [`CleanTrace::record`] on
    /// `codec`'s memory would have produced, from one codec-agnostic
    /// [`RawTrace`]: each event's word is encoded, and decoded for its
    /// clean outcome, in place (a few table operations each). The
    /// events stay in the raw pass's (address, epoch) order, carry no
    /// stage (0), and no [`StageLog`] is kept (see the [`CleanTrace`]
    /// docs).
    fn derive<C: EmtCodec>(codec: &C, raw: &RawTrace) -> CleanTrace {
        let mut corrected = 0u64;
        let mut uncorrectable = 0u64;
        let events = raw
            .events
            .iter()
            .map(|e| {
                let enc = codec.encode(e.word);
                let d = codec.decode(enc.code, enc.side);
                debug_assert_eq!(d.word, e.word, "codec does not round-trip {}", e.word);
                match d.outcome {
                    DecodeOutcome::Corrected => corrected += e.count,
                    DecodeOutcome::DetectedUncorrectable => uncorrectable += e.count,
                    DecodeOutcome::Clean => {}
                }
                TraceEvent {
                    addr: e.addr,
                    code: enc.code,
                    side: enc.side,
                    word: e.word,
                    outcome: d.outcome,
                    stage: 0,
                    count: e.count,
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

    /// [`EmtMemory::replay_trace`] that also reports, per lane, the stage
    /// at which each evicted or bailed lane left the batch: every read of
    /// the stages before it returned the clean word, so the lane can
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
    use dream_mem::MemGeometry;

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
        // skips a stage that read a corrupted word. Bailed lanes resume at
        // the stage of the bail instead.
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
                for fraction in [0.0, 0.5] {
                    let mut batch = TrialBatch::with_bailout(lanes, fraction);
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn flat_recorders_match_for_arbitrary_scripts(
            init in proptest::prop::collection::vec(-3i16..=3, SCRIPT_WORDS),
            script in proptest::prop::collection::vec(
                (
                    0u8..4,
                    0usize..SCRIPT_WORDS,
                    proptest::prop::collection::vec(-3i16..=3, 1..6),
                    0usize..3,
                ),
                0..60,
            ),
            restore in (0usize..SCRIPT_WORDS, -3i16..=3),
        ) {
            // The derived trace of any script equals its direct recording
            // re-sorted by address, for every EMT, and holds exactly one
            // event per distinct (address, word) read. Values come from a
            // tiny alphabet, so addresses often get an earlier word back;
            // the fixed tail below always does.
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
            let app = Scripted {
                words: SCRIPT_WORDS,
                stages,
            };
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
