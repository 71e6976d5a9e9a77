//! The scenario engine: compiles a [`Scenario`] into flattened trial
//! descriptors, executes them on the [`crate::exec`] work list, aggregates
//! per-point statistics, and streams result rows to a [`Sink`] as each
//! grid point completes.
//!
//! The draw family (fig4, burst-sweep, bank-voltage, tradeoff and the
//! noise sweep) runs through one function, `draw_sweep`: the lane
//! groups of *all* points of a sweep form one work list on
//! [`crate::exec::stream_trials`], with no barrier between points, and
//! each point's rows are emitted as its last group arrives in order.
//!
//! Determinism contract: every number depends only on the spec (seeds
//! derive from [`crate::campaign::fault_seed`] over descriptor indices,
//! reductions happen in trial order after the executor's in-order
//! delivery), so output is bit-identical at any thread count — the golden
//! differential test pins the five paper presets against the pre-refactor
//! runners.

use std::io;

use dream_core::{AccessStats, EmtKind, TrialBatch};
use dream_dsp::{AppKind, BiomedicalApp, SnrReference};
use dream_ecg::Record;
use dream_energy::EnergyBreakdown;
use dream_mem::{
    AddressScrambler, BatchFaultPlanes, BerModel, FaultMap, FaultModel, MemGeometry, StuckAt,
    MAX_LANES,
};
use dream_soc::{Soc, SocConfig};

use crate::ablation;
use crate::campaign::{
    banked_geometry, cap_snr, fault_seed, record_suite_with_noise, reference_outputs_on,
    suite_record, CleanTrace, EmtMemory, RawTrace,
};
use crate::energy_table::EnergyRow;
use crate::exec::{self, CancelToken, ExecConfig};
use crate::report::Sink;
use crate::telemetry;
use crate::tradeoff::{explore, TradeoffPolicy};

use super::spec::{Grid, Kind, Scenario, SpecError};

/// Width of the shared fault maps in multi-EMT sweeps: covers the widest
/// codeword (ECC's 22 bits) so one map serves every technique (§V).
const SHARED_MAP_WIDTH: u32 = 22;

/// One row of a bit-position injection sweep (the Fig. 2 family,
/// generalized over protection techniques).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectionRow {
    /// Application under test.
    pub app: AppKind,
    /// Protection scheme.
    pub emt: EmtKind,
    /// Polarity of the injected fault.
    pub stuck: StuckAt,
    /// Stuck bit position.
    pub bit: u32,
    /// Mean output SNR over records × trials (dB).
    pub snr_db: f64,
}

/// One point of one curve in Fig. 4: one (voltage, EMT, app) cell of a
/// voltage sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig4Point {
    /// Application under test.
    pub app: AppKind,
    /// Protection scheme.
    pub emt: EmtKind,
    /// Data-memory supply voltage (V).
    pub voltage: f64,
    /// Mean output SNR over the runs (dB, averaged in dB as the paper
    /// does).
    pub mean_snr_db: f64,
    /// Worst run (dB).
    pub min_snr_db: f64,
    /// Mean fraction of reads the decoder flagged uncorrectable.
    pub uncorrectable_rate: f64,
    /// Mean fraction of reads the decoder corrected.
    pub corrected_rate: f64,
}

/// One row of a noise sweep: one (noise scale, EMT, app) cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoisePoint {
    /// Input-noise amplitude multiplier (1.0 = standard suite).
    pub scale: f64,
    /// Protection scheme.
    pub emt: EmtKind,
    /// Application under test.
    pub app: AppKind,
    /// Mean output SNR over the runs (dB).
    pub mean_snr_db: f64,
    /// Worst run (dB).
    pub min_snr_db: f64,
    /// Mean fraction of reads the decoder corrected.
    pub corrected_rate: f64,
    /// Mean fraction of reads flagged uncorrectable.
    pub uncorrectable_rate: f64,
}

/// One row of a memory-size energy sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeometryEnergyRow {
    /// Data-memory size (16-bit words).
    pub words: usize,
    /// Protection scheme.
    pub emt: EmtKind,
    /// Energy of one application run at the sweep voltage.
    pub energy: EnergyBreakdown,
    /// Fractional overhead versus no protection at the same size.
    pub overhead_vs_none: f64,
}

/// One row of the ablation bundle (study × x × series × value, all
/// pre-formatted — the four studies have heterogeneous shapes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AblationRow {
    /// Which study the row belongs to.
    pub study: &'static str,
    /// The study's x-coordinate (bit count, run index, voltage …).
    pub x: String,
    /// The series within the study.
    pub series: String,
    /// The measured value.
    pub value: String,
}

/// Typed result payload of a scenario run — the row-typed
/// post-processing ([`cs_tolerance`], [`crate::tradeoff::curve`], policy
/// pricing) consumes these.
#[derive(Clone, Debug, PartialEq)]
pub enum OutcomeData {
    /// Bit-position sweeps (Fig. 2 family).
    Injection(Vec<InjectionRow>),
    /// Voltage sweeps (Fig. 4 family).
    Fig4(Vec<Fig4Point>),
    /// Noise sweeps.
    Noise(Vec<NoisePoint>),
    /// Voltage energy tables (§VI-B).
    Energy(Vec<EnergyRow>),
    /// Memory-size energy sweeps.
    Geometry(Vec<GeometryEnergyRow>),
    /// §VI-C policies.
    Tradeoff(Vec<TradeoffPolicy>),
    /// The ablation bundle.
    Ablation(Vec<AblationRow>),
}

/// A completed scenario: the spec it ran, the sink-level row view, and the
/// typed payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioOutcome {
    /// The executed spec.
    pub scenario: Scenario,
    /// Column headers of the row view.
    pub headers: Vec<&'static str>,
    /// Sink-level rows (the exact cells every sink format received).
    pub rows: Vec<Vec<String>>,
    /// Typed payload.
    pub data: OutcomeData,
}

/// An engine failure: a bad spec, a sink I/O error, or a cancellation.
#[derive(Debug)]
pub enum EngineError {
    /// The spec failed validation.
    Spec(SpecError),
    /// A sink write failed.
    Io(io::Error),
    /// The campaign's [`CancelToken`] fired before it completed. Any rows
    /// already streamed form a deterministic prefix of the full output —
    /// resume by keeping its whole grid units and running the rest
    /// ([`ShardPlan::resume`](super::ShardPlan::resume)).
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Spec(e) => e.fmt(f),
            EngineError::Io(e) => write!(f, "sink error: {e}"),
            EngineError::Cancelled => f.write_str("campaign cancelled"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<exec::Cancelled> for EngineError {
    fn from(_: exec::Cancelled) -> Self {
        EngineError::Cancelled
    }
}

/// Returns [`EngineError::Cancelled`] once `cancel` has fired — the
/// coarse-grained check the non-`run_trials` stretches of a campaign
/// (campaign start, ablation study boundaries) poll between units of work.
fn ensure_live(cancel: Option<&CancelToken>) -> Result<(), EngineError> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(EngineError::Cancelled);
    }
    Ok(())
}

/// The engine's single entry point: validates, dispatches by
/// (kind, grid) family, streams rows to `sink`, and polls `cancel`
/// cooperatively, executing every trial under `cfg`. Public API surface
/// is `scenario::CampaignRunner`, which resolves `cfg` and adds progress
/// instrumentation on top.
pub(crate) fn run_campaign(
    sc: &Scenario,
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    sc.validate()?;
    ensure_live(cancel)?;
    match (&sc.kind, &sc.grid) {
        (Kind::SnrSweep, Grid::BitPosition(bits)) => run_injection(sc, bits, sink, cfg, cancel),
        (Kind::SnrSweep, Grid::Voltage(vs)) => run_voltage(sc, vs, sink, cfg, cancel),
        (Kind::SnrSweep, Grid::NoiseScale(scales)) => run_noise(sc, scales, sink, cfg, cancel),
        (Kind::EnergySweep, Grid::Voltage(vs)) => run_energy(sc, vs, sink, cfg, cancel),
        (Kind::EnergySweep, Grid::MemoryWords(words)) => run_geometry(sc, words, sink, cfg, cancel),
        (Kind::Tradeoff, Grid::Voltage(vs)) => run_tradeoff(sc, vs, sink, cfg, cancel),
        (Kind::Ablation, Grid::Voltage(vs)) => run_ablation(sc, vs, sink, cfg, cancel),
        _ => unreachable!("validate() rejects incompatible kind/grid pairs"),
    }
}

// ---------------------------------------------------------------------------
// Fig. 2 family: single-cell stuck-at injections over a bit-position grid.
// ---------------------------------------------------------------------------

fn injection_headers(sc: &Scenario) -> Vec<&'static str> {
    if sc.emts.len() > 1 {
        vec!["app", "emt", "stuck", "bit", "snr_db"]
    } else {
        // Single-technique sweeps (the paper's Fig. 2 is unprotected)
        // keep the historical four-column layout byte for byte.
        vec!["app", "stuck", "bit", "snr_db"]
    }
}

fn injection_render(sc: &Scenario, row: &InjectionRow) -> Vec<String> {
    let mut cells = vec![row.app.to_string()];
    if sc.emts.len() > 1 {
        cells.push(row.emt.to_string());
    }
    cells.push(format!("{:?}", row.stuck));
    cells.push(row.bit.to_string());
    cells.push(format!("{:.3}", row.snr_db));
    cells
}

/// One flattened trial of an injection sweep: its grid coordinates plus
/// the Monte-Carlo indices that seed the fault location.
#[derive(Clone, Copy)]
struct InjectionTrial {
    stuck: StuckAt,
    bit: u32,
    record: usize,
    trial: usize,
}

/// Bit-sliced execution of one (app, EMT) injection batch: trials sharing
/// a record ride one clean pass in lanes of up to [`MAX_LANES`]; lanes
/// whose decode ever diverges from the clean word are finished on the
/// scalar path, resumed at the stage where they left the clean pass, so
/// the returned SNR vector (in `trials` order) is bit-identical to the
/// scalar branch by construction.
#[allow(clippy::too_many_arguments)]
fn injection_snrs_batched(
    sc: &Scenario,
    trials: &[InjectionTrial],
    app: &dyn BiomedicalApp,
    emt: EmtKind,
    width: u32,
    records: &[Record],
    references: &[SnrReference],
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, exec::Cancelled> {
    let words = app.memory_words();
    let geometry = banked_geometry(words);
    // One clean pass per record, shared by every lane group of this
    // (app, EMT): groups replay the trace instead of re-running the app.
    let passes: Vec<CleanPass> = {
        let mut mem = EmtMemory::new(emt, geometry);
        let map = FaultMap::empty(geometry.words(), width);
        records
            .iter()
            .zip(references)
            .map(|(record, reference)| {
                mem.reset_with_fault_map(&map);
                let trace = mem.record_trace(app, &record.samples);
                let snr = cap_snr(reference.snr_db(trace.output()));
                telemetry::record_trace();
                CleanPass { trace, snr }
            })
            .collect()
    };
    // Lanes must share their clean pass, so group by record and chunk to
    // the lane budget. Scheduling granularity changes; values don't.
    let mut by_record: Vec<Vec<(usize, InjectionTrial)>> = vec![Vec::new(); records.len()];
    for (i, t) in trials.iter().enumerate() {
        by_record[t.record].push((i, *t));
    }
    let groups: Vec<Vec<(usize, InjectionTrial)>> = by_record
        .iter()
        .flat_map(|lanes| lanes.chunks(MAX_LANES).map(<[_]>::to_vec))
        .collect();
    let scratch = || {
        let mem = EmtMemory::new(emt, geometry);
        let map = FaultMap::empty(geometry.words(), width);
        let planes = BatchFaultPlanes::new(geometry.words(), width);
        (mem, map, planes)
    };
    let per_group = exec::run_trials_cancellable(
        cfg.threads,
        &groups,
        scratch,
        |(mem, map, planes), group, _| {
            let record = group[0].1.record;
            planes.clear();
            for (lane, (_, t)) in group.iter().enumerate() {
                // Same location derivation as the scalar path below.
                let seed = fault_seed(sc.seed, t.record, t.trial);
                let word = (seed % words as u64) as usize;
                planes.inject(lane, word, t.bit, t.stuck);
            }
            let pass = &passes[record];
            let mut batch = TrialBatch::new(group.len());
            let left_at = mem.replay_trace_staged(&pass.trace, planes, &mut batch, u64::MAX);
            let clean_snr = pass.snr;
            telemetry::record_batch_pass(group.len(), batch.evicted().count_ones());
            group
                .iter()
                .enumerate()
                .map(|(lane, &(i, t))| {
                    let snr = if batch.is_alive(lane) {
                        // Survivor: its trace is the clean trace.
                        clean_snr
                    } else {
                        // Every read before the stage the lane left at
                        // decoded clean, so it resumes there (rows carry
                        // only the SNR, which depends on the output alone).
                        let seed = fault_seed(sc.seed, t.record, t.trial);
                        let word = (seed % words as u64) as usize;
                        map.clear();
                        map.inject(word, t.bit, t.stuck);
                        mem.reset_with_fault_map(map);
                        let stage = usize::from(left_at[lane]);
                        telemetry::record_resume(
                            stage,
                            pass.trace.reads_before(stage),
                            pass.trace.stats().reads,
                        );
                        let out =
                            mem.run_app_resumed(app, &records[record].samples, &pass.trace, stage);
                        cap_snr(references[record].snr_db(&out))
                    };
                    (i, snr)
                })
                .collect::<Vec<_>>()
        },
        cancel,
    )?;
    let mut snrs = vec![0.0f64; trials.len()];
    for (i, snr) in per_group.into_iter().flatten() {
        snrs[i] = snr;
    }
    Ok(snrs)
}

fn run_injection(
    sc: &Scenario,
    bits: &[u32],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    let records = record_suite_with_noise(sc.window, sc.effective_records(), sc.noise_scale);
    let headers = injection_headers(sc);
    sink.begin(&headers)?;

    let mut typed = Vec::new();
    let mut rendered = Vec::new();
    for &app_kind in &sc.apps {
        // One instance serves the references, the recordings and every
        // worker: apps are `Sync`, and all run state lives in the memory.
        let app = app_kind.instantiate(sc.window);
        let app = &*app;
        let words = app.memory_words();
        let references: Vec<SnrReference> = reference_outputs_on(cfg.threads, app, &records)
            .into_iter()
            .map(SnrReference::new)
            .collect();
        for &emt in &sc.emts {
            // One batch per (app, EMT): the historical Fig. 2 nested-loop
            // order, flattened.
            let mut trials = Vec::new();
            for stuck in [StuckAt::Zero, StuckAt::One] {
                for &bit in bits {
                    for record in 0..records.len() {
                        for trial in 0..sc.trials {
                            trials.push(InjectionTrial {
                                stuck,
                                bit,
                                record,
                                trial,
                            });
                        }
                    }
                }
            }
            // Unprotected sweeps keep the historical 16-bit map; mixed-EMT
            // sweeps inject into the shared 22-bit codeword space.
            let width = if emt == EmtKind::None {
                16
            } else {
                SHARED_MAP_WIDTH
            };
            let snrs = if cfg.batch {
                injection_snrs_batched(
                    sc,
                    &trials,
                    app,
                    emt,
                    width,
                    &records,
                    &references,
                    cfg,
                    cancel,
                )?
            } else {
                let scratch = || {
                    let geometry = banked_geometry(words);
                    let mem = EmtMemory::new(emt, geometry);
                    let map = FaultMap::empty(geometry.words(), width);
                    (mem, map)
                };
                exec::run_trials_cancellable(
                    cfg.threads,
                    &trials,
                    scratch,
                    |(mem, map), t, _| {
                        // One faulty cell at a deterministic pseudo-random
                        // location in the app's buffer footprint. The location
                        // depends only on (record, trial) — not on the bit or
                        // polarity — so the bit axis is a paired comparison, as
                        // when profiling one physical die.
                        let seed = fault_seed(sc.seed, t.record, t.trial);
                        let word = (seed % words as u64) as usize;
                        map.clear();
                        map.inject(word, t.bit, t.stuck);
                        mem.reset_with_fault_map(map);
                        let out = mem.run_app(app, &records[t.record].samples);
                        cap_snr(references[t.record].snr_db(&out))
                    },
                    cancel,
                )?
            };
            // Per-point averages, each over its contiguous chunk in trial
            // order (bit-exact with the historical serial reduction).
            let runs_per_point = records.len() * sc.trials;
            let mut batch = Vec::new();
            let mut next = 0usize;
            for stuck in [StuckAt::Zero, StuckAt::One] {
                for &bit in bits {
                    let point = &snrs[next..next + runs_per_point];
                    next += runs_per_point;
                    let row = InjectionRow {
                        app: app_kind,
                        emt,
                        stuck,
                        bit,
                        snr_db: point.iter().sum::<f64>() / runs_per_point as f64,
                    };
                    batch.push(injection_render(sc, &row));
                    typed.push(row);
                }
            }
            sink.emit(&batch)?;
            rendered.extend(batch);
        }
    }
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers,
        rows: rendered,
        data: OutcomeData::Injection(typed),
    })
}

/// The §III claim for compressed sensing, read off the unprotected rows
/// of an injection sweep: the highest bit position whose injected fault
/// still leaves the output above `threshold_db` (35 dB for multi-lead ECG
/// reconstruction, 40 dB for single-lead).
///
/// Returns `(stuck_at_0_limit, stuck_at_1_limit)`; `None` means even the
/// LSB violates the threshold.
pub fn cs_tolerance(rows: &[InjectionRow], threshold_db: f64) -> (Option<u32>, Option<u32>) {
    let limit = |stuck: StuckAt| {
        let mut curve: Vec<(u32, f64)> = rows
            .iter()
            .filter(|r| {
                r.app == AppKind::CompressedSensing && r.emt == EmtKind::None && r.stuck == stuck
            })
            .map(|r| (r.bit, r.snr_db))
            .collect();
        curve.sort_by_key(|&(bit, _)| bit);
        // The paper's phrasing is a contiguous range "from 0 to N": walk up
        // from the LSB and stop at the first violating position.
        let mut best = None;
        for (bit, snr) in curve {
            if snr >= threshold_db {
                best = Some(bit);
            } else {
                break;
            }
        }
        best
    };
    (limit(StuckAt::Zero), limit(StuckAt::One))
}

// ---------------------------------------------------------------------------
// Fig. 4 family: Monte-Carlo fault-map draws shared across EMTs × apps.
// ---------------------------------------------------------------------------

/// Per-trial observation of one (EMT, app) cell.
struct Cell {
    snr_db: f64,
    uncorrectable: f64,
    corrected: f64,
}

impl Cell {
    /// A trial's cell: its SNR and the read-outcome rates of its access
    /// counts (0 for a trial that read nothing).
    fn observed(snr_db: f64, stats: AccessStats) -> Cell {
        let (uncorrectable, corrected) = if stats.reads > 0 {
            (
                stats.uncorrectable_reads as f64 / stats.reads as f64,
                stats.corrected_reads as f64 / stats.reads as f64,
            )
        } else {
            (0.0, 0.0)
        };
        Cell {
            snr_db,
            uncorrectable,
            corrected,
        }
    }
}

/// One memoized clean pass: an aggregated read trace on fault-free
/// memory, plus its capped reference SNR.
///
/// The clean pass depends on none of a grid point's knobs — not the
/// voltage, not the fault model, not the trial index — so a campaign
/// records it once and every batched group replays the trace instead of
/// re-running the application.
struct CleanPass<T = CleanTrace> {
    trace: T,
    snr: f64,
}

/// The clean pass of one (app, record) of a draw campaign.
enum DrawPass {
    /// The codec-agnostic raw pass every EMT shares: the same output,
    /// hence one SNR, under every codec (see [`RawTrace`]).
    Shared(CleanPass<RawTrace>),
    /// An app that reads an address before writing it decodes a
    /// codec-dependent virgin word, so each EMT keeps its own direct
    /// recording, indexed by EMT.
    PerEmt(Vec<CleanPass>),
}

impl DrawPass {
    /// Replays EMT `ei`'s clean pass on `mem`, that EMT's memory.
    fn replay(
        &self,
        ei: usize,
        mem: &EmtMemory,
        planes: &BatchFaultPlanes,
        batch: &mut TrialBatch,
        lanes: u64,
    ) {
        match self {
            DrawPass::Shared(pass) => mem.replay_raw_trace(&pass.trace, planes, batch, lanes),
            DrawPass::PerEmt(passes) => mem.replay_trace(&passes[ei].trace, planes, batch, lanes),
        }
    }

    /// EMT `ei`'s clean SNR and access statistics.
    fn clean(&self, ei: usize) -> (f64, AccessStats) {
        match self {
            DrawPass::Shared(pass) => (pass.snr, pass.trace.stats()),
            DrawPass::PerEmt(passes) => (passes[ei].snr, passes[ei].trace.stats()),
        }
    }
}

/// Clean passes indexed `[app][record]`.
type CleanPasses = Vec<Vec<DrawPass>>;

/// Records the clean pass of one (app, record) of a draw campaign: one
/// raw recording on the app's own footprint, shared by every EMT, or —
/// for an app that reads before writing — one direct recording per EMT
/// on the campaign's `geometry`.
///
/// Telemetry counts one trace per (EMT, app, record) either way: that is
/// the number of clean passes the campaign replays.
fn record_clean_pass(
    sc: &Scenario,
    app: &dyn BiomedicalApp,
    record: &Record,
    reference: &SnrReference,
    geometry: MemGeometry,
) -> DrawPass {
    for _ in &sc.emts {
        telemetry::record_trace();
    }
    let snr = |output: &[i16]| cap_snr(reference.snr_db(output));
    if let Some(trace) = RawTrace::record(app, &record.samples, app.memory_words()) {
        return DrawPass::Shared(CleanPass {
            snr: snr(trace.output()),
            trace,
        });
    }
    let empty = FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH);
    DrawPass::PerEmt(
        sc.emts
            .iter()
            .map(|&emt| {
                let mut mem = EmtMemory::new(emt, geometry);
                mem.reset_with_fault_map(&empty);
                let trace = mem.record_trace(app, &record.samples);
                CleanPass {
                    snr: snr(trace.output()),
                    trace,
                }
            })
            .collect(),
    )
}

/// One grid point of a draw sweep: its seed coordinate (the point index
/// across the whole spec, `point_offset` included) and its resolved
/// [`FaultModel`] ([`crate::scenario::FaultModelSpec::resolve`] at the
/// point's operating voltage).
struct DrawPoint {
    index: usize,
    fault_model: FaultModel,
}

/// Point-invariant inputs of a draw sweep: the BER calibration, the
/// campaign's app instances, the record suite with its references, the
/// shared geometry and the memoized clean passes.
struct DrawSuite<'a> {
    /// Feeds the per-bank-voltage model's ΔV→BER mapping.
    ber_model: &'a BerModel,
    /// One instance per app, shared by every worker.
    apps: &'a [Box<dyn BiomedicalApp>],
    records: &'a [Record],
    references: &'a References,
    geometry: MemGeometry,
    /// Recorded exactly when the campaign batches: `Some` selects the
    /// bit-sliced group body, `None` the scalar one, which recomputes
    /// nothing to begin with.
    clean: Option<&'a CleanPasses>,
}

/// One work item of a draw sweep: a lane group of up to [`MAX_LANES`]
/// consecutive runs of one point.
struct DrawItem {
    /// Position in the sweep's point list.
    point: usize,
    runs: std::ops::Range<usize>,
}

/// A draw worker's arena, built once per sweep: one memory per EMT, one
/// armed map per lane and the lane planes.
struct DrawArena {
    mems: Vec<EmtMemory>,
    /// One drawn map per lane (a single one for the scalar body): a run
    /// draws once and shares the map across its EMT × app cells.
    maps: Vec<FaultMap>,
    planes: BatchFaultPlanes,
}

/// Runs the Monte-Carlo draws of every point of a sweep — `sc.trials`
/// maps per point drawn by its fault model, each shared across every EMT
/// and app (§V methodology) — and hands each point's per-(EMT, app)
/// aggregate to `on_point` in point order, as soon as the point is done.
///
/// The work list spans the whole sweep: every point's runs, chunked to
/// the lane budget, claimed in point order by one
/// [`exec::stream_trials`] call. Workers never wait at a point boundary,
/// so a slow low-voltage point overlaps the next points instead of
/// idling a worker behind its tail group. The executor's in-order
/// delivery keeps rows streaming per point, and a cancelled sweep leaves
/// a prefix of whole points.
fn draw_sweep(
    sc: &Scenario,
    points: &[DrawPoint],
    suite: &DrawSuite,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
    mut on_point: impl FnMut(usize, Vec<(EmtKind, AppKind, Cell, f64)>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    // Groups chunk each point's runs in order to the lane budget. Trace
    // replay feeds each lane exactly its own record's events, so lanes
    // need not share a record and small campaigns fill whole groups.
    let items: Vec<DrawItem> = (0..points.len())
        .flat_map(|point| {
            (0..sc.trials)
                .step_by(MAX_LANES)
                .map(move |start| DrawItem {
                    point,
                    runs: start..(start + MAX_LANES).min(sc.trials),
                })
        })
        .collect();
    let geometry = suite.geometry;
    // The scalar body re-arms a single map for each run in turn.
    let lane_maps = match suite.clean {
        Some(_) => sc.trials.min(MAX_LANES),
        None => 1,
    };
    let scratch = || DrawArena {
        mems: sc
            .emts
            .iter()
            .map(|&emt| EmtMemory::new(emt, geometry))
            .collect(),
        maps: (0..lane_maps)
            .map(|_| FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH))
            .collect(),
        planes: BatchFaultPlanes::new(geometry.words(), SHARED_MAP_WIDTH),
    };
    let mut cells: Vec<Vec<Cell>> = Vec::with_capacity(sc.trials);
    exec::stream_trials(
        cfg.threads,
        &items,
        scratch,
        |arena, item, _| {
            let point = &points[item.point];
            match suite.clean {
                Some(clean) => draw_group_batched(sc, point, item, suite, clean, arena),
                None => draw_group_scalar(sc, point, item, suite, arena),
            }
        },
        |i, group| {
            cells.extend(group);
            let item = &items[i];
            if item.runs.end == sc.trials {
                on_point(item.point, aggregate_point(sc, &cells))?;
                cells.clear();
            }
            Ok(())
        },
        cancel,
    )
}

/// Scalar body of a draw item: each run arms its map once, arms each
/// EMT's memory with it once, and runs every app of that EMT from a
/// rewind, returning the cells in (run, emt, app) order.
fn draw_group_scalar(
    sc: &Scenario,
    point: &DrawPoint,
    item: &DrawItem,
    suite: &DrawSuite,
    arena: &mut DrawArena,
) -> Vec<Vec<Cell>> {
    let DrawArena { mems, maps, .. } = arena;
    let map = &mut maps[0];
    item.runs
        .clone()
        .map(|run| {
            // Same seed across EMTs and apps => same fault map, as in the
            // paper; the wide map covers the widest codeword. `Iid` draws
            // are bit-identical to the historical `regenerate` call.
            let seed = fault_seed(sc.seed, point.index, run);
            point
                .fault_model
                .arm(map, &suite.geometry, suite.ber_model, seed);
            let mut cells = Vec::with_capacity(mems.len() * suite.apps.len());
            for mem in mems.iter_mut() {
                arm_lane(sc, point, run, suite, mem, map);
                for ai in 0..suite.apps.len() {
                    cells.push(scalar_cell(suite, run, mem, ai));
                }
            }
            cells
        })
        .collect()
}

/// Bit-sliced body of a draw item: its runs ride memoized clean passes
/// per (EMT, app) as the lanes of one group. Each lane's drawn fault map
/// (scrambler included, resolved to logical addresses) is transposed into
/// [`BatchFaultPlanes`]; each record's trace replays on exactly the lanes
/// that drew it. Survivors take their record's clean SNR and their
/// [`TrialBatch::lane_stats`] outcome counts.
///
/// Per EMT, every app replays first. Then each lane that any app evicted
/// arms the EMT's memory once and runs only its evicted apps, each from a
/// rewind, so the §V shared map is paid once per (lane, EMT) and not once
/// per cell. The evicted cells are the ordinary scalar trials, and each
/// lands in its (emt, app) slot, so the cells are bit-identical to
/// [`draw_group_scalar`]'s.
fn draw_group_batched(
    sc: &Scenario,
    point: &DrawPoint,
    item: &DrawItem,
    suite: &DrawSuite,
    clean: &CleanPasses,
    arena: &mut DrawArena,
) -> Vec<Vec<Cell>> {
    let DrawArena { mems, maps, planes } = arena;
    let apps = suite.apps.len();
    let records = suite.records;
    let lanes = item.runs.len();
    planes.clear();
    // Lanes replaying the same record form one masked sub-group.
    let mut parts: Vec<(usize, u64)> = Vec::new();
    for (lane, run) in item.runs.clone().enumerate() {
        let ri = run % records.len();
        match parts.iter_mut().find(|(r, _)| *r == ri) {
            Some((_, mask)) => *mask |= 1 << lane,
            None => parts.push((ri, 1 << lane)),
        }
        // Same draw as the scalar path; the scrambler is folded into the
        // planes so the clean pass needs none.
        let seed = fault_seed(sc.seed, point.index, run);
        point
            .fault_model
            .arm(&mut maps[lane], &suite.geometry, suite.ber_model, seed);
        let scrambler = sc.scrambler_key.map(|base| {
            AddressScrambler::new(suite.geometry.words(), fault_seed(base, point.index, run))
        });
        planes.add_lane(lane, &maps[lane], scrambler.as_ref());
    }
    let mut cells: Vec<Vec<Cell>> = (0..lanes)
        .map(|_| Vec::with_capacity(mems.len() * apps))
        .collect();
    for (ei, mem) in mems.iter_mut().enumerate() {
        // Replay the memoized traces: only dirty events pay plane work;
        // the application never runs.
        let batches: Vec<TrialBatch> = (0..apps)
            .map(|ai| {
                let mut batch = TrialBatch::new(lanes);
                for &(ri, mask) in &parts {
                    clean[ai][ri].replay(ei, mem, planes, &mut batch, mask);
                }
                telemetry::record_batch_pass(lanes, batch.evicted().count_ones());
                batch
            })
            .collect();
        for (lane, run) in item.runs.clone().enumerate() {
            let mut armed = false;
            for (ai, batch) in batches.iter().enumerate() {
                let cell = if batch.is_alive(lane) {
                    let (snr, stats) = clean[ai][run % records.len()].clean(ei);
                    Cell::observed(snr, batch.lane_stats(lane, &stats))
                } else {
                    if !armed {
                        arm_lane(sc, point, run, suite, mem, &maps[lane]);
                        armed = true;
                    }
                    scalar_cell(suite, run, mem, ai)
                };
                cells[lane].push(cell);
            }
        }
    }
    cells
}

/// Arms `mem` for `run`: installs its drawn `map` and, when the spec
/// scrambles, the run's own logical→physical mapping. Every (EMT, app)
/// cell of the run then starts from this state via [`scalar_cell`]'s
/// rewind.
fn arm_lane(
    sc: &Scenario,
    point: &DrawPoint,
    run: usize,
    suite: &DrawSuite,
    mem: &mut EmtMemory,
    map: &FaultMap,
) {
    mem.reset_with_fault_map(map);
    if let Some(base) = sc.scrambler_key {
        // Fresh logical→physical mapping per (point, run): the §V
        // randomization that lets one die emulate many.
        mem.set_scrambler(AddressScrambler::new(
            suite.geometry.words(),
            fault_seed(base, point.index, run),
        ));
    }
}

/// The scalar trial of app `ai`'s cell of `run` on `mem`, which
/// [`arm_lane`] armed for the run: rewinds to that arming, then runs.
fn scalar_cell(suite: &DrawSuite, run: usize, mem: &mut EmtMemory, ai: usize) -> Cell {
    let ri = run % suite.records.len();
    mem.rewind();
    let out = mem.run_app(&*suite.apps[ai], &suite.records[ri].samples);
    let snr = cap_snr(suite.references[ai][ri].snr_db(&out));
    Cell::observed(snr, mem.stats())
}

/// Aggregates one grid point's cells into per-(EMT, app) statistics, in
/// the historical (emt, app) order and run-ascending reduction sequence.
fn aggregate_point(sc: &Scenario, results: &[Vec<Cell>]) -> Vec<(EmtKind, AppKind, Cell, f64)> {
    let mut out = Vec::new();
    for (ei, &emt) in sc.emts.iter().enumerate() {
        for (ai, &app) in sc.apps.iter().enumerate() {
            let cell_idx = ei * sc.apps.len() + ai;
            let mut snr_sum = 0.0;
            let mut snr_min = f64::INFINITY;
            let mut uncorrectable = 0.0;
            let mut corrected = 0.0;
            for trial_cells in results.iter().take(sc.trials) {
                let cell = &trial_cells[cell_idx];
                snr_sum += cell.snr_db;
                snr_min = snr_min.min(cell.snr_db);
                uncorrectable += cell.uncorrectable;
                corrected += cell.corrected;
            }
            let n = sc.trials as f64;
            out.push((
                emt,
                app,
                Cell {
                    snr_db: snr_sum / n,
                    uncorrectable: uncorrectable / n,
                    corrected: corrected / n,
                },
                snr_min,
            ));
        }
    }
    out
}

/// How many records of the suite a draw campaign synthesizes. Runs cycle
/// the suite as `run % records.len()`, so with fewer trials than records
/// the tail is never drawn; building only the prefix yields the same
/// records, since each is seeded by its id.
fn drawn_records(sc: &Scenario) -> usize {
    sc.effective_records().min(sc.trials)
}

/// Prepared reference outputs per (app, record).
type References = Vec<Vec<SnrReference>>;

/// A draw campaign's one instance of each app, in spec order: every
/// reference, recording and worker of the campaign shares it (apps are
/// `Sync`, and a run keeps all its state in the memory).
fn draw_apps(sc: &Scenario) -> Vec<Box<dyn BiomedicalApp>> {
    sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect()
}

/// The geometry of a draw campaign: the one fitting its largest app
/// footprint, since a run's fault map is shared by every app.
fn draw_geometry(apps: &[Box<dyn BiomedicalApp>]) -> MemGeometry {
    let words = apps
        .iter()
        .map(|app| app.memory_words())
        .max()
        .expect("validated: at least one app");
    banked_geometry(words)
}

/// The point-invariant work of one draw suite: the drawn records, their
/// references and, when batching, their clean passes.
struct PreparedSuite {
    records: Vec<Record>,
    references: References,
    clean: Option<CleanPasses>,
}

/// Builds one draw suite at `noise_scale` as one work list on the trial
/// executor, one item per drawn record: each item synthesizes its record,
/// then computes every app's reference output and, when the campaign
/// batches, its clean pass ([`record_clean_pass`]). References and clean
/// passes come back indexed `[app][record]`.
fn prepare_suite(
    sc: &Scenario,
    apps: &[Box<dyn BiomedicalApp>],
    noise_scale: f64,
    geometry: MemGeometry,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<PreparedSuite, exec::Cancelled> {
    let model = dream_ecg::NoiseModel::date16().scaled(noise_scale);
    let indices: Vec<usize> = (0..drawn_records(sc)).collect();
    let items = exec::run_trials_cancellable(
        cfg.threads,
        &indices,
        || (),
        |(), &ri, _| {
            let record = suite_record(sc.window, ri, &model);
            let per_app: Vec<(SnrReference, Option<DrawPass>)> = apps
                .iter()
                .map(|app| {
                    let reference = SnrReference::new(app.run_reference(&record.samples));
                    let pass = cfg
                        .batch
                        .then(|| record_clean_pass(sc, &**app, &record, &reference, geometry));
                    (reference, pass)
                })
                .collect();
            (record, per_app)
        },
        cancel,
    )?;
    let mut records = Vec::with_capacity(items.len());
    let mut references: References = apps.iter().map(|_| Vec::new()).collect();
    let mut passes: CleanPasses = apps.iter().map(|_| Vec::new()).collect();
    for (record, per_app) in items {
        records.push(record);
        for (ai, (reference, pass)) in per_app.into_iter().enumerate() {
            references[ai].push(reference);
            passes[ai].extend(pass);
        }
    }
    Ok(PreparedSuite {
        records,
        references,
        clean: cfg.batch.then_some(passes),
    })
}

const FIG4_HEADERS: [&str; 7] = [
    "app",
    "emt",
    "voltage",
    "mean_snr_db",
    "min_snr_db",
    "corrected_rate",
    "uncorrectable_rate",
];

fn fig4_render(p: &Fig4Point) -> Vec<String> {
    vec![
        p.app.to_string(),
        p.emt.to_string(),
        format!("{:.2}", p.voltage),
        format!("{:.3}", p.mean_snr_db),
        format!("{:.3}", p.min_snr_db),
        format!("{:.6}", p.corrected_rate),
        format!("{:.6}", p.uncorrectable_rate),
    ]
}

/// Executes a voltage sweep and returns the Fig. 4 points in the
/// historical (voltage, emt, app) order, streaming per voltage.
fn voltage_points(
    sc: &Scenario,
    voltages: &[f64],
    mut on_point: impl FnMut(&[Fig4Point]) -> io::Result<()>,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Fig4Point>, EngineError> {
    let apps = draw_apps(sc);
    let geometry = draw_geometry(&apps);
    // One clean pass per (app, record), shared by every voltage and EMT:
    // each additional grid point pays only faulty-delta work.
    let prepared = prepare_suite(sc, &apps, sc.noise_scale, geometry, cfg, cancel)?;
    let model = sc.fault.to_model();
    let points: Vec<DrawPoint> = voltages
        .iter()
        .enumerate()
        .map(|(vi, &voltage)| DrawPoint {
            index: sc.point_offset + vi,
            fault_model: sc.fault.model.resolve(&model, voltage),
        })
        .collect();
    let suite = DrawSuite {
        ber_model: &model,
        apps: &apps,
        records: &prepared.records,
        references: &prepared.references,
        geometry,
        clean: prepared.clean.as_ref(),
    };
    let mut out = Vec::new();
    draw_sweep(sc, &points, &suite, cfg, cancel, |vi, cells| {
        let batch: Vec<Fig4Point> = cells
            .into_iter()
            .map(|(emt, app, mean, min)| Fig4Point {
                app,
                emt,
                voltage: voltages[vi],
                mean_snr_db: mean.snr_db,
                min_snr_db: min,
                uncorrectable_rate: mean.uncorrectable,
                corrected_rate: mean.corrected,
            })
            .collect();
        on_point(&batch)?;
        out.extend(batch);
        Ok(())
    })?;
    Ok(out)
}

fn run_voltage(
    sc: &Scenario,
    voltages: &[f64],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    sink.begin(&FIG4_HEADERS)?;
    let mut rendered = Vec::new();
    let points = voltage_points(
        sc,
        voltages,
        |batch| {
            let rows: Vec<Vec<String>> = batch.iter().map(fig4_render).collect();
            rendered.extend(rows.iter().cloned());
            sink.emit(&rows)
        },
        cfg,
        cancel,
    )?;
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers: FIG4_HEADERS.to_vec(),
        rows: rendered,
        data: OutcomeData::Fig4(points),
    })
}

fn run_noise(
    sc: &Scenario,
    scales: &[f64],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    let headers = vec![
        "noise_scale",
        "emt",
        "app",
        "mean_snr_db",
        "min_snr_db",
        "corrected_rate",
        "uncorrectable_rate",
    ];
    sink.begin(&headers)?;
    let model = sc.fault.to_model();
    // The whole sweep operates at one voltage, so one resolved model
    // serves every point.
    let fault_model = sc.fault.model.resolve(&model, sc.fixed_voltage);
    let mut typed = Vec::new();
    let mut rendered = Vec::new();
    // The apps (and hence the geometry) are scale-independent; the record
    // suite, its per-(app, record) references and its clean passes depend
    // on the scale — and only on it. Consecutive grid points at one scale
    // share one suite, so they pay for that work exactly once, without
    // holding every suite of a long sweep in memory at once.
    let apps = draw_apps(sc);
    let geometry = draw_geometry(&apps);
    // Each run of consecutive points at one scale is one draw sweep over
    // that scale's suite.
    let mut start = 0;
    while start < scales.len() {
        let scale = scales[start];
        let end = start
            + scales[start..]
                .iter()
                .take_while(|s| s.to_bits() == scale.to_bits())
                .count();
        let prepared = prepare_suite(sc, &apps, scale, geometry, cfg, cancel)?;
        let points: Vec<DrawPoint> = (start..end)
            .map(|si| DrawPoint {
                index: sc.point_offset + si,
                fault_model: fault_model.clone(),
            })
            .collect();
        let suite = DrawSuite {
            ber_model: &model,
            apps: &apps,
            records: &prepared.records,
            references: &prepared.references,
            geometry,
            clean: prepared.clean.as_ref(),
        };
        draw_sweep(sc, &points, &suite, cfg, cancel, |_, cells| {
            let mut batch = Vec::new();
            for (emt, app, mean, min) in cells {
                let row = NoisePoint {
                    scale,
                    emt,
                    app,
                    mean_snr_db: mean.snr_db,
                    min_snr_db: min,
                    corrected_rate: mean.corrected,
                    uncorrectable_rate: mean.uncorrectable,
                };
                batch.push(vec![
                    format!("{:.2}", row.scale),
                    row.emt.to_string(),
                    row.app.to_string(),
                    format!("{:.3}", row.mean_snr_db),
                    format!("{:.3}", row.min_snr_db),
                    format!("{:.6}", row.corrected_rate),
                    format!("{:.6}", row.uncorrectable_rate),
                ]);
                typed.push(row);
            }
            sink.emit(&batch)?;
            rendered.extend(batch);
            Ok(())
        })?;
        start = end;
    }
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers,
        rows: rendered,
        data: OutcomeData::Noise(typed),
    })
}

// ---------------------------------------------------------------------------
// Energy families.
// ---------------------------------------------------------------------------

const ENERGY_HEADERS: [&str; 8] = [
    "emt", "voltage", "total_pj", "data_pj", "mask_pj", "codec_pj", "leak_pj", "overhead",
];

fn energy_render(r: &EnergyRow) -> Vec<String> {
    vec![
        r.emt.to_string(),
        format!("{:.2}", r.voltage),
        format!("{:.3}", r.energy.total_pj()),
        format!("{:.3}", r.energy.data_dynamic_pj),
        format!("{:.3}", r.energy.side_dynamic_pj),
        format!("{:.3}", r.energy.codec_pj),
        format!("{:.3}", r.energy.leakage_pj),
        format!("{:.4}", r.overhead_vs_none),
    ]
}

/// The §VI-B pricing kernel behind every energy family. Access and cycle
/// counts do not depend on fault injection or on the supply (the app
/// executes the same loads and stores either way), so each (SoC config,
/// EMT) pair is characterized once by a fault-free run of `app` on
/// record 100, and the energy model prices that run at every voltage.
///
/// Returns one batch of rows per (config, voltage) point, config-major,
/// each with the spec's EMTs in order and priced against the unprotected
/// run of the same point.
fn price_runs(
    sc: &Scenario,
    app: &dyn BiomedicalApp,
    configs: &[SocConfig],
    voltages: &[f64],
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<EnergyRow>>, EngineError> {
    let record = dream_ecg::Database::record(100, sc.window);
    let bundle = dream_core::EnergyModelBundle::date16();
    let pairs: Vec<(&SocConfig, EmtKind)> = configs
        .iter()
        .flat_map(|config| sc.emts.iter().map(move |&emt| (config, emt)))
        .collect();
    let runs = exec::run_trials_cancellable(
        cfg.threads,
        &pairs,
        || (),
        |(), &(config, emt), _| Soc::new(*config, emt, None).run_app(app, &record.samples),
        cancel,
    )?;
    let none = sc
        .emts
        .iter()
        .position(|&e| e == EmtKind::None)
        .expect("validated: energy sweeps include the unprotected baseline");
    let mut points = Vec::new();
    for (config, runs) in configs.iter().zip(runs.chunks(sc.emts.len())) {
        for &voltage in voltages {
            let price = |ei: usize| {
                let run = &runs[ei];
                bundle.run_energy(
                    &sc.emts[ei].codec(),
                    &run.stats,
                    config.geometry.words(),
                    voltage,
                    config.seconds(run.cycles),
                )
            };
            let baseline = price(none);
            points.push(
                (0..sc.emts.len())
                    .map(|ei| {
                        let energy = price(ei);
                        EnergyRow {
                            emt: sc.emts[ei],
                            voltage,
                            energy,
                            overhead_vs_none: energy.overhead_vs(&baseline),
                        }
                    })
                    .collect(),
            );
        }
    }
    Ok(points)
}

fn run_energy(
    sc: &Scenario,
    voltages: &[f64],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    sink.begin(&ENERGY_HEADERS)?;
    let app = sc.apps[0].instantiate(sc.window);
    let points = price_runs(sc, &*app, &[SocConfig::inyu()], voltages, cfg, cancel)?;
    let mut rendered = Vec::new();
    for point in &points {
        let batch: Vec<Vec<String>> = point.iter().map(energy_render).collect();
        sink.emit(&batch)?;
        rendered.extend(batch);
    }
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers: ENERGY_HEADERS.to_vec(),
        rows: rendered,
        data: OutcomeData::Energy(points.concat()),
    })
}

fn run_geometry(
    sc: &Scenario,
    words: &[usize],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    let headers = vec![
        "words",
        "emt",
        "total_pj",
        "data_pj",
        "mask_pj",
        "codec_pj",
        "leak_pj",
        "leak_share",
        "overhead_vs_none",
    ];
    let app = sc.apps[0].instantiate(sc.window);
    // Footprint needs the instantiated app, so this spec check lives here
    // rather than in `validate` — but still before the sink opens, so a
    // bad spec cannot leave a truncated artifact behind.
    if let Some(&w) = words.iter().find(|&&w| w < app.memory_words()) {
        return Err(EngineError::Spec(SpecError::value(
            "grid.values",
            format!(
                "memory of {w} words cannot hold the {} footprint of {} words at window {}",
                sc.apps[0],
                app.memory_words(),
                sc.window
            ),
        )));
    }
    sink.begin(&headers)?;
    // Access counts are geometry-independent but cycle counts are not
    // priced per word, so each size re-runs to stay honest about the
    // platform model.
    let configs: Vec<SocConfig> = words
        .iter()
        .map(|&w| SocConfig {
            geometry: MemGeometry::new(w, 16, 16),
            ..SocConfig::inyu()
        })
        .collect();
    let points = price_runs(sc, &*app, &configs, &[sc.fixed_voltage], cfg, cancel)?;
    let mut typed = Vec::new();
    let mut rendered = Vec::new();
    for (&w, point) in words.iter().zip(&points) {
        let mut batch = Vec::new();
        for r in point {
            let row = GeometryEnergyRow {
                words: w,
                emt: r.emt,
                energy: r.energy,
                overhead_vs_none: r.overhead_vs_none,
            };
            batch.push(vec![
                row.words.to_string(),
                row.emt.to_string(),
                format!("{:.3}", row.energy.total_pj()),
                format!("{:.3}", row.energy.data_dynamic_pj),
                format!("{:.3}", row.energy.side_dynamic_pj),
                format!("{:.3}", row.energy.codec_pj),
                format!("{:.3}", row.energy.leakage_pj),
                format!("{:.4}", row.energy.leakage_pj / row.energy.total_pj()),
                format!("{:.4}", row.overhead_vs_none),
            ]);
            typed.push(row);
        }
        sink.emit(&batch)?;
        rendered.extend(batch);
    }
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers,
        rows: rendered,
        data: OutcomeData::Geometry(typed),
    })
}

// ---------------------------------------------------------------------------
// §VI-C trade-off and the ablation bundle.
// ---------------------------------------------------------------------------

fn run_tradeoff(
    sc: &Scenario,
    voltages: &[f64],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    let headers = vec!["emt", "min_voltage", "savings"];
    sink.begin(&headers)?;
    let points = voltage_points(sc, voltages, |_| Ok(()), cfg, cancel)?;
    let app = sc.apps[0].instantiate(sc.window);
    let energy = price_runs(sc, &*app, &[SocConfig::inyu()], voltages, cfg, cancel)?.concat();
    let tolerance = sc.tolerance_db.unwrap_or(1.0);
    let policies = explore(sc.apps[0], tolerance, &points, &energy);
    let rendered: Vec<Vec<String>> = policies
        .iter()
        .map(|p| {
            vec![
                p.emt.to_string(),
                p.min_voltage.map_or(String::new(), |v| format!("{v:.2}")),
                p.savings_vs_nominal
                    .map_or(String::new(), |s| format!("{s:.4}")),
            ]
        })
        .collect();
    sink.emit(&rendered)?;
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers,
        rows: rendered,
        data: OutcomeData::Tradeoff(policies),
    })
}

/// The ablation bundle honors a spec's `window`, `trials` (scrambler
/// runs; the BER study caps at 8), `ber_slopes`, voltage grid and BER
/// calibration (both feed the slope-sensitivity study). The remaining
/// knobs are fixed by the studies themselves — the scrambler study runs
/// unprotected DWT at 0.55 V with historical seeds, and the mask-supply
/// study prices DREAM over the paper grid — so `apps`/`emts` on an
/// ablation spec are descriptive only.
fn run_ablation(
    sc: &Scenario,
    voltages: &[f64],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    /// Operating voltage of the scrambler study: deep in the faulty region.
    const SCRAMBLER_VOLTAGE: f64 = 0.55;
    let headers = vec!["study", "x", "series", "value"];
    sink.begin(&headers)?;
    let mut typed: Vec<AblationRow> = Vec::new();
    let mut rendered: Vec<Vec<String>> = Vec::new();
    let mut push_batch = |sink: &mut dyn Sink, batch: Vec<AblationRow>| -> io::Result<()> {
        let rows: Vec<Vec<String>> = batch
            .iter()
            .map(|r| {
                vec![
                    r.study.to_string(),
                    r.x.clone(),
                    r.series.clone(),
                    r.value.clone(),
                ]
            })
            .collect();
        sink.emit(&rows)?;
        rendered.extend(rows);
        typed.extend(batch);
        Ok(())
    };

    // A1 — DREAM's protected-bits census over the real suite.
    let histogram = ablation::protected_bits_histogram(sc.window);
    let mut batch: Vec<AblationRow> = histogram
        .iter()
        .enumerate()
        .map(|(k, &count)| AblationRow {
            study: "protected_bits",
            x: k.to_string(),
            series: "count".into(),
            value: count.to_string(),
        })
        .collect();
    batch.push(AblationRow {
        study: "protected_bits",
        x: String::new(),
        series: "mean_bits".into(),
        value: format!("{:.4}", ablation::mean_protected_bits(&histogram)),
    });
    push_batch(sink, batch)?;

    // A2 — the §V address scrambler: one die, many runs. (The studies
    // call `run_trials` through the ablation module, so cancellation here
    // is polled at study granularity.)
    ensure_live(cancel)?;
    let scrambler =
        ablation::scrambler_ablation(sc.window, SCRAMBLER_VOLTAGE, sc.trials, cfg.threads);
    let mut batch = Vec::new();
    for (series, snrs) in [
        ("fixed", &scrambler.fixed_mapping_snrs),
        ("scrambled", &scrambler.scrambled_snrs),
    ] {
        for (i, s) in snrs.iter().enumerate() {
            batch.push(AblationRow {
                study: "scrambler",
                x: i.to_string(),
                series: series.into(),
                value: format!("{s:.3}"),
            });
        }
    }
    push_batch(sink, batch)?;

    // A3 — BER-slope sensitivity of the DREAM DWT curve, over the spec's
    // own voltage grid and calibration (slope substituted per curve).
    ensure_live(cancel)?;
    let ber_runs = sc.trials.min(8);
    let points = ablation::ber_sensitivity_grid(
        sc.window,
        ber_runs,
        &sc.ber_slopes,
        voltages,
        &sc.fault.to_model(),
        cfg.threads,
    );
    let batch: Vec<AblationRow> = points
        .iter()
        .map(|p| AblationRow {
            study: "ber_slope",
            x: format!("{:.2}", p.voltage),
            series: format!("{:.1}", p.slope),
            value: format!("{:.3}", p.mean_snr_db),
        })
        .collect();
    push_batch(sink, batch)?;

    // A4 — mask-supply pinning vs tracking (prices the paper grid — the
    // design comparison is grid-independent).
    ensure_live(cancel)?;
    let mut batch = Vec::new();
    for (v, pinned, tracking) in ablation::mask_supply_ablation(sc.window) {
        batch.push(AblationRow {
            study: "mask_supply",
            x: format!("{v:.2}"),
            series: "pinned".into(),
            value: format!("{pinned:.6}"),
        });
        batch.push(AblationRow {
            study: "mask_supply",
            x: format!("{v:.2}"),
            series: "tracking".into(),
            value: format!("{tracking:.6}"),
        });
    }
    push_batch(sink, batch)?;

    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers,
        rows: rendered,
        data: OutcomeData::Ablation(typed),
    })
}

impl ScenarioOutcome {
    /// A short human summary of the outcome (row counts plus the
    /// headline statistic of each family).
    pub fn summary(&self) -> String {
        match &self.data {
            OutcomeData::Injection(rows) => {
                let mut s = format!("{} injection points", rows.len());
                if rows
                    .iter()
                    .any(|r| r.app == AppKind::CompressedSensing && r.emt == EmtKind::None)
                {
                    let (sa0, sa1) = cs_tolerance(rows, 35.0);
                    s.push_str(&format!(
                        "; CS tolerates sa0 to bit {}, sa1 to bit {} at 35 dB (paper: 10, 12)",
                        sa0.map_or("-".into(), |b| b.to_string()),
                        sa1.map_or("-".into(), |b| b.to_string())
                    ));
                }
                s
            }
            OutcomeData::Fig4(points) => format!(
                "{} voltage curve points across {} EMTs",
                points.len(),
                self.scenario.emts.len()
            ),
            OutcomeData::Noise(points) => format!(
                "{} noise-scale cells at {:.2} V",
                points.len(),
                self.scenario.fixed_voltage
            ),
            OutcomeData::Energy(rows) => {
                let mut s = format!("{} energy rows", rows.len());
                let dream = crate::energy_table::average_overhead(rows, EmtKind::Dream);
                let ecc = crate::energy_table::average_overhead(rows, EmtKind::EccSecDed);
                if dream.is_finite() && ecc.is_finite() {
                    s.push_str(&format!(
                        "; sweep-averaged overhead DREAM {}, ECC {} (paper: 34%, 55%)",
                        crate::report::pct(dream),
                        crate::report::pct(ecc)
                    ));
                }
                let (enc, dec) = crate::energy_table::ecc_vs_dream_area(
                    &crate::energy_table::area_table(&EmtKind::paper_set()),
                );
                s.push_str(&format!(
                    "; ECC vs DREAM codec area: encoder +{}, decoder +{} (paper: +28%, +120%)",
                    crate::report::pct(enc),
                    crate::report::pct(dec)
                ));
                s
            }
            OutcomeData::Geometry(rows) => format!(
                "{} (size, EMT) energy cells at {:.2} V",
                rows.len(),
                self.scenario.fixed_voltage
            ),
            OutcomeData::Tradeoff(policies) => {
                let parts: Vec<String> = policies
                    .iter()
                    .map(|p| {
                        format!(
                            "{}: {} ({})",
                            p.emt,
                            p.min_voltage.map_or("-".into(), |v| format!("{v:.2} V")),
                            p.savings_vs_nominal.map_or("-".into(), crate::report::pct)
                        )
                    })
                    .collect();
                format!("minimum voltages — {}", parts.join(", "))
            }
            OutcomeData::Ablation(rows) => format!("{} ablation rows across 4 studies", rows.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CsvSink, JsonlSink, TableSink};
    use crate::scenario::registry;
    use crate::scenario::runner::CampaignRunner;

    /// Every engine test drives campaigns through the public
    /// `CampaignRunner` surface.
    fn run(sc: &Scenario) -> Result<ScenarioOutcome, EngineError> {
        CampaignRunner::new(sc.clone()).run_discarding()
    }

    fn run_with_sink(sc: &Scenario, sink: &mut dyn Sink) -> Result<ScenarioOutcome, EngineError> {
        CampaignRunner::new(sc.clone()).run(sink)
    }

    fn tiny_noise() -> Scenario {
        let mut sc = registry::get("noise-sweep", true).unwrap();
        sc.window = 512;
        sc.records = 1;
        sc.trials = 1;
        sc.apps = vec![AppKind::Dwt];
        sc.grid = Grid::NoiseScale(vec![0.0, 4.0]);
        sc
    }

    #[test]
    fn noise_sweep_runs_end_to_end_through_every_sink() {
        let sc = tiny_noise();
        let outcome = run(&sc).expect("engine runs");
        match &outcome.data {
            OutcomeData::Noise(points) => {
                assert_eq!(points.len(), 2 * sc.emts.len());
                assert!(points.iter().all(|p| p.mean_snr_db.is_finite()));
            }
            other => panic!("unexpected payload {other:?}"),
        }
        // Every sink format consumes the same rows without error.
        let mut csv = CsvSink::new(Vec::new());
        let a = run_with_sink(&sc, &mut csv).unwrap();
        let csv_text = String::from_utf8(csv.into_inner()).unwrap();
        assert!(csv_text.starts_with("noise_scale,emt,app,"));
        assert_eq!(csv_text.lines().count(), 1 + a.rows.len());
        let mut jsonl = JsonlSink::new(Vec::new());
        run_with_sink(&sc, &mut jsonl).unwrap();
        let jsonl_text = String::from_utf8(jsonl.into_inner()).unwrap();
        assert_eq!(jsonl_text.lines().count(), a.rows.len());
        assert!(jsonl_text
            .lines()
            .all(|l| l.starts_with("{\"noise_scale\":")));
        let mut table = TableSink::new(Vec::new());
        run_with_sink(&sc, &mut table).unwrap();
    }

    #[test]
    fn noise_axis_actually_changes_outcomes() {
        // The sweep must be a live axis: clean and heavily-noisy inputs
        // yield different fault sensitivities (the direction depends on
        // competing effects — noise raises reference signal power while
        // eroding the MSB runs DREAM protects — so only inequality is
        // asserted).
        let mut sc = tiny_noise();
        sc.trials = 2;
        sc.grid = Grid::NoiseScale(vec![0.0, 4.0]);
        let outcome = run(&sc).unwrap();
        let OutcomeData::Noise(points) = &outcome.data else {
            panic!("noise payload expected");
        };
        let dream_at = |scale: f64| {
            points
                .iter()
                .find(|p| p.emt == EmtKind::Dream && (p.scale - scale).abs() < 1e-9)
                .expect("cell present")
                .mean_snr_db
        };
        assert_ne!(dream_at(0.0), dream_at(4.0));
    }

    #[test]
    fn geometry_sweep_prices_leakage_growth() {
        let mut sc = registry::get("geometry-sweep", true).unwrap();
        sc.grid = Grid::MemoryWords(vec![4096, 32768]);
        let outcome = run(&sc).unwrap();
        let OutcomeData::Geometry(rows) = &outcome.data else {
            panic!("geometry payload expected");
        };
        assert_eq!(rows.len(), 2 * sc.emts.len());
        let total_at = |words: usize, emt: EmtKind| {
            rows.iter()
                .find(|r| r.words == words && r.emt == emt)
                .unwrap()
                .energy
        };
        for &emt in &sc.emts {
            let small = total_at(4096, emt);
            let big = total_at(32768, emt);
            assert!(
                big.leakage_pj > small.leakage_pj,
                "{emt}: leakage must grow with array size"
            );
            assert_eq!(
                small.data_dynamic_pj, big.data_dynamic_pj,
                "{emt}: dynamic energy is access-count-bound, not size-bound"
            );
        }
    }

    #[test]
    fn engine_output_is_thread_count_invariant() {
        let sc = tiny_noise();
        let at = |threads| {
            CampaignRunner::new(sc.clone())
                .threads(threads)
                .run_discarding()
                .unwrap()
        };
        let serial = at(1);
        let parallel = at(4);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.data, parallel.data);
    }

    #[test]
    fn invalid_spec_is_rejected_before_any_work() {
        let mut sc = tiny_noise();
        sc.apps.clear();
        assert!(matches!(run(&sc), Err(EngineError::Spec(_))));
    }

    #[test]
    fn undersized_geometry_is_a_spec_error_not_a_panic() {
        let mut sc = registry::get("geometry-sweep", true).unwrap();
        sc.grid = Grid::MemoryWords(vec![16]); // valid multiple of 16, far below any footprint
        match run(&sc) {
            Err(EngineError::Spec(e)) => {
                assert!(e.to_string().contains("footprint"), "{e}");
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn ablation_honors_the_spec_grid_for_the_slope_study() {
        let mut sc = registry::get("ablation", true).unwrap();
        sc.trials = 1;
        sc.ber_slopes = vec![13.0];
        sc.grid = Grid::Voltage(vec![0.6, 0.9]);
        let outcome = run(&sc).unwrap();
        let OutcomeData::Ablation(rows) = &outcome.data else {
            panic!("ablation payload expected");
        };
        let slope_xs: Vec<&str> = rows
            .iter()
            .filter(|r| r.study == "ber_slope")
            .map(|r| r.x.as_str())
            .collect();
        assert_eq!(slope_xs, vec!["0.60", "0.90"]);
    }

    #[test]
    fn scrambled_voltage_sweep_diversifies_outcomes() {
        let mut sc = registry::get("fig4", true).unwrap();
        sc.window = 512;
        sc.records = 1;
        sc.trials = 2;
        sc.apps = vec![AppKind::Dwt];
        sc.emts = vec![EmtKind::None];
        sc.grid = Grid::Voltage(vec![0.55]);
        let plain = run(&sc).unwrap();
        sc.scrambler_key = Some(0xA5A5);
        let scrambled = run(&sc).unwrap();
        // Different logical mappings almost surely shift the outcome at a
        // faulty voltage; equality would mean the knob is dead.
        assert_ne!(plain.rows, scrambled.rows);
    }

    fn fig2_small(apps: Vec<AppKind>) -> Vec<InjectionRow> {
        let sc = Scenario {
            window: 512,
            records: 2,
            trials: 4,
            apps,
            ..registry::get("fig2", false).unwrap()
        };
        match run(&sc).unwrap().data {
            OutcomeData::Injection(rows) => rows,
            other => panic!("injection rows expected, got {other:?}"),
        }
    }

    fn snr_at(rows: &[InjectionRow], stuck: StuckAt, bit: u32) -> f64 {
        rows.iter()
            .find(|r| r.stuck == stuck && r.bit == bit)
            .unwrap()
            .snr_db
    }

    #[test]
    fn msb_errors_hurt_more_than_lsb() {
        // The headline finding of §III: SNR decreases monotonically-ish as
        // the stuck bit moves toward the MSB.
        let rows = fig2_small(vec![AppKind::Dwt]);
        assert_eq!(rows.len(), 2 * 16, "one row per polarity and bit");
        for stuck in [StuckAt::Zero, StuckAt::One] {
            let (lsb, msb) = (snr_at(&rows, stuck, 1), snr_at(&rows, stuck, 14));
            assert!(lsb > msb + 20.0, "{stuck:?}: LSB {lsb} vs MSB {msb}");
        }
    }

    #[test]
    fn stuck_at_one_msb_is_milder_for_cs() {
        // §III: mostly-negative samples hide stuck-at-1 MSB faults.
        let rows = fig2_small(vec![AppKind::CompressedSensing]);
        for bit in [13u32, 14, 15] {
            let (sa1, sa0) = (
                snr_at(&rows, StuckAt::One, bit),
                snr_at(&rows, StuckAt::Zero, bit),
            );
            assert!(sa1 > sa0, "bit {bit}: sa1 {sa1} should beat sa0 {sa0}");
        }
    }

    #[test]
    fn cs_tolerance_reads_the_unprotected_cs_rows() {
        let mk = |emt: EmtKind, stuck: StuckAt, bit: u32, snr_db: f64| InjectionRow {
            app: AppKind::CompressedSensing,
            emt,
            stuck,
            bit,
            snr_db,
        };
        let mut rows: Vec<InjectionRow> = (0..16)
            .map(|b| {
                mk(
                    EmtKind::None,
                    StuckAt::Zero,
                    b,
                    if b <= 10 { 50.0 } else { 20.0 },
                )
            })
            .chain((0..16).map(|b| {
                mk(
                    EmtKind::None,
                    StuckAt::One,
                    b,
                    if b <= 12 { 50.0 } else { 20.0 },
                )
            }))
            .collect();
        // Protected rows of a mixed-EMT sweep do not move the thresholds.
        rows.extend((0..16).map(|b| mk(EmtKind::Dream, StuckAt::Zero, b, 50.0)));
        assert_eq!(cs_tolerance(&rows, 35.0), (Some(10), Some(12)));
    }

    fn tiny_fig4() -> Vec<Fig4Point> {
        let sc = Scenario {
            window: 512,
            trials: 4,
            apps: vec![AppKind::Dwt],
            grid: Grid::Voltage(vec![0.5, 0.7, 0.9]),
            seed: 11,
            ..registry::get("fig4", false).unwrap()
        };
        match run(&sc).unwrap().data {
            OutcomeData::Fig4(points) => points,
            other => panic!("Fig. 4 points expected, got {other:?}"),
        }
    }

    #[test]
    fn voltage_sweep_degrades_unprotected_and_protection_helps() {
        use crate::tradeoff::curve;
        let points = tiny_fig4();
        assert_eq!(points.len(), 3 * 3, "one point per voltage and EMT");
        let none = curve(&points, AppKind::Dwt, EmtKind::None);
        let snrs: Vec<f64> = none.iter().map(|p| p.mean_snr_db).collect();
        assert!(
            snrs[0] < snrs[2],
            "0.5 V should be worse than 0.9 V: {snrs:?}"
        );
        // At 0.7 V both protections should beat no protection.
        for emt in [EmtKind::Dream, EmtKind::EccSecDed] {
            let c = curve(&points, AppKind::Dwt, emt);
            assert!(c[1].mean_snr_db >= none[1].mean_snr_db, "{emt} at 0.7 V");
        }
    }

    fn small_energy() -> Vec<EnergyRow> {
        let sc = Scenario {
            window: 512,
            grid: Grid::Voltage(vec![0.5, 0.7, 0.9]),
            ..registry::get("energy", false).unwrap()
        };
        match run(&sc).unwrap().data {
            OutcomeData::Energy(rows) => rows,
            other => panic!("energy rows expected, got {other:?}"),
        }
    }

    #[test]
    fn dream_cheaper_than_ecc_on_average() {
        // The paper's headline: DREAM's overhead (≈34 %) undercuts ECC's
        // (≈55 %) by ~21 points.
        let rows = small_energy();
        let dream = crate::energy_table::average_overhead(&rows, EmtKind::Dream);
        let ecc = crate::energy_table::average_overhead(&rows, EmtKind::EccSecDed);
        assert!(dream < ecc, "DREAM {dream:.2} vs ECC {ecc:.2}");
        assert!(
            (0.10..0.40).contains(&(ecc - dream)),
            "gap {:.2} should be in the paper's ballpark (~0.21)",
            ecc - dream
        );
    }

    #[test]
    fn energy_rows_price_none_at_zero_overhead_and_fall_with_voltage() {
        let rows = small_energy();
        for r in rows.iter().filter(|r| r.emt == EmtKind::None) {
            assert!(r.overhead_vs_none.abs() < 1e-12);
        }
        for emt in EmtKind::paper_set() {
            let es: Vec<f64> = rows
                .iter()
                .filter(|r| r.emt == emt)
                .map(|r| r.energy.total_pj())
                .collect();
            assert!(es.windows(2).all(|w| w[0] < w[1]), "{emt}: {es:?}");
        }
    }

    #[test]
    fn pricing_kernel_stops_on_a_fired_token() {
        let sc = registry::get("energy", true).unwrap();
        let app = sc.apps[0].instantiate(sc.window);
        let token = CancelToken::new();
        token.cancel();
        let cfg = ExecConfig::from_env();
        let result = price_runs(&sc, &*app, &[SocConfig::inyu()], &[0.9], cfg, Some(&token));
        assert!(matches!(result, Err(EngineError::Cancelled)));
    }
}
