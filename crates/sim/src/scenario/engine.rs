//! The scenario engine: compiles a [`Scenario`] into flattened trial
//! descriptors, executes them on [`crate::exec::run_trials`], aggregates
//! per-point statistics, and streams result rows to a [`Sink`] as each
//! grid point completes.
//!
//! Determinism contract: every number depends only on the spec (seeds
//! derive from [`crate::campaign::fault_seed`] over descriptor indices,
//! reductions happen in trial order after the executor's order-restoring
//! merge), so output is bit-identical at any thread count — the golden
//! differential test pins the five paper presets against the pre-refactor
//! runners.

use std::io;

use dream_core::{EmtKind, TrialBatch};
use dream_dsp::{samples_to_f64, snr_db, AppKind, BiomedicalApp};
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
    CleanTrace, EmtMemory, RawTrace,
};
use crate::energy_table::{run_energy_table, EnergyConfig, EnergyRow};
use crate::exec::{self, CancelToken, ExecConfig};
use crate::fig4::Fig4Point;
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

/// Typed result payload of a scenario run — the figure modules'
/// row-typed post-processing (tolerance extraction, curve lookup, policy
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
    /// resume by re-running and skipping them
    /// (`CampaignRunner::skip_rows`).
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
/// (energy tables, study boundaries) poll between units of work.
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
/// whose decode ever diverges from the clean word (or that the bail-out
/// abandons) are finished on the scalar path, resumed at the stage where
/// they left the clean pass, so the returned SNR vector (in `trials`
/// order) is bit-identical to the scalar branch by construction.
#[allow(clippy::too_many_arguments)]
fn injection_snrs_batched(
    sc: &Scenario,
    trials: &[InjectionTrial],
    app_kind: AppKind,
    emt: EmtKind,
    width: u32,
    records: &[Record],
    references: &[Vec<f64>],
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, exec::Cancelled> {
    // One clean pass per record, shared by every lane group of this
    // (app, EMT): groups replay the trace instead of re-running the app.
    let passes: Vec<CleanPass> = {
        let app = app_kind.instantiate(sc.window);
        let geometry = banked_geometry(app.memory_words());
        let mut mem = EmtMemory::new(emt, geometry);
        let map = FaultMap::empty(geometry.words(), width);
        records
            .iter()
            .enumerate()
            .map(|(ri, record)| {
                mem.reset_with_fault_map(&map);
                let trace = mem.record_trace(&*app, &record.samples);
                let snr = cap_snr(snr_db(&references[ri], &samples_to_f64(trace.output())));
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
        let app = app_kind.instantiate(sc.window);
        let words = app.memory_words();
        let geometry = banked_geometry(words);
        let mem = EmtMemory::new(emt, geometry);
        let map = FaultMap::empty(geometry.words(), width);
        let planes = BatchFaultPlanes::new(geometry.words(), width);
        (app, mem, map, planes, words)
    };
    let per_group = exec::run_trials_cancellable(
        cfg.threads,
        &groups,
        scratch,
        |(app, mem, map, planes, words), group, _| {
            let record = group[0].1.record;
            planes.clear();
            for (lane, (_, t)) in group.iter().enumerate() {
                // Same location derivation as the scalar path below.
                let seed = fault_seed(sc.seed, t.record, t.trial);
                let word = (seed % *words as u64) as usize;
                planes.inject(lane, word, t.bit, t.stuck);
            }
            let pass = &passes[record];
            let mut batch = TrialBatch::with_bailout(group.len(), cfg.bailout);
            let left_at = mem.replay_trace_staged(&pass.trace, planes, &mut batch, u64::MAX);
            let clean_snr = pass.snr;
            let bailed = batch.bailed().count_ones();
            telemetry::record_batch_pass(
                group.len(),
                batch.evicted().count_ones() - bailed,
                bailed,
            );
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
                        let word = (seed % *words as u64) as usize;
                        map.clear();
                        map.inject(word, t.bit, t.stuck);
                        mem.reset_with_fault_map(map);
                        let stage = usize::from(left_at[lane]);
                        telemetry::record_resume(
                            stage,
                            pass.trace.reads_before(stage),
                            pass.trace.stats().reads,
                        );
                        let out = mem.run_app_resumed(
                            &**app,
                            &records[record].samples,
                            &pass.trace,
                            stage,
                        );
                        cap_snr(snr_db(&references[record], &samples_to_f64(&out)))
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
        let app = app_kind.instantiate(sc.window);
        let references = reference_outputs_on(cfg.threads, &*app, &records);
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
                    app_kind,
                    emt,
                    width,
                    &records,
                    &references,
                    cfg,
                    cancel,
                )?
            } else {
                let scratch = || {
                    let app = app_kind.instantiate(sc.window);
                    let words = app.memory_words();
                    let geometry = banked_geometry(words);
                    let mem = EmtMemory::new(emt, geometry);
                    let map = FaultMap::empty(geometry.words(), width);
                    (app, mem, map, words)
                };
                exec::run_trials_cancellable(
                    cfg.threads,
                    &trials,
                    scratch,
                    |(app, mem, map, words), t, _| {
                        // One faulty cell at a deterministic pseudo-random
                        // location in the app's buffer footprint. The location
                        // depends only on (record, trial) — not on the bit or
                        // polarity — so the bit axis is a paired comparison, as
                        // when profiling one physical die.
                        let seed = fault_seed(sc.seed, t.record, t.trial);
                        let word = (seed % *words as u64) as usize;
                        map.clear();
                        map.inject(word, t.bit, t.stuck);
                        mem.reset_with_fault_map(map);
                        let out = mem.run_app(&**app, &records[t.record].samples);
                        cap_snr(snr_db(&references[t.record], &samples_to_f64(&out)))
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

// ---------------------------------------------------------------------------
// Fig. 4 family: Monte-Carlo fault-map draws shared across EMTs × apps.
// ---------------------------------------------------------------------------

/// Per-trial observation of one (EMT, app) cell.
struct Cell {
    snr_db: f64,
    uncorrectable: f64,
    corrected: f64,
}

/// One memoized clean pass: the aggregated read trace of an (EMT, app,
/// record) triple on fault-free memory, plus its capped reference SNR.
///
/// The clean pass depends on none of a grid point's knobs — not the
/// voltage, not the fault model, not the trial index — so a draw sweep
/// records each triple once and every batched group replays the trace
/// instead of re-running the application.
struct CleanPass {
    trace: CleanTrace,
    snr: f64,
}

/// Clean passes indexed `[emt][app][record]`.
type CleanPasses = Vec<Vec<Vec<CleanPass>>>;

/// Records the clean pass of every (EMT, app, record) triple a draw
/// campaign will touch, in parallel over the trial executor.
fn record_clean_passes(
    sc: &Scenario,
    records: &[Record],
    references: &References,
    geometry: MemGeometry,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<CleanPasses, exec::Cancelled> {
    // Draw runs cycle the suite as `run % records.len()`, so a campaign
    // with fewer trials than records never touches the tail — don't pay
    // to record it (smoke-scale sweeps would otherwise spend more time
    // recording unused traces than running trials).
    let used = records.len().min(sc.trials.max(1));
    // One codec-agnostic raw pass per (app, record): on fault-free memory
    // the application's dynamics do not depend on the EMT (every codec
    // round-trips written words — see [`RawTrace`]), so the expensive
    // application runs happen apps × records times and each EMT's trace is
    // derived by re-encoding, not re-running.
    let mut pairs = Vec::new();
    for ai in 0..sc.apps.len() {
        for ri in 0..used {
            pairs.push((ai, ri));
        }
    }
    let scratch = || -> Vec<Box<dyn BiomedicalApp>> {
        sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect()
    };
    let raws = exec::run_trials_cancellable(
        threads,
        &pairs,
        scratch,
        |apps, &(ai, ri), _| RawTrace::record(&*apps[ai], &records[ri].samples, geometry.words()),
        cancel,
    )?;
    // Derivation is cheap (one encode per distinct word); an app that read
    // a never-written address (`None` — codec-dependent virgin decode)
    // falls back to direct per-EMT recording, trading speed for exactness.
    let mut mems: Vec<EmtMemory> = sc
        .emts
        .iter()
        .map(|&emt| EmtMemory::new(emt, geometry))
        .collect();
    let empty = FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH);
    let mut fallback_apps: Option<Vec<Box<dyn BiomedicalApp>>> = None;
    let mut passes: CleanPasses = Vec::with_capacity(sc.emts.len());
    for mem in &mut mems {
        let mut per_app = Vec::with_capacity(sc.apps.len());
        for ai in 0..sc.apps.len() {
            let mut per_record = Vec::with_capacity(used);
            for ri in 0..used {
                let trace = match &raws[ai * used + ri] {
                    Some(raw) => mem.derive_trace(raw),
                    None => {
                        let apps = fallback_apps.get_or_insert_with(scratch);
                        mem.reset_with_fault_map(&empty);
                        mem.record_trace(&*apps[ai], &records[ri].samples)
                    }
                };
                let snr = cap_snr(snr_db(&references[ai][ri], &samples_to_f64(trace.output())));
                telemetry::record_trace();
                per_record.push(CleanPass { trace, snr });
            }
            per_app.push(per_record);
        }
        passes.push(per_app);
    }
    Ok(passes)
}

/// Point-invariant inputs of one Monte-Carlo draw batch: the resolved
/// fault model, the calibration behind it, the record suite with its
/// references, the shared geometry, and the campaign's execution settings
/// and cancel token.
struct DrawCtx<'a> {
    /// The point-resolved [`FaultModel`]
    /// ([`crate::scenario::FaultModelSpec::resolve`] at the point's
    /// operating voltage).
    fault_model: &'a FaultModel,
    /// Feeds the per-bank-voltage model's ΔV→BER mapping.
    ber_model: &'a BerModel,
    records: &'a [Record],
    references: &'a [Vec<Vec<f64>>],
    geometry: MemGeometry,
    /// Memoized clean passes, recorded exactly when the campaign batches:
    /// `Some` selects [`draw_point_batched`], `None` the scalar path, which
    /// recomputes nothing to begin with.
    clean: Option<&'a CleanPasses>,
    cfg: ExecConfig,
    cancel: Option<&'a CancelToken>,
}

/// Runs the draws of one grid point: `sc.trials` maps drawn by
/// `ctx.fault_model`, each shared across every EMT and app (§V
/// methodology), returning the cells in (run, emt, app) order.
fn draw_point(
    sc: &Scenario,
    point: usize,
    ctx: &DrawCtx,
) -> Result<Vec<Vec<Cell>>, exec::Cancelled> {
    if let Some(clean) = ctx.clean {
        return draw_point_batched(sc, point, ctx, clean);
    }
    let DrawCtx {
        fault_model,
        ber_model,
        records,
        references,
        geometry,
        clean: _,
        cfg,
        cancel,
    } = *ctx;
    let runs: Vec<usize> = (0..sc.trials).collect();
    let scratch = || {
        let apps: Vec<Box<dyn BiomedicalApp>> =
            sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
        let mems: Vec<EmtMemory> = sc
            .emts
            .iter()
            .map(|&emt| EmtMemory::new(emt, geometry))
            .collect();
        let map = FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH);
        (apps, mems, map)
    };
    exec::run_trials_cancellable(
        cfg.threads,
        &runs,
        scratch,
        |(apps, mems, map), &run, _| {
            // Same seed across EMTs and apps => same fault map, as in the
            // paper; the wide map covers the widest codeword. `Iid` draws are
            // bit-identical to the historical `regenerate` call.
            let seed = fault_seed(sc.seed, point, run);
            fault_model.arm(map, &geometry, ber_model, seed);
            let record = &records[run % records.len()];
            let mut cells = Vec::with_capacity(sc.emts.len() * apps.len());
            for mem in mems.iter_mut() {
                for (ai, app) in apps.iter().enumerate() {
                    mem.reset_with_fault_map(map);
                    if let Some(base) = sc.scrambler_key {
                        // Fresh logical→physical mapping per (point, run): the
                        // §V randomization that lets one die emulate many.
                        mem.set_scrambler(AddressScrambler::new(
                            geometry.words(),
                            fault_seed(base, point, run),
                        ));
                    }
                    let out = mem.run_app(&**app, &record.samples);
                    let snr = cap_snr(snr_db(
                        &references[ai][run % records.len()],
                        &samples_to_f64(&out),
                    ));
                    let stats = mem.stats();
                    let (uncorrectable, corrected) = if stats.reads > 0 {
                        (
                            stats.uncorrectable_reads as f64 / stats.reads as f64,
                            stats.corrected_reads as f64 / stats.reads as f64,
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    cells.push(Cell {
                        snr_db: snr,
                        uncorrectable,
                        corrected,
                    });
                }
            }
            cells
        },
        cancel,
    )
}

/// Bit-sliced variant of [`draw_point`]: runs ride memoized clean passes
/// per (EMT, app) in lanes of up to [`MAX_LANES`]. Each lane's drawn
/// fault map (scrambler included, resolved to logical addresses) is
/// transposed into [`BatchFaultPlanes`]; with clean traces in hand a
/// group freely mixes records — each record's trace replays on exactly
/// the lanes that drew it — so even campaigns with few trials per record
/// fill whole groups. Survivors take their record's clean SNR and their
/// [`TrialBatch::lane_stats`] outcome counts, evicted lanes replay the
/// ordinary scalar trial — so the returned cells, in the same
/// (run, emt, app) order, are bit-identical to [`draw_point`]'s.
fn draw_point_batched(
    sc: &Scenario,
    point: usize,
    ctx: &DrawCtx,
    clean: &CleanPasses,
) -> Result<Vec<Vec<Cell>>, exec::Cancelled> {
    let DrawCtx {
        fault_model,
        ber_model,
        records,
        references,
        geometry,
        clean: _,
        cfg,
        cancel,
    } = *ctx;
    // Trace replay feeds each lane exactly its own record's events (masked
    // sub-replays share one plane transposition), so lanes need not share a
    // record: chunk runs in order to the lane budget. Small campaigns fill
    // whole groups instead of fragmenting into per-record slivers.
    let groups: Vec<Vec<usize>> = (0..sc.trials)
        .collect::<Vec<_>>()
        .chunks(MAX_LANES)
        .map(<[_]>::to_vec)
        .collect();
    // One armed map per lane, reused by every evicted cell of the lane:
    // the scalar path arms once per run and shares the map across its
    // EMT × app cells, and re-arming per evicted cell would pay that
    // O(words · width) clear-and-sample up to EMTs × apps times over.
    let lane_budget = sc.trials.min(MAX_LANES);
    let scratch = || {
        let apps: Vec<Box<dyn BiomedicalApp>> =
            sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
        let mems: Vec<EmtMemory> = sc
            .emts
            .iter()
            .map(|&emt| EmtMemory::new(emt, geometry))
            .collect();
        let maps: Vec<FaultMap> = (0..lane_budget)
            .map(|_| FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH))
            .collect();
        let planes = BatchFaultPlanes::new(geometry.words(), SHARED_MAP_WIDTH);
        (apps, mems, maps, planes)
    };
    let per_group = exec::run_trials_cancellable(
        cfg.threads,
        &groups,
        scratch,
        |(apps, mems, maps, planes), group, _| {
            planes.clear();
            // Lanes replaying the same record form one masked sub-group.
            let mut parts: Vec<(usize, u64)> = Vec::new();
            for (lane, &run) in group.iter().enumerate() {
                let ri = run % records.len();
                match parts.iter_mut().find(|(r, _)| *r == ri) {
                    Some((_, lanes)) => *lanes |= 1 << lane,
                    None => parts.push((ri, 1 << lane)),
                }
                // Same draw as the scalar path; the scrambler is folded
                // into the planes so the clean pass needs none.
                let seed = fault_seed(sc.seed, point, run);
                fault_model.arm(&mut maps[lane], &geometry, ber_model, seed);
                let scrambler = sc.scrambler_key.map(|base| {
                    AddressScrambler::new(geometry.words(), fault_seed(base, point, run))
                });
                planes.add_lane(lane, &maps[lane], scrambler.as_ref());
            }
            let mut cells: Vec<Vec<Cell>> = group
                .iter()
                .map(|_| Vec::with_capacity(sc.emts.len() * apps.len()))
                .collect();
            for (ei, mem) in mems.iter_mut().enumerate() {
                for (ai, app) in apps.iter().enumerate() {
                    let mut batch = TrialBatch::with_bailout(group.len(), cfg.bailout);
                    // Replay the memoized traces: only dirty events pay
                    // plane work; the application never runs.
                    for &(ri, lanes) in &parts {
                        let pass = &clean[ei][ai][ri];
                        mem.replay_trace(&pass.trace, planes, &mut batch, lanes);
                    }
                    let bailed = batch.bailed().count_ones();
                    telemetry::record_batch_pass(
                        group.len(),
                        batch.evicted().count_ones() - bailed,
                        bailed,
                    );
                    for (lane, &run) in group.iter().enumerate() {
                        let ri = run % records.len();
                        let (snr, stats) = if batch.is_alive(lane) {
                            let pass = &clean[ei][ai][ri];
                            (pass.snr, batch.lane_stats(lane, &pass.trace.stats()))
                        } else {
                            // Evicted: the ordinary scalar trial, verbatim
                            // (the lane's map is already armed above).
                            mem.reset_with_fault_map(&maps[lane]);
                            if let Some(base) = sc.scrambler_key {
                                mem.set_scrambler(AddressScrambler::new(
                                    geometry.words(),
                                    fault_seed(base, point, run),
                                ));
                            }
                            let out = mem.run_app(&**app, &records[ri].samples);
                            let snr = cap_snr(snr_db(&references[ai][ri], &samples_to_f64(&out)));
                            (snr, mem.stats())
                        };
                        let (uncorrectable, corrected) = if stats.reads > 0 {
                            (
                                stats.uncorrectable_reads as f64 / stats.reads as f64,
                                stats.corrected_reads as f64 / stats.reads as f64,
                            )
                        } else {
                            (0.0, 0.0)
                        };
                        cells[lane].push(Cell {
                            snr_db: snr,
                            uncorrectable,
                            corrected,
                        });
                    }
                }
            }
            group
                .iter()
                .zip(cells)
                .map(|(&run, c)| (run, c))
                .collect::<Vec<_>>()
        },
        cancel,
    )?;
    let mut out: Vec<Vec<Cell>> = (0..sc.trials).map(|_| Vec::new()).collect();
    for (run, cells) in per_group.into_iter().flatten() {
        out[run] = cells;
    }
    Ok(out)
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

/// Double-precision reference outputs per (app, record).
type References = Vec<Vec<Vec<f64>>>;

/// Shared hoisted state of the draw families: apps, the geometry fitting
/// the largest footprint, and per-(app, record) references.
fn draw_shared(
    sc: &Scenario,
    records: &[Record],
    threads: usize,
) -> (Vec<Box<dyn BiomedicalApp>>, MemGeometry, References) {
    let apps: Vec<Box<dyn BiomedicalApp>> =
        sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
    let max_words = apps
        .iter()
        .map(|a| a.memory_words())
        .max()
        .expect("validated: at least one app");
    let geometry = banked_geometry(max_words);
    let references: Vec<Vec<Vec<f64>>> = apps
        .iter()
        .map(|app| reference_outputs_on(threads, &**app, records))
        .collect();
    (apps, geometry, references)
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
    let records = record_suite_with_noise(sc.window, sc.effective_records(), sc.noise_scale);
    let (_apps, geometry, references) = draw_shared(sc, &records, cfg.threads);
    // One clean pass per (EMT, app, record), shared by every voltage: each
    // additional grid point pays only faulty-delta work.
    let clean = if cfg.batch {
        Some(record_clean_passes(
            sc,
            &records,
            &references,
            geometry,
            cfg.threads,
            cancel,
        )?)
    } else {
        None
    };
    let model = sc.fault.to_model();
    let mut points = Vec::new();
    for (vi, &voltage) in voltages.iter().enumerate() {
        let fault_model = sc.fault.model.resolve(&model, voltage);
        let results = draw_point(
            sc,
            sc.point_offset + vi,
            &DrawCtx {
                fault_model: &fault_model,
                ber_model: &model,
                records: &records,
                references: &references,
                geometry,
                clean: clean.as_ref(),
                cfg,
                cancel,
            },
        )?;
        let batch: Vec<Fig4Point> = aggregate_point(sc, &results)
            .into_iter()
            .map(|(emt, app, mean, min)| Fig4Point {
                app,
                emt,
                voltage,
                mean_snr_db: mean.snr_db,
                min_snr_db: min,
                uncorrectable_rate: mean.uncorrectable,
                corrected_rate: mean.corrected,
            })
            .collect();
        on_point(&batch)?;
        points.extend(batch);
    }
    Ok(points)
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
    // suite and per-(app, record) references depend on the scale — and
    // only on it. Keeping the most recent suite means consecutive grid
    // points at one scale pay for the reference computation exactly once,
    // without holding every suite of a long sweep in memory at once.
    let apps: Vec<Box<dyn BiomedicalApp>> =
        sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
    let geometry = banked_geometry(
        apps.iter()
            .map(|a| a.memory_words())
            .max()
            .expect("validated: at least one app"),
    );
    let mut suite: Option<(u64, Vec<Record>, References, Option<CleanPasses>)> = None;
    for (si, &scale) in scales.iter().enumerate() {
        let key = scale.to_bits();
        if suite.as_ref().is_none_or(|(k, ..)| *k != key) {
            let records = record_suite_with_noise(sc.window, sc.effective_records(), scale);
            let references: References = apps
                .iter()
                .map(|app| reference_outputs_on(cfg.threads, &**app, &records))
                .collect();
            // Clean passes follow the suite: consecutive points at one
            // scale share them, like the references.
            let clean = if cfg.batch {
                Some(record_clean_passes(
                    sc,
                    &records,
                    &references,
                    geometry,
                    cfg.threads,
                    cancel,
                )?)
            } else {
                None
            };
            suite = Some((key, records, references, clean));
        }
        let (_, records, references, clean) = suite.as_ref().expect("just populated");
        let results = draw_point(
            sc,
            sc.point_offset + si,
            &DrawCtx {
                fault_model: &fault_model,
                ber_model: &model,
                records,
                references,
                geometry,
                clean: clean.as_ref(),
                cfg,
                cancel,
            },
        )?;
        let mut batch = Vec::new();
        for (emt, app, mean, min) in aggregate_point(sc, &results) {
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

fn energy_config(sc: &Scenario, voltages: &[f64]) -> EnergyConfig {
    EnergyConfig {
        app: sc.apps[0],
        window: sc.window,
        voltages: voltages.to_vec(),
        emts: sc.emts.clone(),
    }
}

fn run_energy(
    sc: &Scenario,
    voltages: &[f64],
    sink: &mut dyn Sink,
    cfg: ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutcome, EngineError> {
    sink.begin(&ENERGY_HEADERS)?;
    ensure_live(cancel)?;
    let rows = run_energy_table(&energy_config(sc, voltages), cfg.threads);
    // Stream one batch per voltage (the table computes in one pass; the
    // batching keeps sink behaviour uniform across families).
    let mut rendered = Vec::new();
    for chunk in rows.chunks(sc.emts.len().max(1)) {
        let batch: Vec<Vec<String>> = chunk.iter().map(energy_render).collect();
        sink.emit(&batch)?;
        rendered.extend(batch);
    }
    sink.finish()?;
    Ok(ScenarioOutcome {
        scenario: sc.clone(),
        headers: ENERGY_HEADERS.to_vec(),
        rows: rendered,
        data: OutcomeData::Energy(rows),
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
    let record = dream_ecg::Database::record(100, sc.window);
    let bundle = dream_core::EnergyModelBundle::date16();
    // One fault-free characterization per (size, EMT) — access counts are
    // geometry-independent but cycle counts are not priced per word, so
    // each size re-runs to stay honest about the platform model.
    struct Price {
        point: usize,
        emt: usize,
    }
    let trials: Vec<Price> = (0..words.len())
        .flat_map(|point| (0..sc.emts.len()).map(move |emt| Price { point, emt }))
        .collect();
    let runs = exec::run_trials_cancellable(
        cfg.threads,
        &trials,
        || (),
        |(), t, _| {
            let geometry = MemGeometry::new(words[t.point], 16, 16);
            let config = SocConfig {
                geometry,
                ..SocConfig::inyu()
            };
            let mut soc = Soc::new(config, sc.emts[t.emt], None);
            soc.run_app(&*app, &record.samples)
        },
        cancel,
    )?;
    let mut typed = Vec::new();
    let mut rendered = Vec::new();
    for (pi, &w) in words.iter().enumerate() {
        let run_of = |ei: usize| &runs[pi * sc.emts.len() + ei];
        let price = |ei: usize| {
            let run = run_of(ei);
            let config = SocConfig {
                geometry: MemGeometry::new(w, 16, 16),
                ..SocConfig::inyu()
            };
            bundle.run_energy(
                &sc.emts[ei].codec(),
                &run.stats,
                w,
                sc.fixed_voltage,
                config.seconds(run.cycles),
            )
        };
        let none_idx = sc
            .emts
            .iter()
            .position(|&e| e == EmtKind::None)
            .expect("validated: energy sweeps include the unprotected baseline");
        let baseline = price(none_idx);
        let mut batch = Vec::new();
        for (ei, &emt) in sc.emts.iter().enumerate() {
            let energy = price(ei);
            let row = GeometryEnergyRow {
                words: w,
                emt,
                energy,
                overhead_vs_none: energy.overhead_vs(&baseline),
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
    ensure_live(cancel)?;
    let energy = run_energy_table(&energy_config(sc, voltages), cfg.threads);
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
                let fig2: Vec<crate::fig2::Fig2Row> = rows
                    .iter()
                    .filter(|r| r.emt == EmtKind::None)
                    .map(|r| crate::fig2::Fig2Row {
                        app: r.app,
                        stuck: r.stuck,
                        bit: r.bit,
                        snr_db: r.snr_db,
                    })
                    .collect();
                if fig2.iter().any(|r| r.app == AppKind::CompressedSensing) {
                    let (sa0, sa1) = crate::fig2::cs_tolerance(&fig2, 35.0);
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
}
