//! A traced re-run of the scenario engine's batched injection and
//! voltage-draw families at 1 thread.
//!
//! It issues the same sequence of public `dream_sim::campaign`,
//! `dream_mem` and `dream_core` calls the engine makes for a spec, in the
//! same order and with the same arithmetic, and times each call under the
//! layer it belongs to. Two checks keep it honest: its rows must be
//! byte-identical to `CampaignRunner`'s, and its work counts must equal
//! `telemetry::take()` for the real run. If the engine changes its call
//! sequence, those checks fail and this file must follow.

use std::io;
use std::time::Instant;

use dream_core::{EmtKind, TrialBatch};
use dream_dsp::{samples_to_f64, snr_db, BiomedicalApp};
use dream_ecg::Record;
use dream_mem::{AddressScrambler, BatchFaultPlanes, FaultMap, StuckAt, MAX_LANES};
use dream_sim::campaign::{
    banked_geometry, cap_snr, fault_seed, record_suite_with_noise, reference_outputs, CleanTrace,
    EmtMemory, RawTrace,
};
use dream_sim::exec;
use dream_sim::report::{JsonlSink, Sink};
use dream_sim::scenario::{Grid, Kind, Scenario};
use dream_sim::telemetry::BatchTelemetry;

/// Width of the shared fault maps in multi-EMT draw sweeps (ECC's 22-bit
/// codeword), as in the engine.
const SHARED_MAP_WIDTH: u32 = 22;

/// Busy time per engine layer and the work counted at each boundary.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub synth_s: f64,
    pub reference_s: f64,
    pub clean_record_s: f64,
    pub fault_arm_s: f64,
    pub plane_build_s: f64,
    pub replay_s: f64,
    pub scalar_replay_s: f64,
    pub reduce_s: f64,
    pub render_s: f64,
    pub traces: u64,
    pub fault_maps: u64,
    pub lanes: u64,
    pub replays: u64,
    pub trace_events: u64,
    pub evicted: u64,
    pub bailed: u64,
    pub bytes: u64,
    /// Wall time of the whole traced re-run.
    pub total_s: f64,
}

impl Ledger {
    /// The counts `dream_sim::telemetry` keeps for the same run.
    pub fn telemetry(&self) -> BatchTelemetry {
        BatchTelemetry {
            lanes: self.lanes,
            evicted: self.evicted,
            bailed: self.bailed,
            clean_replays: self.replays,
            traces_recorded: self.traces,
        }
    }

    /// Adds `other`'s times and counts.
    pub fn add(&mut self, other: &Ledger) {
        self.synth_s += other.synth_s;
        self.reference_s += other.reference_s;
        self.clean_record_s += other.clean_record_s;
        self.fault_arm_s += other.fault_arm_s;
        self.plane_build_s += other.plane_build_s;
        self.replay_s += other.replay_s;
        self.scalar_replay_s += other.scalar_replay_s;
        self.reduce_s += other.reduce_s;
        self.render_s += other.render_s;
        self.traces += other.traces;
        self.fault_maps += other.fault_maps;
        self.lanes += other.lanes;
        self.replays += other.replays;
        self.trace_events += other.trace_events;
        self.evicted += other.evicted;
        self.bailed += other.bailed;
        self.bytes += other.bytes;
        self.total_s += other.total_s;
    }
}

/// Runs `f`, adding its duration to `acc`.
fn span<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed().as_secs_f64();
    out
}

/// Re-runs `sc` traced, returning its JSONL rows and the ledger; `None`
/// for a family the mirror does not cover or with batching disabled.
pub fn run(sc: &Scenario) -> Option<io::Result<(Vec<u8>, Ledger)>> {
    if !exec::batch_enabled() {
        return None;
    }
    let mut ledger = Ledger::default();
    let mut sink = JsonlSink::new(Vec::new());
    let started = Instant::now();
    let result = match (&sc.kind, &sc.grid) {
        (Kind::SnrSweep, Grid::BitPosition(bits)) => injection(sc, bits, &mut ledger, &mut sink),
        (Kind::SnrSweep, Grid::Voltage(vs)) => voltage(sc, vs, &mut ledger, &mut sink),
        _ => return None,
    };
    ledger.total_s = started.elapsed().as_secs_f64();
    Some(result.map(|()| {
        let bytes = sink.into_inner();
        ledger.bytes = bytes.len() as u64;
        (bytes, ledger)
    }))
}

fn emit(
    sink: &mut dyn Sink,
    l: &mut Ledger,
    rows: impl FnOnce() -> Vec<Vec<String>>,
) -> io::Result<()> {
    span(&mut l.render_s, || sink.emit(&rows()))
}

// ---------------------------------------------------------------------------
// Injection family (fig2).
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct InjectionTrial {
    stuck: StuckAt,
    bit: u32,
    record: usize,
    trial: usize,
}

fn injection(sc: &Scenario, bits: &[u32], l: &mut Ledger, sink: &mut dyn Sink) -> io::Result<()> {
    let records = span(&mut l.synth_s, || {
        record_suite_with_noise(sc.window, sc.effective_records(), sc.noise_scale)
    });
    let multi = sc.emts.len() > 1;
    let headers: &[&str] = if multi {
        &["app", "emt", "stuck", "bit", "snr_db"]
    } else {
        &["app", "stuck", "bit", "snr_db"]
    };
    span(&mut l.render_s, || sink.begin(headers))?;
    let bailout = exec::batch_bailout();
    for &app_kind in &sc.apps {
        let app = app_kind.instantiate(sc.window);
        let references = span(&mut l.reference_s, || reference_outputs(&*app, &records));
        for &emt in &sc.emts {
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
            let width = if emt == EmtKind::None {
                16
            } else {
                SHARED_MAP_WIDTH
            };
            let snrs = injection_snrs(
                sc,
                &trials,
                &*app,
                emt,
                width,
                &records,
                &references,
                bailout,
                l,
            );
            let runs_per_point = records.len() * sc.trials;
            let means: Vec<(StuckAt, u32, f64)> = span(&mut l.reduce_s, || {
                let mut out = Vec::new();
                let mut next = 0usize;
                for stuck in [StuckAt::Zero, StuckAt::One] {
                    for &bit in bits {
                        let point = &snrs[next..next + runs_per_point];
                        next += runs_per_point;
                        out.push((
                            stuck,
                            bit,
                            point.iter().sum::<f64>() / runs_per_point as f64,
                        ));
                    }
                }
                out
            });
            emit(sink, l, || {
                means
                    .iter()
                    .map(|&(stuck, bit, snr)| {
                        let mut cells = vec![app_kind.to_string()];
                        if multi {
                            cells.push(emt.to_string());
                        }
                        cells.push(format!("{stuck:?}"));
                        cells.push(bit.to_string());
                        cells.push(format!("{snr:.3}"));
                        cells
                    })
                    .collect()
            })?;
        }
    }
    span(&mut l.render_s, || sink.finish())
}

#[allow(clippy::too_many_arguments)]
fn injection_snrs(
    sc: &Scenario,
    trials: &[InjectionTrial],
    app: &dyn BiomedicalApp,
    emt: EmtKind,
    width: u32,
    records: &[Record],
    references: &[Vec<f64>],
    bailout: f64,
    l: &mut Ledger,
) -> Vec<f64> {
    let words = app.memory_words();
    let geometry = banked_geometry(words);
    // One clean pass per record.
    let passes: Vec<(CleanTrace, f64)> = {
        let mut mem = EmtMemory::new(emt, geometry);
        let map = FaultMap::empty(geometry.words(), width);
        records
            .iter()
            .enumerate()
            .map(|(ri, record)| {
                let trace = span(&mut l.clean_record_s, || {
                    mem.reset_with_fault_map(&map);
                    mem.record_trace(app, &record.samples)
                });
                l.traces += 1;
                let snr = span(&mut l.reduce_s, || {
                    cap_snr(snr_db(&references[ri], &samples_to_f64(trace.output())))
                });
                (trace, snr)
            })
            .collect()
    };
    let mut by_record: Vec<Vec<(usize, InjectionTrial)>> = vec![Vec::new(); records.len()];
    for (i, t) in trials.iter().enumerate() {
        by_record[t.record].push((i, *t));
    }
    let groups: Vec<&[(usize, InjectionTrial)]> = by_record
        .iter()
        .flat_map(|lanes| lanes.chunks(MAX_LANES))
        .collect();
    // The engine's single arena at 1 thread.
    let (mut mem, mut map, mut planes) = span(&mut l.plane_build_s, || {
        (
            EmtMemory::new(emt, geometry),
            FaultMap::empty(geometry.words(), width),
            BatchFaultPlanes::new(geometry.words(), width),
        )
    });
    let mut snrs = vec![0.0f64; trials.len()];
    for group in groups {
        let record = group[0].1.record;
        span(&mut l.plane_build_s, || {
            planes.clear();
            for (lane, (_, t)) in group.iter().enumerate() {
                let seed = fault_seed(sc.seed, t.record, t.trial);
                let word = (seed % words as u64) as usize;
                planes.inject(lane, word, t.bit, t.stuck);
            }
        });
        let (trace, clean_snr) = &passes[record];
        let mut batch = TrialBatch::with_bailout(group.len(), bailout);
        span(&mut l.replay_s, || {
            mem.replay_trace(trace, &planes, &mut batch, u64::MAX);
        });
        count_pass(l, group.len(), &batch, trace.events());
        for (lane, &(i, t)) in group.iter().enumerate() {
            snrs[i] = if batch.is_alive(lane) {
                *clean_snr
            } else {
                span(&mut l.fault_arm_s, || {
                    let seed = fault_seed(sc.seed, t.record, t.trial);
                    let word = (seed % words as u64) as usize;
                    map.clear();
                    map.inject(word, t.bit, t.stuck);
                    mem.reset_with_fault_map(&map);
                });
                l.fault_maps += 1;
                let out = span(&mut l.scalar_replay_s, || {
                    mem.run_app(app, &records[record].samples)
                });
                span(&mut l.reduce_s, || {
                    cap_snr(snr_db(&references[record], &samples_to_f64(&out)))
                })
            };
        }
    }
    snrs
}

/// Accounts one batched (group, EMT, app) pass, as the engine's
/// telemetry does.
fn count_pass(l: &mut Ledger, lanes: usize, batch: &TrialBatch, events: usize) {
    let bailed = u64::from(batch.bailed().count_ones());
    l.lanes += lanes as u64;
    l.evicted += u64::from(batch.evicted().count_ones()) - bailed;
    l.bailed += bailed;
    l.replays += 1;
    l.trace_events += events as u64;
}

// ---------------------------------------------------------------------------
// Voltage-draw family (fig4).
// ---------------------------------------------------------------------------

const FIG4_HEADERS: [&str; 7] = [
    "app",
    "emt",
    "voltage",
    "mean_snr_db",
    "min_snr_db",
    "corrected_rate",
    "uncorrectable_rate",
];

/// Per-trial observation of one (EMT, app) cell.
#[derive(Clone, Copy)]
struct Cell {
    snr_db: f64,
    uncorrectable: f64,
    corrected: f64,
}

fn voltage(sc: &Scenario, voltages: &[f64], l: &mut Ledger, sink: &mut dyn Sink) -> io::Result<()> {
    span(&mut l.render_s, || sink.begin(&FIG4_HEADERS))?;
    let records = span(&mut l.synth_s, || {
        record_suite_with_noise(sc.window, sc.effective_records(), sc.noise_scale)
    });
    let apps: Vec<Box<dyn BiomedicalApp>> =
        sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
    let max_words = apps.iter().map(|a| a.memory_words()).max().unwrap_or(0);
    let geometry = banked_geometry(max_words);
    let references: Vec<Vec<Vec<f64>>> = span(&mut l.reference_s, || {
        apps.iter()
            .map(|app| reference_outputs(&**app, &records))
            .collect()
    });

    // Clean passes `[emt][app][record]`: one raw recording per (app,
    // record), each EMT's trace derived from it.
    let used = records.len().min(sc.trials.max(1));
    let raws: Vec<Option<RawTrace>> = span(&mut l.clean_record_s, || {
        let scratch: Vec<Box<dyn BiomedicalApp>> =
            sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
        let mut raws = Vec::new();
        for app in &scratch {
            for record in records.iter().take(used) {
                raws.push(RawTrace::record(&**app, &record.samples, geometry.words()));
            }
        }
        raws
    });
    let mut mems: Vec<EmtMemory> = sc
        .emts
        .iter()
        .map(|&e| EmtMemory::new(e, geometry))
        .collect();
    let empty = FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH);
    let mut passes: Vec<Vec<Vec<(CleanTrace, f64)>>> = Vec::new();
    for mem in &mut mems {
        let mut per_app = Vec::new();
        for ai in 0..sc.apps.len() {
            let mut per_record = Vec::new();
            for ri in 0..used {
                let trace = span(&mut l.clean_record_s, || match &raws[ai * used + ri] {
                    Some(raw) => mem.derive_trace(raw),
                    None => {
                        let app = sc.apps[ai].instantiate(sc.window);
                        mem.reset_with_fault_map(&empty);
                        mem.record_trace(&*app, &records[ri].samples)
                    }
                });
                l.traces += 1;
                let snr = span(&mut l.reduce_s, || {
                    cap_snr(snr_db(&references[ai][ri], &samples_to_f64(trace.output())))
                });
                per_record.push((trace, snr));
            }
            per_app.push(per_record);
        }
        passes.push(per_app);
    }

    let model = sc.fault.to_model();
    let bailout = exec::batch_bailout();
    for (vi, &volts) in voltages.iter().enumerate() {
        let point = sc.point_offset + vi;
        let fault_model = span(&mut l.fault_arm_s, || sc.fault.model.resolve(&model, volts));
        // The engine's per-point arena at 1 thread.
        let lane_budget = sc.trials.min(MAX_LANES);
        let (apps, mut mems, mut maps, mut planes) = span(&mut l.plane_build_s, || {
            let apps: Vec<Box<dyn BiomedicalApp>> =
                sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
            let mems: Vec<EmtMemory> = sc
                .emts
                .iter()
                .map(|&e| EmtMemory::new(e, geometry))
                .collect();
            let maps: Vec<FaultMap> = (0..lane_budget)
                .map(|_| FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH))
                .collect();
            let planes = BatchFaultPlanes::new(geometry.words(), SHARED_MAP_WIDTH);
            (apps, mems, maps, planes)
        });
        let mut results: Vec<Vec<Cell>> = vec![Vec::new(); sc.trials];
        let runs: Vec<usize> = (0..sc.trials).collect();
        for group in runs.chunks(MAX_LANES) {
            span(&mut l.plane_build_s, || planes.clear());
            let mut parts: Vec<(usize, u64)> = Vec::new();
            for (lane, &run) in group.iter().enumerate() {
                let ri = run % records.len();
                match parts.iter_mut().find(|(r, _)| *r == ri) {
                    Some((_, lanes)) => *lanes |= 1 << lane,
                    None => parts.push((ri, 1 << lane)),
                }
                let seed = fault_seed(sc.seed, point, run);
                span(&mut l.fault_arm_s, || {
                    fault_model.arm(&mut maps[lane], &geometry, &model, seed);
                });
                l.fault_maps += 1;
                span(&mut l.plane_build_s, || {
                    let scrambler = sc.scrambler_key.map(|base| {
                        AddressScrambler::new(geometry.words(), fault_seed(base, point, run))
                    });
                    planes.add_lane(lane, &maps[lane], scrambler.as_ref());
                });
            }
            for (ei, mem) in mems.iter_mut().enumerate() {
                for (ai, app) in apps.iter().enumerate() {
                    let mut batch = TrialBatch::with_bailout(group.len(), bailout);
                    let mut events = 0;
                    span(&mut l.replay_s, || {
                        for &(ri, lanes) in &parts {
                            let trace = &passes[ei][ai][ri].0;
                            mem.replay_trace(trace, &planes, &mut batch, lanes);
                            events += trace.events();
                        }
                    });
                    count_pass(l, group.len(), &batch, events);
                    for (lane, &run) in group.iter().enumerate() {
                        let ri = run % records.len();
                        let (snr, stats) = if batch.is_alive(lane) {
                            let (trace, clean_snr) = &passes[ei][ai][ri];
                            span(&mut l.reduce_s, || {
                                (*clean_snr, batch.lane_stats(lane, &trace.stats()))
                            })
                        } else {
                            let out = span(&mut l.scalar_replay_s, || {
                                mem.reset_with_fault_map(&maps[lane]);
                                if let Some(base) = sc.scrambler_key {
                                    mem.set_scrambler(AddressScrambler::new(
                                        geometry.words(),
                                        fault_seed(base, point, run),
                                    ));
                                }
                                mem.run_app(&**app, &records[ri].samples)
                            });
                            span(&mut l.reduce_s, || {
                                let snr =
                                    cap_snr(snr_db(&references[ai][ri], &samples_to_f64(&out)));
                                (snr, mem.stats())
                            })
                        };
                        let (uncorrectable, corrected) = if stats.reads > 0 {
                            (
                                stats.uncorrectable_reads as f64 / stats.reads as f64,
                                stats.corrected_reads as f64 / stats.reads as f64,
                            )
                        } else {
                            (0.0, 0.0)
                        };
                        results[run].push(Cell {
                            snr_db: snr,
                            uncorrectable,
                            corrected,
                        });
                    }
                }
            }
        }
        let cells = span(&mut l.reduce_s, || aggregate(sc, &results));
        emit(sink, l, || {
            cells
                .iter()
                .map(|&(emt, app, mean, min)| {
                    vec![
                        app.to_string(),
                        emt.to_string(),
                        format!("{volts:.2}"),
                        format!("{:.3}", mean.snr_db),
                        format!("{min:.3}"),
                        format!("{:.6}", mean.corrected),
                        format!("{:.6}", mean.uncorrectable),
                    ]
                })
                .collect()
        })?;
    }
    span(&mut l.render_s, || sink.finish())
}

/// Per-(EMT, app) means and minimum over the point's runs, in the
/// engine's (emt, app) order and run-ascending reduction sequence.
fn aggregate(
    sc: &Scenario,
    results: &[Vec<Cell>],
) -> Vec<(EmtKind, dream_dsp::AppKind, Cell, f64)> {
    let mut out = Vec::new();
    for (ei, &emt) in sc.emts.iter().enumerate() {
        for (ai, &app) in sc.apps.iter().enumerate() {
            let idx = ei * sc.apps.len() + ai;
            let mut snr_sum = 0.0;
            let mut snr_min = f64::INFINITY;
            let mut uncorrectable = 0.0;
            let mut corrected = 0.0;
            for cells in results.iter().take(sc.trials) {
                let cell = &cells[idx];
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
