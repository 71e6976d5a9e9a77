//! End-to-end spec-file coverage for the post-paper scenarios:
//! `noise-sweep`, `geometry-sweep`, and the fault-model sweeps
//! `burst-sweep` / `bank-voltage` must run from a registry name *and*
//! from a JSON spec file, through every sink format, with identical rows.

use dream_suite::serve::campaign_id;
use dream_suite::sim::report::{CsvSink, JsonlSink, Sink, TableSink};
use dream_suite::sim::scenario::json::Json;
use dream_suite::sim::scenario::{
    registry, CampaignRunner, EngineError, FaultModelSpec, Grid, Scenario, ScenarioOutcome,
    SinkSpec,
};
use proptest::prelude::*;

/// These tests drive campaigns the way every current caller does — through
/// the [`CampaignRunner`] builder.
fn run_with_sink(sc: &Scenario, sink: &mut dyn Sink) -> Result<ScenarioOutcome, EngineError> {
    CampaignRunner::new(sc.clone()).run(sink)
}

/// Shrinks a smoke preset to seconds-scale for the differential runs.
fn tiny(preset: &str) -> Scenario {
    let mut sc = registry::get(preset, true).expect("preset exists");
    sc.records = 1;
    sc.trials = 1;
    sc.apps.truncate(1);
    sc.window = 512;
    match &mut sc.grid {
        Grid::NoiseScale(scales) => scales.truncate(2),
        Grid::MemoryWords(words) => words.truncate(2),
        Grid::Voltage(vs) => {
            // Keep the faulty end so the fault model actually draws.
            vs.truncate(2);
        }
        Grid::BitPosition(bits) => bits.truncate(2),
    }
    sc
}

fn run_all_sinks(sc: &Scenario) -> (String, String, String) {
    let mut csv = CsvSink::new(Vec::new());
    run_with_sink(sc, &mut csv).expect("csv run");
    let mut jsonl = JsonlSink::new(Vec::new());
    run_with_sink(sc, &mut jsonl).expect("jsonl run");
    let mut table = TableSink::new(Vec::new());
    run_with_sink(sc, &mut table).expect("table run");
    (
        String::from_utf8(csv.into_inner()).unwrap(),
        String::from_utf8(jsonl.into_inner()).unwrap(),
        String::from_utf8(table.into_inner()).unwrap(),
    )
}

#[test]
fn new_scenarios_run_from_name_and_from_spec_file_identically() {
    for preset in [
        "noise-sweep",
        "geometry-sweep",
        "burst-sweep",
        "bank-voltage",
    ] {
        let sc = tiny(preset);

        // Path A: the in-memory scenario (stand-in for `dream run <name>`).
        let (csv_a, jsonl_a, table_a) = run_all_sinks(&sc);
        assert!(!table_a.is_empty(), "{preset}: table sink rendered nothing");

        // Path B: serialize to a spec file on disk, re-parse, re-run —
        // the `dream run spec.json` path.
        let dir = std::env::temp_dir().join("dream_scenario_spec_e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{preset}.json"));
        std::fs::write(&path, sc.to_json()).unwrap();
        let reparsed =
            Scenario::from_json(&std::fs::read_to_string(&path).unwrap()).expect("spec parses");
        assert_eq!(reparsed, sc, "{preset}: disk round-trip must be lossless");
        let (csv_b, jsonl_b, table_b) = run_all_sinks(&reparsed);

        assert_eq!(csv_a, csv_b, "{preset}: name-run and spec-run CSV differ");
        assert_eq!(
            jsonl_a, jsonl_b,
            "{preset}: name-run and spec-run JSONL differ"
        );
        assert_eq!(
            table_a, table_b,
            "{preset}: name-run and spec-run table differ"
        );

        // Sanity on the emitted formats.
        let expected_rows = sc.grid.len() * sc.emts.len() * sc.apps.len().max(1);
        assert_eq!(csv_a.lines().count(), 1 + expected_rows, "{preset} csv");
        assert_eq!(jsonl_a.lines().count(), expected_rows, "{preset} jsonl");
        for line in jsonl_a.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "{preset}: malformed JSONL line {line:?}"
            );
        }
    }
}

#[test]
fn table_sink_renders_scenario_rows() {
    let sc = tiny("geometry-sweep");
    let mut table = TableSink::new(Vec::new());
    let outcome = run_with_sink(&sc, &mut table).expect("table run");
    // The table is written to the underlying buffer on finish(); verify
    // through the outcome's row view instead of poking at the sink.
    assert!(!outcome.rows.is_empty());
    assert_eq!(outcome.headers[0], "words");
}

#[test]
fn fault_model_axis_changes_outcomes_at_faulty_voltages() {
    // The model field must be a live axis: at 0.5 V the burst and
    // bank-voltage draws place different faults than i.i.d., so the rows
    // diverge — equality would mean the layer is dead code.
    let mut sc = tiny("fig4");
    sc.trials = 2;
    sc.grid = Grid::Voltage(vec![0.5]);
    let iid = run_with_sink(&sc, &mut dream_suite::sim::report::NullSink).unwrap();
    for model in [
        FaultModelSpec::Burst { mean_run_len: 8.0 },
        FaultModelSpec::ColumnCorrelated { column_weight: 0.8 },
        FaultModelSpec::PerBankVoltage {
            bank_offsets: FaultModelSpec::bank_ramp(0.05),
        },
    ] {
        sc.fault.model = model.clone();
        let varied = run_with_sink(&sc, &mut dream_suite::sim::report::NullSink).unwrap();
        assert_ne!(
            iid.rows,
            varied.rows,
            "{} must shift the Monte-Carlo outcomes",
            model.kind_token()
        );
    }
}

#[test]
fn extends_inherits_the_preset_and_overrides_restated_fields() {
    // A fault-model variant of fig4 without restating the whole spec.
    let spec = r#"{
        "extends": "fig4",
        "name": "fig4-burst",
        "window": 512,
        "records": 1,
        "trials": 2,
        "apps": ["dwt"],
        "grid": {"axis": "voltage", "values": [0.5, 0.9]},
        "fault": {"model": {"kind": "burst", "mean_run_len": 8}}
    }"#;
    let sc = Scenario::from_json(spec).expect("extends spec parses");
    let base = registry::get("fig4", false).unwrap();
    // Overridden fields.
    assert_eq!(sc.name, "fig4-burst");
    assert_eq!(sc.window, 512);
    assert_eq!(sc.trials, 2);
    assert_eq!(sc.grid, Grid::Voltage(vec![0.5, 0.9]));
    assert_eq!(sc.fault.model, FaultModelSpec::Burst { mean_run_len: 8.0 });
    // Inherited fields, including the calibration under the partial
    // "fault" override.
    assert_eq!(sc.emts, base.emts);
    assert_eq!(sc.seed, base.seed);
    assert_eq!(sc.title, base.title);
    assert_eq!(sc.fault.nominal_v, base.fault.nominal_v);
    assert_eq!(
        sc.fault.log10_slope_per_volt,
        base.fault.log10_slope_per_volt
    );
    // And it runs.
    let outcome = run_with_sink(&sc, &mut dream_suite::sim::report::NullSink).unwrap();
    assert_eq!(outcome.rows.len(), 2 * sc.emts.len());

    // Unknown presets are named in the error.
    let err = Scenario::from_json(r#"{"extends": "fig9"}"#).unwrap_err();
    assert!(err.to_string().contains("fig9"), "{err}");
    // A bare extends with no overrides is the full preset.
    let plain = Scenario::from_json(r#"{"extends": "noise-sweep"}"#).unwrap();
    assert_eq!(plain, registry::get("noise-sweep", false).unwrap());
    // A variant that overrides fields without renaming itself would
    // silently overwrite the base preset's artifact — rejected.
    let err = Scenario::from_json(r#"{"extends": "fig4", "trials": 7}"#).unwrap_err();
    assert!(err.to_string().contains("name"), "{err}");
}

#[test]
fn append_jsonl_sink_accumulates_rows_across_runs() {
    let dir = std::env::temp_dir().join("dream_scenario_append_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.jsonl");
    let _ = std::fs::remove_file(&path);

    let sc = tiny("burst-sweep");
    let run_append = || {
        let mut sink = JsonlSink::append(&path).expect("append sink opens");
        let outcome = run_with_sink(&sc, &mut sink).expect("run");
        sink.finish().expect("flush");
        outcome
    };
    let first = run_append();
    let after_one = std::fs::read_to_string(&path).unwrap();
    assert_eq!(after_one.lines().count(), first.rows.len());
    let second = run_append();
    let after_two = std::fs::read_to_string(&path).unwrap();
    // The second campaign continued the artifact instead of truncating it.
    assert_eq!(
        after_two.lines().count(),
        first.rows.len() + second.rows.len()
    );
    assert!(after_two.starts_with(&after_one));

    // Spec-level validation: append demands jsonl and an out directory.
    let mut bad = sc.clone();
    bad.sink.append = true;
    bad.sink.format = dream_suite::sim::scenario::SinkFormat::Csv;
    bad.sink.out = Some(dir.display().to_string());
    assert!(bad.validate().is_err(), "append+csv must be rejected");
    bad.sink.format = dream_suite::sim::scenario::SinkFormat::Jsonl;
    bad.sink.out = None;
    assert!(
        bad.validate().is_err(),
        "append without out must be rejected"
    );
    bad.sink.out = Some(dir.display().to_string());
    bad.validate().expect("append+jsonl+out is valid");
}

/// `SinkSpec::parse` on `token` returns `Ok` or a `SpecError` (a panic
/// fails the property), and every `Ok` round-trips through `token()`.
fn sink_token_round_trips(token: &str) -> Result<(), TestCaseError> {
    if let Ok(spec) = SinkSpec::parse(token) {
        prop_assert_eq!(SinkSpec::parse(&spec.token()), Ok(spec), "{:?}", token);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile input: arbitrary bytes, read as lossy UTF-8.
    #[test]
    fn sink_grammar_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..48)) {
        sink_token_round_trips(&String::from_utf8_lossy(&bytes))?;
    }

    /// Hostile spec bodies: arbitrary bytes, read as lossy UTF-8, give a
    /// `Json` or a `ParseError`, never a panic.
    #[test]
    fn json_parse_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// JSON fragments in any order — deep nesting, escapes, numbers — so
    /// documents that parse are exercised too; every `Ok` round-trips
    /// through `pretty()`.
    #[test]
    fn json_parse_round_trips_fragment_soup(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "[", "]", "{", "}", ",", ":", "\"k\"", "\"\\u00e9\"", "\"\\", "1", "-2.5e3", "null",
                "true", " ", "é", "\u{0}",
            ]),
            0..96,
        ),
    ) {
        let text = parts.concat();
        if let Ok(doc) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&doc.pretty()), Ok(doc), "{:?}", text);
        }
    }

    /// Near-miss input: grammar fragments in any order, so the `Ok` side
    /// and its round trip are exercised too, not only the errors.
    #[test]
    fn sink_grammar_round_trips_fragment_soup(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "table", "csv", "jsonl", ":", ",", ",append", "append", "dir", "a/b", "é", "\0", " ",
            ]),
            0..6,
        ),
    ) {
        sink_token_round_trips(&parts.concat())?;
    }
}

/// `Scenario::from_json` on `text` returns `Ok` or a `SpecError` (a panic
/// fails the property). Every `Ok` that validates round-trips through
/// `to_json` to an equal spec with the same store id.
fn spec_round_trips(text: &str) -> Result<(), TestCaseError> {
    let Ok(sc) = Scenario::from_json(text) else {
        return Ok(());
    };
    if sc.validate().is_err() {
        return Ok(());
    }
    let again = Scenario::from_json(&sc.to_json());
    prop_assert_eq!(again.as_ref(), Ok(&sc), "{:?}", text);
    prop_assert_eq!(campaign_id(&sc), campaign_id(&again.unwrap()), "{:?}", text);
    Ok(())
}

/// The values a mutated spec field may take: every JSON type, edge
/// numbers, and tokens that are valid somewhere in a spec.
fn value_pool() -> Vec<Json> {
    let num = Json::Num;
    let s = |t: &str| Json::Str(t.to_string());
    vec![
        Json::Null,
        Json::Bool(true),
        num(0.0),
        num(-0.0),
        num(-1.0),
        num(0.5),
        num(3.0),
        num(64.0),
        num(1e12),
        num(1e308),
        s(""),
        s("fig4"),
        s("fig2"),
        s("nope"),
        s("dream"),
        s("voltage"),
        s("burst"),
        s("jsonl"),
        Json::Arr(vec![]),
        Json::Arr(vec![num(0.7), num(0.9)]),
        Json::Arr(vec![s("dwt"), s("ecc")]),
        Json::Obj(vec![]),
        Json::Obj(vec![("kind".to_string(), s("iid"))]),
        Json::Obj(vec![
            ("axis".to_string(), s("noise_scale")),
            ("values".to_string(), Json::Arr(vec![num(1.0)])),
        ]),
    ]
}

/// Keys an edit may insert: spec fields, nested-object fields and an
/// unknown one.
const SPEC_KEYS: [&str; 11] = [
    "extends", "name", "records", "trials", "kind", "axis", "values", "model", "window", "seed",
    "bogus",
];

/// Applies one edit at the node `path` leads to (indices wrap; the walk
/// stops at a leaf): op 0 replaces the node with `value`, 1 removes it,
/// 2 inserts `value` before it (under `key` in an object), and 3 splices
/// in the node at the same place of `donor`, another preset's document.
fn edit(node: &mut Json, path: &[usize], op: u8, value: &Json, key: &str, donor: Option<&Json>) {
    match (path.split_first(), node) {
        (Some((&i, rest)), Json::Obj(fields)) if !fields.is_empty() => {
            let i = i % fields.len();
            let donor = donor.and_then(|d| d.get(&fields[i].0));
            if !rest.is_empty() {
                return edit(&mut fields[i].1, rest, op, value, key, donor);
            }
            match op {
                0 => fields[i].1 = value.clone(),
                1 => drop(fields.remove(i)),
                2 => fields.insert(i, (key.to_string(), value.clone())),
                _ => {
                    if let Some(d) = donor {
                        fields[i].1 = d.clone();
                    }
                }
            }
        }
        (Some((&i, rest)), Json::Arr(items)) if !items.is_empty() => {
            let i = i % items.len();
            let donor = match donor {
                Some(Json::Arr(d)) => d.get(i),
                _ => None,
            };
            if !rest.is_empty() {
                return edit(&mut items[i], rest, op, value, key, donor);
            }
            match op {
                0 => items[i] = value.clone(),
                1 => drop(items.remove(i)),
                2 => items.insert(i, value.clone()),
                _ => {
                    if let Some(d) = donor {
                        items[i] = d.clone();
                    }
                }
            }
        }
        (_, node) => {
            if op == 0 {
                *node = value.clone();
            }
        }
    }
}

/// A registry preset's canonical document.
fn preset_doc(index: usize, smoke: bool) -> Json {
    let names = registry::names();
    let sc = registry::get(names[index % names.len()], smoke).expect("preset exists");
    Json::parse(&sc.to_json()).expect("presets serialize to JSON")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile spec documents: arbitrary bytes, read as lossy UTF-8.
    #[test]
    fn spec_parser_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        spec_round_trips(&String::from_utf8_lossy(&bytes))?;
    }

    /// Near-miss documents: a preset with fields replaced, removed,
    /// inserted, or spliced in from another preset, at any depth.
    #[test]
    fn spec_parser_round_trips_mutated_presets(
        preset in 0usize..64,
        smoke in any::<bool>(),
        donor in 0usize..64,
        edits in prop::collection::vec(
            (
                prop::collection::vec(0usize..64, 1..4),
                0u8..4,
                0usize..64,
                0usize..64,
            ),
            1..4,
        ),
    ) {
        let mut doc = preset_doc(preset, smoke);
        let donor = preset_doc(donor, !smoke);
        let pool = value_pool();
        for (path, op, value, key) in &edits {
            let value = &pool[value % pool.len()];
            let key = SPEC_KEYS[key % SPEC_KEYS.len()];
            edit(&mut doc, path, *op, value, key, Some(&donor));
        }
        spec_round_trips(&doc.pretty())?;
    }

    /// Byte-level damage to a preset's text: a cut span replaced by
    /// arbitrary bytes.
    #[test]
    fn spec_parser_survives_spliced_preset_bytes(
        preset in 0usize..64,
        start in 0usize..2048,
        cut in 0usize..16,
        insert in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut bytes = preset_doc(preset, true).pretty().into_bytes();
        let start = start % (bytes.len() + 1);
        let end = (start + cut).min(bytes.len());
        bytes.splice(start..end, insert);
        spec_round_trips(&String::from_utf8_lossy(&bytes))?;
    }
}
