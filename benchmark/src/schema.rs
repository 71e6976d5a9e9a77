//! The benchmark's metric and workload schema — the names other documents
//! cite. `BENCHMARK.json` at the repository root must agree with it (a
//! unit test checks that).

/// Which direction improves a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen before a change counts as a
/// regression.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, in the order the steadiness check runs them.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "draw-sweep",
        "fig4 preset at 1 and 2 threads: the batched draw path (clean-trace replay, fault-map arming, eviction)",
    ),
    (
        "injection-sweep",
        "fig2 preset at 1 and 2 threads: batched stuck-at injection through the dsp Q15 kernels; a draw-path change stays flat",
    ),
    (
        "serve-mix",
        "one server on a pre-filled store: cold smoke draw specs interleaved with cache hits; http, store, poller and client",
    ),
];

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [Metric; 7] = [
    e2e("trials_per_s", "1/s", Higher, 0.25),
    e2e("serial_trials_per_s", "1/s", Higher, 0.25),
    e2e("miss_s", "s", Lower, 0.2),
    e2e("ttfr_s", "s", Lower, 0.2),
    e2e("hit_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics, reported by every traced run of every workload
/// (0 where the workload never enters that layer).
pub const PER_LAYER: [Metric; 40] = [
    layer("ecg.synth_s", "s", Lower),
    layer("dsp.reference_s", "s", Lower),
    layer("sim.clean_record_s", "s", Lower),
    layer("sim.traces", "count", Lower),
    layer("mem.fault_arm_s", "s", Lower),
    layer("mem.fault_maps", "count", Lower),
    layer("mem.plane_build_s", "s", Lower),
    layer("mem.lanes", "count", Higher),
    layer("sim.replay_s", "s", Lower),
    layer("sim.replays", "count", Lower),
    layer("sim.trace_events", "count", Lower),
    layer("sim.scalar_replay_s", "s", Lower),
    layer("sim.evicted", "count", Lower),
    layer("sim.bailed", "count", Lower),
    layer("sim.batch_survival", "ratio", Higher),
    layer("sim.reduce_s", "s", Lower),
    layer("report.render_s", "s", Lower),
    layer("report.bytes", "B", Lower),
    layer("exec.point_s.max", "s", Lower),
    layer("exec.point_skew", "ratio", Lower),
    layer("exec.parallel_efficiency", "ratio", Higher),
    layer("serve.bind_s", "s", Lower),
    layer("serve.artifacts_verified", "count", Higher),
    layer("serve.admit_s", "s", Lower),
    layer("serve.first_row_s", "s", Lower),
    layer("serve.stream_s", "s", Lower),
    layer("serve.bytes", "B", Lower),
    layer("serve.hit_stalls", "count", Lower),
    layer("serve.trials_executed", "count", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.shed", "count", Lower),
    layer("serve.bad_requests", "count", Lower),
    layer("client.retries", "count", Lower),
    layer("client.throttled", "count", Lower),
    layer("shard.plan_s", "s", Lower),
    layer("shard.fetch_s.max", "s", Lower),
    layer("shard.skew", "ratio", Lower),
    layer("shard.overhead_s", "s", Lower),
    layer("trace.overhead_s", "s", Lower),
    layer("trace.counts_match", "bool", Higher),
];

/// The end-to-end metric named `name`.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
/// Whether `name` obeys the `BENCHMARK.json` naming rule: starts with
/// a letter or digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` obeys the `BENCHMARK.json` unit rule: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_sim::scenario::json::Json;
    use std::collections::HashSet;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = HashSet::new();
        let workload_names = WORKLOADS.iter().map(|(n, _)| *n);
        let metric_names = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in workload_names.chain(metric_names) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }

    #[test]
    fn bounds_are_in_range_and_setup_has_the_largest() {
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for (key, schema) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), schema.len(), "{key}");
            for (entry, m) in listed.iter().zip(schema) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str);
                assert_eq!(field("name"), Some(m.name));
                assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(field("better"), Some(m.better.token()), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
