//! Deterministic grid partitioning: split one validated [`Scenario`]
//! into K contiguous shards whose outputs concatenate **byte-identically**
//! to the serial artifact.
//!
//! Each campaign family has one natural shard axis along which rows are
//! emitted contiguously and per-trial seeds do not depend on position:
//!
//! * **Injection sweeps** (`snr-sweep` over bit positions, fig2) shard
//!   along the *application* axis — rows are emitted app-major and every
//!   fault seed derives from `(record, trial)` only, so an apps-subset
//!   spec reproduces exactly its slice of the serial row stream.
//! * **Draw families** (`snr-sweep` over voltage or noise scale, fig4 /
//!   noise-sweep) shard along contiguous *grid-point ranges*; the derived
//!   spec carries [`Scenario::point_offset`] so per-point fault and
//!   scrambler seeds — `fault_seed(seed, point, run)` — match the absolute
//!   point index the serial run would have used.
//! * **Geometry sweeps** (`energy-sweep` over memory words) shard along
//!   grid-point ranges; their pricing trials draw no fault seeds, so the
//!   slice alone suffices.
//! * Everything else (`tradeoff`, `ablation`, `energy-sweep` over
//!   voltage) emits a single interdependent artifact and collapses to one
//!   shard — sharding degrades gracefully to the serial run.
//!
//! The plan is pure data: each [`Shard`] holds a derived spec plus the
//! half-open row window it produces, so a coordinator can fan shards out,
//! cache their sub-artifacts independently, and reassemble in index order.
//! [`ShardPlan::resume`] cuts the same axis for an interrupted artifact:
//! it keeps the whole units already on disk and derives the spec of the
//! rest, so resuming computes only the missing units.

use super::spec::{Grid, Kind, Scenario, SinkSpec, SpecError};

/// One contiguous slice of a sharded campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct Shard {
    /// Position of this shard in the plan (reassembly order).
    pub index: usize,
    /// The derived spec a worker executes to produce exactly this
    /// shard's rows. For single-shard plans this is the parent spec
    /// unchanged (same canonical hash, same store id).
    pub spec: Scenario,
    /// Index of this shard's first row within the serial artifact.
    pub row_offset: usize,
    /// Number of rows this shard emits, when the family's row count is
    /// statically known (`None` only for opaque single-shard plans).
    pub rows: Option<usize>,
}

/// A deterministic partition of one campaign into contiguous shards.
///
/// Invariant (enforced by `tests/shard_equivalence.rs` the same way PR 8
/// enforced batch≡scalar): concatenating every shard's row stream in
/// `index` order is byte-identical to the serial artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    total_rows: Option<usize>,
}

impl ShardPlan {
    /// Partitions `sc` into at most `shards` contiguous shards.
    ///
    /// The request is clamped to the number of available units along the
    /// family's shard axis (asking for more shards than grid points is
    /// fine), and floors at one. Families without a safe shard axis
    /// return a single-shard plan — callers need no special cases.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SpecError`] when `sc` itself fails
    /// validation; every derived shard spec of a valid parent is valid.
    pub fn new(sc: &Scenario, shards: usize) -> Result<ShardPlan, SpecError> {
        sc.validate()?;
        let (units, rows_per_unit) = axis(sc);
        let total_rows = (rows_per_unit > 0).then_some(units * rows_per_unit);
        let k = shards.max(1).min(units).max(1);
        if k == 1 {
            return Ok(ShardPlan {
                shards: vec![Shard {
                    index: 0,
                    spec: sc.clone(),
                    row_offset: 0,
                    rows: total_rows,
                }],
                total_rows,
            });
        }

        let base = units / k;
        let extra = units % k;
        let mut shards_out = Vec::with_capacity(k);
        let mut unit_start = 0usize;
        for index in 0..k {
            let size = base + usize::from(index < extra);
            let mut spec = slice(sc, unit_start..unit_start + size);
            spec.name = format!("{}.shard{}of{}", sc.name, index + 1, k);
            spec.sink = SinkSpec::default();
            shards_out.push(Shard {
                index,
                spec,
                row_offset: unit_start * rows_per_unit,
                rows: Some(size * rows_per_unit),
            });
            unit_start += size;
        }
        Ok(ShardPlan {
            shards: shards_out,
            total_rows,
        })
    }

    /// Cuts `sc` for resuming an artifact holding its first `rows_on_disk`
    /// rows: the rows to keep (the largest unit boundary at or below
    /// `rows_on_disk`; 0 for single-unit families) and the spec of the
    /// remaining units (`None` when nothing is left). The kept rows plus
    /// the remaining spec's rows are the serial artifact byte for byte.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SpecError`] when `sc` fails validation.
    pub fn resume(
        sc: &Scenario,
        rows_on_disk: usize,
    ) -> Result<(usize, Option<Scenario>), SpecError> {
        sc.validate()?;
        let (units, rows_per_unit) = axis(sc);
        let kept_units = rows_on_disk
            .checked_div(rows_per_unit)
            .unwrap_or(0)
            .min(units);
        // Nothing kept resumes with the parent spec itself: slicing a
        // single-unit family's grid would drop its other points.
        let rest = match kept_units {
            0 => Some(sc.clone()),
            k if k < units => Some(slice(sc, k..units)),
            _ => None,
        };
        Ok((kept_units * rows_per_unit, rest))
    }

    /// The shards in reassembly order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards in the plan (always ≥ 1).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Never true — a plan always holds at least one shard. Present for
    /// the `len`/`is_empty` idiom clippy expects.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// True when the plan degenerated to a single shard (serial run).
    pub fn is_trivial(&self) -> bool {
        self.shards.len() == 1
    }

    /// Total rows across every shard, when statically known.
    pub fn total_rows(&self) -> Option<usize> {
        self.total_rows
    }
}

/// The shard axis of `sc`'s family: how many independent units it
/// splits into, and how many rows each unit emits. Families whose rows
/// are interdependent across the whole grid are one unit of 0 (unknown)
/// rows.
fn axis(sc: &Scenario) -> (usize, usize) {
    match (sc.kind, &sc.grid) {
        (Kind::SnrSweep, Grid::BitPosition(bits)) => {
            (sc.apps.len(), sc.emts.len() * 2 * bits.len())
        }
        (Kind::SnrSweep, Grid::Voltage(v)) => (v.len(), sc.emts.len() * sc.apps.len()),
        (Kind::SnrSweep, Grid::NoiseScale(n)) => (n.len(), sc.emts.len() * sc.apps.len()),
        (Kind::EnergySweep, Grid::MemoryWords(w)) => (w.len(), sc.emts.len()),
        // Tradeoff / ablation / voltage-energy artifacts are
        // interdependent across the whole grid: serial only.
        _ => (1, 0),
    }
}

/// The spec of units `range` of `sc` along its [`axis`]: the apps slice
/// for injection sweeps, the grid slice with its absolute
/// [`Scenario::point_offset`] otherwise. Every slice of a valid spec is
/// valid.
fn slice(sc: &Scenario, range: std::ops::Range<usize>) -> Scenario {
    let mut spec = sc.clone();
    match (sc.kind, &sc.grid) {
        (Kind::SnrSweep, Grid::BitPosition(_)) => {
            spec.apps = sc.apps[range].to_vec();
        }
        _ => {
            spec.point_offset = sc.point_offset + range.start;
            spec.grid = match &sc.grid {
                Grid::Voltage(v) => Grid::Voltage(v[range].to_vec()),
                Grid::BitPosition(b) => Grid::BitPosition(b[range].to_vec()),
                Grid::NoiseScale(n) => Grid::NoiseScale(n[range].to_vec()),
                Grid::MemoryWords(w) => Grid::MemoryWords(w[range].to_vec()),
            };
        }
    }
    debug_assert!(spec.validate().is_ok());
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;

    fn fig4() -> Scenario {
        registry::get("fig4", true).expect("preset exists")
    }

    fn fig2() -> Scenario {
        registry::get("fig2", true).expect("preset exists")
    }

    #[test]
    fn k1_is_the_identity() {
        let sc = fig4();
        let plan = ShardPlan::new(&sc, 1).unwrap();
        assert!(plan.is_trivial());
        assert_eq!(plan.shards()[0].spec, sc);
        assert_eq!(plan.shards()[0].row_offset, 0);
    }

    #[test]
    fn voltage_grid_shards_carry_point_offsets() {
        let sc = fig4();
        let points = sc.grid.len();
        let plan = ShardPlan::new(&sc, 2).unwrap();
        assert_eq!(plan.len(), 2);
        let rows_per_point = sc.emts.len() * sc.apps.len();
        let first = &plan.shards()[0];
        let second = &plan.shards()[1];
        assert_eq!(first.spec.point_offset, 0);
        assert_eq!(
            second.spec.point_offset,
            first.spec.grid.len(),
            "second shard's seeds start where the first ends"
        );
        assert_eq!(first.spec.grid.len() + second.spec.grid.len(), points);
        assert_eq!(second.row_offset, first.rows.unwrap());
        assert_eq!(
            plan.total_rows(),
            Some(points * rows_per_point),
            "row windows tile the serial artifact"
        );
    }

    #[test]
    fn injection_shards_split_the_apps_axis() {
        let sc = fig2();
        let plan = ShardPlan::new(&sc, 2).unwrap();
        assert_eq!(plan.len(), 2.min(sc.apps.len()));
        let mut apps = Vec::new();
        for shard in plan.shards() {
            assert_eq!(shard.spec.grid, sc.grid, "bit grid untouched");
            assert_eq!(shard.spec.point_offset, 0, "injection seeds ignore points");
            apps.extend(shard.spec.apps.iter().copied());
        }
        assert_eq!(apps, sc.apps, "apps partition contiguously in order");
    }

    #[test]
    fn oversubscription_clamps_to_unit_count() {
        let mut sc = fig4();
        if let Grid::Voltage(v) = &mut sc.grid {
            v.truncate(3);
        }
        let plan = ShardPlan::new(&sc, 64).unwrap();
        assert_eq!(plan.len(), 3, "K > grid points clamps to grid points");
        for shard in plan.shards() {
            assert_eq!(shard.spec.grid.len(), 1);
        }
    }

    #[test]
    fn uneven_splits_give_earlier_shards_the_remainder() {
        let mut sc = fig4();
        if let Grid::Voltage(v) = &mut sc.grid {
            assert!(v.len() >= 5, "smoke fig4 sweeps at least five voltages");
            v.truncate(5);
        }
        let plan = ShardPlan::new(&sc, 3).unwrap();
        let sizes: Vec<usize> = plan.shards().iter().map(|s| s.spec.grid.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        let offsets: Vec<usize> = plan.shards().iter().map(|s| s.spec.point_offset).collect();
        assert_eq!(offsets, vec![0, 2, 4]);
    }

    #[test]
    fn unshardable_families_collapse_to_one_shard() {
        for preset in ["tradeoff", "ablation", "energy"] {
            let sc = registry::get(preset, true).expect("preset exists");
            let plan = ShardPlan::new(&sc, 8).unwrap();
            assert!(plan.is_trivial(), "{preset} must stay serial");
            assert_eq!(plan.shards()[0].spec, sc);
        }
    }

    #[test]
    fn derived_specs_validate_and_round_trip_via_json() {
        let sc = fig4();
        let plan = ShardPlan::new(&sc, 2).unwrap();
        for shard in plan.shards() {
            shard.spec.validate().expect("derived shard spec is valid");
            let text = shard.spec.to_json();
            let parsed = Scenario::from_json(&text).expect("round-trips");
            assert_eq!(parsed, shard.spec);
        }
    }
}
