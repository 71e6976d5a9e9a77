//! Faulty-SRAM substrate: everything the paper's experimental setup (§V)
//! needs from the memory side.
//!
//! Voltage-scaled SRAM develops *permanent* (stuck-at) faults as the supply
//! approaches the transistor threshold. This crate models that stack:
//!
//! * [`BerModel`] — bit error rate as a function of the supply voltage,
//!   replacing the proprietary 32 nm low-power cell characterization the
//!   paper profiles (reference \[2\] of the paper). The default is a
//!   log-linear curve documented in `DESIGN.md`.
//! * [`FaultMap`] — a random stuck-at overlay over a word array, drawn with
//!   geometric skip-sampling so that even large memories at low BER are
//!   cheap to generate. The paper regenerates one map per simulation run
//!   (200 runs per voltage) and reuses it across all EMTs for fairness;
//!   [`FaultMap::generate`] is deterministic in the seed to support that.
//! * [`FaultModel`] — pluggable spatial fault distributions over a
//!   [`FaultMap`]: i.i.d. (bit-identical to `regenerate`), geometric burst
//!   clusters, per-bank weak columns, and per-bank voltage-domain drift.
//! * [`FaultySram`] — a bit-accurate word array combining clean storage with
//!   a fault overlay: writes store the true bits, reads see the stuck bits.
//! * [`AddressScrambler`] — the small logic the paper assumes for
//!   randomizing the logical→physical mapping of addresses and bit lanes.
//! * [`BatchFaultPlanes`] — up to [`MAX_LANES`] fault maps transposed into
//!   lane-per-trial bit planes, the storage behind batched (SWAR)
//!   Monte-Carlo trial execution.
//! * [`MemGeometry`] — array geometry (words × width, banking) with the
//!   INYU-node preset (32 kB, 16 banks, 16-bit words).
//!
//! # Example
//!
//! ```
//! use dream_mem::{BerModel, FaultMap, FaultySram, MemGeometry};
//!
//! let geometry = MemGeometry::inyu_data_memory();
//! let ber = BerModel::date16().ber(0.55);
//! let map = FaultMap::generate(geometry.words(), geometry.bits_per_word(), ber, 42);
//! let mut sram = FaultySram::with_faults(geometry, map);
//! sram.write(0, 0x1234);
//! let seen = sram.read(0); // possibly corrupted by stuck bits
//! assert_eq!(seen & !sram.fault_map().stuck_mask(0), 0x1234 & !sram.fault_map().stuck_mask(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod ber;
mod fault;
mod fault_model;
mod geometry;
mod scramble;
mod sram;

pub use batch::{BatchFaultPlanes, MAX_LANES};
pub use ber::BerModel;
pub use fault::{FaultMap, StuckAt};
pub use fault_model::FaultModel;
pub use geometry::MemGeometry;
pub use scramble::AddressScrambler;
pub use sram::FaultySram;
