//! `dream-serve` — the campaign service over the scenario engine.
//!
//! One `dream serve` process turns the declarative campaign layer into a
//! long-lived service: specs arrive as JSON over a std-only HTTP/1.1
//! API, deduplicate against a content-addressed artifact store keyed on
//! `(spec_hash, seed)`, and stream their JSONL rows back as the worker
//! pool produces them. Because the engine is deterministic at any thread
//! count, a finished artifact replays byte-identically without executing
//! a single trial, and an interrupted one resumes exactly where its last
//! persisted row stopped.
//!
//! The service is hardened for hostile conditions: bounded request
//! reads with wall-clock deadlines (slow-loris safe), a bounded
//! admission queue that sheds with `429 + Retry-After`, a graceful
//! drain/shutdown path that cancels in-flight runs and leaves artifacts
//! resumable, and a crash-safe store (atomic fsynced `meta.json`,
//! SHA-256-checksummed rows, corrupt artifacts quarantined on preload).
//!
//! * [`hash`] — hand-rolled SHA-256 (the workspace vendors no crypto);
//! * [`http`] — the minimal request/response/chunked-transfer layer,
//!   with byte budgets and deadlines on every read;
//! * [`store`] — the on-disk artifact store, canonical spec hashing,
//!   checksum verification, and quarantine;
//! * [`server`] — the evented connection layer (handler pool + follower
//!   poller), worker pool, campaign registry, admission control,
//!   drain/shutdown, shard coordinator/worker modes, and route handlers;
//! * [`client`] — the retrying fetch client (backoff + jitter,
//!   `Retry-After` honoring, skip-rows resume of interrupted streams);
//! * [`chaos`] — a fault-injecting TCP proxy for the e2e chaos suite.
//!
//! A coordinator (`ServeConfig::shards > 1`) partitions each campaign
//! with `dream_sim::scenario::ShardPlan`, fans the shard specs out to
//! worker processes over this same HTTP layer (`POST /shards`), and
//! reassembles the per-shard sub-artifacts — each content-addressed and
//! individually cached — into the parent artifact byte-identically to a
//! serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod hash;
pub mod http;
pub mod server;
pub mod store;

pub use chaos::{ChaosProxy, Fault};
pub use client::{fetch_campaign, fetch_rows, FetchOutcome, RetryPolicy};
pub use server::{ServeConfig, Server, TestHold};
pub use store::{campaign_id, canonical_spec_json, spec_hash, Integrity, Store};
