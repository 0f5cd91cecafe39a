//! # ale-lab — deterministic parallel experiment orchestration
//!
//! The workspace's scenario engine: every figure/table of the Kowalski &
//! Mosteiro (ICDCS 2021) reproduction is a declarative [`Scenario`] — a
//! parameter grid over `Topology × Algorithm × knowledge × n`, a per-seed
//! trial closure, and a report — executed by a work-sharing fleet runner
//! whose output is **byte-identical at any worker count** (trial seeds
//! derive positionally from one master seed via a SplitMix64 stream).
//!
//! Results stream into bounded-memory aggregates (mean/CI95/min/max plus
//! capped-exact medians) and persist as a durable keyed store: every
//! trial is journaled under `(scenario, space-hash, grid-position,
//! seed-index)` the moment it completes, alongside JSONL + CSV views and
//! a run manifest (scenario, master seed, grid, invocation config, git
//! stamp, completion marker) — so a killed sweep is completed in place
//! by `run --resume` and runs stay comparable across PRs.
//!
//! ## Layers
//!
//! * [`fleet`] — seed derivation + the parallel indexed runner;
//! * [`params`] — typed axes and the declarative [`params::ParamSpace`]
//!   every scenario declares (and `--param key=v1,v2` overrides);
//! * [`scenario`] — the [`Scenario`] trait, [`GridPoint`], [`TrialRecord`];
//! * [`scenarios`] / [`registry`] — the 11 built-in experiments;
//! * [`engine`] — space → expand → bind → fleet → aggregate → store;
//! * [`agg`] / [`stats`] — streaming statistics;
//! * [`db`] — the pluggable keyed-batch [`db::Db`] trait (in-memory and
//!   append-only-file backends) the durable store journals through;
//! * [`store`] / [`json`] — the keyed run store (`trials.db` journal,
//!   JSONL/CSV views, manifests with completion markers);
//! * [`check`] — baseline regression gating over `summary.csv` files;
//! * [`serve`] — read-only HTTP routes over the durable store (manifest
//!   index, summary/trial queries, live journal tailing) behind
//!   `ale-lab serve`, on the zero-dependency `ale-serve` transport;
//! * [`telemetry`] — the JSONL event sink and engine round-batch adapter
//!   behind `run --telemetry` (see also the zero-dependency
//!   `ale-telemetry` crate);
//! * [`report`] — per-phase wall-clock breakdown of a telemetry stream;
//! * [`mod@bench`] — in-process microbenchmarks writing `BENCH_*.json`;
//! * [`cli`] — the `ale-lab` binary
//!   (`list | describe | run | export | merge | check | report | bench | serve`),
//!   the single entry point for every experiment;
//! * [`runners`], [`table`], [`fit`] — the shared driver/report plumbing.
//!
//! ## Quickstart
//!
//! ```
//! use ale_lab::engine::{execute, RunSpec};
//! use ale_lab::registry;
//!
//! let scenario = registry::find("cautious").expect("registered");
//! let spec = RunSpec {
//!     seeds: Some(2),
//!     workers: 2,
//!     grid: ale_lab::scenario::GridConfig { quick: true, ..Default::default() },
//!     ..RunSpec::default()
//! };
//! let out = execute(scenario.as_ref(), &spec)?;
//! assert!(out.records.len() > 0);
//! assert!(out.report.contains("cautious"));
//! # Ok::<(), ale_lab::scenario::LabError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod bench;
pub mod check;
pub mod cli;
pub mod db;
pub mod engine;
pub mod fit;
pub mod fleet;
pub mod json;
pub mod merge;
pub mod params;
pub mod registry;
pub mod report;
pub mod runners;
pub mod scenario;
pub mod scenarios;
pub mod serve;
pub mod stats;
pub mod store;
pub mod table;
pub mod telemetry;

pub use agg::RunSummary;
pub use engine::{execute, RunOutput, RunSpec};
pub use fit::{exponent_close, power_fit, PowerFit};
pub use params::{Axis, AxisKind, AxisValue, Block, ParamSpace, When};
pub use runners::{Algorithm, GraphContext};
pub use scenario::{GridConfig, GridPoint, Knowledge, LabError, PointView, Scenario, TrialRecord};
pub use table::Table;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrialRecord>();
        assert_send_sync::<GridPoint>();
        assert_send_sync::<LabError>();
        assert_send_sync::<RunSummary>();
    }
}
