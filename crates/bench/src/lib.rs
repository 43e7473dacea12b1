//! Experiment harness: reproduces every table and figure of the paper's
//! evaluation.
//!
//! `run_all` regenerates every figure (or one, with `--figure <name>`)
//! and writes text reports under `target/experiments/`. The shared machinery lives here:
//!
//! * [`harness`] — parallel sweep runner (N workloads × M configurations),
//!   scale controls via `ITPX_*` environment variables.
//! * [`campaign`] — the campaign engine: figures submit batches of
//!   content-addressed simulation requests that are deduplicated, served
//!   from the [`simcache`], and scheduled as one flat job queue — either
//!   in-process or split across cooperating shard processes
//!   (`ITPX_SHARDS`).
//! * [`simcache`] — memoized simulation results, in memory and persisted
//!   under `target/simcache/` (opt out with `ITPX_SIMCACHE=0`).
//! * [`store`] — the segmented on-disk store under the simcache:
//!   append-only segments, lock-free concurrent readers, single-writer
//!   appenders, size-capped pruning (`ITPX_SIMCACHE_MAX_MB`).
//! * [`serve`] — a dependency-free HTTP/1.1 server (`itpx-serve` binary)
//!   that serves warm campaign results and schedules cold ones.
//! * [`env`] — validated parsing of the `ITPX_*` variables (junk values
//!   warn once instead of being silently ignored).
//! * [`figures`] — one report builder per figure, all driven by a shared
//!   [`campaign::Campaign`].
//! * [`report`] — table formatting, violin-style distribution summaries,
//!   geomean aggregation, and report files.
//! * [`experiments`] — one module per paper figure, returning structured
//!   results so integration tests can assert the paper's claims.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod campaign;
pub mod csv;
pub mod env;
pub mod experiments;
pub mod figures;
pub mod harness;
pub mod plot;
pub mod report;
pub mod serve;
pub mod simcache;
pub mod stats_ci;
pub mod store;

pub use campaign::{Campaign, Executor, SimRequest, SimUnit, WorkQueue};
pub use csv::CsvSink;
pub use harness::{RunScale, Sweep};
pub use report::{Distribution, Report};
pub use simcache::SimCache;
pub use stats_ci::{bootstrap_geomean_ci, Comparison, GeomeanCi};
pub use store::{SegmentStore, StoreConfig};
