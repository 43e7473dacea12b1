//! Memory substrate for the `itpx` simulator: set-associative caches with
//! MSHR-aware timing, hardware prefetchers, a DRAM model, and a
//! depth-configurable level-chain hierarchy whose default preset is the
//! three-level machine of the paper's Table 1.
//!
//! The timing model is *latency-propagating*: each access walks the
//! hierarchy functionally, updating tags, replacement state, and
//! statistics, and returns the cycle at which its data is available.
//! In-flight fills are modeled by a per-line `ready` cycle (an access that
//! hits a line still being filled waits for it — the behavior an MSHR merge
//! produces), and MSHR capacity delays new misses until a register frees
//! up. DESIGN.md discusses why this substitution for a cycle-stepped queue
//! model preserves the paper's comparisons.
//!
//! Every fill carries a [`itpx_types::FillClass`] so translation-aware
//! policies (xPTP, PTP, T-DRRIP) can distinguish PTE blocks, and the
//! per-class MPKI breakdowns of the paper's Figure 4 fall out of the same
//! bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod prefetch;

pub use cache::{Cache, CacheConfig, Probe};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{
    CacheLevelConfig, Hierarchy, HierarchyConfig, HierarchyPolicies, LevelHooks, MAX_SHARED_LEVELS,
};
pub use prefetch::{NextLinePrefetcher, StrideCandidates, StridePrefetcher};
