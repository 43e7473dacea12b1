//! # itpx — Instruction-Aware Cooperative TLB and Cache Replacement
//!
//! Facade crate re-exporting the full `itpx` workspace: a reproduction of
//! *"Instruction-Aware Cooperative TLB and Cache Replacement Policies"*
//! (ASPLOS 2025).
//!
//! The headline contributions live in [`core`]: the **iTP** STLB
//! replacement policy, the **xPTP** L2-cache replacement policy, and the
//! adaptive **iTP+xPTP** cooperative scheme. Everything they need to be
//! evaluated — a trace-driven out-of-order core, a full TLB/cache/page-walk
//! model, and synthetic server workloads — is built in the sibling crates
//! and re-exported here.
//!
//! # Quickstart
//!
//! ```
//! use itpx::prelude::*;
//!
//! // A small server-like workload with a large instruction footprint.
//! let workload = WorkloadSpec::server_like(7).instructions(20_000);
//! let config = SystemConfig::asplos25();
//!
//! // Baseline: LRU at both STLB and L2C.
//! let base = Simulation::single_thread(&config, Preset::Lru, &workload).run();
//! // The paper's proposal: iTP at the STLB, adaptive xPTP at the L2C.
//! let coop = Simulation::single_thread(&config, Preset::ItpXptp, &workload).run();
//!
//! println!(
//!     "IPC {:.3} -> {:.3} ({:+.1}%)",
//!     base.ipc(),
//!     coop.ipc(),
//!     (coop.ipc() / base.ipc() - 1.0) * 100.0
//! );
//! ```

pub use itpx_core as core;
pub use itpx_cpu as cpu;
pub use itpx_mem as mem;
pub use itpx_policy as policy;
pub use itpx_trace as trace;
pub use itpx_types as types;
pub use itpx_vm as vm;

/// The experiment harness used by the figure reproductions.
pub use itpx_bench as bench;

/// Convenient glob import for applications.
pub mod prelude {
    pub use itpx_core::{Itp, ItpParams, Preset, Xptp, XptpParams};
    pub use itpx_cpu::{Simulation, SimulationOutput, SystemConfig};
    pub use itpx_trace::{SmtPairSpec, WorkloadSpec};
    pub use itpx_types::{AccessKind, FillClass, PageSize, TranslationKind, VirtAddr};
}
