//! Workload substrate: synthetic instruction traces with controllable
//! code/data footprints.
//!
//! The paper evaluates on proprietary Qualcomm Server traces (CVP-1/IPC-1)
//! and SPEC CPU 2006/2017. Neither is redistributable, so this crate
//! synthesizes traces that reproduce the *properties the paper's analysis
//! depends on* (see DESIGN.md, substitution 2):
//!
//! * **Server profile** — instruction footprints of thousands of 4 KiB
//!   pages reached through a skewed (Zipf) function-call pattern, large
//!   data footprints, STLB MPKI ≥ 1: the workloads where instruction
//!   translation is the bottleneck (paper Figures 1–2).
//! * **SPEC-like profile** — code that fits a 64-entry ITLB with a large
//!   data footprint: the contrast class for which the paper reports ≈0
//!   instruction-translation overhead.
//!
//! [`WorkloadSpec`] describes one workload; [`TraceGenerator`] turns it
//! into a deterministic instruction stream ([`TraceInst`]); [`suites`]
//! builds the single-thread and SMT workload sets mirroring Section 5.2;
//! [`record`] serializes traces to a compact binary format; [`fuzz`]
//! generates adversarial traces for the differential harness.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
pub mod champsim;
pub mod fuzz;
pub mod gen;
pub mod oracle;
pub mod profile;
pub mod record;
pub mod stream;
pub mod suites;

pub use analysis::{mix_summary, page_reuse_profiles, MixSummary, ReuseProfile};
pub use champsim::{read_champsim, ChampSimConverter, ChampSimRecord};
pub use fuzz::{FuzzPattern, FuzzSpec};
pub use gen::{PrefetchedLayout, TraceGenerator, ZipfSampler};
pub use oracle::{replay_min_and_lru, tlb_key_streams, OracleResult};
pub use profile::{
    ContextSchedule, Profile, SmtCategory, SmtPairSpec, SwitchPolicy, TierSchedule, WorkloadSpec,
};
pub use record::{read_trace, write_trace, Branch, MemRef, TraceInst};
pub use stream::{InstructionStream, SupplyStream, TraceLoop, WorkloadSource};
pub use suites::{qualcomm_like_suite, smt_suite, spec_like_suite};
