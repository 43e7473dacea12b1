//! Virtual-memory substrate for the `itpx` simulator.
//!
//! The paper's policies live at the boundary between address translation
//! and the cache hierarchy, so this crate models the whole x86-64-style
//! translation machinery the evaluation assumes (Section 5.1):
//!
//! * [`address_space`] — multi-tenant address spaces: per-ASID page
//!   tables, a shared global table, and the current-ASID register driving
//!   consolidation scenarios.
//! * [`page_table`] — a 5-level radix page table with on-demand mapping,
//!   4 KiB and 2 MiB leaves, and a deterministic physical frame allocator;
//!   walks yield the *physical addresses of the PTEs touched at each
//!   level*, which is what the cache hierarchy sees.
//! * [`psc`] — split page-structure caches (PSCL5/PSCL4/PSCL3/PSCL2,
//!   Table 1) that let walks skip upper levels.
//! * [`walker`] — the hardware page-table walker: up to four concurrent
//!   walks, PSC lookups, and one cache-hierarchy access per remaining
//!   level, issued to the L2C as the paper assumes.
//! * [`tlb`] — a set-associative TLB with pluggable replacement, miss
//!   tracking with the paper's per-MSHR `Type` bit, and both unified and
//!   split last-level organizations (Section 6.6).
//! * [`path`] — the assembled pipeline: one [`TranslationPath`] drives an
//!   address through ITLB/DTLB → STLB → walker with all timing side
//!   effects, funneling every miss resolution through a single
//!   fill-and-complete helper.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod address_space;
pub mod page_table;
pub mod path;
pub mod psc;
pub mod tlb;
pub mod walker;

pub use address_space::AddressSpace;
pub use page_table::{FrameAllocator, HugePagePolicy, PageTable, Translation, WalkPath};
pub use path::{PathResult, TranslationPath};
pub use psc::{namespaced_vpn, tag_asid, PageStructureCache, SplitPscs};
pub use tlb::{LastLevelTlb, Tlb, TlbConfig, TlbLookup};
pub use walker::{PageWalker, PteMemory, WalkOutcome};
