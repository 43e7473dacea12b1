//! Shared primitive types for the `itpx` simulator family.
//!
//! This crate defines the vocabulary used across every other `itpx` crate:
//!
//! * [`addr`] — strongly-typed virtual/physical addresses and cache-block
//!   arithmetic ([`VirtAddr`], [`PhysAddr`], [`BlockAddr`]).
//! * [`access`] — classification of memory traffic ([`AccessKind`],
//!   [`TranslationKind`], [`FillClass`]): the distinctions the paper's
//!   policies key on (instruction vs data, payload vs page-table entry).
//! * [`grid`] — flat set-associative storage ([`SetGrid`]) and
//!   power-of-two mask set selection ([`SetMask`]), the shared data
//!   layout for tag arrays, policy metadata, and predictor tables.
//! * [`hash`] — a fixed, fast hasher ([`WordHasher`]) for the
//!   simulator's own integer-keyed maps.
//! * [`page`] — page sizes and virtual-page-number arithmetic for the
//!   4 KiB / 2 MiB pages used in the evaluation.
//! * [`rng`] — a small deterministic PRNG so every simulation is exactly
//!   reproducible from a seed.
//! * [`stats`] — counters, online means, and histograms used for MPKI and
//!   miss-latency reporting.
//!
//! # Examples
//!
//! ```
//! use itpx_types::{VirtAddr, PageSize, AccessKind};
//!
//! let va = VirtAddr::new(0x7f12_3456_789a);
//! assert_eq!(va.vpn(PageSize::Base4K).0, 0x7f12_3456_789a >> 12);
//! assert!(AccessKind::InstrFetch.is_instruction());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod access;
pub mod addr;
pub mod fingerprint;
pub mod grid;
pub mod hash;
pub mod mshr;
pub mod page;
pub mod rng;
pub mod stats;

pub use access::{AccessKind, FillClass, TranslationKind};
pub use addr::{BlockAddr, PhysAddr, VirtAddr, Vpn, BLOCK_BYTES, BLOCK_SHIFT};
pub use fingerprint::{Fingerprint, Fnv1a};
pub use grid::{SetGrid, SetMask};
pub use hash::{BuildWordHasher, WordHasher};
pub use mshr::SlotPool;
pub use page::PageSize;
pub use rng::Rng64;
pub use stats::{Histogram, LevelCounts, MpkiBreakdown, OnlineMean, StructCounts, StructStats};

/// Identifier of a hardware thread (SMT context) within a simulated core.
///
/// The simulator supports one or two hardware threads; `ThreadId(0)` always
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u8);

/// Address-space identifier tagging translation-structure entries.
///
/// Multi-tenant scenarios run several address spaces on one core; TLB and
/// page-structure-cache entries carry the ASID they were installed under
/// and only hit when it matches the structure's current ASID. The
/// reserved value [`Asid::GLOBAL`] marks global mappings (kernel-style
/// shared pages) that hit under every address space and survive
/// flush-by-ASID context switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(pub u16);

impl Asid {
    /// The ASID every single-tenant simulation runs under.
    pub const KERNEL: Asid = Asid(0);

    /// Sentinel tag for global mappings: matches any current ASID and is
    /// exempt from flush-by-ASID invalidation.
    pub const GLOBAL: Asid = Asid(u16::MAX);

    /// Whether an entry tagged with `self` hits under `current`.
    #[inline]
    pub fn matches(self, current: Asid) -> bool {
        self == current || self == Asid::GLOBAL
    }
}

impl std::fmt::Display for Asid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == Asid::GLOBAL {
            f.write_str("ASID(global)")
        } else {
            write!(f, "ASID({})", self.0)
        }
    }
}

impl Fingerprint for Asid {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_u64(u64::from(self.0));
    }
}

/// Names one level of the composable cache chain.
///
/// The chain is ordered `L1I, L1D, L2C, [L3,] [LLC]`: both L1s front the
/// first shared level, `L3` exists only in 4-level configurations, and
/// the chain may stop at the L2C (a "no-LLC" 2-level hierarchy). Each
/// access class has a declarative entry level — instruction fetches enter
/// at the L1I, data accesses at the L1D, and page-walk PTE references at
/// the L2C (the paper's Figure 7) — see [`LevelId::entry_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LevelId {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// First shared level — where xPTP operates and page walks enter.
    L2C,
    /// Intermediate shared level of 4-level chains.
    L3,
    /// Last-level cache.
    Llc,
}

impl LevelId {
    /// Stable display name matching the paper's structure names.
    pub fn name(self) -> &'static str {
        match self {
            LevelId::L1I => "L1I",
            LevelId::L1D => "L1D",
            LevelId::L2C => "L2C",
            LevelId::L3 => "L3",
            LevelId::Llc => "LLC",
        }
    }

    /// Stable serialization code (used by the simcache on-disk format).
    pub fn code(self) -> u8 {
        match self {
            LevelId::L1I => 0,
            LevelId::L1D => 1,
            LevelId::L2C => 2,
            LevelId::L3 => 3,
            LevelId::Llc => 4,
        }
    }

    /// Inverse of [`LevelId::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => LevelId::L1I,
            1 => LevelId::L1D,
            2 => LevelId::L2C,
            3 => LevelId::L3,
            4 => LevelId::Llc,
            _ => return None,
        })
    }

    /// Whether this is a per-class private L1 in front of the shared chain.
    pub fn is_private(self) -> bool {
        matches!(self, LevelId::L1I | LevelId::L1D)
    }

    /// The level at which traffic of class `fill` enters the chain:
    /// instruction payload at the L1I, data payload at the L1D, and PTE
    /// references at the L2C.
    pub fn entry_for(fill: FillClass) -> Self {
        match fill {
            FillClass::InstrPayload => LevelId::L1I,
            FillClass::DataPayload => LevelId::L1D,
            FillClass::InstrPte | FillClass::DataPte => LevelId::L2C,
        }
    }
}

impl std::fmt::Display for LevelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Fingerprint for LevelId {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_u8(self.code());
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;
