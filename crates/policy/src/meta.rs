//! Per-access metadata handed to replacement policies.

use itpx_types::{FillClass, LevelId, ThreadId, TranslationKind};

/// Metadata describing one TLB access, as seen by a TLB replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbMeta {
    /// Virtual page number of the translation.
    pub vpn: u64,
    /// Program counter of the instruction that triggered the access
    /// (the fetch address itself for instruction translations).
    pub pc: u64,
    /// Whether the entry translates instruction or data addresses — the
    /// paper's per-entry `Type` bit.
    pub kind: TranslationKind,
    /// Hardware thread performing the access.
    pub thread: ThreadId,
}

impl TlbMeta {
    /// Convenience constructor for a demand access on thread 0 with
    /// `pc == vpn`'s page base; tests and docs use this.
    #[inline]
    pub fn demand(vpn: u64, kind: TranslationKind) -> Self {
        Self {
            vpn,
            pc: vpn << 12,
            kind,
            thread: ThreadId(0),
        }
    }
}

/// Metadata describing one cache access, as seen by a cache replacement
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMeta {
    /// Block index (physical address >> 6) being accessed or filled.
    pub block: u64,
    /// Program counter of the triggering instruction; 0 for page-walk and
    /// prefetch traffic, which has no architectural PC.
    pub pc: u64,
    /// What the block holds — the classification xPTP and the
    /// translation-aware baselines key on.
    pub fill: FillClass,
    /// `true` if the demand access that created this fill also missed in
    /// the STLB (used by T-DRRIP's deprioritization rule).
    pub stlb_miss: bool,
    /// Hardware thread performing the access.
    pub thread: ThreadId,
    /// The chain level this access is currently being applied to. The
    /// hierarchy stamps this as the access descends the level chain, so a
    /// policy can tell which level it is attached to.
    pub level: LevelId,
}

impl CacheMeta {
    /// Convenience constructor for a demand access of the given class on
    /// thread 0, entering the chain at [`LevelId::entry_for`] its class.
    pub fn demand(block: u64, fill: FillClass) -> Self {
        Self {
            block,
            pc: block << 6,
            fill,
            stlb_miss: false,
            thread: ThreadId(0),
            level: LevelId::entry_for(fill),
        }
    }

    /// Same as [`CacheMeta::demand`] but flagged as having missed the STLB.
    pub fn demand_stlb_miss(block: u64, fill: FillClass) -> Self {
        Self {
            stlb_miss: true,
            ..Self::demand(block, fill)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let t = TlbMeta::demand(5, TranslationKind::Instruction);
        assert_eq!(t.vpn, 5);
        assert_eq!(t.kind, TranslationKind::Instruction);

        let c = CacheMeta::demand(9, FillClass::DataPte);
        assert!(c.fill.is_data_pte());
        assert!(!c.stlb_miss);
        assert!(CacheMeta::demand_stlb_miss(9, FillClass::DataPayload).stlb_miss);
    }
}
