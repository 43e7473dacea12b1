//! Classification of memory traffic.
//!
//! The paper's policies hinge on two orthogonal distinctions:
//!
//! 1. **Instruction vs data** — iTP keeps *instruction* translations in the
//!    STLB ([`TranslationKind`]).
//! 2. **Payload vs page-table entry** — xPTP protects L2C blocks holding
//!    *data PTEs* ([`FillClass`]).

/// What a core-side memory access is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch from the front end.
    InstrFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// `true` for instruction fetches.
    #[inline]
    pub const fn is_instruction(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }

    /// `true` for loads and stores.
    pub const fn is_data(self) -> bool {
        !self.is_instruction()
    }

    /// The kind of translation this access requires.
    pub const fn translation_kind(self) -> TranslationKind {
        match self {
            AccessKind::InstrFetch => TranslationKind::Instruction,
            AccessKind::Load | AccessKind::Store => TranslationKind::Data,
        }
    }
}

/// Whether a virtual-to-physical translation serves instruction fetches or
/// data accesses.
///
/// This is the `Type` bit the paper adds to each STLB entry and STLB MSHR
/// entry (Type = 0 for instruction translations, 1 for data translations;
/// see Figure 7). The enum is more legible than a raw bit but encodes to the
/// same single bit via [`TranslationKind::type_bit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranslationKind {
    /// Translation of an instruction-fetch address.
    Instruction,
    /// Translation of a load/store address.
    Data,
}

impl TranslationKind {
    /// The hardware encoding used in the paper: 0 = instruction, 1 = data.
    pub const fn type_bit(self) -> u8 {
        match self {
            TranslationKind::Instruction => 0,
            TranslationKind::Data => 1,
        }
    }

    /// Decodes the hardware `Type` bit.
    pub const fn from_type_bit(bit: u8) -> Self {
        if bit == 0 {
            TranslationKind::Instruction
        } else {
            TranslationKind::Data
        }
    }

    /// `true` if this is an instruction translation.
    #[inline]
    pub const fn is_instruction(self) -> bool {
        matches!(self, TranslationKind::Instruction)
    }
}

/// What payload a cache block carries, as observed at fill time.
///
/// Demand/prefetch instruction and data payloads are distinguished from
/// blocks holding page-table entries, and PTE blocks are further split by
/// the translation kind of the page walk that fetched them — the distinction
/// prior translation-aware policies (PTP, T-DRRIP) lack and xPTP exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillClass {
    /// Block holding instructions, brought in by a fetch or an L1I prefetch.
    InstrPayload,
    /// Block holding program data, brought in by a load/store or prefetch.
    DataPayload,
    /// Block holding page-table entries fetched by a page walk that served
    /// an **instruction** STLB miss.
    InstrPte,
    /// Block holding page-table entries fetched by a page walk that served
    /// a **data** STLB miss.
    DataPte,
}

impl FillClass {
    /// `true` if the block holds page-table entries (either kind).
    #[inline]
    pub const fn is_pte(self) -> bool {
        matches!(self, FillClass::InstrPte | FillClass::DataPte)
    }

    /// `true` if the block holds page-table entries for data translations —
    /// the class xPTP protects.
    #[inline]
    pub const fn is_data_pte(self) -> bool {
        matches!(self, FillClass::DataPte)
    }

    /// The fill class of a page-walk reference serving `kind` translations.
    #[inline]
    pub const fn pte_for(kind: TranslationKind) -> Self {
        match kind {
            TranslationKind::Instruction => FillClass::InstrPte,
            TranslationKind::Data => FillClass::DataPte,
        }
    }

    /// The fill class of a demand access of `kind`.
    pub const fn payload_for(kind: AccessKind) -> Self {
        match kind {
            AccessKind::InstrFetch => FillClass::InstrPayload,
            AccessKind::Load | AccessKind::Store => FillClass::DataPayload,
        }
    }

    /// Index 0..4 used by the per-class MPKI breakdown counters.
    pub const fn stat_index(self) -> usize {
        match self {
            FillClass::DataPayload => 0,
            FillClass::InstrPayload => 1,
            FillClass::DataPte => 2,
            FillClass::InstrPte => 3,
        }
    }
}

impl std::fmt::Display for FillClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FillClass::InstrPayload => "instr",
            FillClass::DataPayload => "data",
            FillClass::InstrPte => "instr-pte",
            FillClass::DataPte => "data-pte",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_bit_encoding_matches_paper() {
        // Figure 7: Type = 0 for instruction, 1 for data.
        assert_eq!(TranslationKind::Instruction.type_bit(), 0);
        assert_eq!(TranslationKind::Data.type_bit(), 1);
        for k in [TranslationKind::Instruction, TranslationKind::Data] {
            assert_eq!(TranslationKind::from_type_bit(k.type_bit()), k);
        }
    }

    #[test]
    fn access_to_translation_kind() {
        assert_eq!(
            AccessKind::InstrFetch.translation_kind(),
            TranslationKind::Instruction
        );
        assert_eq!(AccessKind::Load.translation_kind(), TranslationKind::Data);
        assert_eq!(AccessKind::Store.translation_kind(), TranslationKind::Data);
    }

    #[test]
    fn fill_class_predicates() {
        assert!(FillClass::DataPte.is_pte());
        assert!(FillClass::InstrPte.is_pte());
        assert!(!FillClass::DataPayload.is_pte());
        assert!(FillClass::DataPte.is_data_pte());
        assert!(!FillClass::InstrPte.is_data_pte());
    }

    #[test]
    fn stat_indices_are_distinct() {
        let mut seen = [false; 4];
        for c in [
            FillClass::DataPayload,
            FillClass::InstrPayload,
            FillClass::DataPte,
            FillClass::InstrPte,
        ] {
            let i = c.stat_index();
            assert!(!seen[i]);
            seen[i] = true;
        }
    }
}
