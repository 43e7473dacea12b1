//! The obviously-correct functional reference machine.
//!
//! The model itself lives in `itpx_cpu::functional`. This module keeps
//! the difftest-facing wrapper: [`RefMachine`] owns its own
//! [`AddressSpace`] (the harness replays event lists against a standalone
//! address space), feeds [`crate::events::Event`]s through the functional
//! machine, and snapshots its counters as a [`DiffReport`].
//!
//! When the optimized pipeline is driven in *quiescent* mode (events
//! spaced far enough apart that every miss resolves before the next
//! event arrives; see the driver module), its counts are purely
//! functional and must equal this model's bit for bit. A fast-forward's
//! warm path has no timing at all, so the structures it leaves behind
//! must equal this model's too (see the warm module).

use crate::events::{Event, EventKind};
use crate::report::DiffReport;
use itpx_cpu::{FunctionalMachine, SystemConfig};
use itpx_types::{Asid, TranslationKind};
use itpx_vm::address_space::AddressSpace;
use itpx_vm::Translation;

/// The functional reference machine: a [`FunctionalMachine`] over its own
/// production address space.
#[derive(Debug)]
pub struct RefMachine {
    machine: FunctionalMachine,
    space: AddressSpace,
}

impl RefMachine {
    /// Builds the reference machine for `cfg` (single-threaded: the page
    /// table uses the thread-0 seed and region offset).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` requests a split STLB — the harness compares the
    /// unified organization the paper optimizes.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_tenants(cfg, 1)
    }

    /// Like [`RefMachine::new`], but with `tenants` per-ASID page tables —
    /// built with the exact arguments `System::configure_address_spaces`
    /// uses (no global table), so both machines translate identically.
    ///
    /// # Panics
    ///
    /// Panics as [`RefMachine::new`] does.
    pub fn with_tenants(cfg: &SystemConfig, tenants: usize) -> Self {
        let space = if tenants > 1 {
            AddressSpace::multi(tenants, cfg.huge_pages, cfg.seed, 0, 0.0, 0)
        } else {
            AddressSpace::single(cfg.huge_pages, cfg.seed, 0)
        };
        Self {
            machine: FunctionalMachine::new(cfg),
            space,
        }
    }

    /// The wrapped functional machine (structure-level assertions).
    pub fn machine(&self) -> &FunctionalMachine {
        &self.machine
    }

    /// Executes one event: translate, then walk the cache chain — or, for
    /// a control event, the matching switch/shootdown on TLBs and space.
    pub fn apply(&mut self, ev: &Event) {
        let va = itpx_types::VirtAddr::new(ev.va);
        match ev.kind {
            EventKind::Fetch => self.machine.fetch(&mut self.space, va),
            EventKind::Load => self.machine.load(&mut self.space, va),
            EventKind::Store => self.machine.store(&mut self.space, va),
            EventKind::Switch { asid, flush } => {
                self.machine.context_switch(asid, flush);
                self.space.switch_to(asid);
            }
            EventKind::Shootdown { asid } => self.machine.shootdown(va, asid),
        }
    }

    /// The tenant and translation of access event `ev`; `None` for a
    /// control event. Call it after [`RefMachine::apply`] has run `ev`:
    /// the page is mapped by then, so the lookup changes no state.
    pub fn translation(&mut self, ev: &Event) -> Option<(Asid, Translation)> {
        let kind = match ev.kind {
            EventKind::Fetch => TranslationKind::Instruction,
            EventKind::Load | EventKind::Store => TranslationKind::Data,
            EventKind::Switch { .. } | EventKind::Shootdown { .. } => return None,
        };
        let tr = self.space.translate(itpx_types::VirtAddr::new(ev.va), kind);
        Some((self.space.current(), tr))
    }

    /// Runs every event in order.
    pub fn run(&mut self, events: &[Event]) {
        for ev in events {
            self.apply(ev);
        }
    }

    /// Snapshots the reference counters in [`DiffReport`] form.
    pub fn report(&self) -> DiffReport {
        let m = &self.machine;
        DiffReport {
            itlb: m.itlb.stats,
            dtlb: m.dtlb.stats,
            stlb: m.stlb.stats,
            walks: m.walks,
            instruction_walks: m.instr_walks,
            walk_refs: m.walk_refs,
            levels: m.chain.level_counts(),
            dram_reads: m.chain.dram_reads(),
            dram_writes: m.chain.dram_writes(),
            writebacks_absorbed: m.chain.writebacks_absorbed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, EventKind};
    use itpx_types::LevelId;

    fn machine() -> RefMachine {
        RefMachine::new(&SystemConfig::asplos25())
    }

    fn fetch(va: u64) -> Event {
        Event {
            kind: EventKind::Fetch,
            va,
            pc: va,
        }
    }

    fn load(va: u64) -> Event {
        Event {
            kind: EventKind::Load,
            va,
            pc: 0x10,
        }
    }

    fn store(va: u64) -> Event {
        Event {
            kind: EventKind::Store,
            va,
            pc: 0x10,
        }
    }

    #[test]
    fn cold_fetch_walks_and_warms_everything() {
        let mut m = machine();
        m.run(&[fetch(0x51_0000_0000)]);
        let r = m.report();
        assert_eq!(r.itlb.accesses, [0, 1, 0, 0]);
        assert_eq!(r.itlb.misses, [0, 1, 0, 0]);
        assert_eq!(r.walks, 1);
        assert_eq!(r.instruction_walks, 1);
        assert_eq!(r.walk_refs, 5, "cold 4 KiB walk reads all five levels");
        // Repeat: everything hits, no new walk.
        m.run(&[fetch(0x51_0000_0000)]);
        let r2 = m.report();
        assert_eq!(r2.walks, 1);
        assert_eq!(r2.itlb.misses, [0, 1, 0, 0]);
    }

    #[test]
    fn psc_warm_walk_reads_fewer_levels() {
        let mut m = machine();
        m.run(&[load(0x62_0000_0000), load(0x62_0000_0000 + 4096)]);
        let r = m.report();
        assert_eq!(r.walks, 2);
        // Second walk starts at level 2 (PSCL2 hit): 5 + 2 references.
        assert_eq!(r.walk_refs, 7);
    }

    #[test]
    fn stores_write_back_on_eviction() {
        let mut m = machine();
        // Dirty one block, then pour enough distinct pages through the
        // L1D (frames scatter pseudo-randomly across its 512 blocks)
        // that the dirty line is certainly displaced.
        m.run(&[store(0x62_0000_0000)]);
        for i in 1..=4096u64 {
            m.run(&[load(0x62_0000_0000 + i * 4096)]);
        }
        let r = m.report();
        let l1d = &r.levels[1];
        assert_eq!(l1d.id, LevelId::L1D);
        assert!(l1d.writebacks >= 1, "dirty block displaced");
        assert!(r.writebacks_conserved());
    }

    #[test]
    fn tlb_lists_bound_their_ways() {
        let mut m = machine();
        // 70 pages mapping to the same ITLB set (16 sets): more than the
        // 4 ways can hold.
        for i in 0..70u64 {
            m.run(&[fetch(0x51_0000_0000 + i * 16 * 4096)]);
        }
        let set_len = m.machine().itlb.max_set_occupancy();
        assert!(set_len <= 4, "ITLB set overflow: {set_len}");
        let r = m.report();
        assert_eq!(r.itlb.misses[1], 70, "all distinct pages miss");
    }
}
