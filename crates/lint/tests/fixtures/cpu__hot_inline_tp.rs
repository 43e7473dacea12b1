//! TP: the engine calls a memory-hierarchy entry point in another crate
//! that carries no `#[inline]`; in a build without LTO that call stays
//! out of line. The attributed sibling is clean.

pub struct Engine {
    hierarchy: Hierarchy,
}

impl Engine {
    pub fn step(&mut self) {
        self.hierarchy.instr_fetch(0x40);
        self.hierarchy.warm_fetch(0x40);
    }
}

//@ crate mem
pub struct Hierarchy {
    fetches: u64,
}

impl Hierarchy {
    pub fn instr_fetch(&mut self, pa: u64) {
        self.fetches = self.fetches.wrapping_add(pa);
    }

    #[inline]
    pub fn warm_fetch(&mut self, pa: u64) {
        self.fetches = self.fetches.wrapping_add(pa);
    }
}
