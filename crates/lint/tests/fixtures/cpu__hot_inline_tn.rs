//! TN: cross-crate hot calls that need no attribute — a generic callee,
//! a callee in the caller's own crate, a test-only callee, a callee the
//! caller's crate cannot name, and a justified allow.

pub struct Engine {
    hierarchy: Hierarchy<u64>,
}

impl Engine {
    pub fn step(&mut self) {
        self.hierarchy.instr_fetch(0x40);
        self.retire(1);
        self.hierarchy.probe_only_in_tests(0x40);
        self.hierarchy.settle(0x40);
        self.hierarchy.data_access(0x80);
    }

    fn retire(&mut self, n: u64) {
        let _ = n;
    }
}

//@ crate mem
pub struct Hierarchy<T> {
    fetches: T,
}

impl<T: Copy> Hierarchy<T> {
    pub fn instr_fetch(&mut self, pa: u64) {
        let _ = (self.fetches, pa);
    }
}

pub struct Chain {
    misses: u64,
}

impl Chain {
    pub(crate) fn settle(&mut self, pa: u64) {
        self.misses = self.misses.wrapping_add(pa);
    }

    // itpx-allow: hot-inline the full miss path; one call per access either way
    pub fn data_access(&mut self, pa: u64) {
        self.misses = self.misses.wrapping_add(pa);
    }
}

#[cfg(test)]
mod tests {
    pub fn probe_only_in_tests(pa: u64) -> u64 {
        pa
    }
}
