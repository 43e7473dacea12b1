//! True least-recently-used replacement — the paper's baseline at every
//! TLB and cache level.

use crate::recency::RecencyStack;
use crate::traits::Policy;

/// True LRU over an explicit recency stack.
///
/// Inserts at `MRUpos`, promotes hits to `MRUpos`, evicts `LRUpos` — the
/// baseline the paper measures every other policy against. Works for both
/// TLBs and caches (it ignores the access metadata).
#[derive(Debug, Clone)]
pub struct Lru {
    stack: RecencyStack,
}

impl Lru {
    /// Creates an LRU policy for `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            stack: RecencyStack::new(sets, ways),
        }
    }
}

impl<M> Policy<M> for Lru {
    fn on_fill(&mut self, set: usize, way: usize, _meta: &M) {
        self.stack.touch(set, way);
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &M) {
        self.stack.touch(set, way);
    }

    fn victim(&mut self, set: usize, _incoming: &M) -> usize {
        self.stack.lru(set)
    }

    fn name(&self) -> &'static str {
        "lru"
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // One recency rank per entry (the full MRU→LRU ordering).
        sets as u64 * ways as u64 * crate::traits::rank_bits(ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::CacheMeta;
    use itpx_types::FillClass;

    fn m(b: u64) -> CacheMeta {
        CacheMeta::demand(b, FillClass::DataPayload)
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut p = Lru::new(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &m(w as u64));
        }
        // Touch 0 again; LRU is now 1.
        p.on_hit(0, 0, &m(0));
        assert_eq!(Policy::<CacheMeta>::victim(&mut p, 0, &m(9)), 1);
    }

    #[test]
    fn fill_after_eviction_cycles_through_all_ways() {
        let mut p = Lru::new(1, 3);
        for w in 0..3 {
            p.on_fill(0, w, &m(w as u64));
        }
        let mut victims = Vec::new();
        for i in 0..3 {
            let v = Policy::<CacheMeta>::victim(&mut p, 0, &m(10 + i));
            victims.push(v);
            p.on_fill(0, v, &m(10 + i));
        }
        victims.sort_unstable();
        assert_eq!(victims, vec![0, 1, 2]);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = Lru::new(2, 2);
        p.on_fill(0, 0, &m(1));
        p.on_fill(0, 1, &m(2));
        p.on_fill(1, 1, &m(3));
        p.on_fill(1, 0, &m(4));
        assert_eq!(Policy::<CacheMeta>::victim(&mut p, 0, &m(9)), 0);
        assert_eq!(Policy::<CacheMeta>::victim(&mut p, 1, &m(9)), 1);
    }
}
