//! A contract-checking wrapper around any [`Policy`].
//!
//! The TLB/cache drive protocol (see `itpx-vm`/`itpx-mem`) gives policies a
//! narrow contract:
//!
//! * [`Policy::victim`] is called on a **full** set and must return a way
//!   index `< ways` that currently holds a valid entry;
//! * the structure then calls [`Policy::on_evict`] for exactly that way,
//!   followed by [`Policy::on_fill`] into it;
//! * [`Policy::on_fill`] into an already-valid way without an intervening
//!   eviction is a caller bug (it would silently leak an entry);
//! * [`Policy::on_hit`] only ever targets valid ways.
//!
//! [`CheckedPolicy`] enforces all of that by shadowing the valid bits of the
//! structure it serves. Violations are recorded (query them with
//! [`CheckedPolicy::violations`]) and — in debug builds or with the
//! `strict-contracts` feature — turned into panics so test suites fail
//! loudly at the exact access that broke the contract. In release builds
//! without the feature the wrapper only records, which is what
//! `cargo xtask analyze` uses to report every violation instead of dying on
//! the first.

use crate::traits::Policy;
use itpx_types::{Rng64, SetGrid};

/// Wraps a [`Policy`], checking the drive-protocol contract on every call.
///
/// # Examples
///
/// ```
/// use itpx_policy::{CheckedPolicy, Lru, Policy, TlbMeta};
/// use itpx_types::TranslationKind;
///
/// let mut p: Box<dyn Policy<TlbMeta>> = Box::new(CheckedPolicy::new(Lru::new(1, 2), 1, 2));
/// let meta = TlbMeta::demand(0x10, TranslationKind::Data);
/// p.on_fill(0, 0, &meta);
/// p.on_fill(0, 1, &meta);
/// let v = p.victim(0, &meta);
/// p.on_evict(0, v);
/// p.on_fill(0, v, &meta);
/// ```
#[derive(Debug)]
pub struct CheckedPolicy<P> {
    inner: P,
    sets: usize,
    ways: usize,
    /// Shadow valid bits, `sets × ways`, row-major.
    valid: Vec<bool>,
    /// Per-set way returned by the last `victim()` call that has not yet
    /// been consumed by the matching `on_evict`/`on_fill` pair.
    pending_victim: Vec<Option<usize>>,
    violations: Vec<String>,
}

impl<P> CheckedPolicy<P> {
    /// Wraps `inner`, which serves a structure of `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(inner: P, sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "CheckedPolicy needs sets > 0, ways > 0"
        );
        Self {
            inner,
            sets,
            ways,
            valid: vec![false; sets * ways],
            pending_victim: vec![None; sets],
            violations: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps, discarding the shadow state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Contract violations recorded so far (empty in a clean run).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Drains the recorded violations.
    pub fn take_violations(&mut self) -> Vec<String> {
        std::mem::take(&mut self.violations)
    }

    /// Callers guarantee `set < sets && way < ways` via `check_bounds`.
    fn is_valid(&self, set: usize, way: usize) -> bool {
        // in-bounds: see above
        self.valid[set * self.ways + way]
    }

    /// Callers guarantee `set < sets && way < ways` via `check_bounds`.
    fn set_valid(&mut self, set: usize, way: usize, v: bool) {
        // in-bounds: see above
        self.valid[set * self.ways + way] = v;
    }

    fn set_full(&self, set: usize) -> bool {
        self.valid[set * self.ways..(set + 1) * self.ways]
            .iter()
            .all(|&v| v)
    }

    // itpx-allow: hot-alloc diagnostic sink: runs only when a contract is already violated, never in a clean steady state
    #[track_caller]
    fn record(&mut self, msg: String) {
        // Debug builds (and release builds that opt in via the
        // `strict-contracts` feature) fail fast at the offending access;
        // otherwise callers inspect `violations()` after the drive.
        if cfg!(any(debug_assertions, feature = "strict-contracts")) {
            panic!("policy contract violation: {msg}");
        }
        self.violations.push(msg);
    }

    /// Records and returns `false` when `(set, way)` is out of range —
    /// callers must then skip the access entirely.
    // itpx-allow: hot-alloc formats a diagnostic only on an out-of-range access, never in a clean steady state
    #[track_caller]
    fn check_bounds(&mut self, who: &str, call: &str, set: usize, way: usize) -> bool {
        if set >= self.sets || way >= self.ways {
            self.record(format!(
                "{who}: {call}(set={set}, way={way}) out of range for \
                 {}x{} structure",
                self.sets, self.ways
            ));
            false
        } else {
            true
        }
    }
}

impl<M, P: Policy<M>> Policy<M> for CheckedPolicy<P> {
    // itpx-allow: hot-alloc formats diagnostics only on contract violations, never in a clean steady state
    #[track_caller]
    fn on_fill(&mut self, set: usize, way: usize, meta: &M) {
        let name = self.inner.name();
        if !self.check_bounds(name, "on_fill", set, way) {
            return;
        }
        if self.is_valid(set, way) {
            self.record(format!(
                "{name}: on_fill(set={set}, way={way}) into a valid way \
                 without a preceding on_evict"
            ));
        }
        if let Some(v) = self.pending_victim[set] {
            // A victim was chosen but the structure skipped on_evict and
            // filled straight away — reuse-trained policies miss their
            // negative sample.
            self.record(format!(
                "{name}: victim(set={set}) returned way {v} but on_fill \
                 (way={way}) arrived before on_evict"
            ));
            self.pending_victim[set] = None;
        }
        self.set_valid(set, way, true);
        self.inner.on_fill(set, way, meta);
    }

    // itpx-allow: hot-alloc formats diagnostics only on contract violations, never in a clean steady state
    #[track_caller]
    fn on_hit(&mut self, set: usize, way: usize, meta: &M) {
        let name = self.inner.name();
        if !self.check_bounds(name, "on_hit", set, way) {
            return;
        }
        if !self.is_valid(set, way) {
            self.record(format!(
                "{name}: on_hit(set={set}, way={way}) on an invalid way"
            ));
        }
        self.inner.on_hit(set, way, meta);
    }

    // itpx-allow: hot-alloc formats diagnostics only on contract violations, never in a clean steady state
    #[track_caller]
    fn victim(&mut self, set: usize, incoming: &M) -> usize {
        let name = self.inner.name();
        if set >= self.sets {
            self.record(format!(
                "{name}: victim(set={set}) out of range for {} sets",
                self.sets
            ));
            return 0;
        }
        if !self.set_full(set) {
            self.record(format!(
                "{name}: victim(set={set}) requested while the set still \
                 has invalid ways"
            ));
        }
        let v = self.inner.victim(set, incoming);
        if v >= self.ways {
            self.record(format!(
                "{name}: victim(set={set}) returned way {v} >= ways={}",
                self.ways
            ));
        } else if !self.is_valid(set, v) {
            self.record(format!("{name}: victim(set={set}) chose invalid way {v}"));
        }
        self.pending_victim[set] = Some(v);
        v
    }

    // itpx-allow: hot-alloc formats diagnostics only on contract violations, never in a clean steady state
    #[track_caller]
    fn on_evict(&mut self, set: usize, way: usize) {
        let name = self.inner.name();
        if !self.check_bounds(name, "on_evict", set, way) {
            return;
        }
        if !self.is_valid(set, way) {
            self.record(format!(
                "{name}: on_evict(set={set}, way={way}) of an invalid way"
            ));
        }
        match self.pending_victim[set] {
            Some(v) if v != way => {
                self.record(format!(
                    "{name}: on_evict(set={set}, way={way}) does not match \
                     the victim {v} chosen for this set"
                ));
            }
            _ => {}
        }
        // `None` pending is fine: invalidations/flushes evict without
        // asking for a victim first.
        self.pending_victim[set] = None;
        self.set_valid(set, way, false);
        self.inner.on_evict(set, way);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn meta_bits(&self, sets: usize, ways: usize) -> u64 {
        // The shadow state is a verification artifact, not hardware.
        self.inner.meta_bits(sets, ways)
    }
}

/// Drives `inner` under a [`CheckedPolicy`] through `ops` protocol-correct
/// randomized accesses to a `sets × ways` structure and returns the
/// violations the wrapper recorded.
///
/// Half the accesses hit a resident entry (re-presenting its fill
/// metadata), most of the rest fill (a free way if the set has one, else
/// the full victim/evict/fill protocol), and the remainder invalidate a
/// resident entry. `gen_meta` draws each fill's metadata; the stream is a
/// pure function of `seed`, so a failure reproduces bit for bit. Debug
/// builds panic inside the wrapper at the first violation.
pub fn drive<M: Copy, P: Policy<M>>(
    inner: P,
    sets: usize,
    ways: usize,
    ops: usize,
    seed: u64,
    mut gen_meta: impl FnMut(&mut Rng64) -> M,
) -> Vec<String> {
    let mut p = CheckedPolicy::new(inner, sets, ways);
    let mut rng = Rng64::new(seed);
    // This drive's own occupancy view; `CheckedPolicy` keeps an
    // independent shadow and flags any disagreement with the policy.
    let mut resident = SetGrid::new(sets, ways, None);
    for _ in 0..ops {
        let set = rng.index(sets);
        let row = resident.row(set);
        let occupied: Vec<(usize, M)> = row
            .iter()
            .enumerate()
            .filter_map(|(w, m)| m.map(|m| (w, m)))
            .collect();
        let roll = rng.below(100);
        if roll < 50 && !occupied.is_empty() {
            // Hit a resident entry with its fill metadata; index(n) < n.
            let (way, meta) = occupied[rng.index(occupied.len())];
            p.on_hit(set, way, &meta);
        } else if roll < 95 {
            let meta = gen_meta(&mut rng);
            let way = if occupied.len() < ways {
                let free: Vec<usize> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(w, m)| m.is_none().then_some(w))
                    .collect();
                // Fill a free way; index(n) < n.
                let way = free[rng.index(free.len())];
                p.on_fill(set, way, &meta);
                way
            } else {
                let v = p.victim(set, &meta);
                if v >= ways {
                    // The wrapper has recorded the violation; stop driving
                    // this policy rather than indexing out of range.
                    break;
                }
                Policy::<M>::on_evict(&mut p, set, v);
                p.on_fill(set, v, &meta);
                v
            };
            // Both arms yield a way below `ways`.
            resident.row_mut(set)[way] = Some(meta);
        } else if !occupied.is_empty() {
            // Invalidate: an eviction without a victim() request; index(n) < n.
            let (way, _) = occupied[rng.index(occupied.len())];
            Policy::<M>::on_evict(&mut p, set, way);
            // `way` came from the occupied list, below `ways`.
            resident.row_mut(set)[way] = None;
        }
    }
    p.take_violations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::TlbMeta;
    use crate::Lru;
    use itpx_types::TranslationKind;

    fn meta() -> TlbMeta {
        TlbMeta::demand(0x10, TranslationKind::Data)
    }

    /// A policy that deliberately returns an out-of-range victim.
    #[derive(Debug)]
    struct OobPolicy;
    impl Policy<TlbMeta> for OobPolicy {
        fn on_fill(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn victim(&mut self, _: usize, _: &TlbMeta) -> usize {
            usize::MAX
        }
        fn name(&self) -> &'static str {
            "oob"
        }
        fn meta_bits(&self, _: usize, _: usize) -> u64 {
            0
        }
    }

    #[test]
    fn clean_protocol_records_nothing() {
        let mut p = CheckedPolicy::new(Lru::new(2, 2), 2, 2);
        let m = meta();
        p.on_fill(0, 0, &m);
        p.on_fill(0, 1, &m);
        p.on_hit(0, 0, &m);
        let v = p.victim(0, &m);
        Policy::<TlbMeta>::on_evict(&mut p, 0, v);
        p.on_fill(0, v, &m);
        assert!(p.violations().is_empty());
        assert_eq!(Policy::<TlbMeta>::name(&p), "lru");
    }

    #[test]
    #[should_panic(expected = "returned way")]
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-contracts")),
        ignore = "violations are recorded, not panicked, in plain release builds"
    )]
    fn out_of_range_victim_is_caught() {
        let mut p = CheckedPolicy::new(OobPolicy, 1, 2);
        let m = meta();
        p.on_fill(0, 0, &m);
        p.on_fill(0, 1, &m);
        let _ = p.victim(0, &m);
    }

    #[test]
    #[should_panic(expected = "without a preceding on_evict")]
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-contracts")),
        ignore = "violations are recorded, not panicked, in plain release builds"
    )]
    fn fill_into_valid_way_is_caught() {
        let mut p = CheckedPolicy::new(Lru::new(1, 2), 1, 2);
        let m = meta();
        p.on_fill(0, 0, &m);
        p.on_fill(0, 0, &m);
    }

    #[test]
    #[should_panic(expected = "does not match the victim")]
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-contracts")),
        ignore = "violations are recorded, not panicked, in plain release builds"
    )]
    fn mismatched_evict_is_caught() {
        let mut p = CheckedPolicy::new(Lru::new(1, 2), 1, 2);
        let m = meta();
        p.on_fill(0, 0, &m);
        p.on_fill(0, 1, &m);
        let v = p.victim(0, &m);
        Policy::<TlbMeta>::on_evict(&mut p, 0, 1 - v);
    }

    #[test]
    #[should_panic(expected = "on an invalid way")]
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-contracts")),
        ignore = "violations are recorded, not panicked, in plain release builds"
    )]
    fn hit_on_invalid_way_is_caught() {
        let mut p = CheckedPolicy::new(Lru::new(1, 2), 1, 2);
        p.on_hit(0, 0, &meta());
    }

    #[test]
    #[should_panic(expected = "invalid ways")]
    #[cfg_attr(
        not(any(debug_assertions, feature = "strict-contracts")),
        ignore = "violations are recorded, not panicked, in plain release builds"
    )]
    fn victim_on_non_full_set_is_caught() {
        let mut p = CheckedPolicy::new(Lru::new(1, 2), 1, 2);
        let m = meta();
        p.on_fill(0, 0, &m);
        let _ = p.victim(0, &m);
    }

    #[test]
    fn evict_without_victim_is_allowed() {
        // Invalidations evict without a victim() request.
        let mut p = CheckedPolicy::new(Lru::new(1, 2), 1, 2);
        let m = meta();
        p.on_fill(0, 0, &m);
        Policy::<TlbMeta>::on_evict(&mut p, 0, 0);
        assert!(p.violations().is_empty());
    }

    #[test]
    fn meta_bits_delegates() {
        let p = CheckedPolicy::new(Lru::new(4, 8), 4, 8);
        assert_eq!(
            Policy::<TlbMeta>::meta_bits(&p, 4, 8),
            Policy::<TlbMeta>::meta_bits(&Lru::new(4, 8), 4, 8)
        );
    }
}
