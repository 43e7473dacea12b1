//! Workload descriptions: footprints, locality, and mix parameters.

use itpx_types::fingerprint::{Fingerprint, Fnv1a};

/// Base of the code region in a workload's virtual address space.
pub const CODE_BASE: u64 = 0x10_0000_0000;
/// Base of the data region.
pub const DATA_BASE: u64 = 0x20_0000_0000;
/// Instructions per 4 KiB code page (4-byte instructions).
pub const INSTS_PER_PAGE: usize = 1024;

/// Statistical shape of a workload: footprints, locality skews, and
/// instruction mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Distinct 4 KiB code pages (the instruction footprint).
    pub code_pages: usize,
    /// Minimum instructions per function.
    pub fn_len_min: usize,
    /// Maximum instructions per function.
    pub fn_len_max: usize,
    /// Zipf exponent of function popularity (higher = more skewed reuse).
    pub code_zipf_s: f64,
    /// Fraction of function transfers that advance the *code ring*: a
    /// cyclically-visited set of short functions spanning `ring_pages`
    /// pages. Its reuse distance sits near STLB capacity, so instruction
    /// entries are evicted by data churn under LRU but survive under iTP —
    /// the capacity-contention regime of the paper's Finding 2.
    pub ring_ratio: f64,
    /// Pages spanned by the code ring (disjoint from the Zipf code region).
    pub ring_pages: usize,
    /// Probability that a basic block loops back at its end.
    pub loop_prob: f64,
    /// Distinct 4 KiB data pages (the data footprint).
    pub data_pages: usize,
    /// Zipf exponent of data-page popularity.
    pub data_zipf_s: f64,
    /// Fraction of instructions that are loads.
    pub load_ratio: f64,
    /// Fraction of instructions that are stores.
    pub store_ratio: f64,
    /// Fraction of memory references that stream sequentially through a
    /// block-granularity circular buffer of `stream_blocks` cache blocks.
    /// Sized between the L2C and the LLC, this models the intermediate
    /// working sets of server software: it churns the L2C (evicting
    /// unprotected PTE blocks, the pressure xPTP answers) while staying
    /// TLB-friendly (few hundred pages) and LLC-resident (cheap misses).
    pub stream_ratio: f64,
    /// Cache blocks in the streaming circular buffer.
    pub stream_blocks: usize,
    /// Fraction of memory references walking a second, smaller circular
    /// buffer whose block working set is *L2C-marginal*: it hits the L2C
    /// only while enough L2C capacity is left over. Policies that protect
    /// blocks indiscriminately (PTP keeping instruction PTEs) pay here,
    /// which is how the paper's critique of translation-aware-but-
    /// instruction-oblivious policies manifests.
    pub hot_ratio: f64,
    /// Cache blocks in the L2C-marginal buffer.
    pub hot_blocks: usize,
    /// Fraction of memory references hitting the *transit band*: a
    /// VPN-contiguous region reused beyond STLB reach (its pages miss the
    /// STLB persistently) whose leaf-PTE blocks nevertheless fit in the
    /// L2C — the traffic xPTP's data-PTE protection accelerates.
    pub transit_ratio: f64,
    /// Pages in the transit band.
    pub transit_pages: usize,
    /// Fraction of instructions with a multi-cycle execution latency.
    pub long_latency_ratio: f64,
}

impl Profile {
    /// A big-code server workload in the style of the Qualcomm Server
    /// traces: megabytes of instructions reached through skewed calls,
    /// tens of megabytes of data.
    pub fn server() -> Self {
        Self {
            code_pages: 4096,
            fn_len_min: 16,
            fn_len_max: 256,
            code_zipf_s: 1.25,
            ring_ratio: 0.35,
            ring_pages: 448,
            loop_prob: 0.45,
            data_pages: 24_576,
            data_zipf_s: 1.60,
            load_ratio: 0.22,
            store_ratio: 0.08,
            stream_ratio: 0.18,
            stream_blocks: 16_384,
            hot_ratio: 0.14,
            hot_blocks: 3_584,
            transit_ratio: 0.050,
            transit_pages: 20_480,
            long_latency_ratio: 0.10,
        }
    }

    /// A SPEC-CPU-like workload: tiny code footprint (fits a 64-entry
    /// ITLB), large data footprint.
    pub fn spec() -> Self {
        Self {
            code_pages: 8,
            fn_len_min: 32,
            fn_len_max: 256,
            code_zipf_s: 0.9,
            ring_ratio: 0.0,
            ring_pages: 1,
            loop_prob: 0.6,
            data_pages: 24_576,
            data_zipf_s: 1.70,
            load_ratio: 0.25,
            store_ratio: 0.10,
            stream_ratio: 0.30,
            stream_blocks: 16_384,
            hot_ratio: 0.15,
            hot_blocks: 4_096,
            transit_ratio: 0.002,
            transit_pages: 4096,
            long_latency_ratio: 0.12,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate footprints or out-of-range ratios.
    pub fn validate(&self) {
        assert!(
            self.code_pages > 0 && self.data_pages > 0,
            "empty footprint"
        );
        assert!(
            self.fn_len_min >= 4 && self.fn_len_min <= self.fn_len_max,
            "bad function length range"
        );
        for r in [
            self.ring_ratio,
            self.loop_prob,
            self.load_ratio,
            self.store_ratio,
            self.stream_ratio,
            self.transit_ratio,
            self.long_latency_ratio,
        ] {
            assert!((0.0..=1.0).contains(&r), "ratio out of range: {r}");
        }
        assert!(
            self.load_ratio + self.store_ratio <= 0.9,
            "memory mix too dense"
        );
        assert!(
            self.stream_ratio + self.transit_ratio <= 1.0,
            "reference mix exceeds 1"
        );
        assert!(self.transit_pages > 0, "empty transit band");
        assert!(self.stream_blocks > 0, "empty stream buffer");
        assert!(self.hot_blocks > 0, "empty hot buffer");
        assert!(
            self.stream_ratio + self.transit_ratio + self.hot_ratio <= 1.0,
            "reference mix exceeds 1"
        );
        assert!(self.ring_pages > 0, "empty code ring");
    }
}

impl Fingerprint for Profile {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.code_pages);
        h.write_usize(self.fn_len_min);
        h.write_usize(self.fn_len_max);
        h.write_f64(self.code_zipf_s);
        h.write_f64(self.ring_ratio);
        h.write_usize(self.ring_pages);
        h.write_f64(self.loop_prob);
        h.write_usize(self.data_pages);
        h.write_f64(self.data_zipf_s);
        h.write_f64(self.load_ratio);
        h.write_f64(self.store_ratio);
        h.write_f64(self.stream_ratio);
        h.write_usize(self.stream_blocks);
        h.write_f64(self.hot_ratio);
        h.write_usize(self.hot_blocks);
        h.write_f64(self.transit_ratio);
        h.write_usize(self.transit_pages);
        h.write_f64(self.long_latency_ratio);
    }
}

/// A SMARTS-style tiered execution schedule.
///
/// After the ordinary cycle-accurate warmup, a tiered run repeats
/// `windows` segments of (untimed fast-forward of `fast_forward`
/// instructions, warming the cycle structures → cycle-accurate window of
/// `window` instructions). The
/// flat schedule (all fields zero) is the default and means "no tiering":
/// the engine measures in one run to the target and produces
/// byte-identical outputs to a pre-tiering build, and the flat schedule
/// contributes nothing to a workload's fingerprint so existing simcache
/// keys stay byte-identical too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierSchedule {
    /// Instructions per cycle-accurate measurement window.
    pub window: u64,
    /// Instructions the untimed fast-forward warms through before each
    /// window (0 = windows are back-to-back).
    pub fast_forward: u64,
    /// Number of (fast-forward, window) segments.
    pub windows: u64,
}

impl TierSchedule {
    /// The non-tiered schedule: one classic warmup + measurement run.
    pub fn flat() -> Self {
        Self::default()
    }

    /// A tiered schedule of `windows` segments.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `windows` is zero.
    pub fn tiered(window: u64, fast_forward: u64, windows: u64) -> Self {
        let s = Self {
            window,
            fast_forward,
            windows,
        };
        s.validate();
        s
    }

    /// Whether this is the flat (non-tiered) schedule.
    pub fn is_flat(&self) -> bool {
        *self == Self::flat()
    }

    /// Instructions measured cycle-accurately across all windows
    /// (0 for the flat schedule, which measures `spec.instructions`).
    pub fn measured_instructions(&self) -> u64 {
        self.windows * self.window
    }

    /// Program instructions covered after warmup: measured windows plus
    /// every fast-forwarded gap.
    pub fn horizon(&self) -> u64 {
        self.windows * (self.window + self.fast_forward)
    }

    /// Validates the schedule.
    ///
    /// # Panics
    ///
    /// Panics on a non-flat schedule with zero-length windows or zero
    /// window count.
    pub fn validate(&self) {
        if !self.is_flat() {
            assert!(self.window > 0, "tiered schedule needs window > 0");
            assert!(self.windows > 0, "tiered schedule needs windows > 0");
        }
    }
}

/// Written ahead of a tiered schedule's fields. Tiered results stored
/// while fast-forwards warmed a policy-free copy of the machine (which
/// measured LRU-warmed windows) keyed without it, so they are never
/// served for runs whose fast-forwards warm the machine itself. A
/// workload spec hashes the flat schedule as nothing, so flat keys
/// never see the salt.
const TIERED_KEY_SALT: u64 = 0x7761_726d_2d63_7963;

impl Fingerprint for TierSchedule {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_u64(TIERED_KEY_SALT);
        h.write_u64(self.window);
        h.write_u64(self.fast_forward);
        h.write_u64(self.windows);
    }
}

/// How a context switch treats the incoming tenant's cached
/// translations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchPolicy {
    /// Flush the incoming tenant's TLB entries and PSC namespace before
    /// switching — each quantum starts translation-cold, the classic
    /// non-ASID-tagged hardware behavior (global entries still survive).
    #[default]
    FlushAsid,
    /// Keep tagged entries across switches — ASID-tagged hardware; a
    /// returning tenant finds whatever survived the other tenants'
    /// capacity pressure.
    Preserve,
}

impl SwitchPolicy {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SwitchPolicy::FlushAsid => "flush",
            SwitchPolicy::Preserve => "preserve",
        }
    }
}

/// A deterministic multi-tenant context-switch schedule.
///
/// A consolidation run time-slices `tenants` independent workload streams
/// over one core, round-robin, switching every `quantum` *produced*
/// instructions (the schedule clock is instruction count, not cycles, so
/// measurement windows, fast-forwards and the functional reference model
/// fire switches at identical points).
/// Each tenant is a re-seeded instance of the spec's profile — same
/// statistical shape, different concrete pages, like the generator's
/// `phase_fork`. Optional cadences inject targeted TLB shootdowns and
/// huge-page promotion/demotion churn, and `global_fraction` of 2 MiB
/// regions are backed by mappings shared across every tenant.
///
/// The flat schedule (all zeros) is the default and means "no
/// multi-tenancy": the engine takes the classic single-tenant path,
/// produces byte-identical outputs to a pre-multi-tenant build, and
/// contributes nothing to the workload fingerprint so existing simcache
/// keys stay byte-identical (the same trick [`TierSchedule`] uses).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContextSchedule {
    /// Number of tenant streams time-sliced over the core (0 = flat).
    pub tenants: u16,
    /// Produced instructions per tenant quantum.
    pub quantum: u64,
    /// What a switch does to the incoming tenant's cached translations.
    pub policy: SwitchPolicy,
    /// Produced instructions between injected TLB shootdowns (0 = never).
    pub shootdown_every: u64,
    /// Produced instructions between huge-page promotion/demotion churn
    /// events (0 = never).
    pub churn_every: u64,
    /// Fraction of 2 MiB regions backed by global (cross-tenant shared)
    /// mappings.
    pub global_fraction: f64,
    /// Seed of the per-region global decision and of shootdown/churn
    /// target selection.
    pub global_seed: u64,
}

impl ContextSchedule {
    /// The single-tenant schedule: no switches, shootdowns, or churn.
    pub fn flat() -> Self {
        Self::default()
    }

    /// A round-robin schedule over `tenants` streams.
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails [`ContextSchedule::validate`].
    pub fn round_robin(tenants: u16, quantum: u64, policy: SwitchPolicy) -> Self {
        let s = Self {
            tenants,
            quantum,
            policy,
            ..Self::default()
        };
        s.validate();
        s
    }

    /// Sets the shootdown cadence.
    #[must_use]
    pub fn shootdowns(mut self, every: u64) -> Self {
        self.shootdown_every = every;
        self
    }

    /// Sets the huge-page churn cadence.
    #[must_use]
    pub fn churn(mut self, every: u64) -> Self {
        self.churn_every = every;
        self
    }

    /// Sets the globally-mapped region fraction and its seed.
    #[must_use]
    pub fn globals(mut self, fraction: f64, seed: u64) -> Self {
        self.global_fraction = fraction;
        self.global_seed = seed;
        self
    }

    /// Whether this is the flat (single-tenant) schedule.
    pub fn is_flat(&self) -> bool {
        *self == Self::flat()
    }

    /// Validates the schedule.
    ///
    /// # Panics
    ///
    /// Panics on a non-flat schedule with fewer than two tenants, a zero
    /// quantum, or a global fraction outside `[0, 1]`.
    pub fn validate(&self) {
        if !self.is_flat() {
            assert!(self.tenants >= 2, "context schedule needs tenants >= 2");
            assert!(self.quantum > 0, "context schedule needs quantum > 0");
            assert!(
                (0.0..=1.0).contains(&self.global_fraction),
                "global_fraction in [0, 1]"
            );
        }
    }
}

impl Fingerprint for ContextSchedule {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_u64(u64::from(self.tenants));
        h.write_u64(self.quantum);
        h.write_str(self.policy.name());
        h.write_u64(self.shootdown_every);
        h.write_u64(self.churn_every);
        h.write_f64(self.global_fraction);
        h.write_u64(self.global_seed);
    }
}

/// One workload: a profile plus identity and run lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (e.g. `srv_017`).
    pub name: String,
    /// Seed controlling every stochastic choice of the generator.
    pub seed: u64,
    /// Statistical shape.
    pub profile: Profile,
    /// Instructions to measure.
    pub instructions: u64,
    /// Instructions to warm up structures before measuring.
    pub warmup: u64,
    /// Tiered execution schedule ([`TierSchedule::flat`] = classic run).
    pub tiers: TierSchedule,
    /// Multi-tenant context schedule ([`ContextSchedule::flat`] =
    /// single-tenant run).
    pub contexts: ContextSchedule,
}

impl WorkloadSpec {
    /// A server-like workload with slight per-seed parameter variation
    /// (footprints and skews are jittered so a suite of seeds spans a
    /// range of STLB pressures, as the real trace set does).
    pub fn server_like(seed: u64) -> Self {
        let mut p = Profile::server();
        let mut r = itpx_types::Rng64::new(seed ^ 0x5e7_5eed);
        p.code_pages = (p.code_pages as f64 * (0.5 + 1.5 * r.f64())) as usize;
        p.data_pages = (p.data_pages as f64 * (0.5 + 1.5 * r.f64())) as usize;
        p.code_zipf_s = 1.15 + 0.20 * r.f64();
        p.data_zipf_s = 1.50 + 0.30 * r.f64();
        p.transit_ratio = 0.040 + 0.020 * r.f64();
        p.transit_pages = 18_432 + (r.below(6) as usize) * 1024;
        p.ring_pages = 384 + (r.below(4) as usize) * 64;
        p.ring_ratio = 0.25 + 0.20 * r.f64();
        Self {
            name: format!("srv_{seed:03}"),
            seed,
            profile: p,
            instructions: 1_000_000,
            warmup: 200_000,
            tiers: TierSchedule::flat(),
            contexts: ContextSchedule::flat(),
        }
    }

    /// Tenant `t`'s workload in a multi-tenant run: the same statistical
    /// shape with the layout re-seeded, so every tenant runs over its own
    /// concrete pages (tenant 0 keeps the spec verbatim — its stream IS
    /// the original one).
    pub fn tenant(&self, t: u16) -> Self {
        let mut s = self.clone();
        s.seed = self.seed ^ u64::from(t).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        s
    }

    /// A SPEC-like workload.
    pub fn spec_like(seed: u64) -> Self {
        let mut p = Profile::spec();
        let mut r = itpx_types::Rng64::new(seed ^ 0x0bad_5eed);
        p.data_pages = (p.data_pages as f64 * (0.5 + 1.5 * r.f64())) as usize;
        p.code_pages = 4 + (r.below(8) as usize);
        Self {
            name: format!("spec_{seed:03}"),
            seed,
            profile: p,
            instructions: 1_000_000,
            warmup: 200_000,
            tiers: TierSchedule::flat(),
            contexts: ContextSchedule::flat(),
        }
    }

    /// Sets the measured instruction count.
    #[must_use]
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Sets the warmup instruction count.
    #[must_use]
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Sets the tiered execution schedule.
    #[must_use]
    pub fn tiers(mut self, tiers: TierSchedule) -> Self {
        tiers.validate();
        self.tiers = tiers;
        self
    }

    /// Sets the multi-tenant context schedule.
    #[must_use]
    pub fn contexts(mut self, contexts: ContextSchedule) -> Self {
        contexts.validate();
        self.contexts = contexts;
        self
    }
}

impl Fingerprint for WorkloadSpec {
    fn fingerprint(&self, h: &mut Fnv1a) {
        // The name flows into SimulationOutput, so it is part of the
        // cached result's identity, not just a label.
        h.write_str(&self.name);
        h.write_u64(self.seed);
        self.profile.fingerprint(h);
        h.write_u64(self.instructions);
        h.write_u64(self.warmup);
        // The flat schedule is hashed as *nothing* so every pre-tiering
        // simcache key stays byte-identical (the same trick
        // HierarchyConfig uses for optional levels); any tiered schedule
        // changes the key.
        if !self.tiers.is_flat() {
            self.tiers.fingerprint(h);
        }
        // Same key-stability trick: the flat context schedule is hashed
        // as nothing, so single-tenant specs keep their pre-multi-tenant
        // simcache keys.
        if !self.contexts.is_flat() {
            self.contexts.fingerprint(h);
        }
    }
}

/// SMT co-location pressure category (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmtCategory {
    /// Two workloads with high STLB MPKI.
    Intense,
    /// One high + one medium STLB MPKI workload.
    Medium,
    /// One high + one low STLB MPKI workload.
    Relaxed,
}

impl SmtCategory {
    /// All categories, in paper order.
    pub const ALL: [SmtCategory; 3] = [
        SmtCategory::Intense,
        SmtCategory::Medium,
        SmtCategory::Relaxed,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SmtCategory::Intense => "intense",
            SmtCategory::Medium => "medium",
            SmtCategory::Relaxed => "relaxed",
        }
    }
}

/// Two workloads co-located on one SMT core.
#[derive(Debug, Clone, PartialEq)]
pub struct SmtPairSpec {
    /// Workload on hardware thread 0.
    pub a: WorkloadSpec,
    /// Workload on hardware thread 1.
    pub b: WorkloadSpec,
    /// Pressure category of the pair.
    pub category: SmtCategory,
}

impl SmtPairSpec {
    /// Display name of the pair.
    pub fn name(&self) -> String {
        format!("{}+{}", self.a.name, self.b.name)
    }
}

impl Fingerprint for SmtPairSpec {
    fn fingerprint(&self, h: &mut Fnv1a) {
        self.a.fingerprint(h);
        self.b.fingerprint(h);
        h.write_str(self.category.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_profiles_validate() {
        Profile::server().validate();
        Profile::spec().validate();
    }

    #[test]
    fn spec_code_fits_a_64_entry_itlb() {
        for seed in 0..20 {
            let w = WorkloadSpec::spec_like(seed);
            assert!(w.profile.code_pages <= 64, "{}", w.profile.code_pages);
            w.profile.validate();
        }
    }

    #[test]
    fn server_code_footprint_is_large_and_varies() {
        let sizes: Vec<usize> = (0..20)
            .map(|s| WorkloadSpec::server_like(s).profile.code_pages)
            .collect();
        assert!(sizes.iter().all(|&s| s >= 1024), "{sizes:?}");
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "seeds must vary the footprint");
    }

    #[test]
    fn builders_override_lengths() {
        let w = WorkloadSpec::server_like(1).instructions(5000).warmup(100);
        assert_eq!(w.instructions, 5000);
        assert_eq!(w.warmup, 100);
    }

    #[test]
    #[should_panic(expected = "ratio out of range")]
    fn bad_ratio_panics() {
        let mut p = Profile::server();
        p.loop_prob = 1.5;
        p.validate();
    }

    fn key_of(w: &WorkloadSpec) -> u64 {
        let mut h = Fnv1a::new();
        w.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn flat_schedule_leaves_fingerprint_unchanged() {
        // The explicit flat schedule must hash exactly like an untouched
        // spec: pre-tiering simcache keys depend on this.
        let base = WorkloadSpec::server_like(1);
        let flat = base.clone().tiers(TierSchedule::flat());
        assert_eq!(key_of(&base), key_of(&flat));
    }

    #[test]
    fn tiered_schedule_changes_fingerprint() {
        let base = WorkloadSpec::server_like(1);
        let tiered = base.clone().tiers(TierSchedule::tiered(10_000, 90_000, 4));
        assert_ne!(key_of(&base), key_of(&tiered));
        // Every schedule field is key-relevant.
        let a = base.clone().tiers(TierSchedule::tiered(10_000, 90_000, 5));
        let b = base.clone().tiers(TierSchedule::tiered(10_000, 80_000, 4));
        let c = base.tiers(TierSchedule::tiered(20_000, 90_000, 4));
        let keys = [key_of(&tiered), key_of(&a), key_of(&b), key_of(&c)];
        for (i, x) in keys.iter().enumerate() {
            for y in keys.iter().skip(i + 1) {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn tier_schedule_accounting() {
        let t = TierSchedule::tiered(10_000, 490_000, 4);
        assert!(!t.is_flat());
        assert_eq!(t.measured_instructions(), 40_000);
        assert_eq!(t.horizon(), 2_000_000);
        assert!(TierSchedule::flat().is_flat());
        assert_eq!(TierSchedule::flat().measured_instructions(), 0);
    }

    #[test]
    #[should_panic(expected = "window > 0")]
    fn zero_window_tiered_schedule_panics() {
        let _ = TierSchedule::tiered(0, 1000, 2);
    }

    #[test]
    fn flat_context_schedule_leaves_fingerprint_unchanged() {
        // The explicit flat schedule must hash exactly like an untouched
        // spec: pre-multi-tenant simcache keys depend on this.
        let base = WorkloadSpec::server_like(1);
        let flat = base.clone().contexts(ContextSchedule::flat());
        assert_eq!(key_of(&base), key_of(&flat));
    }

    #[test]
    fn every_context_schedule_field_changes_the_fingerprint() {
        let base = WorkloadSpec::server_like(1);
        let sched = ContextSchedule::round_robin(2, 10_000, SwitchPolicy::FlushAsid)
            .shootdowns(5_000)
            .churn(7_000)
            .globals(0.25, 9);
        let with = |f: &dyn Fn(&mut ContextSchedule)| {
            let mut s = sched;
            f(&mut s);
            key_of(&base.clone().contexts(s))
        };
        let keys = [
            key_of(&base),
            with(&|_| {}),
            with(&|s| s.tenants = 4),
            with(&|s| s.quantum = 20_000),
            with(&|s| s.policy = SwitchPolicy::Preserve),
            with(&|s| s.shootdown_every = 6_000),
            with(&|s| s.churn_every = 8_000),
            with(&|s| s.global_fraction = 0.5),
            with(&|s| s.global_seed = 10),
        ];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(x, y, "fields {i} and {j} collide");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tenants >= 2")]
    fn single_tenant_round_robin_panics() {
        let _ = ContextSchedule::round_robin(1, 10_000, SwitchPolicy::FlushAsid);
    }
}
