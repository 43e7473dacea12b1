//! Statistics primitives: per-structure access/miss counters with the
//! four-way breakdown the paper reports (Figure 4), online means for miss
//! latencies (Figure 9b), and log-bucket histograms.

use crate::access::FillClass;
use crate::LevelId;

/// Streaming mean without storing samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMean {
    count: u64,
    sum: f64,
}

impl OnlineMean {
    /// Creates an empty mean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean, or 0.0 if no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another mean into this one.
    pub fn merge(&mut self, other: &OnlineMean) {
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The raw `(count, sum)` state, for exact serialization.
    pub fn raw_parts(&self) -> (u64, f64) {
        (self.count, self.sum)
    }

    /// Rebuilds a mean from [`raw_parts`](Self::raw_parts) output.
    pub fn from_raw_parts(count: u64, sum: f64) -> Self {
        Self { count, sum }
    }
}

/// Power-of-two bucketed histogram (bucket *i* counts values in
/// `[2^i, 2^(i+1))`, bucket 0 counts 0 and 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram able to hold values up to `2^(buckets) - 1`;
    /// larger values saturate into the last bucket.
    pub fn new(buckets: usize) -> Self {
        Self {
            buckets: vec![0; buckets.max(1)],
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let b = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        let b = b.min(self.buckets.len() - 1);
        self.buckets[b] += 1;
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate percentile (returns the lower bound of the bucket that
    /// contains the `p`-th percentile sample), or 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1 << i };
            }
        }
        1 << (self.buckets.len() - 1)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(24)
    }
}

/// Misses-per-kilo-instruction broken down into the paper's four classes
/// (Figure 4): demand data (`dMPKI`), demand instruction (`iMPKI`), data
/// page-walk (`dtMPKI`), instruction page-walk (`itMPKI`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MpkiBreakdown {
    /// Demand-data misses per kilo-instruction.
    pub data: f64,
    /// Demand-instruction misses per kilo-instruction.
    pub instr: f64,
    /// Misses from page walks serving data translations.
    pub data_pte: f64,
    /// Misses from page walks serving instruction translations.
    pub instr_pte: f64,
}

impl MpkiBreakdown {
    /// Total MPKI across all classes.
    pub fn total(&self) -> f64 {
        self.data + self.instr + self.data_pte + self.instr_pte
    }
}

impl std::fmt::Display for MpkiBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "d={:.3} i={:.3} dt={:.3} it={:.3} (total {:.3})",
            self.data,
            self.instr,
            self.data_pte,
            self.instr_pte,
            self.total()
        )
    }
}

/// Access/miss/latency counters for one hardware structure (a TLB level or
/// a cache level), broken down by [`FillClass`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructStats {
    accesses: [u64; 4],
    misses: [u64; 4],
    miss_latency: OnlineMean,
}

impl StructStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access of the given class; `miss` marks whether it missed.
    pub fn record(&mut self, class: FillClass, miss: bool) {
        let i = class.stat_index();
        self.accesses[i] += 1;
        if miss {
            self.misses[i] += 1;
        }
    }

    /// Records the end-to-end latency of one miss, in cycles.
    // itpx-allow: hot-float statistics sink only; the float mean never feeds back into simulated state
    pub fn record_miss_latency(&mut self, cycles: u64) {
        self.miss_latency.add(cycles as f64);
    }

    /// Total accesses across classes.
    pub fn accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total misses across classes.
    pub fn misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Misses of one class.
    pub fn misses_of(&self, class: FillClass) -> u64 {
        // stat_index() < 4, the counter arrays' fixed length
        self.misses[class.stat_index()]
    }

    /// Average miss latency in cycles (0 if no misses recorded).
    pub fn avg_miss_latency(&self) -> f64 {
        self.miss_latency.mean()
    }

    /// Total MPKI given the retired instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses() as f64 * 1000.0 / instructions as f64
        }
    }

    /// Per-class MPKI breakdown given the retired instruction count.
    pub fn mpki_breakdown(&self, instructions: u64) -> MpkiBreakdown {
        if instructions == 0 {
            return MpkiBreakdown::default();
        }
        let k = 1000.0 / instructions as f64;
        MpkiBreakdown {
            data: self.misses_of(FillClass::DataPayload) as f64 * k,
            instr: self.misses_of(FillClass::InstrPayload) as f64 * k,
            data_pte: self.misses_of(FillClass::DataPte) as f64 * k,
            instr_pte: self.misses_of(FillClass::InstrPte) as f64 * k,
        }
    }

    /// Hit rate in `[0, 1]` (1.0 when there are no accesses).
    pub fn hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            1.0
        } else {
            1.0 - self.misses() as f64 / a as f64
        }
    }

    /// Clears all counters (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        *self = StructStats::default();
    }

    /// The raw per-class counter state, for exact serialization:
    /// `(accesses, misses, miss-latency mean)`.
    pub fn raw_parts(&self) -> ([u64; 4], [u64; 4], OnlineMean) {
        (self.accesses, self.misses, self.miss_latency)
    }

    /// Rebuilds counters from [`raw_parts`](Self::raw_parts) output.
    pub fn from_raw_parts(accesses: [u64; 4], misses: [u64; 4], miss_latency: OnlineMean) -> Self {
        Self {
            accesses,
            misses,
            miss_latency,
        }
    }

    /// Merges counters from another structure (used to aggregate SMT runs).
    pub fn merge(&mut self, other: &StructStats) {
        for i in 0..4 {
            self.accesses[i] += other.accesses[i];
            self.misses[i] += other.misses[i];
        }
        self.miss_latency.merge(&other.miss_latency);
    }
}

/// Per-class access and miss counts of one structure: the timing-free
/// projection of [`StructStats`] (no latency mean), used wherever two
/// machines are compared on pure counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructCounts {
    /// Accesses per [`FillClass`], indexed by `stat_index()`.
    pub accesses: [u64; 4],
    /// Misses per [`FillClass`], same order.
    pub misses: [u64; 4],
}

impl From<&StructStats> for StructCounts {
    fn from(s: &StructStats) -> Self {
        let (accesses, misses, _latency) = s.raw_parts();
        Self { accesses, misses }
    }
}

impl StructCounts {
    /// Records one access, mirroring [`StructStats::record`].
    pub fn record(&mut self, class: FillClass, miss: bool) {
        // stat_index() < 4, the counter arrays' fixed length
        self.accesses[class.stat_index()] += 1;
        if miss {
            // stat_index() < 4, the counter arrays' fixed length
            self.misses[class.stat_index()] += 1;
        }
    }
}

/// Timing-free counts of one cache level of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCounts {
    /// Which level this is.
    pub id: LevelId,
    /// Demand access/miss counts per class.
    pub counts: StructCounts,
    /// Dirty blocks displaced by fills.
    pub writebacks: u64,
    /// Valid blocks displaced by fills (dirty or clean).
    pub evictions: u64,
}

/// Geometric mean of `1 + x` minus 1, the aggregation the paper uses for
/// "geomean IPC improvement" over per-workload speedups.
///
/// Returns 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// use itpx_types::stats::geomean_speedup;
/// let g = geomean_speedup(&[0.10, 0.10]);
/// assert!((g - 0.10).abs() < 1e-12);
/// ```
pub fn geomean_speedup(improvements: &[f64]) -> f64 {
    if improvements.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = improvements.iter().map(|x| (1.0 + x).ln()).sum();
    (log_sum / improvements.len() as f64).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_mean_basic() {
        let mut m = OnlineMean::new();
        assert_eq!(m.mean(), 0.0);
        m.add(10.0);
        m.add(20.0);
        assert_eq!(m.mean(), 15.0);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn online_mean_merge() {
        let mut a = OnlineMean::new();
        a.add(1.0);
        let mut b = OnlineMean::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(8);
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024); // saturates into last bucket (max 2^7 range)
        assert_eq!(h.total(), 5);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[7], 1);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(16);
        for _ in 0..99 {
            h.record(4);
        }
        h.record(4096);
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), 4096);
        assert_eq!(Histogram::new(4).percentile(0.5), 0);
    }

    #[test]
    fn struct_stats_mpki() {
        let mut s = StructStats::new();
        for _ in 0..10 {
            s.record(FillClass::DataPayload, true);
        }
        for _ in 0..90 {
            s.record(FillClass::DataPayload, false);
        }
        s.record(FillClass::InstrPte, true);
        assert_eq!(s.accesses(), 101);
        assert_eq!(s.misses(), 11);
        let b = s.mpki_breakdown(1000);
        assert!((b.data - 10.0).abs() < 1e-9);
        assert!((b.instr_pte - 1.0).abs() < 1e-9);
        assert!((s.mpki(1000) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn struct_stats_hit_rate_and_latency() {
        let mut s = StructStats::new();
        assert_eq!(s.hit_rate(), 1.0);
        s.record(FillClass::InstrPayload, true);
        s.record(FillClass::InstrPayload, false);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        s.record_miss_latency(100);
        s.record_miss_latency(200);
        assert!((s.avg_miss_latency() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_speedup_matches_hand_calc() {
        // (1.2 * 0.8)^(1/2) - 1
        let g = geomean_speedup(&[0.2, -0.2]);
        assert!((g - ((1.2f64 * 0.8).sqrt() - 1.0)).abs() < 1e-12);
        assert_eq!(geomean_speedup(&[]), 0.0);
    }
}
