//! A hashed-perceptron branch predictor (Table 1 cites Tarjan & Skadron's
//! hashed perceptron).
//!
//! Four weight tables are indexed by hashes of the branch PC with
//! different slices of the global history; the prediction is the sign of
//! the summed weights, and training adjusts all contributing weights on a
//! misprediction or a low-confidence correct prediction.

use itpx_types::SetGrid;

/// Hashed-perceptron predictor.
///
/// The weight tables live in one flat [`SetGrid`] (one row per table), so
/// each of the four per-prediction table reads is a single indexed load.
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    tables: SetGrid<i8>,
    history: u64,
    threshold: i32,
    predictions: u64,
    mispredictions: u64,
}

const TABLE_BITS: usize = 12;
const NUM_TABLES: usize = 4;

impl HashedPerceptron {
    /// Creates a predictor with default geometry (4 × 4096 weights).
    pub fn new() -> Self {
        Self {
            tables: SetGrid::new(NUM_TABLES, 1 << TABLE_BITS, 0i8),
            history: 0,
            threshold: 6,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(&self, table: usize, pc: u64) -> usize {
        // Each table sees a different history slice length (0, 4, 8, 16).
        let bits = [0u32, 4, 8, 16][table];
        let h = if bits == 0 {
            0
        } else {
            self.history & ((1u64 << bits) - 1)
        };
        let x = (pc >> 2) ^ h.wrapping_mul(0x9e37_79b9) ^ (table as u64) << 7;
        (x as usize) & ((1 << TABLE_BITS) - 1)
    }

    fn sum(&self, pc: u64) -> i32 {
        (0..NUM_TABLES)
            // index() masks into each table's power-of-two length
            .map(|t| i32::from(self.tables.row(t)[self.index(t, pc)]))
            .sum()
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.sum(pc) >= 0
    }

    /// Trains on the actual outcome and updates the global history.
    /// Returns `true` if the prediction was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let correct = self.train(pc, taken);
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// [`HashedPerceptron::update`] without counting the prediction: a
    /// fast-forward trains the predictor this way, so the branch counters
    /// only count measured branches.
    pub fn train(&mut self, pc: u64, taken: bool) -> bool {
        let sum = self.sum(pc);
        let correct = (sum >= 0) == taken;
        if !correct || sum.abs() <= self.threshold {
            for t in 0..NUM_TABLES {
                let i = self.index(t, pc);
                let w = &mut self.tables.row_mut(t)[i];
                *w = if taken {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        self.history = (self.history << 1) | taken as u64;
        correct
    }

    /// Mispredictions per kilo-prediction.
    pub fn mpki_like(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.predictions as f64
        }
    }

    /// (predictions, mispredictions) so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

impl Default for HashedPerceptron {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_always_taken_branch() {
        let mut p = HashedPerceptron::new();
        for _ in 0..50 {
            p.update(0x400, true);
        }
        assert!(p.predict(0x400));
        let (n, m) = p.counts();
        assert_eq!(n, 50);
        assert!(m < 5);
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        let mut p = HashedPerceptron::new();
        let mut correct = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            if p.predict(0x88) == taken {
                correct += 1;
            }
            p.update(0x88, taken);
        }
        // The last 500: should be nearly perfect once history kicks in.
        assert!(correct > 1500, "correct={correct}");
    }

    #[test]
    fn distinguishes_sites() {
        let mut p = HashedPerceptron::new();
        for _ in 0..64 {
            p.update(0x100, true);
            p.update(0x200, false);
        }
        assert!(p.predict(0x100));
        assert!(!p.predict(0x200));
    }

    #[test]
    fn training_learns_without_counting() {
        let mut p = HashedPerceptron::new();
        for _ in 0..50 {
            p.train(0x400, true);
        }
        assert!(p.predict(0x400));
        assert_eq!(p.counts(), (0, 0));
    }

    #[test]
    fn mpki_like_is_bounded() {
        let mut p = HashedPerceptron::new();
        assert_eq!(p.mpki_like(), 0.0);
        for i in 0..100u32 {
            p.update(0x40 + (i as u64 % 7) * 4, i % 3 == 0);
        }
        assert!(p.mpki_like() <= 1000.0);
    }
}
