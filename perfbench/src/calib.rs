//! Host-speed calibration.
//!
//! The benchmark host is a 2-vCPU guest that shares its machine: over
//! tens of seconds the same simulation ran up to twice as fast or as
//! slow as a minute earlier, on identical code and inputs. A fixed
//! kernel, timed right before and after each timed call, measures how
//! fast the host runs at that moment; end-to-end host times are then
//! reported at the reference speed [`REFERENCE_SECONDS`] describes.
//! The kernel is frozen benchmark code and does simulator-like work: a
//! set-associative tag search with recency update over a skewed key
//! stream, and a random read-modify-write into a table larger than the
//! host's private caches.

use std::time::Instant;

/// Kernel iterations per measurement.
const ITERATIONS: usize = 200_000;
/// Ways of the kernel's tag array.
const WAYS: usize = 8;
/// Tag-array entries (2 MiB of tags).
const TAGS: usize = 1 << 18;
/// Random-update table entries (8 MiB).
const TABLE: usize = 1 << 20;
/// Kernel seconds on the reference host: a 2-vCPU 2.1 GHz guest, median
/// over a quiet minute.
pub const REFERENCE_SECONDS: f64 = 0.008;

/// The calibration kernel and its state.
#[derive(Debug)]
pub struct Calibrator {
    tags: Vec<u64>,
    table: Vec<u64>,
    x: u64,
}

impl Calibrator {
    /// A calibrator with its tables allocated and written.
    pub fn new() -> Self {
        let mut c = Self {
            tags: vec![u64::MAX; TAGS],
            table: vec![0; TABLE],
            x: 0x2545_f491_4f6c_dd1d,
        };
        c.kernel();
        c
    }

    fn kernel(&mut self) -> u64 {
        let sets = self.tags.len() / WAYS;
        let mask = self.table.len() - 1;
        let mut hits = 0u64;
        for _ in 0..ITERATIONS {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            // Mostly a few thousand hot keys, sometimes a cold one.
            let cold = ((x >> 20) & 3 == 0) as u64;
            let key = (x % 4096) * (x % 7 + 1) + ((x >> 40) & 0xffff) * cold;
            let set = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % sets;
            let row = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            match row.iter().position(|&t| t == key) {
                Some(way) => {
                    hits += 1;
                    row[..=way].rotate_right(1);
                }
                None => {
                    row.rotate_right(1);
                    row[0] = key;
                }
            }
            let slot = (x as usize >> 3) & mask;
            self.table[slot] = self.table[slot].wrapping_add(x);
        }
        std::hint::black_box(hits)
    }

    /// Runs the kernel once and returns the host's current speed as a
    /// factor of the reference speed (0.5 = half as fast).
    pub fn speed(&mut self) -> f64 {
        let t = Instant::now();
        self.kernel();
        REFERENCE_SECONDS / t.elapsed().as_secs_f64()
    }
}

/// Seconds measured at host speed `speed`, expressed at reference speed.
pub fn at_reference(seconds: f64, speed: f64) -> f64 {
    seconds * speed
}

/// The host times one round reports, raw and at reference speed.
#[derive(Debug, Default, Clone)]
pub struct RoundTiming {
    /// Seconds of the simulation work the throughput metrics divide by.
    pub work_s: f64,
    /// The same, at reference speed.
    pub work_ref_s: f64,
    /// Set-up times.
    pub setup_s: Vec<f64>,
    /// The same, at reference speed.
    pub setup_ref_s: Vec<f64>,
    /// Host speed factors measured during the round.
    pub speeds: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_finite() {
        let mut c = Calibrator::new();
        let s = c.speed();
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn reference_conversion_scales_with_speed() {
        assert_eq!(at_reference(2.0, 0.5), 1.0);
        assert_eq!(at_reference(2.0, 1.0), 2.0);
    }
}
