//! Output checks: every operation the benchmark attempts is counted, and
//! one whose output is wrong counts as failed.

/// Attempted/failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or that did not complete.
    pub failed: u64,
}

/// Failures described on stderr before the rest are only counted.
const REPORTED: u64 = 10;

impl Checks {
    /// Counts one operation, failed unless `ok`; `what` describes a
    /// failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= REPORTED {
                eprintln!("check failed: {}", what());
            }
        }
    }
}
