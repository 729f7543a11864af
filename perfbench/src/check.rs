//! Output checks. Every comparison counts as one attempted check; a
//! failed one is reported on stderr and counted in `failed`.

use std::fmt::Debug;

/// Running tally of output checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check of `ok`.
    pub fn expect(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED {what}: {}", detail());
        }
    }

    /// Checks `got == want`.
    pub fn eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.expect(what, ok, || format!("got {got:?}, want {want:?}"));
    }

    /// Checks that `got` is within a relative `tol` of `want`.
    pub fn near(&mut self, what: &str, got: f64, want: f64, tol: f64) {
        let ok = ((got - want) / want).abs() <= tol;
        self.expect(what, ok, || {
            format!("got {got}, want {want} within {:.1}%", tol * 100.0)
        });
    }

    /// Failed checks ÷ checks made.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
