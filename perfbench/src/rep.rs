//! What one repetition of a workload yields, and the correctness tally.

use std::collections::BTreeMap;

use crate::reference::Reference;
use crate::stats::JobTime;

/// One repetition of a workload, untraced.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Every operation of the repetition with its timing. A grid point is
    /// keyed by its reference key, a tile pass and a model-check run by
    /// their workload's, so a key recurs across repetitions.
    pub jobs: Vec<(String, JobTime)>,
    pub states_per_s: Option<f64>,
    pub paper_err: Option<f64>,
    /// Layer numbers only the untraced path can see (the sweep's own).
    pub layers: BTreeMap<String, f64>,
    /// Every checked output, `reference key -> value`.
    pub outputs: BTreeMap<String, String>,
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug)]
pub struct Checker<'a> {
    reference: &'a Reference,
    pub attempted: u64,
    pub failed: u64,
    /// Operations that returned an error (a subset of `failed`).
    pub errors: u64,
    pub problems: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(reference: &'a Reference) -> Checker<'a> {
        Checker {
            reference,
            attempted: 0,
            failed: 0,
            errors: 0,
            problems: Vec::new(),
        }
    }

    /// One operation: it fails on `error` or on any output that differs
    /// from the reference. Outputs are recorded into `rep` either way.
    pub fn op(&mut self, rep: &mut Rep, outputs: Vec<(String, String)>, error: Option<String>) {
        self.attempted += 1;
        self.errors += u64::from(error.is_some());
        let mut bad: Vec<String> = error.into_iter().collect();
        for (k, v) in outputs {
            bad.extend(self.reference.mismatch(&k, &v));
            rep.outputs.insert(k, v);
        }
        if !bad.is_empty() {
            self.failed += 1;
            self.problems.extend(bad);
        }
    }

    /// A whole-repetition assertion (memo counts, journal health, output
    /// coverage). A broken one fails one more operation.
    pub fn assert(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed = (self.failed + 1).min(self.attempted.max(1));
            self.problems.push(what());
        }
    }

    /// Every reference entry of `workload` was produced by `rep`.
    pub fn assert_complete(&mut self, workload: &str, rep: &Rep) {
        let want = self.reference.count(workload);
        let got = rep.outputs.len();
        self.assert(got == want, || {
            format!("{workload}: {got} outputs checked, reference has {want}")
        });
    }
}
