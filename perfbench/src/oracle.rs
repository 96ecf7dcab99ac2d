//! The output oracle. A failed check marks its operation failed; it
//! never panics, so `error_rate` counts it.

use mec_graph::{Bipartition, Graph};
use mec_model::{evaluate_plan_for, validate_plan_for, Evaluation, SystemParams};
use std::time::{Duration, Instant};

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed if any check reported a problem.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.reasons.len() < 8 {
                    self.reasons.push(p);
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Validates `plan` against `graphs` (in the program's user order) and,
/// when `reported` is given, re-prices it with `evaluate_plan_for` and
/// requires the program's evaluation to match field by field, with a
/// bit-identical objective. Returns the time `evaluate_plan_for` took.
pub fn check_plan<'a, I>(
    params: &SystemParams,
    graphs: I,
    plan: &[Bipartition],
    reported: Option<&Evaluation>,
    problems: &mut Vec<String>,
) -> Option<Duration>
where
    I: IntoIterator<Item = &'a Graph>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let graphs = graphs.into_iter();
    if let Err(e) = validate_plan_for(params, graphs.clone(), plan) {
        problems.push(format!("plan rejected: {e}"));
    }
    let reported = reported?;
    let t = Instant::now();
    let fresh = evaluate_plan_for(params, graphs, plan);
    let time = t.elapsed();
    match fresh {
        Ok(fresh) => {
            let a = fresh.totals.objective().to_bits();
            let b = reported.totals.objective().to_bits();
            if fresh != *reported || a != b {
                problems.push("reported evaluation differs from evaluate_plan_for".into());
            }
        }
        Err(e) => problems.push(format!("evaluation failed: {e}")),
    }
    Some(time)
}

pub fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}
