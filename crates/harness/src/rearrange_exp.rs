//! §4.3 array-rearrangement experiment.
//!
//! Runs each workload with the shift/swap recognizer's plan active and
//! aggressive concurrent marking: member stores skip their SATB logs
//! (checking the array tracing state instead), and the run's soundness
//! is established by the live collector — a lost object would surface
//! as a dangling reference.
//!
//! §4.3 motivates this with `db` (the swap idiom covers >70% of its
//! stores) and `jbb` (shift-down deletion loops).

use std::fmt;

use wbe_interp::GcPolicy;
use wbe_opt::{OptMode, PipelineConfig};
use wbe_workloads::standard_suite;

use crate::runner::{Iterations, RunSpec};

/// One workload's protocol results.
#[derive(Clone, Debug)]
pub struct RearrangeRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Recognized groups (swaps + shifts).
    pub groups: usize,
    /// Barrier executions whose log was skipped by the protocol.
    pub skipped: u64,
    /// Total barrier executions.
    pub total: u64,
    /// Conservative retraces scheduled due to marker interference.
    pub retraces: u64,
}

impl RearrangeRow {
    /// Percentage of barrier executions under the protocol.
    pub fn pct_skipped(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.skipped as f64 / self.total as f64
        }
    }
}

/// The experiment result.
#[derive(Clone, Debug, Default)]
pub struct RearrangeReport {
    /// Rows in suite order.
    pub rows: Vec<RearrangeRow>,
}

/// Runs the experiment at `scale`.
pub fn run(scale: f64) -> RearrangeReport {
    let spec = RunSpec {
        pipeline: PipelineConfig::new(OptMode::Baseline, 100),
        rearrange: true,
        gc: Some(GcPolicy {
            alloc_trigger: 200,
            step_interval: 16,
            step_budget: 4,
        }),
        iterations: Iterations::Scaled { scale, min: 64 },
        ..RunSpec::default()
    };
    let mut rows = Vec::new();
    for w in standard_suite() {
        let run = spec
            .run(&w)
            .into_result()
            .unwrap_or_else(|t| panic!("{} trapped under the protocol: {t}", w.name));
        let plan = run
            .build
            .rearrange
            .as_ref()
            .expect("spec plans the protocol");
        rows.push(RearrangeRow {
            name: w.name,
            groups: plan.group_count(),
            skipped: run.stats.rearrange_skipped,
            total: run.stats.barrier.totals().0,
            retraces: run.stats.retraces_scheduled,
        });
    }
    RearrangeReport { rows }
}

impl fmt::Display for RearrangeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>7} {:>12} {:>10} {:>9}",
            "benchmark", "groups", "logs skipped", "% of total", "retraces"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>7} {:>12} {:>10.1} {:>9}",
                r.name,
                r.groups,
                r.skipped,
                r.pct_skipped(),
                r.retraces
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_covers_db_swaps_and_jbb_shifts() {
        let rep = run(0.1);
        let by: std::collections::HashMap<_, _> =
            rep.rows.iter().map(|r| (r.name, r.clone())).collect();
        // db: three swap triples per iteration → 6 of its 9 per-iter
        // stores run under the protocol (≈ the paper's "more than 70%
        // of stores" being the swap idiom, of array stores).
        assert_eq!(by["db"].groups, 3, "{:?}", by["db"]);
        assert!(by["db"].pct_skipped() > 50.0, "{}", by["db"].pct_skipped());
        // jbb: one shift-down group, two member stores per iteration.
        assert!(by["jbb"].groups >= 1);
        assert!(by["jbb"].skipped > 0);
        // Workloads without the idioms are untouched.
        for name in ["jess", "mtrt", "jack"] {
            assert_eq!(by[name].skipped, 0, "{name}");
        }
    }
}
