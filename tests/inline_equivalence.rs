//! Inlining must preserve workload semantics: runs at inline limit 0
//! and 100 reach the same final heap, modulo GC scheduling.

use wbe_repro::harness::runner::{Iterations, RunRecord, RunSpec};
use wbe_repro::heap::debug;
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::{standard_suite, Workload};

/// Runs `w` unanalysed, with the collector idle, at inline `limit`.
fn run_at(w: &Workload, limit: usize) -> RunRecord {
    RunSpec {
        pipeline: PipelineConfig::new(OptMode::Baseline, limit),
        gc: None,
        iterations: Iterations::Scaled {
            scale: 0.05,
            min: 32,
        },
        ..RunSpec::default()
    }
    .run(w)
    .into_result()
    .unwrap_or_else(|t| panic!("{} @ limit {limit}: {t}", w.name))
}

#[test]
fn inlining_preserves_workload_heaps() {
    for w in standard_suite() {
        let run = |limit: usize| {
            let heap = run_at(&w, limit).heap;
            let g = debug::graph_stats(&heap, &heap.static_roots());
            (heap.stats.allocations, g.reachable, g.max_depth)
        };
        assert_eq!(run(0), run(100), "{}", w.name);
    }
}

#[test]
fn inlining_preserves_barrier_execution_counts() {
    // Inlining changes *which site* executes a store, never whether it
    // executes: total dynamic barrier counts are invariant.
    for w in standard_suite() {
        let count = |limit: usize| run_at(&w, limit).summary().total();
        assert_eq!(count(0), count(100), "{}", w.name);
        assert_eq!(count(25), count(200), "{}", w.name);
    }
}
