//! End-to-end integration: every workload through the full pipeline
//! (inline → analyze → elide → execute) with the soundness oracle and
//! policy-driven garbage collection, under both marker styles.

use wbe_repro::harness::runner::{Iterations, RunSpec};
use wbe_repro::heap::gc::MarkStyle;
use wbe_repro::interp::GcPolicy;
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::standard_suite;

/// A marking schedule aggressive enough to cycle at reduced scale.
const BUSY_GC: GcPolicy = GcPolicy {
    alloc_trigger: 50,
    step_interval: 32,
    step_budget: 8,
};

/// The whole suite runs clean with elision armed and SATB GC active.
#[test]
fn suite_with_elision_and_satb_gc() {
    for w in standard_suite() {
        let run = RunSpec {
            gc: Some(BUSY_GC),
            iterations: Iterations::Scaled {
                scale: 0.1,
                min: 64,
            },
            ..RunSpec::default()
        }
        .run(&w)
        .unwrap();
        assert!(run.summary().total() > 0, "{}", w.name);
        assert!(
            run.stats.gc_cycles > 0,
            "{}: GC should cycle at this scale",
            w.name
        );
        // Elided executions actually happened (the fast path is real).
        assert!(run.stats.elided_executions > 0, "{}", w.name);
    }
}

/// The same runs complete under the incremental-update marker (whose
/// barrier is card-marking; elision does not apply, but execution and
/// collection must stay correct).
#[test]
fn suite_with_incremental_update_gc() {
    for w in standard_suite() {
        let run = RunSpec {
            pipeline: PipelineConfig::new(OptMode::Baseline, 100),
            style: MarkStyle::IncrementalUpdate,
            gc: Some(BUSY_GC),
            iterations: Iterations::Scaled {
                scale: 0.05,
                min: 32,
            },
            ..RunSpec::default()
        }
        .run(&w)
        .unwrap();
        assert!(run.stats.gc_cycles > 0, "{}", w.name);
    }
}

/// Elision must never change program results: run jess twice (all
/// barriers vs elided barriers) and compare heap-observable outcomes.
#[test]
fn elision_is_semantically_transparent() {
    let w = wbe_repro::workloads::by_name("jess").unwrap();
    let run_with = |elide: bool| {
        let run = RunSpec {
            elide,
            gc: None,
            // 200 iterations of jess.
            iterations: Iterations::scaled(0.1),
            ..RunSpec::default()
        }
        .run(&w)
        .unwrap();
        (
            run.heap.stats.allocations,
            run.heap.store.live_count(),
            run.stats.insns,
        )
    };
    assert_eq!(run_with(false), run_with(true));
}

/// The combined pre-null + null-or-same set stays sound across the
/// suite (the oracle validates each elided execution's proof).
#[test]
fn combined_elisions_pass_the_oracle() {
    for w in standard_suite() {
        let _ = RunSpec {
            pipeline: PipelineConfig::new(OptMode::Full, 100).with_null_or_same(),
            gc: Some(GcPolicy::default()),
            iterations: Iterations::Scaled {
                scale: 0.1,
                min: 32,
            },
            ..RunSpec::default()
        }
        .run(&w)
        .unwrap();
    }
}

/// Method ids survive inlining, so the workload entry point is stable.
#[test]
fn entry_points_stable_across_pipeline() {
    for w in standard_suite() {
        let compiled = RunSpec::default().compile(&w.program).compiled;
        let name_before = w.program.method(w.entry).name.clone();
        let name_after = compiled.program.method(w.entry).name.clone();
        assert_eq!(name_before, name_after);
        compiled.program.validate().unwrap();
    }
}

/// Every workload is verifier-clean (ids, stack heights, and types),
/// before and after inlining.
#[test]
fn workloads_pass_the_full_verifier() {
    for w in standard_suite() {
        w.program.validate().unwrap();
        wbe_repro::ir::type_check_program(&w.program).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let compiled = RunSpec::default().compile(&w.program).compiled;
        wbe_repro::ir::type_check_program(&compiled.program)
            .unwrap_or_else(|e| panic!("{} (inlined): {e}", w.name));
    }
}

/// The paper's own correctness check (§4.2): "our analysis should only
/// eliminate barriers at potentially pre-null store sites!" — every
/// statically elided site must be dynamically always-pre-null.
#[test]
fn elided_sites_are_potentially_pre_null() {
    for w in standard_suite() {
        let run = RunSpec {
            gc: None,
            iterations: Iterations::Scaled {
                scale: 0.1,
                min: 64,
            },
            ..RunSpec::default()
        }
        .run(&w)
        .unwrap();
        for ((mid, addr, _), site) in run.stats.barrier.iter() {
            if run.build.elided.contains(*mid, *addr) {
                assert!(
                    site.potentially_pre_null(),
                    "{}: elided site {mid}@{addr} saw a non-null pre-value",
                    w.name
                );
            }
        }
    }
}
