//! One heavier end-to-end pass: every workload at its full default
//! scale, with pre-null + null-or-same elision, the rearrangement
//! protocol, stack allocation, and policy-driven SATB collection all
//! active simultaneously. Every oracle in the system is armed.

use wbe_repro::analysis::stackalloc;
use wbe_repro::harness::runner::{Iterations, RunSpec};
use wbe_repro::interp::GcPolicy;
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::standard_suite;

#[test]
fn everything_on_at_full_default_scale() {
    let spec = RunSpec {
        pipeline: PipelineConfig::new(OptMode::Full, 100).with_null_or_same(),
        rearrange: true,
        gc: Some(GcPolicy {
            alloc_trigger: 1_000,
            step_interval: 64,
            step_budget: 16,
        }),
        iterations: Iterations::scaled(1.0),
        ..RunSpec::default()
    };
    for w in standard_suite() {
        let build = spec.compile(&w.program);
        let program = &build.compiled.program;
        let mut stack_sites = Vec::new();
        for (_, m) in program.iter_methods() {
            stack_sites.extend(stackalloc::analyze_method(program, m).stack_allocatable);
        }
        // Stack allocation is not part of the spec: configure it on the
        // spec's engine and drive the run here.
        let mut engine = spec.engine(&build);
        engine.set_stack_sites(&stack_sites);
        spec.execute(engine.as_mut(), &w)
            .unwrap_or_else(|t| panic!("{} full scale: {t}", w.name));
        let stats = engine.stats();
        assert!(stats.elided_executions > 0, "{}", w.name);
        assert_eq!(stats.stack_allocated, stats.stack_freed, "{}", w.name);
    }
}
