//! Constant folding over the real workloads: semantics, verification,
//! and elision soundness must all be preserved.

use wbe_repro::harness::runner::{Iterations, RunSpec};
use wbe_repro::opt::{OptMode, PipelineConfig};
use wbe_repro::workloads::standard_suite;

/// Mode A at inline limit 100, with or without post-inline folding.
fn spec(fold: bool) -> RunSpec {
    let mut pipeline = PipelineConfig::new(OptMode::Full, 100);
    pipeline.fold = fold;
    RunSpec {
        pipeline,
        gc: None,
        ..RunSpec::default()
    }
}

#[test]
fn folding_preserves_workload_semantics_and_elision() {
    for w in standard_suite() {
        let run = |fold: bool| {
            let run = RunSpec {
                iterations: Iterations::Scaled {
                    scale: 0.05,
                    min: 32,
                },
                ..spec(fold)
            }
            .run(&w)
            .into_result()
            .unwrap_or_else(|t| panic!("{} (fold={fold}): {t}", w.name));
            let program = &run.build.compiled.program;
            program.validate().unwrap();
            wbe_repro::ir::type_check_program(program).unwrap();
            (
                run.heap.stats.allocations,
                run.heap.store.live_count(),
                run.summary().total(),
            )
        };
        let plain = run(false);
        let folded = run(true);
        assert_eq!(plain.0, folded.0, "{}: allocations differ", w.name);
        assert_eq!(plain.1, folded.1, "{}: live counts differ", w.name);
        assert_eq!(plain.2, folded.2, "{}: barrier counts differ", w.name);
    }
}

#[test]
fn folding_shrinks_workload_code() {
    for w in standard_suite() {
        let plain = spec(false).compile(&w.program).compiled;
        let folded = spec(true).compile(&w.program).compiled;
        assert!(
            folded.program.total_size() <= plain.program.total_size(),
            "{}",
            w.name
        );
    }
}
