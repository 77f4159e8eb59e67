//! Hot-loop telemetry audit: with telemetry disabled, a full run under
//! either engine must make *no* registry calls at all.
//!
//! The registry registers a metric lazily on first touch, so an empty
//! snapshot after a disabled run is a proof that the hot loop (and the
//! run-boundary publish) never reached `counter()`/`gauge()`/
//! `histogram()` — not merely that the values stayed zero. The per-insn
//! counters live in the engines' plain `RunStats`/`Counts` structs and
//! are folded into the registry only by an explicit, gated
//! `publish_metrics`; this test is the regression gate for that
//! contract.
//!
//! Lives in its own integration-test file so it owns the process: no
//! other test can touch the process-global registry first.

use wbe_harness::runner::{Iterations, RunSpec};
use wbe_interp::EngineKind;

#[test]
fn disabled_telemetry_makes_no_registry_calls() {
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig::off());

    let w = wbe_workloads::by_name("db").expect("db is a standard workload");
    let spec = RunSpec {
        iterations: Iterations::scaled(0.05),
        ..RunSpec::default()
    };
    let build = spec.compile(&w.program);

    for kind in [EngineKind::Classic, EngineKind::Compiled] {
        let spec = RunSpec {
            engine: kind,
            ..spec.clone()
        };
        let mut engine = spec.engine(&build);
        spec.execute(engine.as_mut(), &w)
            .unwrap_or_else(|t| panic!("{}: trapped: {t}", kind.name()));
        // The run-boundary publish is the one place the engines talk to
        // the registry; it must bail out before resolving any metric.
        engine.publish_metrics();
        assert!(engine.stats().insns > 0, "{}: ran nothing", kind.name());
    }

    let snap = wbe_telemetry::registry::global().snapshot();
    assert!(
        snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty(),
        "disabled run touched the registry: counters {:?}, gauges {:?}, histograms {:?}",
        snap.counters.keys().collect::<Vec<_>>(),
        snap.gauges.keys().collect::<Vec<_>>(),
        snap.histograms.keys().collect::<Vec<_>>(),
    );

    // Sanity check on the proof technique: with metrics re-enabled the
    // very same publish path does register — the emptiness above can't
    // be explained by publish_metrics being a no-op in this build.
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig {
        metrics: true,
        tracing: false,
    });
    let spec = RunSpec {
        engine: EngineKind::Compiled,
        gc: None,
        ..spec
    };
    let mut engine = spec.engine(&build);
    spec.execute(engine.as_mut(), &w)
        .unwrap_or_else(|t| panic!("enabled run trapped: {t}"));
    let snap = wbe_telemetry::registry::global().snapshot();
    assert!(
        snap.counter("interp.insns").is_some_and(|v| v > 0),
        "enabled control run registered nothing — the proof above is vacuous"
    );
}
