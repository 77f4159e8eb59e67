//! The metric catalogue (the single source `BENCHMARK.json` is printed
//! from), and the report every workload run returns.

use std::fmt::Write as _;

/// A workload and why it is in the benchmark.
pub struct WorkloadDef {
    /// CLI name.
    pub name: &'static str,
    /// One-line reason.
    pub why: &'static str,
}

/// The three workloads.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "compile-sweep",
        why: "Fig. 2 grid as compile jobs (8 programs x modes F/A x inline limits 0-200): the analysis fixpoint dominates and the mutator does nothing",
    },
    WorkloadDef {
        name: "batch-mimics",
        why: "six Table 1 mimics at equalised iteration counts on both engines: dispatch and the barrier fast path dominate, with moderate GC (Table 2)",
    },
    WorkloadDef {
        name: "serve-sessions",
        why: "closed-loop requests of 1-8 iterations to server and server-churn on the compiled engine: allocation, SATB enqueues and GC cycles dominate",
    },
];

/// An end-to-end metric, reported by every workload.
pub struct E2eDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// End-to-end metrics. Each workload defines its operation: a compile
/// job, an entry-loop iteration, or a request. Timings are wall clock,
/// taken over the fastest slices of a run (see `stats::Slices`): on a
/// shared 2-core machine the median over a whole run moves by 10-25%
/// from run to run, the fastest slices by 3-7%. Every timing still takes
/// the widest bound, 25%, since the host's fast speed itself drifts;
/// peak RSS after a fixed amount of work moves by ~2%.
pub const E2E: [E2eDef; 5] = [
    E2eDef {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    E2eDef {
        name: "op_us.p50",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    E2eDef {
        name: "op_us.tail",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    E2eDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric and the end-to-end metric it should move.
pub struct LayerDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

const COMPILE: &str = "op_us.* (compile_ms.*) on compile-sweep";
const DISPATCH: &str = "ops_per_s (iters_per_s.*) on batch-mimics, op_us.p50 on serve-sessions";
const BARRIER: &str = "ops_per_s (iters_per_s.compiled) on batch-mimics, op_us.* on serve-sessions";
const ALLOC: &str = "peak_rss_mb, op_us.p50 on serve-sessions";
const GC: &str =
    "op_us.tail (req_us.p99) on serve-sessions; little on batch-mimics; none on compile-sweep";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:expr) => {
        LayerDef {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
        }
    };
}

/// Per-layer metrics, grouped by layer.
pub const LAYER: [LayerDef; 35] = [
    // wbe-opt inline
    layer!("opt.inline.ms", "ms", "lower", COMPILE),
    layer!("opt.ir_insns", "count", "lower", COMPILE),
    layer!("opt.calls_inlined", "count", "higher", COMPILE),
    // wbe-analysis fixpoint
    layer!("analysis.fixpoint.ms", "ms", "lower", COMPILE),
    layer!("analysis.blocks_visited", "count", "lower", COMPILE),
    layer!("analysis.ns_per_block", "ns", "lower", COMPILE),
    layer!("analysis.degraded_methods", "count", "lower", COMPILE),
    // wbe-analysis verdicts
    layer!(
        "analysis.sites_elided_pct",
        "%",
        "higher",
        "barriers_elided_pct and ops_per_s (iters_per_s.*) on batch-mimics"
    ),
    // wbe-interp translate
    layer!(
        "interp.translate.ms",
        "ms",
        "lower",
        "op_us.* on compile-sweep, setup_s elsewhere"
    ),
    layer!(
        "interp.translate.cells",
        "count",
        "lower",
        "op_us.* on compile-sweep, setup_s elsewhere"
    ),
    // wbe-interp dispatch
    layer!("interp.insns_per_iter", "count", "lower", DISPATCH),
    layer!("interp.ns_per_insn.classic", "ns", "lower", DISPATCH),
    layer!("interp.ns_per_insn.compiled", "ns", "lower", DISPATCH),
    // wbe-interp barrier
    layer!("barrier.executions", "count", "lower", BARRIER),
    layer!("barrier.kept", "count", "lower", BARRIER),
    layer!("barrier.elided", "count", "higher", BARRIER),
    layer!("barrier.cycles", "count", "lower", BARRIER),
    layer!("barrier.satb_enqueues", "count", "lower", BARRIER),
    layer!("barrier.wall_overhead_pct.kept", "%", "lower", BARRIER),
    layer!("barrier.wall_overhead_pct.elided", "%", "lower", BARRIER),
    // wbe-heap allocation
    layer!("heap.allocs", "count", "lower", ALLOC),
    layer!("heap.words_allocated", "count", "lower", ALLOC),
    layer!("heap.peak_live_objects", "count", "lower", ALLOC),
    // wbe-heap gc
    layer!("gc.cycles", "count", "lower", GC),
    layer!("gc.cycle_share_pct", "%", "lower", GC),
    layer!("gc.cycle_call_us.p50", "us", "lower", GC),
    layer!("gc.cycle_excess_us", "us", "lower", GC),
    layer!("gc.pause_work.remark.p50", "count", "lower", GC),
    layer!("gc.pause_work.remark.max", "count", "lower", GC),
    layer!("gc.swept", "count", "higher", GC),
    layer!("gc.concurrent_scans", "count", "lower", GC),
    layer!("gc.allocated_black", "count", "lower", GC),
    layer!("gc.emergency_pauses", "count", "lower", GC),
    // the traced run itself
    layer!(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: tracing cost, traced minus untraced wall time"
    ),
    layer!(
        "trace.remainder_pct",
        "%",
        "lower",
        "none: share of traced wall time no span covers"
    ),
];

/// `BENCHMARK.json`, printed from the catalogue.
pub fn manifest(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in E2E.iter().enumerate() {
        let comma = if i + 1 < E2E.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in LAYER.iter().enumerate() {
        let comma = if i + 1 < LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// What one workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// Metric values by name (units come from the catalogue or
    /// [`Report::extra`]).
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks all passed.
    pub correct: bool,
    /// Spans of the traced run, as NDJSON.
    pub spans: Option<String>,
}

impl Report {
    /// Value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a result metric and prints its line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &str, note: &str) {
        self.values.push((name, value));
        self.show(name, value, unit, note);
    }

    /// Prints a metric line without adding it to the result.
    pub fn show(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.lines.push(metric_line(name, value, unit, note));
    }

    /// Records the operation counts and prints `failed_ops_pct`;
    /// `what` names the operations.
    pub fn count_ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted = attempted;
        self.failed = failed;
        self.correct = failed == 0;
        let note = format!("{failed} of {attempted} {what}");
        self.show("failed_ops_pct", self.failed_pct(), "%", &note);
    }

    /// Failed operations as a percentage of attempted ones.
    pub fn failed_pct(&self) -> f64 {
        crate::run::pct(self.failed, self.attempted)
    }

    /// The result line: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`).
    pub fn result_json(&self, trace: bool) -> String {
        let wanted: Vec<(&str, &str)> = if trace {
            LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            E2E.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Formats one metric line: `name = value unit  (note)`.
fn metric_line(name: &str, value: f64, unit: &str, note: &str) -> String {
    if note.is_empty() {
        format!("  {name:<34} = {value:>14.6} {unit}")
    } else {
        format!("  {name:<34} = {value:>14.6} {unit:<6} ({note})")
    }
}
