//! What every workload shares: the headline configuration of the
//! paper's Table 1, timed compile jobs, engine construction, and
//! counter snapshots taken from the layers' public statistics.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use wbe_heap::gc::MarkStyle;
use wbe_interp::{BarrierConfig, BarrierMode, ElidedBarriers, Engine, EngineKind, GcPolicy};
use wbe_ir::{MethodId, Program};
use wbe_opt::{compile, Compiled, OptMode, PipelineConfig};

use crate::trace::{Attrs, Tracer};

/// GC policy of the baselines: a cycle every 400 allocations, a mark
/// step every 32 instructions with a budget of 4 objects.
pub const GC_POLICY: GcPolicy = GcPolicy {
    alloc_trigger: 400,
    step_interval: 32,
    step_budget: 4,
};

/// Inline limit of the headline configuration.
pub const INLINE_LIMIT: usize = 100;

/// The headline pipeline: full analysis at inline limit 100.
pub fn headline() -> PipelineConfig {
    PipelineConfig::new(OptMode::Full, INLINE_LIMIT)
}

/// The analysis' elision set for `c`.
pub fn elision_set(c: &Compiled) -> ElidedBarriers {
    c.elided_sites().into_iter().collect()
}

/// Builds `kind` over `program` with checked barriers, elision set
/// `elided` (which arms the soundness oracle), SATB and [`GC_POLICY`].
pub fn build_engine<'p>(
    kind: EngineKind,
    program: &'p Program,
    elided: &ElidedBarriers,
) -> Box<dyn Engine + 'p> {
    build_engine_with(
        kind,
        program,
        BarrierConfig::with_elision(BarrierMode::Checked, elided.clone()),
    )
}

/// Builds `kind` over `program` with an explicit barrier configuration.
pub fn build_engine_with<'p>(
    kind: EngineKind,
    program: &'p Program,
    config: BarrierConfig,
) -> Box<dyn Engine + 'p> {
    let mut e = kind.build(program, config, MarkStyle::Satb);
    e.set_gc_policy(GC_POLICY);
    e
}

/// Instructions (terminators included) in every method of `p`.
pub fn ir_insns(p: &Program) -> u64 {
    p.methods
        .iter()
        .flat_map(|m| &m.blocks)
        .map(|b| b.insns.len() as u64 + 1)
        .sum()
}

/// One timed compile job: `wbe_opt::compile` plus `translate` of every
/// method, with the split the layers report.
pub struct CompileJob {
    /// The compiler's output.
    pub compiled: Compiled,
    /// Its elision set.
    pub elided: ElidedBarriers,
    /// Whole job: compile plus translate.
    pub total: Duration,
    /// Translation of every method.
    pub translate: Duration,
    /// Translated cells across all methods.
    pub cells: u64,
}

/// Runs one compile job, recording a `compile` span with `inline`,
/// `analysis` and `translate` children when `tracer` is on.
pub fn compile_job(
    program: &Program,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    parent: Option<usize>,
    op: u64,
) -> CompileJob {
    let t0 = Instant::now();
    let compiled = compile(program, config);
    let t1 = Instant::now();
    let elided = elision_set(&compiled);
    let barrier = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());
    let no_stack_sites = BTreeSet::new();
    let mut cells = 0u64;
    for i in 0..compiled.program.methods.len() {
        let mid = MethodId(i as u32);
        let cm = wbe_interp::translate(
            &compiled.program,
            mid,
            &barrier,
            MarkStyle::Satb,
            &no_stack_sites,
        );
        cells += cm.cells.len() as u64;
    }
    let t2 = Instant::now();
    if tracer.enabled() {
        let job = tracer.record("compile", parent, op, t0, t2, Attrs::default());
        // The inline and analysis children come from the fields
        // `wbe_opt::compile` fills in; they run back to back from t0.
        let t_inline = t0 + compiled.inline_time;
        tracer.record("compile.inline", job, op, t0, t_inline, Attrs::default());
        if let Some(a) = &compiled.analysis {
            tracer.record(
                "compile.analysis",
                job,
                op,
                t_inline,
                t_inline + a.elapsed,
                Attrs::default(),
            );
        }
        tracer.record("compile.translate", job, op, t1, t2, Attrs::default());
    }
    CompileJob {
        compiled,
        elided,
        total: t2 - t0,
        translate: t2 - t1,
        cells,
    }
}

/// Compile-layer facts summed over compile jobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileFacts {
    /// Jobs summed.
    pub jobs: u64,
    /// Inlining time.
    pub inline: Duration,
    /// Analysis fixpoint time.
    pub analysis: Duration,
    /// Translation time.
    pub translate: Duration,
    /// Post-inline IR instructions.
    pub ir_insns: u64,
    /// Call sites inlined.
    pub calls_inlined: u64,
    /// Blocks the fixpoint visited.
    pub blocks_visited: u64,
    /// Methods whose analysis degraded.
    pub degraded: u64,
    /// Barrier sites analysed.
    pub sites: u64,
    /// Barrier sites elided.
    pub sites_elided: u64,
    /// Translated cells.
    pub cells: u64,
}

impl CompileFacts {
    /// Adds one job.
    pub fn add(&mut self, job: &CompileJob) {
        let c = &job.compiled;
        self.jobs += 1;
        self.inline += c.inline_time;
        self.translate += job.translate;
        self.ir_insns += ir_insns(&c.program);
        self.calls_inlined += c.inline_stats.inlined_calls as u64;
        self.cells += job.cells;
        if let Some(a) = &c.analysis {
            self.analysis += a.elapsed;
            self.blocks_visited += a.methods.values().map(|m| m.iterations as u64).sum::<u64>();
            self.degraded += a.degraded_count() as u64;
            self.sites += a
                .methods
                .values()
                .map(|m| m.barrier_sites as u64)
                .sum::<u64>();
            self.sites_elided += a.total_elided() as u64;
        }
    }

    /// Mean of `d` per job, in ms.
    fn per_job_ms(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e3 / self.jobs.max(1) as f64
    }

    /// Mean of `n` per job.
    fn per_job(&self, n: u64) -> f64 {
        n as f64 / self.jobs.max(1) as f64
    }

    /// The compile-layer metrics.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("opt.inline.ms", self.per_job_ms(self.inline)));
        out.push(("opt.ir_insns", self.per_job(self.ir_insns)));
        out.push(("opt.calls_inlined", self.per_job(self.calls_inlined)));
        out.push(("analysis.fixpoint.ms", self.per_job_ms(self.analysis)));
        out.push(("analysis.blocks_visited", self.per_job(self.blocks_visited)));
        out.push((
            "analysis.ns_per_block",
            self.analysis.as_nanos() as f64 / self.blocks_visited.max(1) as f64,
        ));
        out.push(("analysis.degraded_methods", self.degraded as f64));
        out.push((
            "analysis.sites_elided_pct",
            pct(self.sites_elided, self.sites),
        ));
        out.push(("interp.translate.ms", self.per_job_ms(self.translate)));
        out.push(("interp.translate.cells", self.per_job(self.cells)));
    }
}

/// Median of `times`, in seconds.
pub fn median_secs(times: &[Duration]) -> f64 {
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    crate::stats::median(&crate::stats::sorted(&secs))
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Deterministic counters read from an engine's public statistics
/// (`RunStats`, `BarrierStats`, `GcStats`, `HeapStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions executed.
    pub insns: u64,
    /// Abstract cycles charged.
    pub cycles: u64,
    /// Barrier-relevant store executions (elided ones included).
    pub barrier_executions: u64,
    /// Executions of stores whose barrier was elided.
    pub elided: u64,
    /// Abstract cycles charged to barriers.
    pub barrier_cycles: u64,
    /// SATB log entries (slow-path enqueues).
    pub satb_enqueues: u64,
    /// Completed GC cycles.
    pub gc_cycles: u64,
    /// Remark pauses recorded.
    pub pauses: u64,
    /// Emergency full pauses.
    pub emergency_pauses: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Words allocated.
    pub words: u64,
    /// Objects freed by sweeps.
    pub swept: u64,
    /// Objects scanned concurrently.
    pub concurrent_scans: u64,
    /// Objects allocated black.
    pub allocated_black: u64,
}

impl Counters {
    /// Snapshot of `e`'s counters.
    pub fn of(e: &dyn Engine) -> Self {
        let s = e.stats();
        let heap = e.heap();
        let gc = &heap.gc.stats;
        Counters {
            insns: s.insns,
            cycles: s.cycles,
            barrier_executions: s.barrier.totals().0,
            elided: s.elided_executions,
            barrier_cycles: s.barrier_cycles,
            satb_enqueues: gc.satb_logs,
            gc_cycles: s.gc_cycles,
            pauses: s.pauses.len() as u64,
            emergency_pauses: s.emergency_pauses,
            allocs: heap.stats.allocations,
            words: heap.stats.words_allocated,
            swept: gc.swept,
            concurrent_scans: gc.concurrent_scans,
            allocated_black: gc.allocated_black,
        }
    }

    fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("insns", self.insns),
            ("cycles", self.cycles),
            ("barrier_executions", self.barrier_executions),
            ("elided", self.elided),
            ("barrier_cycles", self.barrier_cycles),
            ("satb_enqueues", self.satb_enqueues),
            ("gc_cycles", self.gc_cycles),
            ("pauses", self.pauses),
            ("emergency_pauses", self.emergency_pauses),
            ("allocs", self.allocs),
            ("words", self.words),
            ("swept", self.swept),
            ("concurrent_scans", self.concurrent_scans),
            ("allocated_black", self.allocated_black),
        ]
    }

    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Counters {
            insns: f(self.insns, o.insns),
            cycles: f(self.cycles, o.cycles),
            barrier_executions: f(self.barrier_executions, o.barrier_executions),
            elided: f(self.elided, o.elided),
            barrier_cycles: f(self.barrier_cycles, o.barrier_cycles),
            satb_enqueues: f(self.satb_enqueues, o.satb_enqueues),
            gc_cycles: f(self.gc_cycles, o.gc_cycles),
            pauses: f(self.pauses, o.pauses),
            emergency_pauses: f(self.emergency_pauses, o.emergency_pauses),
            allocs: f(self.allocs, o.allocs),
            words: f(self.words, o.words),
            swept: f(self.swept, o.swept),
            concurrent_scans: f(self.concurrent_scans, o.concurrent_scans),
            allocated_black: f(self.allocated_black, o.allocated_black),
        }
    }

    /// `self - base`, field by field.
    #[must_use]
    pub fn minus(self, base: Self) -> Self {
        self.zip(base, u64::wrapping_sub)
    }

    /// `self + o`, field by field.
    #[must_use]
    pub fn plus(self, o: Self) -> Self {
        self.zip(o, u64::wrapping_add)
    }

    /// Compact JSON object.
    pub fn to_json(self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields().iter().enumerate() {
            let _ = write!(s, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        s.push('}');
        s
    }

    /// Space-separated `key=value` list.
    pub fn to_text(self) -> String {
        let parts: Vec<String> = self
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.join(" ")
    }

    /// The runtime-layer count metrics (barrier, heap, gc).
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("barrier.executions", self.barrier_executions as f64));
        out.push((
            "barrier.kept",
            (self.barrier_executions - self.elided) as f64,
        ));
        out.push(("barrier.elided", self.elided as f64));
        out.push(("barrier.cycles", self.barrier_cycles as f64));
        out.push(("barrier.satb_enqueues", self.satb_enqueues as f64));
        out.push(("heap.allocs", self.allocs as f64));
        out.push(("heap.words_allocated", self.words as f64));
        out.push(("gc.cycles", self.gc_cycles as f64));
        out.push(("gc.swept", self.swept as f64));
        out.push(("gc.concurrent_scans", self.concurrent_scans as f64));
        out.push(("gc.allocated_black", self.allocated_black as f64));
        out.push(("gc.emergency_pauses", self.emergency_pauses as f64));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words, for output fingerprints that must match
/// across machines and toolchains.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in one word.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
