//! The one way to specify and execute a run.
//!
//! A [`RunSpec`] names every knob of a run — pipeline, barrier mode,
//! elision, engine, marker style, GC policy, iteration plan, fault
//! plan, verification/recovery, and the necessity oracle — and
//! [`RunSpec::run`] compiles a workload under it, executes it, and
//! returns a [`RunRecord`] holding everything the experiments read.
//!
//! [`RunSpec::default`] is the paper's headline configuration (Table 1
//! and Table 2): mode A at inline limit 100, checked SATB barriers with
//! the analysis' elision set, the classic engine, and the deterministic
//! [`HEADLINE_GC`] policy. Experiments override only the fields they
//! vary. A caller with a need the spec does not express (a hand-edited
//! elision set, several mutator threads over one build) takes the
//! spec's compile step ([`RunSpec::compile`]) and configured engine
//! ([`RunSpec::engine`]) and drives the run with [`RunSpec::execute`].

use wbe_heap::gc::{GcStats, MarkStyle};
use wbe_heap::{FaultConfig, FaultPlan, Heap, RecoveryController, RecoveryPolicy};
use wbe_interp::{
    BarrierConfig, BarrierMode, BarrierSummary, ElidedBarriers, ElisionKind, Engine, EngineKind,
    GcPolicy, OracleState, RearrangeRole, RearrangeSites, RunStats, SiteStats, StoreKind, Trap,
    Value,
};
use wbe_ir::{InsnAddr, MethodId, Program};
use wbe_opt::{compile, plan_program, Compiled, OptMode, PipelineConfig, RearrangePlan, ShiftRole};
use wbe_workloads::Workload;

/// The deterministic GC policy of the headline configuration, shared
/// by the baseline gate, the profiler, the oracle, the throughput bench
/// and `wbe_tool report`.
pub const HEADLINE_GC: GcPolicy = GcPolicy {
    alloc_trigger: 400,
    step_interval: 32,
    step_budget: 4,
};

/// Keep-code of executed kept sites missing from the ledger (or of
/// every kept site when the pipeline built no ledger). Non-zero counts
/// under a ledger mean the join lost provenance.
pub const UNATTRIBUTED: &str = "unattributed";

/// How often, and at what size, a run calls the workload entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Iterations {
    /// One call of `max(default_iters × scale, min)` iterations.
    Scaled {
        /// Multiplies the workload's default iteration count.
        scale: f64,
        /// Floor on the iteration count.
        min: i64,
    },
    /// Calls of `max(default_iters / 10, 8)` iterations until the
    /// engine has executed at least this many instructions.
    Budget(u64),
}

impl Iterations {
    /// One call at `scale`, with the usual floor of 8 iterations.
    #[must_use]
    pub fn scaled(scale: f64) -> Self {
        Iterations::Scaled { scale, min: 8 }
    }

    /// The iteration count of each entry call for `w`.
    #[must_use]
    pub fn per_call(self, w: &Workload) -> i64 {
        match self {
            Iterations::Scaled { scale, min } => ((w.default_iters as f64 * scale) as i64).max(min),
            Iterations::Budget(_) => (w.default_iters / 10).max(8),
        }
    }
}

/// Everything that determines a run, apart from the workload itself.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Inlining, analysis mode, and the optional §4.3 analyses/ledger.
    pub pipeline: PipelineConfig,
    /// The barrier every kept store executes.
    pub barrier: BarrierMode,
    /// Apply the analysis' elision set (off: every barrier is kept).
    pub elide: bool,
    /// Run the §4.3 rearrangement protocol at the recognizer's shift
    /// and swap sites (sites already elided need no protocol).
    pub rearrange: bool,
    /// Which engine executes the program.
    pub engine: EngineKind,
    /// Concurrent-marking style.
    pub style: MarkStyle,
    /// Policy-driven concurrent marking (`None`: the collector idles).
    pub gc: Option<GcPolicy>,
    /// Iteration plan.
    pub iterations: Iterations,
    /// Deterministic fault schedule.
    pub faults: Option<FaultConfig>,
    /// Verify heap invariants at GC cycle boundaries.
    pub verify: bool,
    /// Install the self-healing recovery layer.
    pub recovery: Option<RecoveryPolicy>,
    /// Arm the barrier-necessity oracle (and its heap witness table).
    pub oracle: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            pipeline: PipelineConfig::new(OptMode::Full, 100),
            barrier: BarrierMode::Checked,
            elide: true,
            rearrange: false,
            engine: EngineKind::Classic,
            style: MarkStyle::Satb,
            gc: Some(HEADLINE_GC),
            iterations: Iterations::scaled(1.0),
            faults: None,
            verify: false,
            recovery: None,
            oracle: false,
        }
    }
}

/// The compile step's output: the pipeline artifacts plus the sets the
/// engine is configured from.
#[derive(Debug)]
pub struct Build {
    /// Inlined program, analysis, and (if requested) ledger.
    pub compiled: Compiled,
    /// The analysis' elision set: pre-null sites, plus null-or-same
    /// sites when the pipeline runs that analysis.
    pub elided: ElidedBarriers,
    /// The rearrangement plan, when the spec runs the protocol.
    pub rearrange: Option<RearrangePlan>,
}

impl RunSpec {
    /// Compiles `program` under the spec's pipeline.
    #[must_use]
    pub fn compile(&self, program: &Program) -> Build {
        let compiled = compile(program, &self.pipeline);
        let mut elided: ElidedBarriers = compiled.elided_sites().into_iter().collect();
        for (m, a) in compiled.null_or_same_sites() {
            elided.insert_kind(m, a, ElisionKind::NullOrSame);
        }
        let rearrange = self.rearrange.then(|| plan_program(&compiled.program));
        Build {
            compiled,
            elided,
            rearrange,
        }
    }

    /// Builds the spec's engine over `build`, configured with every
    /// runtime knob of the spec.
    #[must_use]
    pub fn engine<'p>(&self, build: &'p Build) -> Box<dyn Engine + 'p> {
        let mut config = if self.elide {
            BarrierConfig::with_elision(self.barrier, build.elided.clone())
        } else {
            BarrierConfig::new(self.barrier)
        };
        if let Some(plan) = &build.rearrange {
            let mut sites = RearrangeSites::new();
            for (m, a, role) in plan
                .iter()
                .filter(|&(m, a, _)| !config.elided.contains(m, a))
            {
                let role = match role {
                    ShiftRole::First => RearrangeRole::First,
                    ShiftRole::Member => RearrangeRole::Member,
                };
                sites.insert(m, a, role);
            }
            config = config.with_rearrange(sites);
        }
        let mut engine = self
            .engine
            .build(&build.compiled.program, config, self.style);
        if self.oracle {
            engine.set_oracle(true);
        }
        if let Some(policy) = self.gc {
            engine.set_gc_policy(policy);
        }
        if let Some(faults) = self.faults {
            engine.set_fault_plan(FaultPlan::new(faults));
        }
        if self.verify {
            engine.set_verify_invariants(true);
        }
        if let Some(policy) = self.recovery {
            engine.set_recovery(policy);
        }
        engine
    }

    /// Runs `w`'s entry on `engine` according to the iteration plan.
    /// Returns the last call's result.
    ///
    /// # Errors
    ///
    /// The first trap ends the run.
    pub fn execute(&self, engine: &mut dyn Engine, w: &Workload) -> Result<Option<Value>, Trap> {
        let iters = self.iterations.per_call(w);
        let args = [Value::Int(iters)];
        match self.iterations {
            Iterations::Budget(ops) => {
                let mut result = None;
                while engine.stats().insns < ops {
                    result = engine.run(w.entry, &args, w.fuel_for(iters))?;
                }
                Ok(result)
            }
            _ => engine.run(w.entry, &args, w.fuel_for(iters)),
        }
    }

    /// Compiles and executes `w` under the spec. A trap does not lose
    /// the record: it lands in [`RunRecord::result`].
    #[must_use]
    pub fn run(&self, w: &Workload) -> RunRecord {
        let build = self.compile(&w.program);
        let (result, stats, heap, oracle, recovery) = {
            let mut engine = self.engine(&build);
            let result = self.execute(engine.as_mut(), w);
            let heap = std::mem::replace(engine.heap_mut(), Heap::new(self.style));
            (
                result,
                engine.stats().clone(),
                heap,
                engine.oracle().cloned(),
                engine.recovery().cloned(),
            )
        };
        RunRecord {
            workload: w.name,
            iters: self.iterations.per_call(w),
            build,
            result,
            stats,
            heap,
            oracle,
            recovery,
        }
    }
}

/// One executed kept barrier site joined to its ledger record.
#[derive(Clone, Copy, Debug)]
pub struct KeptSite<'r> {
    /// Method holding the store.
    pub mid: MethodId,
    /// The store's address.
    pub addr: InsnAddr,
    /// Field or array store.
    pub kind: StoreKind,
    /// The method's name (the ledger's key).
    pub method: &'r str,
    /// The ledger keep-code blocking elision, or [`UNATTRIBUTED`].
    pub keep_code: &'r str,
    /// The site's dynamic counters.
    pub stats: &'r SiteStats,
}

impl KeptSite<'_> {
    /// Stable site identity (`method@B<block>[<index>]`), the same key
    /// the ledger renders.
    #[must_use]
    pub fn site(&self) -> String {
        format!(
            "{}@B{}[{}]",
            self.method,
            self.addr.block.index(),
            self.addr.index
        )
    }
}

/// Everything one [`RunSpec::run`] produced.
#[derive(Debug)]
pub struct RunRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Iterations of each entry call.
    pub iters: i64,
    /// The compile step's artifacts and elision set.
    pub build: Build,
    /// The last entry call's result, or the trap that ended the run.
    pub result: Result<Option<Value>, Trap>,
    /// Engine statistics.
    pub stats: RunStats,
    /// The run's heap as the engine left it.
    pub heap: Heap,
    /// The necessity oracle's state, when the spec armed it.
    pub oracle: Option<OracleState>,
    /// The recovery controller, when the spec installed one.
    pub recovery: Option<RecoveryController>,
}

impl RunRecord {
    /// The record, or the trap that ended the run.
    ///
    /// # Errors
    ///
    /// Returns the trap.
    pub fn into_result(self) -> Result<RunRecord, Trap> {
        match self.result {
            Err(t) => Err(t),
            Ok(_) => Ok(self),
        }
    }

    /// The record of a run that must not trap.
    ///
    /// # Panics
    ///
    /// Panics if the workload trapped — in this reproduction that
    /// always indicates a bug (most importantly, an unsound elision).
    #[must_use]
    pub fn unwrap(self) -> RunRecord {
        let name = self.workload;
        self.into_result()
            .unwrap_or_else(|t| panic!("workload {name} trapped: {t}"))
    }

    /// Collector statistics of the run's heap.
    #[must_use]
    pub fn gc(&self) -> &GcStats {
        &self.heap.gc.stats
    }

    /// Dynamic barrier summary against the analysis' elision set.
    #[must_use]
    pub fn summary(&self) -> BarrierSummary {
        self.stats.barrier.summarize(&self.build.elided)
    }

    /// Every executed kept site, joined on `(method, block, index)` to
    /// the ledger keep-code that blocked its elision. Unordered.
    #[must_use]
    pub fn kept_sites(&self) -> Vec<KeptSite<'_>> {
        let program = &self.build.compiled.program;
        let index = self
            .build
            .compiled
            .ledger
            .as_ref()
            .map(|l| l.index())
            .unwrap_or_default();
        self.stats
            .barrier
            .iter()
            .filter(|((m, a, _), _)| !self.build.elided.contains(*m, *a))
            .map(|(&(mid, addr, kind), stats)| {
                let method = program.method(mid).name.as_str();
                let keep_code = index
                    .get(&(method, addr.block.index(), addr.index))
                    .map(|rec| rec.keep_code.as_str())
                    .filter(|code| !code.is_empty())
                    .unwrap_or(UNATTRIBUTED);
                KeptSite {
                    mid,
                    addr,
                    kind,
                    method,
                    keep_code,
                    stats,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_workloads::by_name;

    #[test]
    fn jess_runs_end_to_end_with_elision_oracle() {
        let w = by_name("jess").unwrap();
        let facts = |engine: EngineKind| {
            let run = RunSpec {
                engine,
                ..RunSpec::default()
            }
            .run(&w)
            .unwrap();
            let s = run.summary();
            assert!(s.total() > 0);
            assert!(s.eliminated() > 0, "jess must elide barriers");
            assert!(run.stats.elided_executions > 0);
            (
                s.total(),
                s.eliminated(),
                run.stats.insns,
                run.stats.cycles,
                run.gc().cycles,
                wbe_heap::debug::world_digest(&run.heap),
            )
        };
        assert_eq!(facts(EngineKind::Classic), facts(EngineKind::Compiled));
    }
}
