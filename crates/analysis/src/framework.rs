//! The §6 vision, concretely: "these analyses should be part of an
//! integrated static analysis framework that provides a variety of
//! information to inform subsequent compilation steps, of which SATB
//! write barrier removal is just one."
//!
//! [`Framework`] runs every client over one program: barrier elision,
//! null-or-same, bounds-check removal, and stack allocation. Pre-null
//! elision replays the method's fixed point (the same solve as
//! [`analyze_method`](crate::analyze_method), classic-escape ablation
//! included). The other clients still run their own fixpoints:
//! null-or-same has a distinct domain, and bounds and stack allocation
//! re-run the full-analysis fixpoint.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use wbe_ir::{InsnAddr, MethodId, Program, SiteId};

use crate::config::AnalysisConfig;
use crate::fixpoint::solved_entry_states;
use crate::state::{AbsState, MethodCtx};
use crate::transfer::{is_barrier_site, transfer_insn};
use crate::{bounds, nullsame, stackalloc};

/// Per-method results served by the framework.
#[derive(Clone, Debug, Default)]
pub struct MethodInfo {
    /// Pre-null elidable store sites (§2 + §3).
    pub elided: BTreeSet<InsnAddr>,
    /// Null-or-same elidable stores (§4.3).
    pub null_or_same: BTreeSet<InsnAddr>,
    /// Array accesses with removable bounds checks (§6 client).
    pub bounds_safe: BTreeSet<InsnAddr>,
    /// Stack-allocatable allocation sites (§6 client).
    pub stack_allocatable: BTreeSet<SiteId>,
    /// Barrier-relevant store sites.
    pub barrier_sites: usize,
    /// Array access sites.
    pub array_accesses: usize,
    /// Allocation sites.
    pub alloc_sites: usize,
}

/// Per-method results of every §6 client.
#[derive(Debug)]
pub struct Framework {
    methods: BTreeMap<MethodId, MethodInfo>,
    elapsed: Duration,
}

impl Framework {
    /// Analyzes every method of `program` and derives all client
    /// results.
    pub fn analyze(program: &Program, config: &AnalysisConfig) -> Framework {
        let start = Instant::now();
        let mut methods = BTreeMap::new();
        for (mid, method) in program.iter_methods() {
            let mut ctx = MethodCtx::new(program, method, config);
            let states = solved_entry_states(&mut ctx, config.flow_sensitive_escape);
            let mut info = MethodInfo::default();

            // Shared replay: pre-null judgments + site counting.
            for (bid, block) in method.iter_blocks() {
                for insn in &block.insns {
                    if is_barrier_site(program, insn) {
                        info.barrier_sites += 1;
                    }
                    if matches!(
                        insn,
                        wbe_ir::Insn::AaLoad
                            | wbe_ir::Insn::AaStore
                            | wbe_ir::Insn::IaLoad
                            | wbe_ir::Insn::IaStore
                    ) {
                        info.array_accesses += 1;
                    }
                    if insn.allocation_site().is_some() {
                        info.alloc_sites += 1;
                    }
                }
                let Some(entry) = &states[bid.index()] else {
                    continue;
                };
                let mut st: AbsState = entry.clone();
                for (idx, insn) in block.insns.iter().enumerate() {
                    if transfer_insn(&mut st, &ctx, insn) == Some(true) {
                        info.elided.insert(InsnAddr::new(bid, idx));
                    }
                }
            }
            // The other clients compute their own fixed points (see the
            // module docs).
            info.null_or_same = nullsame::analyze_method(program, method);
            info.bounds_safe = bounds::analyze_method(program, method).safe;
            info.stack_allocatable = stackalloc::analyze_method(program, method).stack_allocatable;
            methods.insert(mid, info);
        }
        Framework {
            methods,
            elapsed: start.elapsed(),
        }
    }

    /// Per-method results.
    pub fn method(&self, mid: MethodId) -> Option<&MethodInfo> {
        self.methods.get(&mid)
    }

    /// Iterates `(MethodId, &MethodInfo)`.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodInfo)> {
        self.methods.iter().map(|(&m, i)| (m, i))
    }

    /// Total wall-clock time for the whole framework run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Every pre-null elided site across the program.
    pub fn all_elided(&self) -> Vec<(MethodId, InsnAddr)> {
        self.iter()
            .flat_map(|(m, i)| i.elided.iter().map(move |&a| (m, a)))
            .collect()
    }

    /// Every stack-allocatable site across the program.
    pub fn all_stack_sites(&self) -> BTreeSet<SiteId> {
        self.iter()
            .flat_map(|(_, i)| i.stack_allocatable.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    fn rich_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        // A method exercising all four clients at once.
        pb.method("omni", vec![Ty::Ref(c)], None, 3, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            let arr = mb.local(2);
            let t = mb.local(3);
            // Pre-null elision: fresh object init.
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f);
            // Null-or-same: refresh.
            mb.load(o).load(o).getfield(f).putfield(f);
            // Bounds-safe access into a fresh literal array.
            mb.iconst(4).new_ref_array(c).store(arr);
            mb.load(arr).iconst(0).load(o).aastore();
            // A scratch object that never leaves the frame.
            mb.new_object(c).store(t);
            mb.load(t).getfield(f).pop();
            mb.return_();
        });
        pb.finish()
    }

    #[test]
    fn one_run_serves_all_clients() {
        let p = rich_program();
        let fw = Framework::analyze(&p, &AnalysisConfig::full());
        let (mid, info) = fw.iter().next().unwrap();
        assert_eq!(mid, wbe_ir::MethodId(0));
        assert!(!info.elided.is_empty(), "pre-null client: {info:?}");
        assert!(!info.null_or_same.is_empty(), "NOS client: {info:?}");
        assert!(!info.bounds_safe.is_empty(), "bounds client: {info:?}");
        // arr escapes nothing but receives a store of o (o is tainted);
        // the scratch t and arr itself stay frame-local.
        assert!(!info.stack_allocatable.is_empty(), "stack client: {info:?}");
        assert_eq!(info.alloc_sites, 3);
        assert!(info.barrier_sites >= 3);
        assert!(!fw.all_elided().is_empty());
        assert!(!fw.all_stack_sites().is_empty());
    }

    /// The classic-escape ablation pins everything that escapes anywhere,
    /// so a store before a later escape is not elidable. The framework
    /// must honor the ablation exactly as `analyze_program` does.
    #[test]
    fn framework_honors_the_classic_escape_ablation() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let g = pb.static_field("g", Ty::Ref(c));
        pb.method("pub", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f); // before escape
            mb.load(o).putstatic(g); // escape
            mb.return_();
        });
        let p = pb.finish();
        for flow_sensitive_escape in [true, false] {
            let config = AnalysisConfig {
                flow_sensitive_escape,
                ..AnalysisConfig::full()
            };
            let fw = Framework::analyze(&p, &config);
            let standalone = crate::analyze_program(&p, &config);
            let expected = usize::from(flow_sensitive_escape);
            assert_eq!(standalone.total_elided(), expected);
            assert_eq!(fw.all_elided().len(), expected, "{config:?}");
        }
    }

    #[test]
    fn framework_matches_standalone_analyses() {
        // The framework must agree with the individual entry points.
        let p = rich_program();
        let fw = Framework::analyze(&p, &AnalysisConfig::full());
        let standalone = crate::analyze_program(&p, &AnalysisConfig::full());
        let fw_elided: BTreeSet<_> = fw.all_elided().into_iter().collect();
        let st_elided: BTreeSet<_> = standalone.iter_elided().collect();
        assert_eq!(fw_elided, st_elided);
        for (mid, m) in p.iter_methods() {
            let info = fw.method(mid).unwrap();
            assert_eq!(info.null_or_same, nullsame::analyze_method(&p, m));
            assert_eq!(info.bounds_safe, bounds::analyze_method(&p, m).safe);
        }
    }
}
