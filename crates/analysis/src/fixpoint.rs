//! Fixed-point driver and the final elision judgment.
//!
//! Standard worklist iteration in reverse postorder: process a block
//! from its entry state, merge the out-state into each successor, repeat
//! until nothing changes (§2.2). Integer components are widened to ⊤
//! after [`AnalysisConfig::widen_after`] merges at one join point — the
//! termination backstop for the stride-variable machinery.
//!
//! Elision judgments are taken in one extra pass *after* the fixed
//! point, because "the last such judgment (at the fixed point of the
//! analysis) is correct" (§2.4).
//!
//! The driver is **guardrailed**: non-convergence within the iteration
//! cap, wall-clock budget exhaustion, and panics inside the transfer
//! functions all degrade the method to the conservative "elide nothing"
//! result ([`AnalysisOutcome::Degraded`]) instead of aborting the
//! pipeline. Degradations are counted in `wbe-telemetry` under
//! `analysis.degraded`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use wbe_ir::{cfg, InsnAddr, Method, MethodId, Program};

use crate::config::AnalysisConfig;
use crate::intval::VarAlloc;
use crate::refs::Ref;
use crate::state::{AbsState, MethodCtx};
use crate::transfer::{is_barrier_site, transfer_insn, transfer_term};

/// Why a method's analysis fell back to the conservative result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The worklist exceeded the iteration cap without converging.
    IterationCap {
        /// The cap that was exceeded (configured or size-scaled).
        limit: usize,
    },
    /// The per-method wall-clock budget was exhausted.
    TimeBudget {
        /// The budget that was exhausted.
        budget: Duration,
    },
    /// The analysis panicked and was isolated by `catch_unwind`.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An internal invariant of the fixpoint driver failed.
    Internal(&'static str),
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::IterationCap { limit } => {
                write!(f, "iteration cap exceeded ({limit} blocks)")
            }
            DegradeReason::TimeBudget { budget } => {
                write!(f, "wall-clock budget exhausted ({budget:?})")
            }
            DegradeReason::Panicked { message } => write!(f, "analysis panicked: {message}"),
            DegradeReason::Internal(what) => write!(f, "internal driver error: {what}"),
        }
    }
}

/// How a method's analysis concluded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AnalysisOutcome {
    /// The fixpoint converged and the elision judgments are final.
    #[default]
    Complete,
    /// A guardrail fired; the method conservatively elides nothing.
    Degraded(DegradeReason),
}

impl AnalysisOutcome {
    /// True when a guardrail fired.
    pub fn is_degraded(&self) -> bool {
        matches!(self, AnalysisOutcome::Degraded(_))
    }
}

/// Per-method analysis result.
#[derive(Clone, Debug, Default)]
pub struct MethodAnalysis {
    /// Store sites whose SATB barrier may be omitted.
    pub elided: BTreeSet<InsnAddr>,
    /// Total barrier-relevant store sites in the method.
    pub barrier_sites: usize,
    /// Barrier-relevant `putfield` sites.
    pub field_sites: usize,
    /// `aastore` sites.
    pub array_sites: usize,
    /// Blocks processed until the fixed point (a work measure).
    pub iterations: usize,
    /// How the analysis concluded; `Degraded` methods elide nothing.
    pub outcome: AnalysisOutcome,
}

impl MethodAnalysis {
    /// Elided sites as a fraction of barrier sites (static rate).
    pub fn static_elim_rate(&self) -> f64 {
        if self.barrier_sites == 0 {
            0.0
        } else {
            self.elided.len() as f64 / self.barrier_sites as f64
        }
    }
}

/// Whole-program analysis result.
#[derive(Clone, Debug, Default)]
pub struct ProgramAnalysis {
    /// Per-method results.
    pub methods: BTreeMap<MethodId, MethodAnalysis>,
    /// Wall-clock analysis time (Figure 2's compile-time axis).
    pub elapsed: Duration,
}

impl ProgramAnalysis {
    /// Methods whose analysis degraded to the conservative result.
    pub fn degraded_methods(&self) -> impl Iterator<Item = (MethodId, &DegradeReason)> + '_ {
        self.methods.iter().filter_map(|(&m, a)| match &a.outcome {
            AnalysisOutcome::Degraded(r) => Some((m, r)),
            AnalysisOutcome::Complete => None,
        })
    }

    /// Number of degraded methods.
    pub fn degraded_count(&self) -> usize {
        self.degraded_methods().count()
    }

    /// Total elided sites.
    pub fn total_elided(&self) -> usize {
        self.methods.values().map(|m| m.elided.len()).sum()
    }

    /// Total barrier-relevant sites.
    pub fn total_sites(&self) -> usize {
        self.methods.values().map(|m| m.barrier_sites).sum()
    }

    /// Iterates `(method, site)` pairs for every elided barrier.
    pub fn iter_elided(&self) -> impl Iterator<Item = (MethodId, InsnAddr)> + '_ {
        self.methods
            .iter()
            .flat_map(|(&m, a)| a.elided.iter().map(move |&addr| (m, addr)))
    }
}

/// Runs the analyses on every method of `program`.
pub fn analyze_program(program: &Program, config: &AnalysisConfig) -> ProgramAnalysis {
    let _span = wbe_telemetry::span!("analysis.program");
    let start = Instant::now();
    let mut methods = BTreeMap::new();
    for (mid, method) in program.iter_methods() {
        methods.insert(mid, analyze_method(program, method, config));
    }
    let elapsed = start.elapsed();
    wbe_telemetry::histogram("analysis.wall.us").record_duration(elapsed);
    ProgramAnalysis { methods, elapsed }
}

/// Runs the analyses on one method.
///
/// Never panics on any input program: non-convergence, budget
/// exhaustion, and panics inside the transfer functions degrade the
/// method to the conservative "elide nothing" result, recorded in
/// [`MethodAnalysis::outcome`].
pub fn analyze_method(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> MethodAnalysis {
    let _span = wbe_telemetry::span!("analysis.fixpoint", "{}", method.name);

    // Site counting is a cheap syntactic pass, kept outside the guarded
    // region so degraded methods still report their barrier sites.
    let mut result = MethodAnalysis::default();
    for (_, block) in method.iter_blocks() {
        for insn in block.insns.iter() {
            if is_barrier_site(program, insn) {
                result.barrier_sites += 1;
                if matches!(insn, wbe_ir::Insn::AaStore) {
                    result.array_sites += 1;
                } else {
                    result.field_sites += 1;
                }
            }
        }
    }

    let judged = if config.isolate_panics {
        catch_unwind(AssertUnwindSafe(|| judge_method(program, method, config))).unwrap_or_else(
            |payload| {
                Err(DegradeReason::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            },
        )
    } else {
        judge_method(program, method, config)
    };
    match judged {
        Ok((elided, iterations)) => {
            result.elided = elided;
            result.iterations = iterations;
        }
        Err(reason) => {
            result.outcome = AnalysisOutcome::Degraded(reason);
            wbe_telemetry::counter("analysis.degraded").inc();
        }
    }
    wbe_telemetry::counter("analysis.methods_analyzed").inc();
    wbe_telemetry::counter("analysis.barrier_sites").add(result.barrier_sites as u64);
    wbe_telemetry::counter("analysis.elided_sites").add(result.elided.len() as u64);
    wbe_telemetry::histogram("analysis.fixpoint.iterations").record(result.iterations as u64);
    result
}

/// Renders a `catch_unwind` payload for [`DegradeReason::Panicked`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fallible core of [`analyze_method`]: fixpoint(s) plus the final
/// judgment pass. Returns the elided sites and iteration count, or the
/// reason the method must degrade.
fn judge_method(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> Result<(BTreeSet<InsnAddr>, usize), DegradeReason> {
    let mut ctx = MethodCtx::new(program, method, config);
    let (entry_states, iterations) = match solve_method(&mut ctx, config.flow_sensitive_escape) {
        Solved::Converged { states, iterations } => (states, iterations),
        Solved::Degraded { reason, .. } => return Err(reason),
    };
    let ctx = ctx;

    // Final judgment pass over the fixed point. Blocks without a barrier
    // site have no judgment to take.
    let mut elided = BTreeSet::new();
    for ((bid, block), entry) in method.iter_blocks().zip(entry_states) {
        let Some(mut st) = entry else {
            continue; // unreachable block: no judgments
        };
        if !block.insns.iter().any(|i| is_barrier_site(program, i)) {
            continue;
        }
        for (idx, insn) in block.insns.iter().enumerate() {
            let judgment = transfer_insn(&mut st, &ctx, insn);
            if judgment == Some(true) {
                elided.insert(InsnAddr::new(bid, idx));
            }
        }
    }
    Ok((elided, iterations))
}

/// Computes the fixed-point entry state of every reachable block — the
/// white-box view used by the §6 framework and by tests that follow the
/// paper's §3.5 walkthrough. Honors the classic-escape ablation, like
/// [`analyze_method`].
pub fn entry_states(
    program: &Program,
    method: &Method,
    config: &AnalysisConfig,
) -> Vec<Option<AbsState>> {
    let mut ctx = MethodCtx::new(program, method, config);
    solved_entry_states(&mut ctx, config.flow_sensitive_escape)
}

/// [`solve_method`]'s entry states, or none at all when it degraded:
/// clients then treat every block as unreachable-for-judgment
/// (conservative). Replays must use the solved `ctx`, which carries the
/// classic-escape ablation's pinned references.
pub(crate) fn solved_entry_states(
    ctx: &mut MethodCtx<'_>,
    flow_sensitive: bool,
) -> Vec<Option<AbsState>> {
    match solve_method(ctx, flow_sensitive) {
        Solved::Converged { states, .. } => states,
        Solved::Degraded { .. } => vec![None; ctx.method.blocks.len()],
    }
}

/// Successful fixpoint result: per-block entry states and the iteration
/// count.
pub(crate) type FixpointResult = (Vec<Option<AbsState>>, usize);

/// A guardrail interruption, carrying whatever per-block entry states
/// the driver had computed when it fired. The partial states are **not**
/// fixed points — they are sound only for *reporting* (the dump and the
/// elision ledger use them to explain sites reached before degradation),
/// never for elision decisions.
pub(crate) struct FixpointDegrade {
    /// The guardrail that fired.
    pub reason: DegradeReason,
    /// Entry states computed so far (`None` = block not yet reached).
    pub partial: Vec<Option<AbsState>>,
}

/// Outcome of [`solve_method`]: the method-level fixed point, covering
/// the classic-escape ablation's double fixpoint.
pub(crate) enum Solved {
    /// The fixpoint(s) converged; `states` are final entry states.
    Converged {
        /// Per-block fixed-point entry states.
        states: Vec<Option<AbsState>>,
        /// Total blocks processed across all fixpoint runs.
        iterations: usize,
    },
    /// A guardrail fired; `partial` is the pre-convergence snapshot.
    Degraded {
        /// The guardrail that fired.
        reason: DegradeReason,
        /// Entry states computed before the guardrail fired.
        partial: Vec<Option<AbsState>>,
    },
}

/// Runs the method-level fixed point honoring the flow-sensitivity
/// ablation: flow-sensitive mode is one fixpoint; classic-escape mode
/// runs twice, pinning everything that escaped anywhere as escaped from
/// the start of the second run. Shared by the judgment pass, the dump,
/// and the elision ledger so all three see identical states.
pub(crate) fn solve_method(ctx: &mut MethodCtx<'_>, flow_sensitive: bool) -> Solved {
    if flow_sensitive {
        match run_fixpoint(ctx, None) {
            Ok((states, iterations)) => Solved::Converged { states, iterations },
            Err(d) => Solved::Degraded {
                reason: d.reason,
                partial: d.partial,
            },
        }
    } else {
        let mut nl_anywhere = BTreeSet::new();
        let it1 = match run_fixpoint(ctx, Some(&mut nl_anywhere)) {
            Ok((_, it1)) => it1,
            Err(d) => {
                return Solved::Degraded {
                    reason: d.reason,
                    partial: d.partial,
                }
            }
        };
        ctx.pinned_nl = nl_anywhere;
        match run_fixpoint(ctx, None) {
            Ok((states, it2)) => Solved::Converged {
                states,
                iterations: it1 + it2,
            },
            Err(d) => Solved::Degraded {
                reason: d.reason,
                partial: d.partial,
            },
        }
    }
}

/// Worklist fixpoint. `ctx.pinned_nl` (the classic-escape ablation) is
/// merged into the entry NL. Returns per-block entry states and the
/// iteration count — or the guardrail that fired, with partial states.
/// When `nl_anywhere` is given, it collects the union of NL over every
/// block exit, which the classic-escape ablation pins.
pub(crate) fn run_fixpoint(
    ctx: &MethodCtx<'_>,
    mut nl_anywhere: Option<&mut BTreeSet<Ref>>,
) -> Result<FixpointResult, FixpointDegrade> {
    let method = ctx.method;
    let nblocks = method.blocks.len();
    let rpo = cfg::reverse_postorder(method);
    let mut rpo_pos = vec![usize::MAX; nblocks];
    for (i, b) in rpo.iter().enumerate() {
        rpo_pos[b.index()] = i;
    }

    // Blocks with a single incoming edge are not join points: their
    // entry state is replaced, not merged (merging successive iterates
    // would needlessly widen stride variables to ⊤).
    let preds = cfg::predecessors(method);
    let mut incoming_edges: Vec<usize> = preds.iter().map(|p| p.len()).collect();
    incoming_edges[0] += 1; // the entry block also receives the initial state

    let mut alloc = VarAlloc::new();
    let mut entry_states: Vec<Option<AbsState>> = vec![None; nblocks];
    let mut merge_counts: Vec<usize> = vec![0; nblocks];
    entry_states[0] = Some(AbsState::entry(ctx));

    // Worklist keyed by RPO position for fast convergence.
    let mut worklist: BTreeSet<usize> = [0].into_iter().collect();
    let mut iterations = 0usize;
    let mut state_merges = 0u64;
    let mut widenings = 0u64;
    // Size-scaled default bound; configs may tighten it. Exceeding it
    // no longer panics: the method degrades to "elide nothing".
    let default_cap = (nblocks + 1) * (ctx.method.size + 8) * 4 + 10_000;
    let cap = ctx.max_iterations.unwrap_or(default_cap);

    while let Some(&pos) = worklist.iter().next() {
        worklist.remove(&pos);
        iterations += 1;
        if iterations > cap {
            return Err(FixpointDegrade {
                reason: DegradeReason::IterationCap { limit: cap },
                partial: entry_states,
            });
        }
        // Amortize the clock read: check the deadline every 16 blocks
        // (and on the first, so a zero budget degrades immediately).
        if iterations % 16 == 1 {
            if let Some((deadline, budget)) = ctx.deadline {
                if Instant::now() >= deadline {
                    return Err(FixpointDegrade {
                        reason: DegradeReason::TimeBudget { budget },
                        partial: entry_states,
                    });
                }
            }
        }
        let bid = rpo[pos];
        let Some(mut st) = entry_states[bid.index()].clone() else {
            return Err(FixpointDegrade {
                reason: DegradeReason::Internal("worklist block has no entry state"),
                partial: entry_states,
            });
        };
        let block = method.block(bid);
        for insn in &block.insns {
            let _ = transfer_insn(&mut st, ctx, insn);
        }
        transfer_term(&mut st, &block.term);
        if let Some(nl) = nl_anywhere.as_deref_mut() {
            nl.extend(st.nl.iter().copied());
        }
        let mut succs = block.term.successors().peekable();
        while let Some(succ) = succs.next() {
            // The last successor takes the out-state; earlier ones copy it.
            let last = succs.peek().is_none();
            let out_state = |st: &mut AbsState| {
                if last {
                    std::mem::take(st)
                } else {
                    st.clone()
                }
            };
            let changed = match &mut entry_states[succ.index()] {
                slot @ None => {
                    *slot = Some(out_state(&mut st));
                    true
                }
                Some(existing) if incoming_edges[succ.index()] <= 1 => {
                    // Not a join point: the new iterate replaces the old.
                    if *existing == st {
                        false
                    } else {
                        *existing = out_state(&mut st);
                        true
                    }
                }
                Some(existing) => {
                    merge_counts[succ.index()] += 1;
                    let widen = merge_counts[succ.index()] >= ctx.widen_after;
                    state_merges += 1;
                    widenings += widen as u64;
                    existing.merge_from(&st, ctx, &mut alloc, widen)
                }
            };
            if changed {
                worklist.insert(rpo_pos[succ.index()]);
            }
        }
    }
    wbe_telemetry::counter("analysis.fixpoint.blocks_processed").add(iterations as u64);
    wbe_telemetry::counter("analysis.state_merges").add(state_merges);
    wbe_telemetry::counter("analysis.widenings").add(widenings);
    Ok((entry_states, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    /// The paper's §3.1 expand(): every aastore in the copy loop must be
    /// proven initializing. This is the headline test of the array
    /// analysis.
    #[test]
    fn expand_loop_array_stores_are_elided() {
        let mut pb = ProgramBuilder::new();
        let t = pb.class("T");
        let expand = pb.method(
            "expand",
            vec![Ty::RefArray(t)],
            Some(Ty::RefArray(t)),
            2,
            |mb| {
                let ta = mb.local(0);
                let new_ta = mb.local(1);
                let i = mb.local(2);
                let head = mb.new_block();
                let body = mb.new_block();
                let exit = mb.new_block();
                mb.load(ta)
                    .arraylength()
                    .iconst(2)
                    .mul()
                    .new_ref_array(t)
                    .store(new_ta);
                mb.iconst(0).store(i).goto_(head);
                mb.switch_to(head);
                mb.load(i)
                    .load(ta)
                    .arraylength()
                    .if_icmp(CmpOp::Lt, body, exit);
                mb.switch_to(body);
                mb.load(new_ta).load(i).load(ta).load(i).aaload().aastore();
                mb.iinc(i, 1).goto_(head);
                mb.switch_to(exit);
                mb.load(new_ta).return_value();
            },
        );
        let p = pb.finish();
        p.validate().unwrap();
        let res = analyze_method(&p, p.method(expand), &AnalysisConfig::full());
        assert_eq!(res.array_sites, 1);
        assert_eq!(
            res.elided.len(),
            1,
            "the copy-loop aastore must be elided; got {res:?}"
        );
        // Field-only mode must not elide it.
        let res_f = analyze_method(&p, p.method(expand), &AnalysisConfig::field_only());
        assert!(res_f.elided.is_empty());
        // Disabling stride inference must also lose it (ablation).
        let res_ns = analyze_method(
            &p,
            p.method(expand),
            &AnalysisConfig {
                stride_inference: false,
                ..AnalysisConfig::full()
            },
        );
        assert!(res_ns.elided.is_empty());
    }

    /// The paper's §2.4 motivating example for two refs per site:
    ///
    /// ```java
    /// while (p1) {
    ///   T t = new T();        // site s
    ///   t.f = o1;             // W1: elidable (strong update on A)
    ///   if (p2) t.f = o2;     // W2: not elidable
    /// }
    /// ```
    #[test]
    fn two_refs_per_site_example() {
        let mut pb = ProgramBuilder::new();
        let tcl = pb.class("T");
        let f = pb.field(tcl, "f", Ty::Ref(tcl));
        let m = pb.method(
            "w1w2",
            vec![Ty::Int, Ty::Int, Ty::Ref(tcl), Ty::Ref(tcl)],
            None,
            1,
            |mb| {
                let p1 = mb.local(0);
                let p2 = mb.local(1);
                let o1 = mb.local(2);
                let o2 = mb.local(3);
                let t = mb.local(4);
                let head = mb.new_block();
                let body = mb.new_block();
                let w2 = mb.new_block();
                let back = mb.new_block();
                let exit = mb.new_block();
                mb.goto_(head);
                mb.switch_to(head).load(p1).if_zero(CmpOp::Ne, body, exit);
                mb.switch_to(body);
                mb.new_object(tcl).store(t);
                mb.load(t).load(o1).putfield(f); // W1
                mb.load(p2).if_zero(CmpOp::Ne, w2, back);
                mb.switch_to(w2);
                mb.load(t).load(o2).putfield(f); // W2
                mb.goto_(back);
                mb.switch_to(back).goto_(head);
                mb.switch_to(exit).return_();
            },
        );
        let p = pb.finish();
        p.validate().unwrap();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.field_sites, 2);
        assert_eq!(res.elided.len(), 1, "exactly W1: {res:?}");
        // The elided one is the first putfield (block B2, the body).
        let addr = res.elided.iter().next().unwrap();
        assert_eq!(addr.block, wbe_ir::BlockId(2));

        // Ablation: single summary name per site loses W1 as well
        // (must use weak update, W2's value pollutes the summary).
        let res_single = analyze_method(
            &p,
            p.method(m),
            &AnalysisConfig {
                two_refs_per_site: false,
                ..AnalysisConfig::full()
            },
        );
        assert_eq!(res_single.elided.len(), 0, "{res_single:?}");
    }

    /// Constructor bodies: `this` starts thread-local with null declared
    /// fields, so initializing stores in constructors are elidable.
    #[test]
    fn constructor_initializing_stores_elided() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let prev = pb.field(c, "prev", Ty::Ref(c));
        let ctor = pb.declare_constructor(c, vec![Ty::Ref(c), Ty::Ref(c)]);
        pb.define_method(ctor, 0, |mb| {
            let this = mb.local(0);
            let n = mb.local(1);
            let q = mb.local(2);
            mb.load(this).load(n).putfield(next);
            mb.load(this).load(q).putfield(prev);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(ctor), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 2, "{res:?}");
    }

    /// Without inlining, a constructor call makes the allocated object
    /// escape, so later stores to it are not elidable (§2.4's discussion
    /// of why the analysis runs after inlining).
    #[test]
    fn un_inlined_constructor_blocks_elision() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let ctor = pb.declare_constructor(c, vec![]);
        pb.define_method(ctor, 0, |mb| {
            mb.return_();
        });
        let m = pb.method("make", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).dup().invoke(ctor).store(o);
            mb.load(o).load(arg).putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert!(res.elided.is_empty(), "{res:?}");
    }

    /// Flow-sensitive escape vs classic escape ablation: a store before
    /// a later escape is elidable only flow-sensitively.
    #[test]
    fn flow_sensitive_escape_beats_classic() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let g = pb.static_field("g", Ty::Ref(c));
        let m = pb.method("pub", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f); // before escape
            mb.load(o).putstatic(g); // escape
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 1, "{res:?}");
        let res_classic = analyze_method(
            &p,
            p.method(m),
            &AnalysisConfig {
                flow_sensitive_escape: false,
                ..AnalysisConfig::full()
            },
        );
        assert!(res_classic.elided.is_empty(), "{res_classic:?}");
    }

    /// A loop that conditionally overwrites: the judgment must be taken
    /// at the fixed point, not on the first visit.
    #[test]
    fn judgment_taken_at_fixed_point() {
        // o = new C; loop { o.f = x; }  — second iteration overwrites a
        // non-null value, so the store is NOT elidable even though the
        // first abstract visit sees null.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("looped", vec![Ty::Int, Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let x = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.new_object(c).store(o).goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .load(o)
                .load(x)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert!(res.elided.is_empty(), "{res:?}");
    }

    /// Allocation inside the loop, store after: each iteration's store
    /// initializes the *fresh* object, so it is elidable via R/A.
    #[test]
    fn allocation_in_loop_with_initializing_store() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("alloc_loop", vec![Ty::Int, Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let x = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .new_object(c)
                .store(o)
                .load(o)
                .load(x)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 1, "{res:?}");
    }

    #[test]
    fn program_analysis_aggregates() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        pb.method("a", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f);
            mb.return_();
        });
        pb.method("b", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
            let x = mb.local(0);
            let y = mb.local(1);
            mb.load(x).load(y).putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_program(&p, &AnalysisConfig::full());
        assert_eq!(res.total_sites(), 2);
        assert_eq!(res.total_elided(), 1);
        assert_eq!(res.iter_elided().count(), 1);
    }

    /// Builds a method with a loop — enough blocks that a tiny iteration
    /// cap fires before the fixpoint converges.
    fn looped_store_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("looped", vec![Ty::Int, Ty::Ref(c)], None, 1, |mb| {
            let n = mb.local(0);
            let x = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.new_object(c).store(o).goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body)
                .load(o)
                .load(x)
                .putfield(f)
                .iinc(n, -1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        (pb.finish(), m)
    }

    /// Guardrail: an exhausted iteration cap degrades (no panic) and
    /// elides nothing, while sites are still counted.
    #[test]
    fn iteration_cap_degrades_conservatively() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig::full().with_max_iterations(1);
        let res = analyze_method(&p, p.method(m), &cfg);
        assert_eq!(
            res.outcome,
            AnalysisOutcome::Degraded(DegradeReason::IterationCap { limit: 1 })
        );
        assert!(res.elided.is_empty());
        assert_eq!(res.barrier_sites, 1, "sites are counted even degraded");
        // With the default cap the same method completes.
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        assert_eq!(res.outcome, AnalysisOutcome::Complete);
    }

    /// Guardrail: a zero wall-clock budget degrades immediately.
    #[test]
    fn zero_time_budget_degrades() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig::full().with_time_budget(Duration::ZERO);
        let res = analyze_method(&p, p.method(m), &cfg);
        assert!(res.outcome.is_degraded(), "{res:?}");
        assert!(matches!(
            res.outcome,
            AnalysisOutcome::Degraded(DegradeReason::TimeBudget { .. })
        ));
        assert!(res.elided.is_empty());
    }

    /// Guardrail: degradation applies to the classic-escape ablation's
    /// double fixpoint too.
    #[test]
    fn degradation_covers_classic_escape_ablation() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig {
            flow_sensitive_escape: false,
            ..AnalysisConfig::full().with_max_iterations(1)
        };
        let res = analyze_method(&p, p.method(m), &cfg);
        assert!(res.outcome.is_degraded());
    }

    /// Degraded methods are reported by the whole-program aggregate.
    #[test]
    fn program_analysis_reports_degraded_methods() {
        let (p, m) = looped_store_program();
        let cfg = AnalysisConfig::full().with_max_iterations(1);
        let res = analyze_program(&p, &cfg);
        assert_eq!(res.degraded_count(), 1);
        let (mid, reason) = res.degraded_methods().next().unwrap();
        assert_eq!(mid, m);
        assert!(matches!(reason, DegradeReason::IterationCap { .. }));
        assert_eq!(res.total_elided(), 0);
    }

    /// Guardrail: a panic inside the transfer functions (provoked here
    /// with deliberately malformed IR) is isolated and degrades the
    /// method instead of killing the pipeline.
    #[test]
    fn panic_isolation_degrades_instead_of_crashing() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![], None, 0, |mb| {
            mb.return_();
        });
        let mut p = pb.finish();
        // Stack underflow: pop with nothing on the abstract stack.
        p.methods[0].blocks[0].insns.insert(0, wbe_ir::Insn::Pop);
        let res = analyze_method(&p, &p.methods[0], &AnalysisConfig::full());
        assert!(
            matches!(
                res.outcome,
                AnalysisOutcome::Degraded(DegradeReason::Panicked { .. })
            ),
            "{res:?}"
        );
        assert!(res.elided.is_empty());
        // With isolation off the panic propagates to the caller.
        let cfg = AnalysisConfig {
            isolate_panics: false,
            ..AnalysisConfig::full()
        };
        let hit = catch_unwind(AssertUnwindSafe(|| analyze_method(&p, &p.methods[0], &cfg)));
        assert!(hit.is_err());
    }

    /// Degrade reasons render for humans.
    #[test]
    fn degrade_reasons_display() {
        assert!(DegradeReason::IterationCap { limit: 3 }
            .to_string()
            .contains("3"));
        assert!(DegradeReason::TimeBudget {
            budget: Duration::from_millis(1)
        }
        .to_string()
        .contains("budget"));
        assert!(DegradeReason::Panicked {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(DegradeReason::Internal("x").to_string().contains("x"));
    }

    /// Convergence stress: nested loops with conflicting strides must
    /// still terminate (via widening) and stay sound.
    #[test]
    fn nested_loops_converge() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("nest", vec![Ty::Int], None, 3, |mb| {
            let n = mb.local(0);
            let i = mb.local(1);
            let j = mb.local(2);
            let arr = mb.local(3);
            let oh = mb.new_block();
            let ob = mb.new_block();
            let ih = mb.new_block();
            let ib = mb.new_block();
            let oe = mb.new_block();
            let ie = mb.new_block();
            mb.iconst(0)
                .store(i)
                .load(n)
                .new_ref_array(c)
                .store(arr)
                .goto_(oh);
            mb.switch_to(oh).load(i).load(n).if_icmp(CmpOp::Lt, ob, oe);
            mb.switch_to(ob).iconst(0).store(j).goto_(ih);
            mb.switch_to(ih).load(j).load(i).if_icmp(CmpOp::Lt, ib, ie);
            mb.switch_to(ib)
                .load(arr)
                .load(j)
                .const_null()
                .aastore()
                .iinc(j, 2)
                .goto_(ih);
            mb.switch_to(ie).iinc(i, 3).goto_(oh);
            mb.switch_to(oe).return_();
        });
        let p = pb.finish();
        p.validate().unwrap();
        let res = analyze_method(&p, p.method(m), &AnalysisConfig::full());
        // The stride-2 inner store over a shared array is not provably
        // in-order across outer iterations; it must not be elided.
        assert!(res.elided.is_empty(), "{res:?}");
    }
}
