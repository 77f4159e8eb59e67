//! `batch-mimics`: the six Table 1 mimics, each a fixed number of
//! entry-loop iterations per pass, under both engines.
//!
//! Each pass runs every mimic's frozen iteration total in [`CALLS`]
//! calls on the classic engine and on the compiled engine; the seed sets
//! the chunk sizes (the totals stay fixed) and the mimic order, and the
//! engine order alternates between passes. After each mimic the two
//! engines must agree on every deterministic counter and on the world
//! digest: the classic engine is the reference interpreter.

use std::time::{Duration, Instant};

use wbe_heap::debug::world_digest;
use wbe_interp::{BarrierConfig, BarrierMode, ElidedBarriers, Engine, EngineKind, Value};
use wbe_workloads::Workload;

use crate::metrics::Report;
use crate::rng::Rng;
use crate::run::{
    build_engine, build_engine_with, compile_job, headline, median_secs, pct, peak_rss_mb,
    CompileFacts, Counters,
};
use crate::stats::{geomean, median, sorted, Fast, Slices};
use crate::trace::{gc_call_metrics, Attrs, Tracer};
use crate::{Budget, Phase, Plan};

/// The mimics and their iterations per pass, frozen so that each takes
/// a comparable wall time on the compiled engine, about a millisecond
/// (at their default iteration counts jbb alone would take ~90% of the
/// time). Short passes give each (mimic, engine) pair hundreds of
/// slices a run, so its fastest ones are sampled often.
pub const MIMICS: [(&str, i64); 6] = [
    ("jess", 3_125),
    ("db", 1_750),
    ("javac", 1_875),
    ("mtrt", 1_575),
    ("jack", 2_000),
    ("jbb", 450),
];
/// Calls per mimic, engine and pass.
pub const CALLS: usize = 8;
const KINDS: [EngineKind; 2] = [EngineKind::Classic, EngineKind::Compiled];
/// Tail percentile reported as `op_us.tail`: 13 passes give a
/// (mimic, engine) pair 104 calls, ten of them beyond the 90th, so its
/// fastest 3% of passes suffice.
const TAIL_P: f64 = 90.0;
/// Passes every measured run makes; counts and peak RSS are read after
/// them.
const MIN_PASSES: u64 = 100;
/// Passes of the traced run (and of its untraced twin).
const TRACED_PASSES: u64 = 16;
/// Trials of the barrier differential.
const DIFF_TRIALS: usize = 9;
/// Passes' worth of iterations each mimic runs in a differential trial.
const DIFF_PASSES: i64 = 4;

/// Compiled mimics: the programs the engines run.
pub struct Programs {
    /// The workloads as built.
    pub workloads: Vec<Workload>,
    /// Headline compile output per workload.
    pub jobs: Vec<crate::run::CompileJob>,
}

impl Programs {
    /// Builds and compiles the six mimics.
    pub fn build(tracer: &mut Tracer, parent: Option<usize>) -> Self {
        let workloads: Vec<Workload> = MIMICS
            .iter()
            .map(|(n, _)| wbe_workloads::by_name(n).expect("known workload"))
            .collect();
        let jobs = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| compile_job(&w.program, &headline(), tracer, parent, i as u64))
            .collect();
        Programs { workloads, jobs }
    }
}

type Pair<'p> = [Box<dyn Engine + 'p>; 2];

/// Builds both engines for every mimic from `elided` sets, and warms
/// each up with a one-iteration call (which also translates lazily).
pub fn engines<'p>(p: &'p Programs, elided: &[ElidedBarriers]) -> Result<Vec<Pair<'p>>, String> {
    let mut out = Vec::new();
    for (i, w) in p.workloads.iter().enumerate() {
        let program = &p.jobs[i].compiled.program;
        let mut pair = KINDS.map(|k| build_engine(k, program, &elided[i]));
        for e in &mut pair {
            e.run(w.entry, &[Value::Int(1)], w.fuel_for(1))
                .map_err(|t| format!("warm-up of {} on {} trapped: {t}", w.name, e.name()))?;
        }
        out.push(pair);
    }
    Ok(out)
}

#[derive(Default)]
struct PairAcc {
    /// One slice per pass: its iterations, and the wall time per
    /// iteration (us) of each call.
    slices: Slices,
    run_ns: u128,
    iters: u64,
}

/// Output of one execution.
#[derive(Default)]
pub struct Exec {
    setup: Vec<Duration>,
    pairs: Vec<[PairAcc; 2]>,
    phase: Duration,
    /// Operations (calls) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First failures, for the report.
    pub notes: Vec<String>,
    delta: [Counters; 2],
    pass1: Vec<String>,
    peak_live: u64,
    remark_work: Vec<f64>,
    facts: CompileFacts,
    rss_mb: f64,
    /// Compiled-engine counts over the first `plan.min_rounds` passes.
    prefix: Counters,
    prefix_passes: u64,
}

/// Runs passes under `plan`. `tamper` may change the elision sets
/// before the engines are built (the negative control uses it).
pub fn execute(
    seed: u64,
    plan: &Plan,
    tracer: &mut Tracer,
    tamper: &dyn Fn(&Programs, &mut Vec<ElidedBarriers>),
) -> Exec {
    let phase_start = Instant::now();
    let mut ex = Exec::default();
    for _ in 1..plan.setup_reps {
        let t = Instant::now();
        let p = Programs::build(&mut Tracer::new(false), None);
        let sets: Vec<ElidedBarriers> = p.jobs.iter().map(|j| j.elided.clone()).collect();
        let warm = engines(&p, &sets);
        drop(warm);
        ex.setup.push(t.elapsed());
    }
    let t = Instant::now();
    let span = tracer.open("setup", None, 0);
    let programs = Programs::build(tracer, span);
    let mut sets: Vec<ElidedBarriers> = programs.jobs.iter().map(|j| j.elided.clone()).collect();
    tamper(&programs, &mut sets);
    let built = engines(&programs, &sets);
    tracer.close(span, Attrs::default());
    ex.setup.push(t.elapsed());
    for j in &programs.jobs {
        ex.facts.add(j);
    }
    let mut engines = match built {
        Ok(e) => e,
        Err(e) => {
            ex.attempted = 1;
            ex.failed = 1;
            ex.notes.push(format!("FAILED {e}"));
            ex.phase = phase_start.elapsed();
            return ex;
        }
    };
    let base: Vec<[Counters; 2]> = engines
        .iter()
        .map(|p| [Counters::of(&*p[0]), Counters::of(&*p[1])])
        .collect();
    let base_pauses: Vec<usize> = engines.iter().map(|p| p[1].stats().pauses.len()).collect();
    ex.pairs = (0..MIMICS.len()).map(|_| Default::default()).collect();
    ex.prefix_passes = plan.min_rounds;
    let mut rng = Rng::new(seed, 2);
    let loop_start = Instant::now();
    let mut passes = 0;
    while plan.more(passes, loop_start) {
        let mut order: Vec<usize> = (0..MIMICS.len()).collect();
        rng.shuffle(&mut order);
        for &m in &order {
            let w = &programs.workloads[m];
            let chunks = rng.partition(MIMICS[m].1, CALLS);
            let first = (passes % 2) as usize;
            for k in [first, 1 - first] {
                let e = &mut engines[m][k];
                let acc = &mut ex.pairs[m][k];
                let mut pass_ns = 0u128;
                let mut per_iter_us = [0.0; CALLS];
                for (call, &c) in chunks.iter().enumerate() {
                    let before = tracer.enabled().then(|| Counters::of(&**e));
                    let t0 = Instant::now();
                    let res = e.run(w.entry, &[Value::Int(c)], w.fuel_for(c));
                    let t1 = Instant::now();
                    let ns = (t1 - t0).as_nanos();
                    pass_ns += ns;
                    per_iter_us[call] = ns as f64 / 1e3 / c as f64;
                    ex.attempted += 1;
                    if let Err(t) = res {
                        ex.failed += 1;
                        if ex.notes.len() < 8 {
                            ex.notes
                                .push(format!("FAILED {} on {}: {t}", w.name, e.name()));
                        }
                    }
                    if k == 1 {
                        ex.peak_live = ex.peak_live.max(e.heap().store.live_count() as u64);
                    }
                    if let Some(b) = before {
                        let attrs = Attrs {
                            program: MIMICS[m].0,
                            engine: e.name(),
                            iters: c,
                            delta: Some(Counters::of(&**e).minus(b)),
                        };
                        tracer.record("run.call", None, ex.attempted - 1, t0, t1, attrs);
                    }
                }
                acc.run_ns += pass_ns;
                acc.iters += MIMICS[m].1 as u64;
                acc.slices
                    .push(MIMICS[m].1 as f64, pass_ns as f64 / 1e9, &per_iter_us);
            }
            let check = tracer.open("check", None, ex.attempted);
            if let Some(diff) = compare(&engines[m]) {
                ex.failed += CALLS as u64;
                if ex.notes.len() < 8 {
                    ex.notes.push(format!(
                        "FAILED {} pass {passes}: engines disagree: {diff}",
                        w.name
                    ));
                }
            }
            tracer.close(check, Attrs::default());
        }
        if passes == 0 {
            for (m, pair) in engines.iter().enumerate() {
                let d = Counters::of(&*pair[1]).minus(base[m][1]);
                ex.pass1.push(format!(
                    "  counts {} pass 1: {} digest={:016x}",
                    MIMICS[m].0,
                    d.to_text(),
                    world_digest(pair[1].heap())
                ));
            }
        }
        passes += 1;
        if passes == plan.min_rounds {
            ex.rss_mb = peak_rss_mb();
            for (m, pair) in engines.iter().enumerate() {
                ex.prefix = ex.prefix.plus(Counters::of(&*pair[1]).minus(base[m][1]));
            }
        }
    }
    ex.phase = phase_start.elapsed();
    for (m, pair) in engines.iter().enumerate() {
        for k in 0..2 {
            ex.delta[k] = ex.delta[k].plus(Counters::of(&*pair[k]).minus(base[m][k]));
        }
        let pauses = &pair[1].stats().pauses[base_pauses[m]..];
        ex.remark_work
            .extend(pauses.iter().map(|p| p.work_units() as f64));
    }
    ex
}

/// Differences between the classic (reference) and compiled engine of
/// one mimic, if any.
fn compare(pair: &Pair<'_>) -> Option<String> {
    let (a, b) = (Counters::of(&*pair[0]), Counters::of(&*pair[1]));
    if a != b {
        return Some(format!(
            "classic {} vs compiled {}",
            a.to_text(),
            b.to_text()
        ));
    }
    let (da, db) = (world_digest(pair[0].heap()), world_digest(pair[1].heap()));
    (da != db).then(|| format!("digest {da:016x} vs {db:016x}"))
}

/// Geometric mean over mimics of `f` applied to engine `k`'s pair.
fn gm(ex: &Exec, k: usize, f: impl Fn(&PairAcc) -> f64) -> f64 {
    geomean(&ex.pairs.iter().map(|p| f(&p[k])).collect::<Vec<_>>())
}

/// Runs the workload and builds its report.
pub fn report(seed: u64, budget: &Budget, phase: Phase) -> Report {
    let mut r = Report::default();
    let untouched = |_: &Programs, _: &mut Vec<ElidedBarriers>| {};
    let mut diff_ops = (0, 0);
    let ex = match phase {
        Phase::Measure => {
            let plan = Plan::timed(budget, if budget.quick { 1 } else { MIN_PASSES });
            let ex = execute(seed, &plan, &mut Tracer::new(false), &untouched);
            measure_metrics(&mut r, &ex);
            ex
        }
        Phase::Trace => {
            let plan = Plan::fixed(if budget.quick { 1 } else { TRACED_PASSES });
            let t = crate::traced_runs(budget.quick, |tracer| {
                let ex = execute(seed, &plan, tracer, &untouched);
                let wall = ex.phase;
                (ex, wall)
            });
            layer_metrics(&mut r, &t.exec, &t.tracer);
            let trials = if budget.quick { 1 } else { DIFF_TRIALS };
            let (text, calls, failed) = differential(&mut r.values, seed, trials);
            r.lines.push(text);
            diff_ops = (calls, failed);
            crate::finish_trace(&mut r, "batch-mimics", &t);
            t.exec
        }
    };
    let calls = (ex.attempted + diff_ops.0, ex.failed + diff_ops.1);
    r.count_ops(calls.0, calls.1, "calls");
    let p = ex.prefix;
    let note = format!(
        "{} of {} barrier executions in the first {} passes",
        p.elided, p.barrier_executions, ex.prefix_passes
    );
    r.show(
        "barriers_elided_pct",
        pct(p.elided, p.barrier_executions),
        "%",
        &note,
    );
    r.lines.extend(ex.pass1.iter().cloned());
    r.lines.extend(ex.notes.iter().cloned());
    r
}

fn measure_metrics(r: &mut Report, ex: &Exec) {
    let fast: Vec<[Fast; 2]> = ex
        .pairs
        .iter()
        .map(|p| [p[0].slices.fast(TAIL_P), p[1].slices.fast(TAIL_P)])
        .collect();
    let fast_gm = |k: usize, f: &dyn Fn(&Fast) -> f64| {
        geomean(&fast.iter().map(|p| f(&p[k])).collect::<Vec<_>>())
    };
    let both = |f: &dyn Fn(&Fast) -> f64| (fast_gm(0, f) * fast_gm(1, f)).sqrt();
    let least = |f: &dyn Fn(&Fast) -> usize| fast.iter().flatten().map(f).min().unwrap_or(0);
    let passes = ex
        .pairs
        .iter()
        .flatten()
        .map(|a| a.slices.len())
        .min()
        .unwrap_or(0);
    let over = format!(
        "geomean over 6 mimics x 2 engines, each over its fastest {} of {passes} passes ({} calls)",
        least(&|f| f.slices),
        least(&|f| f.samples)
    );
    let p_tail = fast
        .iter()
        .flatten()
        .map(|f| f.tail_p)
        .fold(TAIL_P, f64::min);
    let setups = format!("median of {} set-ups", ex.setup.len());
    r.metric("setup_s", median_secs(&ex.setup), "s", &setups);
    r.metric(
        "ops_per_s",
        both(&|f| f.rate),
        "1/s",
        &format!("entry-loop iterations per second, {over}"),
    );
    r.metric(
        "op_us.p50",
        both(&|f| f.p50),
        "us",
        &format!("per-iteration call time, {over}"),
    );
    let tail_note = format!("p{p_tail} per-iteration call time, {over}");
    r.metric("op_us.tail", both(&|f| f.tail), "us", &tail_note);
    let rss_note = format!("after the first {} passes", ex.prefix_passes);
    r.metric("peak_rss_mb", ex.rss_mb, "MB", &rss_note);
    for (k, name) in [(0, "iters_per_s.classic"), (1, "iters_per_s.compiled")] {
        r.show(
            name,
            fast_gm(k, &|f| f.rate),
            "1/s",
            "geomean over 6 mimics, fastest passes",
        );
    }
    let all = |a: &PairAcc| a.slices.overall_rate();
    r.show(
        "ops_per_s.all",
        (gm(ex, 0, all) * gm(ex, 1, all)).sqrt(),
        "1/s",
        &format!("the same over all {passes} passes, not just the fastest"),
    );
    for (m, (name, total)) in MIMICS.iter().enumerate() {
        r.lines.push(format!(
            "  {name:<8} {total:>6} iters/pass  classic {:>12.0}/s  compiled {:>12.0}/s  (fastest passes; all passes {:.0}/s and {:.0}/s)",
            fast[m][0].rate,
            fast[m][1].rate,
            all(&ex.pairs[m][0]),
            all(&ex.pairs[m][1]),
        ));
    }
}

fn layer_metrics(r: &mut Report, ex: &Exec, tracer: &Tracer) {
    let mut v = Vec::new();
    ex.facts.metrics(&mut v);
    ex.delta[1].metrics(&mut v);
    let ns = |k: usize| ex.pairs.iter().map(|p| p[k].run_ns).sum::<u128>() as f64;
    let iters: u64 = ex.pairs.iter().map(|p| p[1].iters).sum();
    v.push((
        "interp.insns_per_iter",
        ex.delta[1].insns as f64 / iters.max(1) as f64,
    ));
    v.push((
        "interp.ns_per_insn.classic",
        ns(0) / ex.delta[0].insns.max(1) as f64,
    ));
    v.push((
        "interp.ns_per_insn.compiled",
        ns(1) / ex.delta[1].insns.max(1) as f64,
    ));
    v.push(("heap.peak_live_objects", ex.peak_live as f64));
    let (share, cycle_p50, excess) = gc_call_metrics(tracer.spans(), "compiled");
    v.push(("gc.cycle_share_pct", share));
    v.push(("gc.cycle_call_us.p50", cycle_p50));
    v.push(("gc.cycle_excess_us", excess));
    let work = sorted(&ex.remark_work);
    v.push(("gc.pause_work.remark.p50", median(&work)));
    v.push((
        "gc.pause_work.remark.max",
        work.last().copied().unwrap_or(0.0),
    ));
    r.values = v;
}

/// The paper's Table 2 measured in wall time: every mimic on the
/// compiled engine under four barrier configurations, interleaved over
/// `trials` trials. Overheads are relative to no barrier at all; the
/// interval runs from the second smallest to the second largest trial
/// (for 9 trials a 96% interval for the median), and an interval that
/// includes zero is reported unresolved.
/// Returns the report text and the calls made and failed.
fn differential(
    values: &mut Vec<(&'static str, f64)>,
    seed: u64,
    trials: usize,
) -> (String, u64, u64) {
    type Config = fn(&ElidedBarriers) -> BarrierConfig;
    let programs = Programs::build(&mut Tracer::new(false), None);
    let configs: [(&str, Config); 4] = [
        ("none", |_| BarrierConfig::new(BarrierMode::None)),
        ("always-log", |_| BarrierConfig::new(BarrierMode::AlwaysLog)),
        ("always-log+elided", |e| {
            BarrierConfig::with_elision(BarrierMode::AlwaysLog, e.clone())
        }),
        ("checked+elided", |e| {
            BarrierConfig::with_elision(BarrierMode::Checked, e.clone())
        }),
    ];
    let mut rng = Rng::new(seed, 4);
    let chunks: Vec<Vec<i64>> = MIMICS
        .iter()
        .map(|(_, t)| rng.partition(*t * DIFF_PASSES, CALLS))
        .collect();
    let (mut calls, mut failed) = (0, 0);
    let mut wall = vec![[0.0; 4]; trials];
    for (trial, row) in wall.iter_mut().enumerate() {
        for step in 0..configs.len() {
            let c = (step + trial) % configs.len();
            for (m, w) in programs.workloads.iter().enumerate() {
                let job = &programs.jobs[m];
                let mut e = build_engine_with(
                    EngineKind::Compiled,
                    &job.compiled.program,
                    configs[c].1(&job.elided),
                );
                let mut ok = e.run(w.entry, &[Value::Int(1)], w.fuel_for(1)).is_ok();
                let t = Instant::now();
                for &n in &chunks[m] {
                    ok &= e.run(w.entry, &[Value::Int(n)], w.fuel_for(n)).is_ok();
                }
                row[c] += t.elapsed().as_secs_f64();
                calls += 1 + CALLS as u64;
                failed += u64::from(!ok);
            }
        }
    }
    let mut text = format!(
        "barrier differential (compiled engine, {trials} interleaved trials, overhead vs none):"
    );
    for (c, name, metric) in [
        (1, "always-log", "barrier.wall_overhead_pct.kept"),
        (2, "always-log+elided", "barrier.wall_overhead_pct.elided"),
        (3, "checked+elided", ""),
    ] {
        let o = sorted(
            &wall
                .iter()
                .map(|row| 100.0 * (row[c] / row[0] - 1.0))
                .collect::<Vec<_>>(),
        );
        // The 2nd smallest and 2nd largest of 9 trials bound the median
        // with 96% confidence; a single trial bounds nothing.
        let k = usize::from(o.len() > 2);
        let (lo, mid, hi) = (o[k], median(&o), o[o.len() - 1 - k]);
        let verdict = if lo <= 0.0 && hi >= 0.0 {
            "unresolved: interval includes 0"
        } else {
            "resolved"
        };
        text.push_str(&format!(
            "\n  {name:<18} {mid:+7.2} %  [{lo:+.2}, {hi:+.2}]  {verdict}"
        ));
        if !metric.is_empty() {
            values.push((metric, mid));
        }
    }
    (text, calls, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_interp::BarrierMode;

    /// Negative control: eliding one barrier at a site that never sees a
    /// null pre-value must trip the soundness oracle, and the trap must
    /// show as failed operations.
    #[test]
    fn unsound_elision_is_counted_as_failure() {
        let flip = |p: &Programs, sets: &mut Vec<ElidedBarriers>| {
            let db = MIMICS
                .iter()
                .position(|(n, _)| *n == "db")
                .expect("db is a mimic");
            let w = &p.workloads[db];
            let program = &p.jobs[db].compiled.program;
            // Profile with every barrier kept to find a never-pre-null site.
            let mut e = build_engine_with(
                EngineKind::Classic,
                program,
                BarrierConfig::new(BarrierMode::Checked),
            );
            e.run(w.entry, &[Value::Int(50)], w.fuel_for(50))
                .expect("profiling run");
            let (&(method, at, _), _) = e
                .stats()
                .barrier
                .iter()
                .find(|(_, s)| s.executions > 0 && s.pre_null == 0)
                .expect("db overwrites non-null slots");
            sets[db].insert(method, at);
        };
        let plan = Plan::fixed(1);
        let ex = execute(1, &plan, &mut Tracer::new(false), &flip);
        assert!(ex.failed > 0, "oracle trap not counted: {:?}", ex.notes);
        assert!(
            ex.notes.iter().any(|n| n.contains("UNSOUND ELISION")),
            "{:?}",
            ex.notes
        );
        let r = Report {
            attempted: ex.attempted,
            failed: ex.failed,
            ..Report::default()
        };
        assert!(r.failed_pct() > 0.0);
    }

    #[test]
    fn untouched_elision_runs_clean() {
        let ex = execute(1, &Plan::fixed(1), &mut Tracer::new(false), &|_, _| {});
        assert_eq!(ex.failed, 0, "{:?}", ex.notes);
        assert_eq!(ex.attempted, (MIMICS.len() * 2 * CALLS) as u64);
    }
}
