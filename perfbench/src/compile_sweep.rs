//! `compile-sweep`: the paper's Figure 2 grid as compile jobs.
//!
//! Eight programs (the six Table 1 mimics plus `server` and
//! `server-churn`) x modes F/A x inline limits {0, 25, 50, 100, 200}.
//! Each job is `wbe_opt::compile` plus `translate` of every method; the
//! seed sets the job order of every sweep. Only whole sweeps run, so the
//! job mix, and with it every count, is the same in every run.

use std::time::{Duration, Instant};

use wbe_opt::{OptMode, PipelineConfig};
use wbe_workloads::Workload;

use crate::metrics::Report;
use crate::rng::Rng;
use crate::run::{compile_job, median_secs, peak_rss_mb, CompileFacts, CompileJob};
use crate::stats::Slices;
use crate::trace::{Attrs, Tracer};
use crate::{Budget, Phase, Plan};

/// The swept programs.
pub const PROGRAMS: [&str; 8] = [
    "jess",
    "db",
    "javac",
    "mtrt",
    "jack",
    "jbb",
    "server",
    "server-churn",
];
const MODES: [OptMode; 2] = [OptMode::FieldOnly, OptMode::Full];
const LIMITS: [usize; 5] = [0, 25, 50, 100, 200];
const JOBS_PER_SWEEP: usize = PROGRAMS.len() * MODES.len() * LIMITS.len();
/// Tail percentile reported as `op_us.tail`.
const TAIL_P: f64 = 99.0;
/// Sweeps a measured run makes at least; peak RSS is read after them.
const MIN_SWEEPS: u64 = 13;
/// Sweeps of the traced run (and of its untraced twin).
const TRACED_SWEEPS: u64 = 16;

#[derive(Clone, Copy)]
struct JobSpec {
    program: usize,
    mode: OptMode,
    limit: usize,
}

/// What identifies a job's output; every sweep must reproduce it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Fingerprint {
    ir_insns: u64,
    cells: u64,
    elided: usize,
    elided_hash: u64,
}

fn fingerprint(job: &CompileJob) -> Fingerprint {
    let mut h = crate::run::Fnv::default();
    for (m, at) in job.compiled.elided_sites() {
        h.add(u64::from(m.0));
        h.add(u64::from(at.block.0));
        h.add(at.index as u64);
    }
    Fingerprint {
        ir_insns: crate::run::ir_insns(&job.compiled.program),
        cells: job.cells,
        elided: job.elided.len(),
        elided_hash: h.0,
    }
}

/// Output of one execution of the workload.
struct Exec {
    setup: Vec<Duration>,
    /// One slice per sweep: its jobs, their compile time and latencies.
    slices: Slices,
    facts: CompileFacts,
    phase: Duration,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    sweep_totals: Fingerprint,
    rss_mb: f64,
}

fn setup(tracer: &mut Tracer) -> Vec<Workload> {
    let span = tracer.open("setup", None, 0);
    let programs: Vec<Workload> = PROGRAMS
        .iter()
        .map(|n| wbe_workloads::by_name(n).expect("known workload"))
        .collect();
    // Warm-up: one headline job per program.
    for w in &programs {
        compile_job(&w.program, &crate::run::headline(), tracer, span, 0);
    }
    tracer.close(span, Attrs::default());
    programs
}

fn execute(seed: u64, plan: &Plan, tracer: &mut Tracer) -> Exec {
    let phase_start = Instant::now();
    let mut setup_times = Vec::new();
    for _ in 1..plan.setup_reps {
        let t = Instant::now();
        drop(setup(&mut Tracer::new(false)));
        setup_times.push(t.elapsed());
    }
    let t = Instant::now();
    let programs = setup(tracer);
    setup_times.push(t.elapsed());

    let mut specs = Vec::with_capacity(JOBS_PER_SWEEP);
    for program in 0..PROGRAMS.len() {
        for mode in MODES {
            for limit in LIMITS {
                specs.push(JobSpec {
                    program,
                    mode,
                    limit,
                });
            }
        }
    }
    let mut rng = Rng::new(seed, 1);
    let mut expected: Vec<Option<Fingerprint>> = vec![None; specs.len()];
    let mut ex = Exec {
        setup: setup_times,
        slices: Slices::default(),
        facts: CompileFacts::default(),
        phase: Duration::ZERO,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        sweep_totals: Fingerprint {
            ir_insns: 0,
            cells: 0,
            elided: 0,
            elided_hash: 0,
        },
        rss_mb: 0.0,
    };
    let loop_start = Instant::now();
    let mut sweeps = 0;
    while plan.more(sweeps, loop_start) {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let mut latencies_us = Vec::with_capacity(JOBS_PER_SWEEP);
        for &j in &order {
            let spec = specs[j];
            let w = &programs[spec.program];
            let config = PipelineConfig::new(spec.mode, spec.limit);
            let job = compile_job(&w.program, &config, tracer, None, ex.attempted);
            ex.attempted += 1;
            latencies_us.push(job.total.as_secs_f64() * 1e6);
            ex.facts.add(&job);
            let check = tracer.open("check", None, ex.attempted - 1);
            if let Some(problem) = check_job(&job, &mut expected[j]) {
                ex.failed += 1;
                if ex.notes.len() < 8 {
                    ex.notes.push(format!(
                        "FAILED job {} {} limit {}: {problem}",
                        w.name,
                        spec.mode.label(),
                        spec.limit
                    ));
                }
            }
            tracer.close(check, Attrs::default());
        }
        let compile_s = latencies_us.iter().sum::<f64>() / 1e6;
        ex.slices
            .push(JOBS_PER_SWEEP as f64, compile_s, &latencies_us);
        sweeps += 1;
        if sweeps == plan.min_rounds {
            ex.rss_mb = peak_rss_mb();
        }
    }
    ex.phase = phase_start.elapsed();
    for fp in expected.iter().flatten() {
        let t = &mut ex.sweep_totals;
        t.ir_insns += fp.ir_insns;
        t.cells += fp.cells;
        t.elided += fp.elided;
        t.elided_hash ^= fp.elided_hash;
    }
    ex
}

/// Checks one job's output. The first time a job runs, the inlined
/// program must pass the IR validator and type checker; every later run
/// must reproduce its fingerprint. A degraded analysis is a failure.
fn check_job(job: &CompileJob, expected: &mut Option<Fingerprint>) -> Option<String> {
    if let Some(a) = &job.compiled.analysis {
        if a.degraded_count() > 0 {
            return Some(format!("{} methods degraded", a.degraded_count()));
        }
    }
    let fp = fingerprint(job);
    match expected {
        Some(e) if *e != fp => Some(format!("output {fp:?} differs from {e:?}")),
        Some(_) => None,
        None => {
            let p = &job.compiled.program;
            if let Err(e) = p.validate() {
                return Some(format!("invalid program: {e}"));
            }
            if let Err(e) = wbe_ir::type_check_program(p) {
                return Some(format!("ill-typed program: {e:?}"));
            }
            *expected = Some(fp);
            None
        }
    }
}

/// Runs the workload and builds its report.
pub fn report(seed: u64, budget: &Budget, phase: Phase) -> Report {
    let mut r = Report::default();
    match phase {
        Phase::Measure => {
            let plan = Plan::timed(budget, if budget.quick { 1 } else { MIN_SWEEPS });
            let ex = execute(seed, &plan, &mut Tracer::new(false));
            let f = ex.slices.fast(TAIL_P);
            let jobs = format!(
                "{} compile jobs of the fastest {} of {} sweeps",
                f.samples,
                f.slices,
                ex.slices.len()
            );
            let tail_note = format!("p{} of {jobs}", f.tail_p);
            let setups = format!("median of {} set-ups", ex.setup.len());
            r.metric("setup_s", median_secs(&ex.setup), "s", &setups);
            r.metric(
                "ops_per_s",
                f.rate,
                "1/s",
                &format!("compile jobs per second of compile time, {jobs}"),
            );
            r.metric("op_us.p50", f.p50, "us", &jobs);
            r.metric("op_us.tail", f.tail, "us", &tail_note);
            let rss_note = format!("after the first {} sweeps", plan.min_rounds);
            r.metric("peak_rss_mb", ex.rss_mb, "MB", &rss_note);
            r.show("compile_ms.p50", f.p50 / 1e3, "ms", &jobs);
            r.show("compile_ms.p99", f.tail / 1e3, "ms", &tail_note);
            r.show(
                "ops_per_s.all",
                ex.slices.overall_rate(),
                "1/s",
                &format!(
                    "the same over all {} sweeps, not just the fastest",
                    ex.slices.len()
                ),
            );
            push_common(&mut r, &ex);
        }
        Phase::Trace => {
            let plan = Plan::fixed(if budget.quick { 1 } else { TRACED_SWEEPS });
            let t = crate::traced_runs(budget.quick, |tracer| {
                let ex = execute(seed, &plan, tracer);
                let wall = ex.phase;
                (ex, wall)
            });
            let mut v = Vec::new();
            t.exec.facts.metrics(&mut v);
            r.values = v;
            crate::finish_trace(&mut r, "compile-sweep", &t);
            push_common(&mut r, &t.exec);
        }
    }
    r
}

fn push_common(r: &mut Report, ex: &Exec) {
    r.count_ops(ex.attempted, ex.failed, "compile jobs");
    let t = ex.sweep_totals;
    r.lines.push(format!(
        "  counts per sweep ({JOBS_PER_SWEEP} jobs): ir_insns={} cells={} elided_sites={} elided_hash={:016x}",
        t.ir_insns, t.cells, t.elided, t.elided_hash
    ));
    r.lines.extend(ex.notes.iter().cloned());
}
