//! `serve-sessions`: a closed loop of one client sending requests to the
//! `server` and `server-churn` services on the compiled engine.
//!
//! Each request is one entry call of 1-8 iterations; the seed draws the
//! service and the size. After the measured loop the same request
//! stream is replayed on the classic engine (the reference interpreter)
//! and the two must agree on every block of requests, on the final
//! counters and on the world digests.

use std::time::{Duration, Instant};

use wbe_heap::debug::world_digest;
use wbe_interp::{Engine, EngineKind, Value};
use wbe_workloads::Workload;

use crate::metrics::Report;
use crate::rng::Rng;
use crate::run::{
    build_engine, compile_job, headline, median_secs, pct, peak_rss_mb, CompileFacts, CompileJob,
    Counters, Fnv,
};
use crate::stats::{median, sorted, Slices};
use crate::trace::{gc_call_metrics, Attrs, Tracer};
use crate::{Budget, Phase, Plan};

/// The services.
pub const SERVICES: [&str; 2] = ["server", "server-churn"];
/// Largest request size (entry-loop iterations).
const MAX_SIZE: u64 = 8;
/// Requests compared as one unit by the replay check.
const BLOCK: u64 = 4096;
/// Requests per slice (some 15 ms); a measured run makes about a
/// thousand, so its fastest tenth pools over 10^5 requests.
const SLICE: usize = 1 << 10;
const TAIL_P: f64 = 99.0;
/// Requests every measured run makes; counts and peak RSS are read
/// after them, so they repeat exactly for a seed.
const MIN_REQUESTS: u64 = 1 << 16;
/// Requests of the traced run (and of its untraced twin).
const TRACED_REQUESTS: u64 = 50_000;

/// One request of the seeded stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into [`SERVICES`].
    pub service: usize,
    /// Entry-loop iterations.
    pub size: i64,
}

/// The request stream for `seed`.
pub fn requests(seed: u64) -> impl Iterator<Item = Request> {
    let mut rng = Rng::new(seed, 3);
    std::iter::from_fn(move || {
        let service = rng.below(SERVICES.len() as u64) as usize;
        let size = rng.range(1, MAX_SIZE) as i64;
        Some(Request { service, size })
    })
}

struct Services {
    workloads: Vec<Workload>,
    jobs: Vec<CompileJob>,
}

impl Services {
    fn build(tracer: &mut Tracer, parent: Option<usize>) -> Self {
        let workloads: Vec<Workload> = SERVICES
            .iter()
            .map(|n| wbe_workloads::by_name(n).expect("known workload"))
            .collect();
        let jobs = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| compile_job(&w.program, &headline(), tracer, parent, i as u64))
            .collect();
        Services { workloads, jobs }
    }

    /// One warmed-up engine of `kind` per service.
    fn engines(&self, kind: EngineKind) -> Result<Vec<Box<dyn Engine + '_>>, String> {
        let mut out = Vec::new();
        for (w, job) in self.workloads.iter().zip(&self.jobs) {
            let mut e = build_engine(kind, &job.compiled.program, &job.elided);
            e.run(w.entry, &[Value::Int(1)], w.fuel_for(1))
                .map_err(|t| format!("warm-up of {} on {} trapped: {t}", w.name, e.name()))?;
            out.push(e);
        }
        Ok(out)
    }
}

/// Counters and world digest of each service's engine.
type Snapshot = Vec<(Counters, u64)>;

fn snapshot(engines: &[Box<dyn Engine + '_>]) -> Snapshot {
    engines
        .iter()
        .map(|e| (Counters::of(&**e), world_digest(e.heap())))
        .collect()
}

/// Sends requests of the stream to `engines` while `more` allows,
/// returning per-block fingerprints and a snapshot taken after
/// `checkpoint` requests; `each` sees every request's index, latency
/// and outcome.
fn drive(
    engines: &mut [Box<dyn Engine + '_>],
    workloads: &[Workload],
    seed: u64,
    mut more: impl FnMut(u64) -> bool,
    mut each: impl FnMut(u64, Request, Instant, Instant, &dyn Engine, Option<Counters>, bool),
    tracing: bool,
    checkpoint: u64,
) -> (Vec<u64>, Option<Snapshot>) {
    let mut at_checkpoint = None;
    let mut blocks = Vec::new();
    let mut h = Fnv::default();
    let mut n = 0;
    let mut stream = requests(seed);
    while more(n) {
        let req = stream.next().expect("endless stream");
        let w = &workloads[req.service];
        let e = &mut engines[req.service];
        let before = tracing.then(|| Counters::of(&**e));
        let t0 = Instant::now();
        let ok = e
            .run(w.entry, &[Value::Int(req.size)], w.fuel_for(req.size))
            .is_ok();
        let t1 = Instant::now();
        h.add(req.service as u64);
        h.add(e.stats().insns);
        n += 1;
        if n % BLOCK == 0 {
            blocks.push(h.0);
            h = Fnv::default();
        }
        each(n - 1, req, t0, t1, &**e, before, ok);
        if n == checkpoint {
            at_checkpoint = Some(snapshot(engines));
        }
    }
    if n % BLOCK != 0 {
        blocks.push(h.0);
    }
    (blocks, at_checkpoint)
}

struct Exec {
    setup: Vec<Duration>,
    slices: Slices,
    rss_mb: f64,
    loop_time: Duration,
    phase: Duration,
    requests: u64,
    iters: u64,
    failed: u64,
    notes: Vec<String>,
    delta: Counters,
    classic_insns: u64,
    classic_ns: u128,
    served_ns: u128,
    peak_live: u64,
    remark_work: Vec<f64>,
    facts: CompileFacts,
    counts: Vec<String>,
    /// Counts over the first `checkpoint` requests.
    prefix: Counters,
    checkpoint: u64,
}

fn execute(seed: u64, plan: &Plan, tracer: &mut Tracer) -> Exec {
    let phase_start = Instant::now();
    let mut setup = Vec::new();
    for _ in 1..plan.setup_reps {
        let t = Instant::now();
        let s = Services::build(&mut Tracer::new(false), None);
        drop(s.engines(EngineKind::Compiled));
        setup.push(t.elapsed());
    }
    let t = Instant::now();
    let span = tracer.open("setup", None, 0);
    let services = Services::build(tracer, span);
    let built = services.engines(EngineKind::Compiled);
    tracer.close(span, Attrs::default());
    setup.push(t.elapsed());
    let mut ex = Exec {
        setup,
        slices: Slices::default(),
        rss_mb: 0.0,
        loop_time: Duration::ZERO,
        phase: Duration::ZERO,
        requests: 0,
        iters: 0,
        failed: 0,
        notes: Vec::new(),
        delta: Counters::default(),
        classic_insns: 0,
        classic_ns: 0,
        served_ns: 0,
        peak_live: 0,
        remark_work: Vec::new(),
        facts: CompileFacts::default(),
        counts: Vec::new(),
        prefix: Counters::default(),
        checkpoint: plan.min_rounds,
    };
    for j in &services.jobs {
        ex.facts.add(j);
    }
    let mut engines = match built {
        Ok(e) => e,
        Err(e) => {
            ex.requests = 1;
            ex.failed = 1;
            ex.notes.push(format!("FAILED {e}"));
            return ex;
        }
    };
    let base: Vec<Counters> = engines.iter().map(|e| Counters::of(&**e)).collect();
    let base_pauses: Vec<usize> = engines.iter().map(|e| e.stats().pauses.len()).collect();

    let tracing = tracer.enabled();
    let loop_start = Instant::now();
    let checkpoint = plan.min_rounds;
    let mut slice: (Option<Instant>, Vec<f64>) = (None, Vec::with_capacity(SLICE));
    let (blocks, early) = drive(
        &mut engines,
        &services.workloads,
        seed,
        |n| plan.more(n, loop_start),
        |i, req, t0, t1, e, before, ok| {
            let ns = (t1 - t0).as_nanos();
            let start = *slice.0.get_or_insert(t0);
            slice.1.push(ns as f64 / 1e3);
            if slice.1.len() == SLICE {
                let secs = (t1 - start).as_secs_f64();
                ex.slices.push(SLICE as f64, secs, &slice.1);
                slice = (Some(t1), Vec::with_capacity(SLICE));
            }
            ex.requests += 1;
            if ex.requests == checkpoint {
                ex.rss_mb = peak_rss_mb();
            }
            ex.served_ns += ns;
            ex.iters += req.size as u64;
            if !ok {
                ex.failed += 1;
                if ex.notes.len() < 8 {
                    ex.notes.push(format!(
                        "FAILED request {i} to {} trapped",
                        SERVICES[req.service]
                    ));
                }
            }
            if tracing {
                ex.peak_live = ex.peak_live.max(e.heap().store.live_count() as u64);
                let attrs = Attrs {
                    program: SERVICES[req.service],
                    engine: e.name(),
                    iters: req.size,
                    delta: before.map(|b| Counters::of(e).minus(b)),
                };
                tracer.record("serve.request", None, i, t0, t1, attrs);
            }
        },
        tracing,
        checkpoint,
    );
    ex.loop_time = loop_start.elapsed();
    ex.phase = phase_start.elapsed();
    for (s, e) in engines.iter().enumerate() {
        ex.delta = ex.delta.plus(Counters::of(&**e).minus(base[s]));
        ex.remark_work.extend(
            e.stats().pauses[base_pauses[s]..]
                .iter()
                .map(|p| p.work_units() as f64),
        );
    }
    let early = early.unwrap_or_default();
    for (s, (c, digest)) in early.iter().enumerate() {
        ex.prefix = ex.prefix.plus(c.minus(base[s]));
        ex.counts.push(format!(
            "  counts {} after the first {checkpoint} requests: {} digest={digest:016x}",
            SERVICES[s],
            c.minus(base[s]).to_text(),
        ));
    }
    replay(
        &mut ex, &services, &engines, &blocks, &early, seed, checkpoint,
    );
    ex
}

/// Replays the stream on the classic engine and compares it block by
/// block, then by final counters and world digest.
fn replay(
    ex: &mut Exec,
    services: &Services,
    served: &[Box<dyn Engine + '_>],
    blocks: &[u64],
    early: &Snapshot,
    seed: u64,
    checkpoint: u64,
) {
    let mut classic = match services.engines(EngineKind::Classic) {
        Ok(e) => e,
        Err(e) => {
            ex.failed = ex.requests;
            ex.notes.push(format!("FAILED replay: {e}"));
            return;
        }
    };
    let base: Vec<u64> = classic.iter().map(|e| e.stats().insns).collect();
    let total = ex.requests;
    let t = Instant::now();
    let (replayed, classic_early) = drive(
        &mut classic,
        &services.workloads,
        seed,
        |n| n < total,
        |_, _, _, _, _, _, _| {},
        false,
        checkpoint,
    );
    ex.classic_ns = t.elapsed().as_nanos();
    ex.classic_insns = classic
        .iter()
        .zip(&base)
        .map(|(e, b)| e.stats().insns - b)
        .sum();
    let mut bad = 0;
    if classic_early.as_ref() != Some(early) && !early.is_empty() {
        bad = checkpoint;
        ex.notes.push(format!(
            "FAILED: engines disagree after the first {checkpoint} requests"
        ));
    }
    for (b, (x, y)) in blocks.iter().zip(&replayed).enumerate() {
        if x != y {
            bad += BLOCK.min(total - b as u64 * BLOCK);
            if ex.notes.len() < 8 {
                ex.notes
                    .push(format!("FAILED: engines disagree on request block {b}"));
            }
        }
    }
    for (s, (c, e)) in classic.iter().zip(served).enumerate() {
        let (a, b) = (Counters::of(&**c), Counters::of(&**e));
        let (da, db) = (world_digest(c.heap()), world_digest(e.heap()));
        if a != b || da != db {
            bad = total;
            ex.notes.push(format!(
                "FAILED {}: classic {} digest={da:016x} vs compiled {} digest={db:016x}",
                SERVICES[s],
                a.to_text(),
                b.to_text()
            ));
        }
    }
    ex.failed = ex.failed.max(bad);
}

/// Runs the workload and builds its report.
pub fn report(seed: u64, budget: &Budget, phase: Phase) -> Report {
    let mut r = Report::default();
    let ex = match phase {
        Phase::Measure => {
            let plan = Plan::timed(budget, if budget.quick { 1 } else { MIN_REQUESTS });
            let ex = execute(seed, &plan, &mut Tracer::new(false));
            let f = ex.slices.fast(TAIL_P);
            let over = format!(
                "fastest {} of {} slices of {SLICE} requests ({} requests); {} requests in all",
                f.slices,
                ex.slices.len(),
                f.samples,
                ex.requests
            );
            let tail_note = format!("p{}, {over}", f.tail_p);
            let setups = format!("median of {} set-ups", ex.setup.len());
            r.metric("setup_s", median_secs(&ex.setup), "s", &setups);
            let rate_note = format!("requests per second, closed loop, one client, {over}");
            r.metric("ops_per_s", f.rate, "1/s", &rate_note);
            r.metric("op_us.p50", f.p50, "us", &over);
            r.metric("op_us.tail", f.tail, "us", &tail_note);
            let rss_note = format!("after the first {MIN_REQUESTS} requests");
            r.metric("peak_rss_mb", ex.rss_mb, "MB", &rss_note);
            r.show("req_per_s", f.rate, "1/s", &over);
            r.show("req_us.p50", f.p50, "us", &over);
            r.show("req_us.p99", f.tail, "us", &tail_note);
            r.show(
                "ops_per_s.all",
                ex.slices.overall_rate(),
                "1/s",
                &format!("over all {} slices, not just the fastest", ex.slices.len()),
            );
            ex
        }
        Phase::Trace => {
            let n = if budget.quick { 200 } else { TRACED_REQUESTS };
            let t = crate::traced_runs(budget.quick, |tracer| {
                let ex = execute(seed, &Plan::fixed(n), tracer);
                let wall = ex.phase;
                (ex, wall)
            });
            let traced = &t.exec;
            let mut v = Vec::new();
            traced.facts.metrics(&mut v);
            traced.delta.metrics(&mut v);
            v.push((
                "interp.insns_per_iter",
                traced.delta.insns as f64 / traced.iters.max(1) as f64,
            ));
            v.push((
                "interp.ns_per_insn.classic",
                traced.classic_ns as f64 / traced.classic_insns.max(1) as f64,
            ));
            v.push((
                "interp.ns_per_insn.compiled",
                traced.served_ns as f64 / traced.delta.insns.max(1) as f64,
            ));
            v.push(("heap.peak_live_objects", traced.peak_live as f64));
            let (share, cycle_p50, excess) = gc_call_metrics(t.tracer.spans(), "compiled");
            v.push(("gc.cycle_share_pct", share));
            v.push(("gc.cycle_call_us.p50", cycle_p50));
            v.push(("gc.cycle_excess_us", excess));
            let work = sorted(&traced.remark_work);
            v.push(("gc.pause_work.remark.p50", median(&work)));
            v.push((
                "gc.pause_work.remark.max",
                work.last().copied().unwrap_or(0.0),
            ));
            r.values = v;
            crate::finish_trace(&mut r, "serve-sessions", &t);
            t.exec
        }
    };
    r.count_ops(ex.requests, ex.failed, "requests");
    let p = ex.prefix;
    let note = format!(
        "{} of {} barrier executions in the first {} requests",
        p.elided, p.barrier_executions, ex.checkpoint
    );
    r.show(
        "barriers_elided_pct",
        pct(p.elided, p.barrier_executions),
        "%",
        &note,
    );
    r.lines.extend(ex.counts.iter().cloned());
    r.lines.extend(ex.notes.iter().cloned());
    r
}
