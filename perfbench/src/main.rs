//! The repository benchmark: three workloads, each measured end to end
//! and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-sweep|batch-mimics|serve-sessions \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `--manifest` prints `BENCHMARK.json` from the metric
//! catalogue. The traced run writes its spans to
//! `perfbench/out/<workload>-seed<N>.spans.ndjson`.

mod batch;
mod compile_sweep;
mod metrics;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Report, LAYER, WORKLOADS};
use trace::Tracer;

/// Seconds one measured run lasts (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 20;

/// How long and how thoroughly to run.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Measured wall time.
    pub seconds: f64,
    /// Shrinks every minimum and prefix to one round (tests only).
    pub quick: bool,
}

/// Which half of the benchmark to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// End-to-end metrics, tracing off.
    Measure,
    /// Per-layer metrics: an untraced and a traced run of the same
    /// operations.
    Trace,
}

/// How many rounds (sweeps, passes, requests) an execution makes and
/// how often it sets up.
#[derive(Clone, Debug)]
pub struct Plan {
    budget: Duration,
    /// Rounds every execution makes; counts over them repeat exactly.
    pub min_rounds: u64,
    max_rounds: u64,
    /// Set-ups to make; the last one is kept and measured.
    pub setup_reps: usize,
}

/// Set-ups a measured run makes; `setup_s` is their median.
const SETUP_REPS: usize = 41;

impl Plan {
    /// Runs for the budget, but at least `min_rounds` rounds.
    pub fn timed(b: &Budget, min_rounds: u64) -> Self {
        Plan {
            budget: Duration::from_secs_f64(b.seconds),
            min_rounds,
            max_rounds: u64::MAX,
            setup_reps: if b.quick { 2 } else { SETUP_REPS },
        }
    }

    /// Exactly `rounds` rounds after one set-up.
    pub fn fixed(rounds: u64) -> Self {
        Plan {
            budget: Duration::ZERO,
            min_rounds: rounds,
            max_rounds: rounds,
            setup_reps: 1,
        }
    }

    /// Whether another round should run.
    pub fn more(&self, done: u64, started: Instant) -> bool {
        done < self.max_rounds && (done < self.min_rounds || started.elapsed() < self.budget)
    }
}

/// Runs one workload.
pub fn run_workload(name: &str, seed: u64, budget: &Budget, phase: Phase) -> Option<Report> {
    Some(match name {
        "compile-sweep" => compile_sweep::report(seed, budget, phase),
        "batch-mimics" => batch::report(seed, budget, phase),
        "serve-sessions" => serve::report(seed, budget, phase),
        _ => return None,
    })
}

/// Untraced and traced executions the traced run alternates.
const TRACE_REPS: usize = 3;

/// What a traced run measured.
pub struct Traced<E> {
    /// The last traced execution.
    pub exec: E,
    /// Its spans.
    pub tracer: Tracer,
    /// Its wall time.
    pub wall: Duration,
    /// Fastest traced wall time.
    pub traced: Duration,
    /// Fastest untraced wall time.
    pub untraced: Duration,
    /// Executions made on each side.
    pub reps: usize,
}

/// Runs `exec` untraced then traced, [`TRACE_REPS`] times each (once
/// when `quick`); `exec` returns its result and its wall time.
pub fn traced_runs<E>(
    quick: bool,
    mut exec: impl FnMut(&mut Tracer) -> (E, Duration),
) -> Traced<E> {
    let reps = if quick { 1 } else { TRACE_REPS };
    let (mut traced, mut untraced) = (Duration::MAX, Duration::MAX);
    let mut last = None;
    for _ in 0..reps {
        untraced = untraced.min(exec(&mut Tracer::new(false)).1);
        let mut tracer = Tracer::new(true);
        let (e, wall) = exec(&mut tracer);
        traced = traced.min(wall);
        last = Some((e, tracer, wall));
    }
    let (exec, tracer, wall) = last.expect("at least one repetition");
    Traced {
        exec,
        tracer,
        wall,
        traced,
        untraced,
        reps,
    }
}

/// Completes a traced report: tracing overhead and remainder metrics,
/// the layer-sum table, every per-layer metric with the end-to-end
/// metric it should move, and the spans as NDJSON.
pub fn finish_trace<E>(r: &mut Report, workload: &str, t: &Traced<E>) {
    let spans = t.tracer.spans();
    let wall = t.wall.as_nanos() as u64;
    let covered: u64 = trace::self_times(spans).values().sum();
    r.values.push((
        "trace.overhead_pct",
        100.0 * (t.traced.as_secs_f64() / t.untraced.as_secs_f64().max(1e-12) - 1.0),
    ));
    r.values.push((
        "trace.remainder_pct",
        run::pct(wall.saturating_sub(covered), wall),
    ));
    r.lines.push(trace::layer_table(
        workload,
        spans,
        wall,
        t.traced.as_nanos() as u64,
        t.untraced.as_nanos() as u64,
        t.reps,
    ));
    for m in &LAYER {
        let (v, note) = match r.get(m.name) {
            Some(v) => (v, format!("moves {}", m.moves)),
            None => (0.0, "layer idle on this workload".to_string()),
        };
        r.show(m.name, v, m.unit, &note);
    }
    r.spans = Some(trace::to_ndjson(spans));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--manifest") {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let budget = Budget {
        seconds: args.seconds,
        quick: false,
    };
    let phase = if args.trace {
        Phase::Trace
    } else {
        Phase::Measure
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} threads=1 available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let Some(report) = run_workload(&args.workload, args.seed, &budget, phase) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    for l in &report.lines {
        println!("{l}");
    }
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.ndjson", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!(
                "spans: {} lines -> {}",
                spans.lines().count(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Budget {
        Budget {
            seconds: 0.05,
            quick: true,
        }
    }

    /// A minimal JSON reader, enough for `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => {
                    &kv.iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no key {key}"))
                        .1
                }
                _ => panic!("not an object"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }
    }

    fn parse(s: &str) -> Json {
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> Json {
            ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    let mut kv = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' {
                            *i += 1;
                            return Json::Obj(kv);
                        }
                        let Json::Str(k) = value(b, i) else {
                            panic!("key")
                        };
                        ws(b, i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        kv.push((k, value(b, i)));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    let mut a = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b']' {
                            *i += 1;
                            return Json::Arr(a);
                        }
                        a.push(value(b, i));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => {
                    let start = *i + 1;
                    *i = start;
                    while b[*i] != b'"' {
                        assert_ne!(b[*i], b'\\', "escapes unsupported");
                        *i += 1;
                    }
                    *i += 1;
                    Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8"))
                }
                b't' | b'f' | b'n' => {
                    let word: String = b[*i..]
                        .iter()
                        .take_while(|c| c.is_ascii_alphabetic())
                        .map(|&c| c as char)
                        .collect();
                    *i += word.len();
                    match word.as_str() {
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        "null" => Json::Null,
                        w => panic!("bad literal {w}"),
                    }
                }
                _ => {
                    let start = *i;
                    while *i < b.len()
                        && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    {
                        *i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&b[start..*i])
                            .expect("ascii")
                            .parse()
                            .expect("number"),
                    )
                }
            }
        }
        let mut i = 0;
        let v = value(s.as_bytes(), &mut i);
        ws(s.as_bytes(), &mut i);
        assert_eq!(i, s.len(), "trailing input");
        v
    }

    fn benchmark_json() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        assert_eq!(benchmark_json(), metrics::manifest(RUN_SECONDS));
    }

    #[test]
    fn every_catalogued_metric_is_printed_with_its_unit() {
        let manifest = parse(&benchmark_json());
        for w in manifest.get("workloads").arr() {
            let name = w.get("name").str();
            for (phase, section) in [(Phase::Measure, "end_to_end"), (Phase::Trace, "per_layer")] {
                let r = run_workload(name, 1, &quick(), phase).expect("catalogued workload");
                assert!(r.correct && r.failed == 0, "{name}: {:?}", r.lines);
                let result = parse(&r.result_json(phase == Phase::Trace));
                assert_eq!(result.get("correct"), &Json::Bool(true));
                let Json::Obj(got) = result.get("metrics") else {
                    panic!("metrics object")
                };
                let wanted = manifest.get(section).arr();
                assert_eq!(got.len(), wanted.len(), "{name} {section}");
                for m in wanted {
                    let (metric, unit) = (m.get("name").str(), m.get("unit").str());
                    let printed = r.lines.iter().any(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(metric) && words.nth(2) == Some(unit)
                    });
                    assert!(printed, "{name}: {metric} not printed with unit {unit}");
                    assert_eq!(result.get("metrics").get(metric).get("unit").str(), unit);
                }
            }
        }
    }

    #[test]
    fn workload_specific_metrics_are_printed() {
        let expect = [
            (
                "compile-sweep",
                &["compile_ms.p50", "compile_ms.p99", "failed_ops_pct"][..],
            ),
            (
                "batch-mimics",
                &[
                    "iters_per_s.classic",
                    "iters_per_s.compiled",
                    "barriers_elided_pct",
                    "failed_ops_pct",
                ][..],
            ),
            (
                "serve-sessions",
                &[
                    "req_per_s",
                    "req_us.p50",
                    "req_us.p99",
                    "barriers_elided_pct",
                    "failed_ops_pct",
                ][..],
            ),
        ];
        for (w, names) in expect {
            let r = run_workload(w, 2, &quick(), Phase::Measure).expect("workload");
            for n in names {
                assert!(
                    r.lines
                        .iter()
                        .any(|l| l.split_whitespace().next() == Some(n)),
                    "{w}: {n} missing"
                );
            }
            assert_eq!(r.failed_pct(), 0.0, "{w}: {:?}", r.lines);
        }
    }

    fn op_sequence(workload: &str, seed: u64) -> Vec<(&'static str, &'static str, i64)> {
        let r = run_workload(workload, seed, &quick(), Phase::Trace).expect("workload");
        let spans = r.spans.expect("traced run keeps spans");
        let mut seq = Vec::new();
        for line in spans.lines().filter(|l| {
            l.contains("\"name\":\"run.call\"") || l.contains("\"name\":\"serve.request\"")
        }) {
            let j = parse(line);
            let program = batch::MIMICS
                .iter()
                .map(|(n, _)| *n)
                .chain(serve::SERVICES)
                .find(|n| j.get("program").str() == *n)
                .expect("known program");
            let engine = if j.get("engine").str() == "classic" {
                "classic"
            } else {
                "compiled"
            };
            let Json::Num(iters) = j.get("iters") else {
                panic!("iters")
            };
            seq.push((program, engine, *iters as i64));
        }
        seq
    }

    #[test]
    fn the_seed_fixes_the_operation_sequence() {
        for w in ["batch-mimics", "serve-sessions"] {
            let a = op_sequence(w, 11);
            assert!(!a.is_empty());
            assert_eq!(
                a,
                op_sequence(w, 11),
                "{w}: same seed, different operations"
            );
            assert_ne!(
                a,
                op_sequence(w, 12),
                "{w}: different seeds, same operations"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "batch-mimics",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("batch-mimics", 3, 2.0, true)
        );
        assert!(args(&["--seed", "3"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus"]).is_err());
        assert!(run_workload("x", 1, &quick(), Phase::Measure).is_none());
    }
}
