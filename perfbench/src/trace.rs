//! In-memory spans recorded by the benchmark around its calls into each
//! layer, the self-time sums built from them, and their NDJSON export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::run::Counters;
use crate::stats::{median, sorted};

/// What a span carries besides its interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Attrs {
    /// Program or service the span worked on.
    pub program: &'static str,
    /// Engine name for run spans.
    pub engine: &'static str,
    /// Entry-loop iterations for run spans.
    pub iters: i64,
    /// Counter deltas across the span (run spans only).
    pub delta: Option<Counters>,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name (`setup`, `compile`, `run.call`, ...).
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to (spans of one operation share it).
    pub op: u64,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Extra facts.
    pub attrs: Attrs,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
            attrs: Attrs::default(),
        });
        Some(self.spans.len() - 1)
    }

    /// Ends span `id` now and attaches `attrs`.
    pub fn close(&mut self, id: Option<usize>, attrs: Attrs) {
        if let Some(i) = id {
            let now = self.ns(Instant::now());
            let s = &mut self.spans[i];
            s.end_ns = now;
            s.attrs = attrs;
        }
    }

    /// Records a finished span with a known interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
        attrs: Attrs,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs,
        });
        Some(self.spans.len() - 1)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus the time its
/// children cover, summed by name (ns).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
    }
    out
}

/// The layer-sum table: per-layer self time of one traced run, the
/// remainder of its wall time `wall_ns` that no span covers, and the
/// tracing overhead: the fastest of `reps` traced runs against the
/// fastest of `reps` untraced runs of the same operations.
pub fn layer_table(
    workload: &str,
    spans: &[Span],
    wall_ns: u64,
    traced_ns: u64,
    untraced_ns: u64,
    reps: usize,
) -> String {
    let selfs = self_times(spans);
    let covered: u64 = selfs.values().sum();
    let ms = |ns: u64| ns as f64 / 1e6;
    let pct = |ns: u64| 100.0 * ns as f64 / wall_ns.max(1) as f64;
    let mut t = format!("layer-sum {workload}: self time per layer (traced run)\n");
    for (name, ns) in &selfs {
        let _ = writeln!(t, "  {name:<20} {:>12.3} ms {:>7.2} %", ms(*ns), pct(*ns));
    }
    let rest = wall_ns as i64 - covered as i64;
    let _ = writeln!(
        t,
        "  {:<20} {:>12.3} ms {:>7.2} %",
        "remainder",
        rest as f64 / 1e6,
        100.0 * rest as f64 / wall_ns.max(1) as f64
    );
    let _ = writeln!(t, "  {:<20} {:>12.3} ms", "= traced wall", ms(wall_ns));
    let over = traced_ns as i64 - untraced_ns as i64;
    let _ = write!(
        t,
        "  tracing overhead (fastest of {reps} runs each): traced {:.3} ms - untraced {:.3} ms = {:.3} ms ({:+.2} %)",
        ms(traced_ns),
        ms(untraced_ns),
        over as f64 / 1e6,
        100.0 * over as f64 / untraced_ns.max(1) as f64
    );
    t
}

/// GC facts read off run spans of `engine`: the share of calls that
/// completed a GC cycle (%), their median latency (us), and how much
/// longer they took than calls of the same program and size that
/// completed none (us; median difference per group, weighted by the
/// group's cycle calls; 0 when no group has both kinds).
pub fn gc_call_metrics(spans: &[Span], engine: &str) -> (f64, f64, f64) {
    type Group = (Vec<f64>, Vec<f64>);
    let mut groups: BTreeMap<(&str, i64), Group> = BTreeMap::new();
    let (mut calls, mut cycle_us) = (0u64, Vec::new());
    for s in spans {
        let Some(d) = &s.attrs.delta else { continue };
        if s.attrs.engine != engine {
            continue;
        }
        calls += 1;
        let us = s.dur_ns() as f64 / 1e3;
        let g = groups.entry((s.attrs.program, s.attrs.iters)).or_default();
        if d.gc_cycles > 0 {
            cycle_us.push(us);
            g.0.push(us);
        } else {
            g.1.push(us);
        }
    }
    let (mut excess, mut weight) = (0.0, 0usize);
    for (with, without) in groups.values() {
        if !with.is_empty() && !without.is_empty() {
            let diff = median(&sorted(with)) - median(&sorted(without));
            excess += diff * with.len() as f64;
            weight += with.len();
        }
    }
    (
        crate::run::pct(cycle_us.len() as u64, calls),
        median(&sorted(&cycle_us)),
        if weight == 0 {
            0.0
        } else {
            excess / weight as f64
        },
    )
}

/// One NDJSON line per span.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"dur_ns\":{}",
            s.name,
            s.op,
            s.start_ns,
            s.dur_ns()
        );
        let a = &s.attrs;
        if !a.program.is_empty() {
            let _ = write!(out, ",\"program\":\"{}\"", a.program);
        }
        if !a.engine.is_empty() {
            let _ = write!(out, ",\"engine\":\"{}\",\"iters\":{}", a.engine, a.iters);
        }
        if let Some(d) = &a.delta {
            let _ = write!(out, ",\"delta\":{}", d.to_json());
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns: start,
            end_ns: end,
            attrs: Attrs::default(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("compile", None, 0, 100),
            span("compile.inline", Some(0), 0, 10),
            span("compile.analysis", Some(0), 10, 80),
            span("compile.translate", Some(0), 80, 95),
        ];
        let s = self_times(&spans);
        assert_eq!(s["compile"], 5);
        assert_eq!(s.values().sum::<u64>(), 100);
        let table = layer_table("w", &spans, 120, 120, 110, 1);
        assert!(table.contains("remainder"), "{table}");
        assert!(table.contains("tracing overhead"), "{table}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("setup", None, 0);
        t.close(id, Attrs::default());
        assert!(id.is_none() && t.spans().is_empty());
    }
}
