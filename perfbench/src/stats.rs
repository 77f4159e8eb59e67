//! Summary statistics: percentiles under the tail rule, geometric means,
//! and timings over the fastest slices of a run.

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank (1-based) of percentile `p` among `n` samples; the
/// epsilon keeps `p * n / 100` that is whole in exact arithmetic from
/// rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Percentiles the tail rule chooses among, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile with at least ten of `n` samples beyond it,
/// or `None` when even the median lacks ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// Geometric mean of positive values (0 for an empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Share of a run's slices, the fastest, that every timing is taken
/// over (more when the tail percentile needs more samples).
pub const FAST_SHARE: f64 = 0.03;

/// A measured run cut into slices of a few milliseconds of work each.
///
/// On a shared host the speed a thread gets moves between a fast and a
/// slow level many times a second, and the mix of the two moves from
/// run to run by more than any bound worth gating on. Every timing is
/// therefore taken over the run's fastest slices, pooled: the
/// [`FAST_SHARE`] with the highest throughput, or more where the tail
/// percentile needs more samples. That is the speed of the program when
/// the host interferes least, and a slower program is slower there too.
#[derive(Clone, Debug, Default)]
pub struct Slices {
    slices: Vec<Slice>,
}

#[derive(Clone, Debug)]
struct Slice {
    ops: f64,
    secs: f64,
    latencies_us: Vec<f32>,
}

/// Timings over the fastest slices of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fast {
    /// Operations per second over the pooled slices.
    pub rate: f64,
    /// Median latency (us) of their operations.
    pub p50: f64,
    /// Tail latency (us) at percentile `tail_p`.
    pub tail: f64,
    /// The tail percentile: the tail rule's, at most the one asked for.
    pub tail_p: f64,
    /// Slices pooled.
    pub slices: usize,
    /// Latency samples pooled.
    pub samples: usize,
}

impl Slices {
    /// Adds a slice: `ops` operations in `secs` seconds of wall time,
    /// and the latency (us) of each timed call in it.
    pub fn push(&mut self, ops: f64, secs: f64, latencies_us: &[f64]) {
        self.slices.push(Slice {
            ops,
            secs,
            latencies_us: latencies_us.iter().map(|&v| v as f32).collect(),
        });
    }

    /// Slices recorded.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Operations per second over every slice.
    pub fn overall_rate(&self) -> f64 {
        let ops: f64 = self.slices.iter().map(|s| s.ops).sum();
        let secs: f64 = self.slices.iter().map(|s| s.secs).sum();
        ops / secs.max(1e-12)
    }

    /// Timings over the slices with the highest throughput: the
    /// [`FAST_SHARE`] of them, or as many more as it takes to leave ten
    /// latency samples beyond percentile `max_tail_p` (or all of them).
    /// The tail is at `max_tail_p` or the highest percentile the pooled
    /// samples allow.
    pub fn fast(&self, max_tail_p: f64) -> Fast {
        let mut order: Vec<&Slice> = self.slices.iter().collect();
        order.sort_by(|a, b| (b.ops / b.secs).total_cmp(&(a.ops / a.secs)));
        let share = (order.len() as f64 * FAST_SHARE).ceil() as usize;
        let mut keep = 0;
        let mut samples = 0;
        while keep < order.len()
            && (keep < share.max(1) || !tail_percentile(samples).is_some_and(|p| p >= max_tail_p))
        {
            samples += order[keep].latencies_us.len();
            keep += 1;
        }
        let fast = &order[..keep];
        let ops: f64 = fast.iter().map(|s| s.ops).sum();
        let secs: f64 = fast.iter().map(|s| s.secs).sum();
        let lat = sorted(
            &fast
                .iter()
                .flat_map(|s| s.latencies_us.iter().map(|&v| f64::from(v)))
                .collect::<Vec<_>>(),
        );
        let tail_p = max_tail_p.min(tail_percentile(lat.len()).unwrap_or(50.0));
        Fast {
            rate: ops / secs.max(1e-12),
            p50: median(&lat),
            tail: percentile(&lat, tail_p),
            tail_p,
            slices: fast.len(),
            samples: lat.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn slices_pool_the_fastest_share() {
        let mut s = Slices::default();
        // A hundred slices of 10 operations; slice i takes i + 1 seconds
        // and its latencies are 1..=10 scaled by i + 1.
        for i in 0..100 {
            let k = f64::from(i + 1);
            let lat: Vec<f64> = (1..=10).map(|v| f64::from(v) * k).collect();
            s.push(10.0, k, &lat);
        }
        assert_eq!(s.len(), 100);
        // The fastest 3% are the slices taking 1, 2 and 3 s: 30 samples,
        // enough for the median with ten beyond.
        let f = s.fast(50.0);
        assert_eq!((f.slices, f.samples, f.tail_p), (3, 30, 50.0));
        assert!((f.rate - 30.0 / 6.0).abs() < 1e-9);
        // Their latencies 1..=10, 2..=20 and 3..=30: the 15th is 9.
        assert_eq!((f.p50, f.tail), (9.0, 9.0));
        // A 90th percentile needs 100 samples: ten slices.
        let f = s.fast(90.0);
        assert_eq!((f.slices, f.samples, f.tail_p), (10, 100, 90.0));
        // A 99.9th would need 10000: all slices, and the percentile
        // falls back to the 99th.
        let f = s.fast(99.9);
        assert_eq!((f.slices, f.samples, f.tail_p), (100, 1000, 99.0));
        assert!((s.overall_rate() - 1000.0 / 5050.0).abs() < 1e-9);
        assert_eq!(Slices::default().fast(99.0).samples, 0);
    }
}
