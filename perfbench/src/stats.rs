//! Percentiles and failure accounting.

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples lying strictly beyond the nearest-rank `p`-th percentile of
/// `n` samples: `n − ⌈p·n/100⌉`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100)
}

/// The nearest-rank `p`-th percentile of ascending `sorted` samples
/// (the smallest sample with at least `p`% of samples at or below it),
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it, so
/// that no reported tail rests on a handful of samples. The median of a
/// sample is always reported.
pub fn percentile(sorted: &[u64], p: u32) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!((1..=100).contains(&p));
    let n = sorted.len();
    if n == 0 || (p > 50 && beyond(n, p) < MIN_BEYOND) {
        return None;
    }
    let rank = (n * p as usize).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// The median of unsorted values (mean of the middle two for even
/// counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ops per segment for the p50, p90 and throughput (twenty samples lie
/// beyond a segment's p90), and for the p99 (ten lie beyond its p99).
pub const SEGMENT: usize = 200;
pub const TAIL_SEGMENT: usize = 1000;

/// The timed round trips of one op kind, in completion order.
///
/// A run's figures are medians over consecutive segments of the timed
/// window: the p50, p90 and throughput over segments of [`SEGMENT`]
/// ops, the p99 over segments of [`TAIL_SEGMENT`] ops (one segment when
/// the run has fewer than two). A stall that hits one segment then moves
/// the run's figure no more than any other single segment does.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// `(completed at, round trip)` in nanoseconds, the completion time
    /// relative to the start of the timed window.
    samples: Vec<(u64, u64)>,
}

impl Timings {
    pub fn push(&mut self, end_ns: u64, ns: u64) {
        self.samples.push((end_ns, ns));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ordered(&self) -> Vec<(u64, u64)> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }

    /// Consecutive segments of at least `len` samples (the remainder
    /// joins the last one).
    fn segments(&self, len: usize) -> Vec<Vec<(u64, u64)>> {
        let v = self.ordered();
        let k = (v.len() / len).max(1);
        let per = v.len() / k;
        (0..k)
            .map(|i| {
                let end = if i + 1 == k { v.len() } else { (i + 1) * per };
                v[i * per..end].to_vec()
            })
            .collect()
    }

    fn segment_median(
        &self,
        len: usize,
        f: impl Fn(&[(u64, u64)], u64) -> Option<f64>,
    ) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut start = 0;
        let mut vals = Vec::new();
        for seg in self.segments(len) {
            let end = seg.last().map_or(start, |s| s.0);
            vals.push(f(&seg, end.saturating_sub(start))?);
            start = end;
        }
        Some(median(&vals))
    }

    fn pct_ms(seg: &[(u64, u64)], p: u32) -> Option<f64> {
        let mut v: Vec<u64> = seg.iter().map(|s| s.1).collect();
        v.sort_unstable();
        percentile(&v, p).map(|x| x as f64 / 1e6)
    }

    pub fn p50_ms(&self) -> Option<f64> {
        self.segment_median(SEGMENT, |seg, _| Self::pct_ms(seg, 50))
    }

    pub fn p90_ms(&self) -> Option<f64> {
        self.segment_median(SEGMENT, |seg, _| Self::pct_ms(seg, 90))
    }

    /// `None` when fewer than [`TAIL_SEGMENT`] samples were timed.
    pub fn p99_ms(&self) -> Option<f64> {
        self.segment_median(TAIL_SEGMENT, |seg, _| Self::pct_ms(seg, 99))
    }

    /// Completed ops per second.
    pub fn per_s(&self) -> Option<f64> {
        self.segment_median(SEGMENT, |seg, span_ns| {
            (span_ns > 0).then(|| seg.len() as f64 / (span_ns as f64 / 1e9))
        })
    }
}

/// Why an op counts against `failed_frac`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The client call returned an error (I/O, protocol or a typed
    /// server error).
    Error,
    /// The answer came back interrupted or capped.
    Interrupted,
    /// The answer or receipt differs from the expected one.
    Wrong,
}

/// Ops attempted and failed, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub interrupted: u64,
    pub wrong: u64,
}

impl Tally {
    /// Counts one attempted op and its outcome.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.fail(f);
        }
    }

    /// Counts a failure found after the op was attempted (a
    /// post-window check of work already counted as attempted).
    pub fn fail(&mut self, f: Failure) {
        match f {
            Failure::Error => self.errors += 1,
            Failure::Interrupted => self.interrupted += 1,
            Failure::Wrong => self.wrong += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.interrupted + self.wrong
    }

    /// (errors + interrupted or capped answers + wrong answers) / ops
    /// attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.interrupted += other.interrupted;
        self.wrong += other.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50), Some(500));
        assert_eq!(percentile(&v, 99), Some(990));
        assert_eq!(percentile(&[7], 50), Some(7));
        assert_eq!(percentile(&[3, 9], 50), Some(3));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        let v: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&v, 99), None, "only 9 samples beyond");
        let v: Vec<u64> = (0..1000).collect();
        let p = percentile(&v, 99).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
        // The median needs no tail.
        assert_eq!(percentile(&v[..5], 50), Some(2));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Ok(()));
        t.record(Err(Failure::Error));
        t.record(Err(Failure::Interrupted));
        assert_eq!((t.attempted, t.failed()), (4, 2));
        assert_eq!(t.failed_frac(), 0.5);
        // A wrong answer found after the window adds a failure, not an
        // attempt.
        t.fail(Failure::Wrong);
        assert_eq!((t.attempted, t.failed()), (4, 3));
        assert_eq!(t.wrong, 1);
        let mut u = Tally::default();
        u.merge(&t);
        assert_eq!(u, t);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn segment_medians_shrug_off_one_stalled_segment() {
        let mut t = Timings::default();
        // 3000 ops, one per millisecond, 1 ms each, except a stall of
        // 50 ms round trips in the second 1000.
        for i in 0..3000u64 {
            let ns = if (1000..2000).contains(&i) {
                50_000_000
            } else {
                1_000_000
            };
            t.push((i + 1) * 1_000_000, ns);
        }
        assert_eq!(t.p99_ms(), Some(1.0));
        assert_eq!(t.p90_ms(), Some(1.0));
        assert_eq!(t.p50_ms(), Some(1.0));
        let per_s = t.per_s().unwrap();
        assert!((per_s - 1000.0).abs() < 1e-6, "{per_s}");
        assert_eq!(t.len(), 3000);
    }

    #[test]
    fn p99_needs_a_full_tail_segment() {
        let mut t = Timings::default();
        for i in 0..999u64 {
            t.push(i + 1, 5);
        }
        assert_eq!(t.p99_ms(), None);
        assert!(t.p50_ms().is_some());
        t.push(1000, 5);
        assert!(t.p99_ms().is_some());
        assert_eq!(Timings::default().p50_ms(), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
