//! Percentiles, tail selection and failure accounting.

/// Percentiles the tail is chosen from, in thousandths, highest first.
const TAIL_LADDER: [u32; 4] = [990, 950, 900, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile an end-to-end tail reports. p99 hangs on the
/// handful of most expensive popular sources of a seed and on stalls of a
/// few milliseconds from outside the process, which move it from run to
/// run; p95 holds still. Workloads print p99 too, for people.
pub const TAIL: u32 = 950;

/// The highest percentile (in thousandths, at most `cap`) that has at
/// least [`MIN_BEYOND`] of `n` samples beyond it; the median when none has.
pub fn tail_permille(n: usize, cap: u32) -> u32 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n * (1000 - p as usize) / 1000 >= MIN_BEYOND)
        .unwrap_or(500)
}

/// A sorted sample of measurements.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `permille`/1000 quantile, interpolated linearly between the
    /// closest ranks; `0` for an empty sample.
    pub fn at(&self, permille: u32) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = permille as f64 / 1000.0 * (n - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos - pos.floor());
        let hi = (lo + 1).min(n - 1);
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn p50(&self) -> f64 {
        self.at(500)
    }

    pub fn p95(&self) -> f64 {
        self.at(950)
    }

    /// The tail percentile of [`tail_permille`] and its value.
    pub fn tail(&self, cap: u32) -> (u32, f64) {
        let p = tail_permille(self.len(), cap);
        (p, self.at(p))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// Consecutive windows a run's samples are split into by [`windowed`].
pub const WINDOWS: usize = 3;

/// A percentile of time-ordered samples that a slow stretch of the run
/// moves little: each of [`WINDOWS`] consecutive windows gets its own
/// percentile, and the median of those is reported. The percentile is the
/// [`tail_permille`] (at most `cap`) that every window has enough samples
/// for.
pub fn windowed(samples: &[f64], cap: u32) -> (u32, f64) {
    if samples.is_empty() {
        return (cap.min(500), 0.0);
    }
    let windows: Vec<&[f64]> = samples.chunks(samples.len().div_ceil(WINDOWS)).collect();
    let p = windows
        .iter()
        .map(|w| tail_permille(w.len(), cap))
        .min()
        .unwrap_or(500);
    let per_window: Vec<f64> = windows
        .iter()
        .map(|w| Dist::new(w.to_vec()).at(p))
        .collect();
    (p, median(&per_window))
}

/// The median of a few values (set-up repetitions and the like).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).p50()
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The program answered, but not with the expected answer.
    Wrong,
    /// The server shed or timed the request out (`503`/`504`).
    Refused,
    /// Any other failure: an I/O error, an unexpected status, an error
    /// returned by an engine call.
    Error,
}

/// Counts of outcomes over a run. Every operation that is not
/// [`Outcome::Ok`] counts as failed, and a refused one also counts as
/// missing every latency limit, so its latency is never sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    pub refused: u64,
    pub errors: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.errors
    }

    /// Failed over attempted; `0` when nothing was attempted.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_permille(1000, 990), 990);
        assert_eq!(tail_permille(999, 990), 950);
        assert_eq!(tail_permille(200, 990), 950);
        assert_eq!(tail_permille(199, 990), 900);
        assert_eq!(tail_permille(100, 990), 900);
        assert_eq!(tail_permille(99, 990), 500);
        assert_eq!(tail_permille(0, 990), 500);
        assert_eq!(tail_permille(100_000, 950), 950);
    }

    #[test]
    fn interpolated_quantiles() {
        let d = Dist::new((1..=101).rev().map(f64::from).collect());
        assert_eq!(d.p50(), 51.0);
        assert_eq!(d.at(990), 100.0);
        assert_eq!(d.at(1000), 101.0);
        assert_eq!(Dist::new(vec![1.0, 2.0]).p50(), 1.5);
        assert_eq!(Dist::default().p50(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let d = Dist::new((0..1000).map(f64::from).collect());
        assert_eq!(d.tail(990), (990, d.at(990)));
        assert_eq!(d.tail(950).0, 950);
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_slow_stretch() {
        // 3000 samples of 1..=1000 in order; the last third runs 5x slower.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000 + 1)).collect();
        for x in &mut v[2000..] {
            *x *= 5.0;
        }
        let pooled = Dist::new(v.clone());
        let (p, tail) = windowed(&v, 990);
        assert_eq!(p, 990);
        assert!((tail - 990.01).abs() < 1e-9, "{tail}");
        assert!(pooled.at(990) > 4000.0);
        assert_eq!(windowed(&v, 500).1, 500.5);
        // Windows of 100 samples cannot support p99 or p95.
        assert_eq!(windowed(&v[..300], 990).0, 900);
        assert_eq!(windowed(&[], 990), (500, 0.0));
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        for o in [Outcome::Ok, Outcome::Ok, Outcome::Wrong, Outcome::Refused] {
            t.record(o);
        }
        t.record(Outcome::Error);
        assert_eq!((t.attempted, t.failed()), (5, 3));
        assert_eq!((t.wrong, t.refused, t.errors), (1, 1, 1));
        assert_eq!(t.error_ratio(), 0.6);
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }
}
