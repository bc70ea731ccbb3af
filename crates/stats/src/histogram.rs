use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// A fixed-range linear histogram of `u64` samples with under/overflow
/// buckets, used for latency distributions (paper Figures 6 and 7).
///
/// The range `[min, max)` is split into `buckets` equal-width bins. Samples
/// below `min` land in the underflow bucket, samples at or above `max` in the
/// overflow bucket. Mean and standard deviation are computed from the exact
/// samples (not bucket midpoints).
///
/// # Example
/// ```
/// use dramctrl_stats::Histogram;
///
/// let mut h = Histogram::new(0, 100, 10); // 10 ns-wide buckets over [0, 100)
/// h.record(5);
/// h.record(15);
/// h.record(15);
/// h.record(250); // overflow
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bucket_count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: u64,
    max: u64,
    width: u64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    sum: f64,
    sum_sq: f64,
    count: u64,
    sample_min: u64,
    sample_max: u64,
}

impl Histogram {
    /// Creates a histogram over `[min, max)` with `buckets` equal bins.
    ///
    /// # Panics
    /// Panics if `max <= min`, `buckets == 0`, or the range does not divide
    /// evenly into `buckets` bins.
    pub fn new(min: u64, max: u64, buckets: usize) -> Self {
        assert!(max > min, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        let range = max - min;
        assert!(
            range % buckets as u64 == 0,
            "range {range} must divide evenly into {buckets} buckets"
        );
        Self {
            min,
            max,
            width: range / buckets as u64,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            sum: 0.0,
            sum_sq: 0.0,
            count: 0,
            sample_min: u64::MAX,
            sample_max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if v < self.min {
            self.underflow += 1;
        } else if v >= self.max {
            self.overflow += 1;
        } else {
            let idx = ((v - self.min) / self.width) as usize;
            self.buckets[idx] += 1;
        }
        self.sum += v as f64;
        self.sum_sq += (v as f64) * (v as f64);
        self.count += 1;
        self.sample_min = self.sample_min.min(v);
        self.sample_max = self.sample_max.max(v);
    }

    /// Total number of recorded samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples in bucket `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets[idx]
    }

    /// The `[lo, hi)` value range of bucket `idx`.
    pub fn bucket_range(&self, idx: usize) -> (u64, u64) {
        let lo = self.min + idx as u64 * self.width;
        (lo, lo + self.width)
    }

    /// Number of buckets (excluding under/overflow).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Samples below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Exact mean of all samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact population standard deviation; 0.0 when empty.
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sum_sq / n) - (self.sum / n).powi(2);
        var.max(0.0).sqrt()
    }

    /// Smallest sample, or `None` when empty.
    pub fn sample_min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.sample_min)
    }

    /// Largest sample, or `None` when empty.
    pub fn sample_max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.sample_max)
    }

    /// Approximate p-quantile (0.0..=1.0) from bucket boundaries: returns
    /// the upper edge of the bucket in which the quantile falls. Under- and
    /// overflow samples are counted at the range edges.
    ///
    /// Returns `None` when the histogram is empty.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.min);
        }
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_range(idx).1);
            }
        }
        Some(self.max)
    }

    /// Iterates over `(bucket_low, bucket_high, count)` for all buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bucket_range(i).0, self.bucket_range(i).1, c))
    }

    /// Counts the local maxima of the bucketed distribution after collapsing
    /// runs of equal counts; used by tests to detect the bimodal read-latency
    /// distribution of paper Figure 7. Empty buckets separate modes.
    pub fn modes(&self) -> usize {
        // Split into contiguous non-zero segments (gaps separate modes) and
        // count rising-to-falling direction changes within each segment.
        let mut peaks = 0;
        let mut rising = false;
        let mut prev = 0u64;
        for &c in &self.buckets {
            if c == 0 {
                if rising {
                    // The segment ended while still climbing (or on a
                    // plateau): its summit is a peak.
                    peaks += 1;
                }
                rising = false;
                prev = 0;
                continue;
            }
            if c < prev && rising {
                peaks += 1;
                rising = false;
            } else if c > prev {
                rising = true;
            }
            prev = c;
        }
        if rising {
            peaks += 1;
        }
        peaks
    }

    /// Folds another histogram with the identical bucket configuration
    /// into this one (e.g. to combine per-channel latency distributions).
    ///
    /// # Panics
    /// Panics if the configurations differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.min == other.min && self.max == other.max && self.width == other.width,
            "cannot merge histograms with different bucket configurations"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.count += other.count;
        self.sample_min = self.sample_min.min(other.sample_min);
        self.sample_max = self.sample_max.max(other.sample_max);
    }

    /// Discards all samples, keeping the bucket configuration.
    pub fn reset(&mut self) {
        let (min, max, n) = (self.min, self.max, self.buckets.len());
        *self = Self::new(min, max, n);
    }
}

/// The geometry (`min`, `max`, bucket count), every bucket, the
/// under/overflow counts, the exact sums (bit-exact), the sample count
/// and the sample extremes.
impl SnapState for Histogram {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.min);
        w.u64(self.max);
        w.usize(self.buckets.len());
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.underflow);
        w.u64(self.overflow);
        w.f64(self.sum);
        w.f64(self.sum_sq);
        w.u64(self.count);
        w.u64(self.sample_min);
        w.u64(self.sample_max);
    }

    /// Refuses a geometry other than this histogram's own before reading
    /// any bucket: restored into another range, every percentile's bucket
    /// edges would move.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let (min, max, n) = (r.u64()?, r.u64()?, r.usize()?);
        if (min, max, n) != (self.min, self.max, self.buckets.len()) {
            return Err(SnapError::Corrupt(format!(
                "histogram over [{min}, {max}) in {n} buckets, expected [{}, {}) in {}",
                self.min,
                self.max,
                self.buckets.len()
            )));
        }
        for b in &mut self.buckets {
            *b = r.u64()?;
        }
        self.underflow = r.u64()?;
        self.overflow = r.u64()?;
        self.sum = r.f64()?;
        self.sum_sq = r.f64()?;
        self.count = r.u64()?;
        self.sample_min = r.u64()?;
        self.sample_max = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal seeded LCG (Knuth MMIX constants) so the randomised tests
    /// run deterministically.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % bound
        }
    }

    #[test]
    fn buckets_partition_range() {
        let h = Histogram::new(100, 200, 4);
        assert_eq!(h.bucket_range(0), (100, 125));
        assert_eq!(h.bucket_range(3), (175, 200));
    }

    #[test]
    fn boundary_values_bucket_correctly() {
        let mut h = Histogram::new(0, 100, 10);
        h.record(0); // first bucket
        h.record(9); // first bucket
        h.record(10); // second bucket
        h.record(99); // last bucket
        h.record(100); // overflow
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(9), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 0);
    }

    #[test]
    fn mean_and_stddev_are_exact() {
        let mut h = Histogram::new(0, 1000, 10);
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.mean(), 5.0);
        assert!((h.stddev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(0, 100, 100);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert!(h.quantile(0.01).unwrap() <= 2);
        assert_eq!(Histogram::new(0, 10, 10).quantile(0.5), None);
    }

    #[test]
    fn unimodal_and_bimodal_detection() {
        let mut uni = Histogram::new(0, 100, 10);
        for v in [41u64, 42, 45, 44, 43, 55, 52] {
            uni.record(v);
        }
        assert_eq!(uni.modes(), 1);

        let mut bi = Histogram::new(0, 100, 10);
        for v in [11u64, 12, 13, 12, 81, 82, 83, 82] {
            bi.record(v);
        }
        assert_eq!(bi.modes(), 2);
    }

    #[test]
    fn modes_of_empty_is_zero() {
        assert_eq!(Histogram::new(0, 10, 10).modes(), 0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new(0, 100, 10);
        let mut b = Histogram::new(0, 100, 10);
        for v in [5u64, 15, 200] {
            a.record(v);
        }
        for v in [15u64, 95] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.bucket_count(1), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.sample_min(), Some(5));
        assert_eq!(a.sample_max(), Some(200));
        // Mean over all five samples.
        assert!((a.mean() - 66.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different bucket configurations")]
    fn merge_rejects_mismatched_buckets() {
        let mut a = Histogram::new(0, 100, 10);
        let b = Histogram::new(0, 200, 10);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "must divide evenly")]
    fn uneven_range_panics() {
        let _ = Histogram::new(0, 10, 3);
    }

    /// Every sample lands in exactly one bucket (or under/overflow).
    #[test]
    fn counts_conserved() {
        let mut rng = Lcg(0xB157_0001);
        for _ in 0..256 {
            let samples: Vec<u64> = (0..rng.next(500)).map(|_| rng.next(2_000)).collect();
            let mut h = Histogram::new(100, 1_100, 20);
            for &s in &samples {
                h.record(s);
            }
            let bucketed: u64 = (0..h.num_buckets()).map(|i| h.bucket_count(i)).sum();
            assert_eq!(
                bucketed + h.underflow() + h.overflow(),
                samples.len() as u64
            );
            assert_eq!(h.count(), samples.len() as u64);
        }
    }

    fn snapshot(h: &Histogram) -> Vec<u8> {
        let mut w = SnapWriter::new(0);
        h.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(into: &mut Histogram, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes, 0)?;
        into.restore_state(&mut r)?;
        assert!(r.is_exhausted());
        Ok(())
    }

    /// save/restore is the identity, including on empty histograms.
    #[test]
    fn snapshot_round_trip() {
        let mut h = Histogram::new(100, 1_100, 20);
        for v in [50u64, 100, 555, 2_000] {
            h.record(v);
        }
        let mut back = Histogram::new(100, 1_100, 20);
        restore(&mut back, &snapshot(&h)).unwrap();
        assert_eq!(back, h);
        let empty = Histogram::new(0, 10, 10);
        let mut back = Histogram::new(0, 10, 10);
        back.record(3);
        restore(&mut back, &snapshot(&empty)).unwrap();
        assert_eq!(back, empty);
    }

    /// A snapshot of another geometry is refused, whichever of min, max
    /// or bucket count differs, and the target is left as it was.
    #[test]
    fn restore_refuses_a_foreign_geometry() {
        let mut h = Histogram::new(100, 1_100, 20);
        h.record(555);
        let bytes = snapshot(&h);
        for (min, max, n) in [(0, 1_100, 22), (100, 2_100, 20), (100, 1_100, 10)] {
            let mut other = Histogram::new(min, max, n);
            let before = other.clone();
            let err = restore(&mut other, &bytes).unwrap_err();
            assert!(err.to_string().contains("expected"), "{err}");
            assert_eq!(other, before);
        }
    }

    /// The quantile function is monotonically non-decreasing in p.
    #[test]
    fn quantile_monotone() {
        let mut rng = Lcg(0x9_0417);
        for _ in 0..256 {
            let samples: Vec<u64> = (0..1 + rng.next(199)).map(|_| rng.next(1_000)).collect();
            let mut h = Histogram::new(0, 1_000, 50);
            for &s in &samples {
                h.record(s);
            }
            let qs: Vec<_> = (0..=10)
                .map(|i| h.quantile(i as f64 / 10.0).unwrap())
                .collect();
            assert!(qs.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
