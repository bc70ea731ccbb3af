use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// Streaming mean/min/max of a series of samples.
///
/// # Example
/// ```
/// use dramctrl_stats::Average;
///
/// let mut a = Average::new();
/// a.record(1.0);
/// a.record(3.0);
/// assert_eq!(a.mean(), 2.0);
/// assert_eq!(a.min(), Some(1.0));
/// assert_eq!(a.max(), Some(3.0));
/// assert_eq!(a.count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Average {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Average {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The arithmetic mean; 0.0 when no samples have been recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// The largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Discards all samples.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Average) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// `sum`, `count`, `min`, `max`, the floats bit-exact, so a restored
/// accumulator renders byte-identical reports.
impl SnapState for Average {
    fn save_state(&self, w: &mut SnapWriter) {
        w.f64(self.sum);
        w.u64(self.count);
        w.f64(self.min);
        w.f64(self.max);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sum = r.f64()?;
        self.count = r.u64()?;
        self.min = r.f64()?;
        self.max = r.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_average_is_zero() {
        let a = Average::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
    }

    #[test]
    fn merge_combines() {
        let mut a = Average::new();
        a.record(1.0);
        let mut b = Average::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(3.0));
    }

    /// A restored accumulator is bit-identical, empty ones included.
    #[test]
    fn snapshot_round_trip() {
        let mut a = Average::new();
        a.record(0.1);
        a.record(-7.25);
        for a in [a, Average::new()] {
            let mut w = SnapWriter::new(0);
            a.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut back = Average::new();
            back.record(1.0);
            let mut r = SnapReader::new(&bytes, 0).unwrap();
            back.restore_state(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(back, a);
        }
    }

    #[test]
    fn reset_clears() {
        let mut a = Average::new();
        a.record(42.0);
        a.reset();
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
    }
}
