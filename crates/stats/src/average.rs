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

    /// The raw accumulator state `(sum, count, min, max)` for
    /// checkpointing. The floats must be persisted bit-exactly (via
    /// `f64::to_bits`) so a restored accumulator renders byte-identical
    /// reports; this crate knows no snapshot format, so serialisation
    /// itself lives with the caller.
    pub fn to_parts(&self) -> (f64, u64, f64, f64) {
        (self.sum, self.count, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`to_parts`](Self::to_parts) output.
    pub fn from_parts(sum: f64, count: u64, min: f64, max: f64) -> Self {
        Self {
            sum,
            count,
            min,
            max,
        }
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

    #[test]
    fn reset_clears() {
        let mut a = Average::new();
        a.record(42.0);
        a.reset();
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
    }
}
