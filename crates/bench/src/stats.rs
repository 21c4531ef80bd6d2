//! Small statistics helpers for the evaluation harness.
//!
//! The paper reports "the median of 30 successful tests to avoid a mean
//! skewed by a single high or low value" (§4.3); [`summarize`] implements
//! exactly that methodology over a set of seeded trials.

use std::time::Duration;

/// Summary of a set of trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Number of successful trials.
    pub trials: usize,
    /// Median (the paper's headline statistic).
    pub median: Duration,
    /// Minimum observed.
    pub min: Duration,
    /// Maximum observed.
    pub max: Duration,
}

impl Summary {
    /// Median in fractional milliseconds, as the paper's tables print it.
    pub fn median_ms(&self) -> f64 {
        self.median.as_secs_f64() * 1e3
    }
}

/// Computes the median of a slice. An even-length input yields its
/// lower middle element, not an interpolation, so the median is always
/// a value that was actually measured.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &mut [Duration]) -> Duration {
    assert!(!samples.is_empty(), "median of empty sample set");
    samples.sort();
    samples[(samples.len() - 1) / 2]
}

/// Runs `trial` for each seed, collects successful durations, and
/// summarizes. Failed trials (`None`) are excluded, mirroring the paper's
/// "30 *successful* tests".
pub fn summarize<F: FnMut(u64) -> Option<Duration>>(
    seeds: std::ops::Range<u64>,
    mut trial: F,
) -> Summary {
    let mut samples: Vec<Duration> = seeds.filter_map(&mut trial).collect();
    assert!(!samples.is_empty(), "no successful trials");
    let min = *samples.iter().min().expect("nonempty");
    let max = *samples.iter().max().expect("nonempty");
    let med = median(&mut samples);
    Summary { trials: samples.len(), median: med, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_set() {
        let mut v =
            vec![Duration::from_millis(3), Duration::from_millis(1), Duration::from_millis(2)];
        assert_eq!(median(&mut v), Duration::from_millis(2));
    }

    #[test]
    fn median_resists_outliers() {
        let mut v =
            vec![Duration::from_millis(1), Duration::from_millis(1), Duration::from_secs(100)];
        assert_eq!(median(&mut v), Duration::from_millis(1));
    }

    #[test]
    fn summarize_skips_failures() {
        let s = summarize(0..10, |seed| {
            if seed % 2 == 0 {
                Some(Duration::from_millis(seed + 1))
            } else {
                None
            }
        });
        assert_eq!(s.trials, 5);
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.max, Duration::from_millis(9));
        assert_eq!(s.median, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "no successful trials")]
    fn summarize_panics_with_no_successes() {
        summarize(0..3, |_| None);
    }
}
