//! Order statistics over latency samples.
//!
//! Percentiles are exact nearest-rank values of the sorted samples, never
//! histogram bucket edges, and every one carries its sample count. A tail
//! percentile is only reported when enough samples lie beyond it to make it
//! more than the single slowest call (see [`MIN_BEYOND`]).

/// Samples that must lie strictly beyond a reported `p99`.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the value was taken from.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place); `None` when
/// there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = samples[rank - 1];
    let beyond = n - samples.partition_point(|&x| x <= value);
    Some(Quantile { value, n, beyond })
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_beyond_count() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let p99 = quantile(&mut v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert_eq!(median(&mut v), 500.0);
        assert!(quantile(&mut [], 0.5).is_none());
    }
}
