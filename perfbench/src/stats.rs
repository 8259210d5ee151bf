//! Order statistics over latency samples.
//!
//! Quantiles use the nearest-rank rule on the sorted samples, so every
//! reported value is one that was actually measured.

/// The sorted copy of `samples` (total order, NaN-free input assumed).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`), or `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// The median (nearest-rank), or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The tail latency of a sample set: the highest percentile that still
/// has at least `beyond` samples strictly above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to, in `[0, 100)`.
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `samples` under the rule "highest percentile with at least
/// `beyond` samples beyond it": with `n` sorted samples that is the sample
/// at 1-based rank `n - beyond`, i.e. percentile `100·(n - beyond)/n`.
/// `None` when there are not more than `beyond` samples.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    let n = samples.len();
    if n <= beyond {
        return None;
    }
    let s = sorted(samples);
    let rank = n - beyond;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.01), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        // Rank 90 of 100: samples 91..=100 (ten of them) lie beyond it.
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_moves_up_as_samples_grow() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.value, 1.0, "only the minimum has ten samples beyond it");
    }
}
