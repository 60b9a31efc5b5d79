//! Order statistics over latency samples. A failed operation is a sample
//! at +∞: it misses every latency limit, so it can only push a percentile
//! up, never hide in an average.

/// Percentiles a tail may be reported at, highest first. The ladder tops
/// out at p99: a run's sample count is fixed, and beyond p99 the estimate
/// rests on the host's rarest stalls.
const TAIL_LADDER: [f64; 5] = [99.0, 98.0, 97.0, 95.0, 90.0];

/// Samples a reported tail must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` when
/// there are none. `f64::INFINITY` entries (failures) sort last.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile for `n` samples: the highest percentile on the
/// ladder with at least [`TAIL_MIN_BEYOND`] samples beyond it, and never
/// below p90 (with fewer than 100 samples p90 is reported regardless).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| beyond(n, *p) >= TAIL_MIN_BEYOND)
        .unwrap_or(90.0)
}

/// The tail of a run that host stalls cannot dominate: the samples, in
/// execution order, are cut into consecutive slices of `slice_len`, each
/// slice's tail is taken at [`tail_percentile`] of `slice_len`, and the
/// median of those tails is returned with the percentile used. Samples
/// after the last whole slice are left out; fewer than `slice_len`
/// samples form one slice. A stall confined to fewer than half the
/// slices moves the result little.
pub fn sliced_tail(samples: &[f64], slice_len: usize) -> Option<(f64, f64)> {
    let len = slice_len.clamp(1, samples.len().max(1));
    let p = tail_percentile(len);
    let tails: Vec<f64> = samples
        .chunks_exact(len)
        .map(|c| percentile(c, p).expect("slice is not empty"))
        .collect();
    Some((median(&tails)?, p))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// 1-based rank of the nearest-rank percentile `p` of `n` samples. The
/// small epsilon keeps `0.999 * 10000` from rounding up past 9990.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// `(q1, median, q3)` with Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so the spread this prints matches the one computed
/// from the same values in Python.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = |j: f64| {
        // Python: m = n + 1; position j*m/4 (1-based), interpolated.
        let pos = j * (n + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((q(1.0), q(2.0), q(3.0)))
}

/// Middle value (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(50), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(333), 95.0);
        assert_eq!(tail_percentile(334), 97.0);
        assert_eq!(tail_percentile(500), 98.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.0);
        for n in 100..5000 {
            assert!(beyond(n, tail_percentile(n)) >= TAIL_MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn failures_count_as_infinity() {
        let mut s: Vec<f64> = (1..=9).map(f64::from).collect();
        s.push(f64::INFINITY);
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 95.0), Some(f64::INFINITY));
        // Six failures out of ten move the median to +inf.
        let s = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .copied()
            .chain([f64::INFINITY; 6]);
        assert_eq!(
            percentile(&s.collect::<Vec<_>>(), 50.0),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn sliced_tail_ignores_one_stalled_slice() {
        // Five slices of 100; the third is stalled throughout.
        let mut s: Vec<f64> = (0..500).map(|i| f64::from(i % 100 + 1)).collect();
        for v in &mut s[200..300] {
            *v *= 10.0;
        }
        assert_eq!(sliced_tail(&s, 100), Some((90.0, 90.0)));
        assert_eq!(percentile(&s, 90.0), Some(500.0));
        // Samples after the last whole slice are left out.
        s.extend([1e9; 3]);
        assert_eq!(sliced_tail(&s, 100), Some((90.0, 90.0)));
        // Fewer samples than a slice form one slice.
        assert_eq!(sliced_tail(&s[..50], 100), Some((45.0, 90.0)));
        assert_eq!(sliced_tail(&[], 100), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
