//! Order statistics over samples.

/// The `q`-quantile (`0..=1`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method)
/// gives them. Needs at least two samples; fewer give the one sample (or
/// 0) three times.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        // Python: j = i*(m+1)//4, delta = i*(m+1) - j*4, and
        // (data[j-1]*(4-delta) + data[j]*delta) / 4 with indices clamped
        // to the data.
        let j = i * (m + 1) / 4;
        let delta = (i * (m + 1) - j * 4) as f64;
        let below = v[j.saturating_sub(1).min(m - 1)];
        let above = v[j.min(m - 1)];
        *slot = (below * (4.0 - delta) + above * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert!(
            (quantile(&(1..=101).map(f64::from).collect::<Vec<_>>(), 0.99) - 100.0).abs() < 1e-9
        );
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }
}
