//! Order statistics over host-time samples.

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Percentile rank of `value` (share of samples at or below, in %).
    pub pct: f64,
    pub samples: usize,
    /// `true` when there are too few samples for such a tail (≤ 20),
    /// so `value` is the median instead.
    pub median_only: bool,
}

pub fn tail(v: &[f64]) -> Tail {
    let n = v.len();
    if n <= 20 {
        return Tail {
            value: median(v),
            pct: 50.0,
            samples: n,
            median_only: true,
        };
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Tail {
        value: s[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
        median_only: false,
    }
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.pct, 80.0);
        assert!(tail(&v[..20]).median_only);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
