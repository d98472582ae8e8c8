//! Box-plot and summary statistics over delay samples.

/// Summary statistics describing one box-and-whisker plot (the format of the
/// paper's Figures 2/3 and the Figure 7 tables).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub sd: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lowest sample ≥ `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest sample ≤ `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Percentage of samples outside the whiskers.
    pub outlier_pct: f64,
}

impl BoxStats {
    /// Computes the statistics from raw samples. Empty input yields zeros.
    pub fn from_samples(samples: &[u64]) -> BoxStats {
        if samples.is_empty() {
            return BoxStats {
                count: 0,
                mean: 0.0,
                sd: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                whisker_lo: 0.0,
                whisker_hi: 0.0,
                outlier_pct: 0.0,
            };
        }
        let mut sorted: Vec<u64> = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let mean = sorted.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let variance = sorted
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        let sd = variance.sqrt();

        let pct = |p: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        };
        let q1 = pct(0.25);
        let median = pct(0.5);
        let q3 = pct(0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .map(|&x| x as f64)
            .find(|&x| x >= lo_fence)
            .unwrap_or(q1);
        let whisker_hi = sorted
            .iter()
            .rev()
            .map(|&x| x as f64)
            .find(|&x| x <= hi_fence)
            .unwrap_or(q3);
        let outliers = sorted
            .iter()
            .map(|&x| x as f64)
            .filter(|&x| x < lo_fence || x > hi_fence)
            .count();
        let outlier_pct = 100.0 * outliers as f64 / n as f64;

        BoxStats {
            count: n,
            mean,
            sd,
            q1,
            median,
            q3,
            whisker_lo,
            whisker_hi,
            outlier_pct,
        }
    }
}

/// Formats nanoseconds compactly (`1.24µs`, `3.5ms`, …).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Formats a duration adaptively: seconds ≥ 0.1 s, milliseconds below.
pub fn fmt_dur(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 0.1 {
        format!("{s:.3}s")
    } else {
        format!("{:.3}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_distribution() {
        let s = BoxStats::from_samples(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(s.count, 9);
        assert!((s.median - 5.0).abs() < 1e-9);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert!((s.q1 - 3.0).abs() < 1e-9);
        assert!((s.q3 - 7.0).abs() < 1e-9);
        assert_eq!(s.outlier_pct, 0.0);
        assert_eq!(s.whisker_lo, 1.0);
        assert_eq!(s.whisker_hi, 9.0);
    }

    #[test]
    fn detects_outliers() {
        let mut samples = vec![10u64; 100];
        samples.push(10_000); // far outside the fences
        let s = BoxStats::from_samples(&samples);
        assert!(s.outlier_pct > 0.0);
        assert_eq!(s.whisker_hi, 10.0);
    }

    #[test]
    fn empty_and_singleton() {
        let e = BoxStats::from_samples(&[]);
        assert_eq!(e.count, 0);
        let s = BoxStats::from_samples(&[42]);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.sd, 0.0);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.50µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }
}
