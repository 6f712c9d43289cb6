//! Metric arithmetic: order statistics, geomeans, the Fig. 4 error and the
//! pool's tail. Everything here is pure so the unit tests below pin it.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Paper Fig. 4 geomean speedups of PRO over TL, LRR and GTO.
pub const PAPER_FIG4: [(&str, f64); 3] = [("TL", 1.13), ("LRR", 1.12), ("GTO", 1.02)];

/// Median of `xs` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) of `xs` by linear interpolation between
/// closest ranks, or `None` when fewer than [`MIN_TAIL_SAMPLES`] samples
/// lie beyond it, so no tail is ever reported from a handful of values.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let beyond = xs.len() as f64 * (1.0 - p / 100.0);
    if xs.is_empty() || beyond + 1e-9 < MIN_TAIL_SAMPLES as f64 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Geometric mean of positive values; zero for an empty input.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Geomean over kernels of `cycles_base / cycles_pro`, from
/// `(base_cycles, pro_cycles)` pairs.
pub fn speedup_geomean(pairs: &[(u64, u64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(b, p)| b as f64 / p as f64).collect();
    geomean(&ratios)
}

/// Mean absolute distance between measured PRO-vs-base geomeans (in
/// [`PAPER_FIG4`] order: TL, LRR, GTO) and the paper's Fig. 4 values.
pub fn fig4_err(measured: [f64; 3]) -> f64 {
    measured
        .iter()
        .zip(PAPER_FIG4)
        .map(|(m, (_, paper))| (m - paper).abs())
        .sum::<f64>()
        / 3.0
}

/// How long the last-finishing interval ran with no other interval
/// running: `end − max(start, latest other end)`. Intervals are
/// `(start, end)` on one clock; zero for fewer than one interval.
pub fn tail_alone(intervals: &[(u64, u64)]) -> u64 {
    let Some(last) = (0..intervals.len()).max_by_key(|&i| (intervals[i].1, i)) else {
        return 0;
    };
    let (start, end) = intervals[last];
    let others_end = intervals
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != last)
        .map(|(_, iv)| iv.1)
        .max()
        .unwrap_or(0);
    end - start.max(others_end).min(end)
}

/// `num / den`, or zero when `den` is zero.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p80_needs_ten_samples_beyond() {
        // 50 samples leave exactly 10 beyond p80; 49 leave 9.8.
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert!(tail_percentile(&fifty, 80.0).is_some());
        assert_eq!(tail_percentile(&fifty[..49], 80.0), None);
        // The quick sweep's 60 launches leave 12 beyond p80 but only 6
        // beyond p90, so p80 is its highest reportable tail.
        let sixty: Vec<f64> = (1..=60).map(f64::from).collect();
        assert!(tail_percentile(&sixty, 80.0).is_some());
        assert_eq!(tail_percentile(&sixty, 90.0), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // Ranks 0..=99 hold 1..=100; p80 sits at rank 79.2.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p80 = tail_percentile(&xs, 80.0).unwrap();
        assert!((p80 - 80.2).abs() < 1e-9, "{p80}");
        let p50 = tail_percentile(&xs, 50.0).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9, "{p50}");
    }

    #[test]
    fn geomean_by_hand() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 3.0, 9.0]) - 3.0).abs() < 1e-12);
        // cycles 110/100 and 121/100 → geomean of 1.1 and 1.21 is 1.1^1.5.
        let g = speedup_geomean(&[(110, 100), (121, 100)]);
        assert!((g - 1.1f64.powf(1.5)).abs() < 1e-12, "{g}");
    }

    #[test]
    fn fig4_err_by_hand() {
        // Today's quick-sweep geomeans: |1.053−1.13| + |1.059−1.12| +
        // |1.013−1.02| = 0.077 + 0.061 + 0.007 = 0.145, over 3.
        let e = fig4_err([1.053, 1.059, 1.013]);
        assert!((e - 0.145 / 3.0).abs() < 1e-12, "{e}");
        assert_eq!(fig4_err([1.13, 1.12, 1.02]), 0.0);
        // Overshooting counts as error too.
        assert!((fig4_err([1.23, 1.12, 1.02]) - 0.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_alone_cases() {
        // Last interval outlives the others by 30.
        assert_eq!(tail_alone(&[(0, 50), (0, 70), (10, 100)]), 30);
        // Last interval starts after every other ended: all of it is alone.
        assert_eq!(tail_alone(&[(0, 10), (20, 35)]), 15);
        // Two intervals end together: nothing runs alone.
        assert_eq!(tail_alone(&[(0, 40), (5, 40)]), 0);
        assert_eq!(tail_alone(&[(3, 9)]), 6);
        assert_eq!(tail_alone(&[]), 0);
    }
}
