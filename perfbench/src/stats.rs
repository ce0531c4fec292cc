//! Order statistics and the seeded generator behind every workload's
//! inputs.
//!
//! The benchmark reports medians and smoothed percentiles, never minima
//! or means of a cell's timings: several cells are bimodal within one
//! process (see the README), and a median is the statistic that ignores
//! which mode a few samples landed in.

/// Median of `xs`; the mean of the two middle values for an even count.
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean of the samples whose nearest rank lies between the `lo`-th and
/// `hi`-th percentiles, inclusive: a smoothed percentile for a small
/// population of unlike values, where the plain order statistic jumps
/// whenever two neighbours swap rank. `None` for an empty slice.
pub fn band_mean(xs: &[f64], lo: f64, hi: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let rank =
        |p: f64| ((p.clamp(0.0, 100.0) / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    let band = &s[rank(lo) - 1..rank(hi)];
    Some(band.iter().sum::<f64>() / band.len() as f64)
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread this crate reports is the spread `steadiness.py`
/// computes. `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Geometric mean of positive values; `None` if empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan() || *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: the only source of randomness in the benchmark. Every
/// workload input (cell order, request order, generated programs) is a
/// function of the `--seed` argument through this generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_empty_single_odd_even_and_order() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[2.0, 2.0]), Some(2.0));
    }

    #[test]
    fn band_mean_averages_the_ranks_between_two_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        // Ranks 4..=6 for the 40th..60th percentile of ten values.
        assert_eq!(band_mean(&xs, 40.0, 60.0), Some(5.0));
        assert_eq!(band_mean(&xs, 90.0, 100.0), Some(9.5));
        // A degenerate band is the nearest-rank percentile itself: the
        // smallest sample with at least p% of the samples at or below it.
        assert_eq!(band_mean(&xs, 50.0, 50.0), Some(5.0));
        assert_eq!(band_mean(&xs, 91.0, 91.0), Some(10.0));
        // Out-of-range percentiles clamp to the extremes.
        assert_eq!(band_mean(&xs, 0.0, 0.0), Some(1.0));
        assert_eq!(band_mean(&xs, 250.0, 300.0), Some(10.0));
        assert_eq!(band_mean(&[3.0], 40.0, 60.0), Some(3.0));
        assert_eq!(band_mean(&[], 40.0, 60.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from CPython: statistics.quantiles(range(1, 11), n=4)
        // == [2.75, 5.5, 8.25]; quantiles([1, 2], n=4) == [0.75, 1.5, 2.25];
        // quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_stream_and_shuffle() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut x: Vec<u32> = (0..50).collect();
        let mut y = x.clone();
        Rng::new(3).shuffle(&mut x);
        Rng::new(3).shuffle(&mut y);
        assert_eq!(x, y);
        let mut z: Vec<u32> = (0..50).collect();
        Rng::new(4).shuffle(&mut z);
        assert_ne!(x, z);
        x.sort_unstable();
        assert_eq!(x, (0..50).collect::<Vec<_>>());
    }
}
