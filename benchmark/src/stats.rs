//! Order statistics and the seeded generator behind job order.

/// Nearest-rank percentile of a sorted sample; `q` in [0, 1]: the
/// smallest sample that *more than* `q` of the samples do not exceed
/// (rank ⌊q·n⌋ + 1). Always a value that was measured, never interpolated.
///
/// Why "more than": a round is a fixed mix of K job types, so pooled
/// latencies form K clusters, and a percentile at a multiple of 1/K falls
/// exactly between two of them. The upper edge of the lower cluster is that
/// job type's worst case in the run, which interference decides; the lower
/// edge of the upper cluster is the next type's best case, which repeats.
/// Of the two samples that may call themselves the percentile, this takes
/// the one that is a property of the program.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).floor() as usize + 1).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Sorted `f64` copy of recorded `f32` samples.
pub fn sorted_samples(xs: &[f32]) -> Vec<f64> {
    sorted(xs.iter().map(|&x| f64::from(x)).collect())
}

/// Median with the usual midpoint rule for even counts (block medians are
/// over few blocks, where nearest-rank would be biased low).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// (the "exclusive" method) gives them — the same rule the driver uses.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, interpolated between its
        // neighbours (and extrapolated from the end pair when clamped).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// splitmix64: tiny, seedable, and good enough to shuffle a job list.
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

    /// Uniform in `0..n` (`n` > 0); the modulo bias is irrelevant at job-list
    /// sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 51.0, "more than half of the samples are <= 51");
        assert_eq!(percentile(&xs, 0.99), 100.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1 100 samples: p99 is the 1 090th, leaving ten beyond it.
        let big: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), 1090.0);
        // Two clusters of equal size: the median is the upper cluster's
        // best case, not the lower cluster's worst.
        assert_eq!(percentile(&[1.0, 1.1, 1.9, 5.0, 5.1, 5.2], 0.5), 5.0);
        assert_eq!(sorted_samples(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn block_medians_and_quartiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12, "{q1} {q3}");
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_shuffle_is_a_deterministic_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7), "same seed, same order");
        assert_ne!(shuffled(7), shuffled(8), "different seed, different order");
        let mut s = shuffled(7);
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<u32>>(), "a permutation: nothing lost or repeated");
    }
}
