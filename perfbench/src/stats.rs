//! Order statistics shared by every workload: the median, the tail rule,
//! and a seeded generator for inputs.

/// The percentiles `tail` may report, in basis points (1/100 of a percent).
/// A fixed ladder keeps the reported percentile the same from run to run
/// whenever the sample count stays within one decade.
const TAIL_LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
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

/// The nearest-rank `q`-quantile of `xs` (`0 < q ≤ 1`): the smallest value
/// with at least a share `q` of the samples at or below it. 0.0 for an
/// empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of `xs`; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub pct: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// The sample count.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, by the nearest-rank rule (rank `ceil(p·n)`). With fewer than
/// twenty samples no percentile qualifies and the median is reported, with
/// its (short) `beyond` count. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as u64;
    let rank = |bp: u64| (bp * n).div_ceil(10_000).max(1);
    let bp = TAIL_LADDER_BP
        .iter()
        .copied()
        .rev()
        .find(|&bp| n - rank(bp) >= MIN_BEYOND as u64)
        .unwrap_or(TAIL_LADDER_BP[0]);
    let k = rank(bp);
    Some(Tail {
        pct: bp as f64 / 100.0,
        value: v[(k - 1) as usize],
        beyond: (n - k) as usize,
        samples: v.len(),
    })
}

/// SplitMix64: a small, well-mixed seeded generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over `bytes`: the digest behind the bit-identity checks.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so `tail` must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.2), 2.0);
        assert_eq!(quantile(&v, 0.8), 8.0);
        assert_eq!(quantile(&v, 0.85), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.01), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [20, 99, 100, 101, 999, 1_000, 5_000, 9_999, 10_000, 123_456] {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.samples, n);
            // Exactly `beyond` samples are strictly larger than the value.
            let larger = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert_eq!(larger, t.beyond, "n={n}");
        }
    }

    #[test]
    fn tail_picks_the_highest_qualifying_percentile() {
        assert_eq!(tail(&ramp(99)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        assert_eq!(tail(&ramp(999)).unwrap().pct, 90.0);
        let t = tail(&ramp(1_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        assert_eq!(tail(&ramp(9_999)).unwrap().pct, 99.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        assert_eq!(tail(&ramp(100_000)).unwrap().pct, 99.99);
    }

    #[test]
    fn tail_of_tiny_samples_falls_back_to_the_median_rank() {
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 3.0, 2));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
