//! Seeded randomness and order statistics.

/// A small seeded generator (SplitMix64). Every input the benchmark
/// makes comes from one of these, so a seed fixes the inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// workloads given the same seed draw different sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of a sample (mean of the two middle values when even);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A reported tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (may be lower than asked for).
    pub pct: u32,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Percentiles a tail may fall back to, highest first.
const TAIL_LADDER: [u32; 6] = [99, 95, 90, 75, 50, 0];

/// Samples that must lie beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile no higher than `wanted` that keeps at least
/// [`MIN_BEYOND`] samples beyond its rank (nearest-rank definition);
/// `None` when the sample has no more than `MIN_BEYOND` values.
pub fn tail(samples: &[f64], wanted: u32) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().filter(|&&p| p <= wanted).find_map(|&p| {
        let rank = nearest_rank(n, p);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct: p,
            value: s[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        for n in 11..3000 {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&samples, 99).expect("more than ten samples");
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            let strictly_above = samples.iter().filter(|&&v| v > t.value).count();
            assert_eq!(strictly_above, t.beyond, "n={n}");
            // No higher rung of the ladder would also have qualified.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.pct && p <= 99) {
                assert!(n - nearest_rank(n, higher) < MIN_BEYOND, "n={n}");
            }
        }
        assert_eq!(tail(&[1.0; 10], 95), None);
        assert_eq!(tail(&vec![0.0; 200], 95).map(|t| t.pct), Some(95));
        assert_eq!(tail(&vec![0.0; 199], 95).map(|t| t.pct), Some(90));
        assert_eq!(tail(&vec![0.0; 1000], 99).map(|t| t.pct), Some(99));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
