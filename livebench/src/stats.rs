//! Fixed-memory latency samples and order statistics of small samples.

/// Samples a [`Sampled`] keeps: 512 KiB of `u64`s.
const KEEP: usize = 1 << 16;

/// A fixed-size uniform sample of nanosecond values (Vitter's algorithm
/// R with a fixed-seed generator). Up to `KEEP` values it holds every
/// sample, so its quantiles are exact; past that it holds a uniform
/// sample of all of them, so a long run costs the generator no more
/// memory than a short one.
pub struct Sampled {
    kept: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Default for Sampled {
    fn default() -> Self {
        Sampled::new()
    }
}

impl Sampled {
    /// An empty sample.
    pub fn new() -> Sampled {
        Sampled::with_capacity(KEEP)
    }

    fn with_capacity(cap: usize) -> Sampled {
        Sampled {
            kept: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Adds one value.
    pub fn record(&mut self, v: u64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
        } else {
            let j = self.next_rand() % self.seen;
            if (j as usize) < self.kept.len() {
                self.kept[j as usize] = v;
            }
        }
    }

    /// Values recorded.
    pub fn len(&self) -> u64 {
        self.seen
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`) of the kept values;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let mut v = self.kept.clone();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
        v.get(rank - 1).copied()
    }

    /// The highest of p99, p99.9 and p99.99 with at least ten kept
    /// values above it, with its label; `None` below 1,000 values, where
    /// no tail percentile is worth reporting beyond the median.
    pub fn tail(&self) -> Option<(&'static str, u64)> {
        let mut best = None;
        for (label, q) in [("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999)] {
            if (self.kept.len() as f64) * (1.0 - q) >= 10.0 {
                best = Some((label, self.quantile(q)?));
            }
        }
        best
    }
}

/// The median of a sample (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of a sorted sample.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn skewed(n: usize) -> Vec<u64> {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000_000) * (x % 1_000) / 7 + (x % 97)
            })
            .collect()
    }

    #[test]
    fn quantiles_are_exact_while_every_value_is_kept() {
        let values = skewed(40_000);
        let mut h = Sampled::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(exact(&sorted, q)), "q={q}");
        }
        assert_eq!(h.len(), 40_000);
        assert_eq!(Sampled::new().quantile(0.5), None);
    }

    #[test]
    fn past_capacity_memory_is_fixed_and_the_sample_stays_uniform() {
        let values = skewed(200_000);
        let mut h = Sampled::with_capacity(8_192);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.kept.len(), 8_192);
        assert_eq!(h.len(), 200_000);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.25, 0.5, 0.75, 0.9] {
            // The sampled quantile sits at a rank within 2% of the true one.
            let got = h.quantile(q).expect("non-empty");
            let rank = sorted.partition_point(|&v| v < got) as f64 / sorted.len() as f64;
            assert!(
                (rank - q).abs() < 0.02,
                "q={q}: sampled value ranks at {rank}"
            );
        }
    }

    #[test]
    fn tail_needs_ten_values_beyond_it() {
        let mut h = Sampled::new();
        for v in 0..999u64 {
            h.record(v);
        }
        assert_eq!(h.tail(), None);
        h.record(999);
        assert_eq!(h.tail(), Some(("p99", 989)));
        for v in 0..9_000u64 {
            h.record(v);
        }
        assert_eq!(h.tail().map(|t| t.0), Some("p99.9"));
        // Past the sample's capacity the tail is judged by what is kept:
        // ten kept values above p99.99 would need 100,000 of them.
        for v in 0..200_000u64 {
            h.record(v);
        }
        assert_eq!(h.tail().map(|t| t.0), Some("p99.9"));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(median(&[7.0]), 7.0);
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
    }
}
