//! Latency recording: a log-linear histogram (64 sub-buckets per power
//! of two, under 1.6% bucket width) whose quantiles interpolate inside
//! the bucket, plus exact quantiles over a small sample vector.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Nanosecond histogram with fixed memory.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    (((msb - SUB_BITS + 1) as u64) * SUB + ((v >> shift) & (SUB - 1))) as usize
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, (i + 1) as f64);
    }
    let width = 2f64.powi((i / SUB - 1) as i32);
    let low = (SUB + i % SUB) as f64 * width;
    (low, low + width)
}

impl Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile (0..=1), interpolated linearly inside the
    /// bucket holding it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, hi) = bounds(i);
                let within = (rank - below as f64 + 0.5) / c as f64;
                return lo + (hi - lo) * within;
            }
            below += c;
        }
        bounds(BUCKETS - 1).1
    }

    /// Empties the histogram.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

/// The `q` quantile of `samples` (sorted in place), interpolating
/// between neighbours; 0 when empty.
pub fn exact_quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

/// The median of `values` (copied).
pub fn median(values: &[f64]) -> f64 {
    exact_quantile(&mut values.to_vec(), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 65_536, 1 << 40, u64::MAX] {
            let b = bucket(v);
            assert!(b >= last && b < BUCKETS, "{v} -> {b}");
            let (lo, hi) = bounds(b);
            assert!(lo <= v as f64 && (v as f64) < hi || v == u64::MAX, "{v} not in [{lo},{hi})");
            last = b;
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        let mut xs: Vec<f64> = Vec::new();
        for i in 1..=10_000u64 {
            let v = i * 37 % 9_973 + 100;
            h.record(v);
            xs.push(v as f64);
        }
        for q in [0.5, 0.99] {
            let exact = exact_quantile(&mut xs, q);
            let approx = h.quantile(q);
            assert!((approx - exact).abs() / exact < 0.02, "q{q}: {approx} vs {exact}");
        }
    }
}
