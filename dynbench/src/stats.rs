//! Order statistics and output digests.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the "R-7" rule). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Most blocks [`tail`] splits the samples into.
const TAIL_BLOCKS: usize = 10;

/// The highest of p99, p90 and p75 that leaves at least ten samples above
/// it within a block, with its label; the median when there are too few
/// samples. The samples, in the order they were taken, are split into as
/// many consecutive blocks as allow that (at most ten), and the tail is
/// the median of the blocks' quantiles, so one burst of host contention
/// cannot set the tail of a whole run.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    for (q, per_block, label) in [(0.99, 1000, "p99"), (0.90, 100, "p90"), (0.75, 40, "p75")] {
        let blocks = (values.len() / per_block).min(TAIL_BLOCKS);
        if let Some(size) = values.len().checked_div(blocks) {
            let per: Vec<f64> = values
                .chunks(size)
                .take(blocks)
                .map(|b| quantile(b, q))
                .collect();
            return (median(&per), label);
        }
    }
    (median(values), "p50")
}

/// A word-at-a-time multiply-rotate hash over a stream of `u64` words:
/// a cheap, stable, order-dependent digest for comparing outputs across
/// windows, bring-ups, runs and shard counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    /// Folds a byte string into the digest, eight bytes per word.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let many: Vec<f64> = (0..1_000).map(f64::from).collect();
        assert_eq!(tail(&many).1, "p99");
        let some: Vec<f64> = (0..120).map(f64::from).collect();
        assert_eq!(tail(&some).1, "p90");
        let few: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&few).1, "p75");
        assert_eq!(tail(&[1.0, 2.0, 3.0]).1, "p50");
    }

    #[test]
    fn tail_is_the_median_over_blocks() {
        let mut v: Vec<f64> = (0..10_000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(tail(&v), (quantile(&v[..1000], 0.99), "p99"));
        // A burst inside one block moves that block's p99 only.
        for x in &mut v[3000..3200] {
            *x = 1e6;
        }
        assert!(quantile(&v, 0.99) >= 1e6);
        assert!(tail(&v).0 < 100.0);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.word(1);
        c.word(2);
        assert_eq!(a, c);
    }
}
