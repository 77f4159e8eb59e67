//! Seeded input generation: SplitMix64, so the same `--seed` yields the
//! same operation sequence on every machine and commit.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws
    /// (job order, chunk sizes, requests) made from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// Splits `total` into `parts` positive chunks whose sizes vary by
    /// up to ±25% around the mean and sum exactly to `total`.
    pub fn partition(&mut self, total: i64, parts: usize) -> Vec<i64> {
        assert!(
            parts > 0 && total >= parts as i64,
            "cannot split {total} into {parts}"
        );
        let weights: Vec<i64> = (0..parts).map(|_| self.range(75, 125) as i64).collect();
        let sum: i64 = weights.iter().sum();
        let mut chunks: Vec<i64> = weights.iter().map(|w| (total * w / sum).max(1)).collect();
        let rest = total - chunks.iter().sum::<i64>();
        let last = chunks.last_mut().expect("parts > 0");
        *last += rest;
        if *last < 1 {
            // Rounding pushed the last chunk to zero: fall back to equal parts.
            let base = total / parts as i64;
            chunks = vec![base; parts];
            chunks[parts - 1] += total - base * parts as i64;
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_keeps_the_total() {
        let mut rng = Rng::new(7, 1);
        for total in [8, 9, 100, 4321] {
            let c = rng.partition(total, 8);
            assert_eq!(c.iter().sum::<i64>(), total);
            assert!(c.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, b);
    }
}
