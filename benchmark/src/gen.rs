//! Input generation: every tree stream and arrival schedule is a pure
//! function of `--seed`. The program under test sees only the feeds.

use crate::api::{Dataset, DatasetConfig, Instance, Split, TreeShape};
use crate::consts::LENGTH_SEED;

/// SplitMix64: the benchmark's own generator for arrival times, request
/// order and samples (trees themselves come from `rdg_data`).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for stream `stream` of a run seeded with `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

fn config(vocab: usize, n: usize, leaves: (usize, usize), seed: u64) -> DatasetConfig {
    DatasetConfig {
        vocab,
        n_train: n,
        n_valid: 0,
        min_len: leaves.0,
        max_len: leaves.1,
        shape: TreeShape::Moderate,
        seed,
    }
}

/// `n` Moderate-shape trees with `rdg_data`'s own length distribution.
pub fn trees(vocab: usize, n: usize, leaves: (usize, usize), seed: u64) -> Vec<Instance> {
    Dataset::generate(config(vocab, n, leaves, seed))
        .split(Split::Train)
        .to_vec()
}

/// The frozen leaf counts of an `n`-tree pool: `rdg_data`'s length
/// distribution under [`LENGTH_SEED`], independent of `--seed`.
pub fn frozen_lengths(n: usize, leaves: (usize, usize)) -> Vec<usize> {
    trees(16, n, leaves, LENGTH_SEED)
        .iter()
        .map(|i| i.tree.n_leaves())
        .collect()
}

/// Trees whose leaf counts are exactly `lengths` (position by position)
/// and whose words and shapes come from `seed`. Pools built this way cost
/// the same number of cell evaluations on every seed.
pub fn trees_with_lengths(vocab: usize, lengths: &[usize], seed: u64) -> Vec<Instance> {
    let mut distinct: Vec<usize> = lengths.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut by_len: std::collections::HashMap<usize, Vec<Instance>> = distinct
        .into_iter()
        .map(|len| {
            let count = lengths.iter().filter(|&&l| l == len).count();
            let cfg = config(vocab, count, (len, len), derive(seed, len as u64));
            let ds = Dataset::generate_fixed_length(cfg, len);
            (len, ds.split(Split::Train).to_vec())
        })
        .collect();
    lengths
        .iter()
        .map(|len| {
            by_len
                .get_mut(len)
                .and_then(Vec::pop)
                .expect("one tree generated per requested length")
        })
        .collect()
}

/// One open-loop arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, ns from the start of the measured phase.
    pub due_ns: u64,
    /// Index into the tree pool.
    pub tree: usize,
    /// Which rate rung (0-based) the arrival belongs to.
    pub rung: usize,
}

/// Poisson arrivals: rung `j` runs at `rates[j]` req/s for `rung_s`
/// seconds, rungs back to back, each request a uniformly drawn pool tree.
pub fn poisson_schedule(rates: &[f64], rung_s: f64, pool: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::new();
    for (rung, &rate) in rates.iter().enumerate() {
        let (start, end) = (rung as f64 * rung_s, (rung + 1) as f64 * rung_s);
        let mut t = start;
        loop {
            t += -rng.unit().ln() / rate;
            if t >= end {
                break;
            }
            out.push(Arrival {
                due_ns: (t * 1e9) as u64,
                tree: rng.below(pool),
                rung,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::*;
    use std::collections::HashSet;

    /// The bytes that decide whether two requests are the same input: dtype,
    /// dims and every `i32` value of every feed. For trees of ≤32 leaves this
    /// is equal exactly when the specializer's value-keyed feed signature is.
    fn feed_key(feeds: &[crate::api::Tensor]) -> Vec<u8> {
        let mut k = Vec::new();
        for t in feeds {
            k.extend((t.shape().dims().len() as u32).to_le_bytes());
            for &d in t.shape().dims() {
                k.extend((d as u64).to_le_bytes());
            }
            match t.i32s() {
                Ok(v) => v.iter().for_each(|x| k.extend(x.to_le_bytes())),
                Err(_) => k.push(0xff),
            }
        }
        k
    }

    fn keys(insts: &[Instance]) -> Vec<Vec<u8>> {
        Dataset::feeds_per_instance(insts)
            .iter()
            .map(|f| feed_key(f))
            .collect()
    }

    #[test]
    fn same_seed_same_trees_different_seed_different_trees() {
        let lengths = frozen_lengths(SERVE_POOL, SERVE_LEAVES);
        let a = keys(&trees_with_lengths(2000, &lengths, 1));
        let b = keys(&trees_with_lengths(2000, &lengths, 1));
        let c = keys(&trees_with_lengths(2000, &lengths, 2));
        assert_eq!(a, b);
        assert!(a.iter().zip(&c).all(|(x, y)| x != y));
        assert_eq!(
            keys(&trees(2000, 50, INFER_LEAVES, 9)),
            keys(&trees(2000, 50, INFER_LEAVES, 9))
        );
        assert_ne!(
            keys(&trees(2000, 50, INFER_LEAVES, 9)),
            keys(&trees(2000, 50, INFER_LEAVES, 10))
        );
    }

    #[test]
    fn pool_lengths_do_not_depend_on_the_seed() {
        let lengths = frozen_lengths(TRAIN_SET, TRAIN_LEAVES);
        assert_eq!(lengths, frozen_lengths(TRAIN_SET, TRAIN_LEAVES));
        for seed in [3u64, 4] {
            let got: Vec<usize> = trees_with_lengths(2000, &lengths, seed)
                .iter()
                .map(|i| i.tree.n_leaves())
                .collect();
            assert_eq!(got, lengths);
        }
        assert!(lengths.iter().all(|l| (4..=32).contains(l)));
    }

    #[test]
    fn same_seed_same_arrivals_different_seed_different_arrivals() {
        let a = poisson_schedule(&OPEN_RATES, 1.0, SERVE_POOL, 5);
        assert_eq!(a, poisson_schedule(&OPEN_RATES, 1.0, SERVE_POOL, 5));
        assert_ne!(a, poisson_schedule(&OPEN_RATES, 1.0, SERVE_POOL, 6));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.tree < SERVE_POOL && x.rung < 3));
        // Each rung offers about rate × seconds requests.
        for (rung, &rate) in OPEN_RATES.iter().enumerate() {
            let n = a.iter().filter(|x| x.rung == rung).count() as f64;
            assert!((n - rate).abs() < 5.0 * rate.sqrt(), "rung {rung}: {n}");
        }
    }

    #[test]
    fn fresh_stream_never_repeats_a_feed_signature() {
        let n = (FRESH_POOL_PER_S * RUN_SECONDS) as usize;
        let pool = trees(2000, n, INFER_LEAVES, derive(DEFAULT_SEED, 1));
        assert!(pool.iter().all(|i| i.tree.n_leaves() <= 32), "value-keyed");
        let distinct: HashSet<Vec<u8>> = keys(&pool).into_iter().collect();
        assert_eq!(distinct.len(), n);
    }
}
