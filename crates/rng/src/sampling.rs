//! Subset sampling.

use crate::Rng;

/// Samples `k` distinct indices uniformly from `0..n`, in random order.
///
/// Uses a partial Fisher–Yates shuffle, which is O(n) time and memory; for
/// the dataset sizes in this simulator (≤ 10⁵) this is always cheap.
///
/// # Panics
///
/// Panics if `k > n`.
///
/// # Examples
///
/// ```
/// use fedpkd_rng::{sample_indices, Rng};
///
/// let mut rng = Rng::seed_from_u64(7);
/// let picks = sample_indices(&mut rng, 100, 5);
/// assert_eq!(picks.len(), 5);
/// ```
pub fn sample_indices(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} from {n}");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.range_usize(i, n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = Rng::seed_from_u64(1);
        let picks = sample_indices(&mut rng, 50, 20);
        assert_eq!(picks.len(), 20);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates in {picks:?}");
        assert!(picks.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_all_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(2);
        let mut picks = sample_indices(&mut rng, 10, 10);
        picks.sort_unstable();
        assert_eq!(picks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_zero_is_empty() {
        let mut rng = Rng::seed_from_u64(3);
        assert!(sample_indices(&mut rng, 10, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let mut rng = Rng::seed_from_u64(4);
        sample_indices(&mut rng, 3, 4);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            for i in sample_indices(&mut rng, 10, 3) {
                counts[i] += 1;
            }
        }
        // Each index should be hit about 3000 times.
        for (i, &c) in counts.iter().enumerate() {
            assert!((2700..3300).contains(&c), "index {i}: {c}");
        }
    }
}
