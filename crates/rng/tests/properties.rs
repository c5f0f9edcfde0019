//! Property-based tests for the RNG crate.

use fedpkd_rng::{sample_indices, Dirichlet, Gamma, Rng};
use proptest::prelude::*;

proptest! {
    /// Any seed yields values strictly inside the unit interval.
    #[test]
    fn unit_floats_stay_in_range(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
            let y = rng.next_f32();
            prop_assert!((0.0..1.0).contains(&y));
        }
    }

    /// Bounded sampling never reaches the bound, for any bound.
    #[test]
    fn bounded_u64_below_bound(seed in any::<u64>(), bound in 1u64..) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.bounded_u64(bound) < bound);
        }
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_preserves_elements(seed in any::<u64>(), mut v in prop::collection::vec(any::<i32>(), 0..200)) {
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        let mut rng = Rng::seed_from_u64(seed);
        rng.shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }

    /// Index sampling returns exactly k distinct in-range indices.
    #[test]
    fn sample_indices_distinct((n, k) in (1usize..200).prop_flat_map(|n| (Just(n), 0..=n)), seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let picks = sample_indices(&mut rng, n, k);
        prop_assert_eq!(picks.len(), k);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(picks.iter().all(|&i| i < n));
    }

    /// Dirichlet draws are valid points on the simplex for any positive
    /// alpha and dimension.
    #[test]
    fn dirichlet_on_simplex(alpha in 0.01f64..50.0, dim in 2usize..64, seed in any::<u64>()) {
        let d = Dirichlet::symmetric(alpha, dim).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let p = d.sample(&mut rng);
        prop_assert_eq!(p.len(), dim);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|x| *x > 0.0 && x.is_finite()));
    }

    /// Gamma samples are non-negative and finite across the shape range.
    #[test]
    fn gamma_nonnegative(shape in 0.05f64..20.0, scale in 0.1f64..10.0, seed in any::<u64>()) {
        let g = Gamma::new(shape, scale).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..20 {
            let x = g.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    /// Saving the raw xoshiro state mid-stream and restoring it resumes
    /// the exact same output sequence, whatever mix of draws preceded it.
    #[test]
    fn state_save_restore_resumes_identically(
        seed in any::<u64>(),
        warmup in 0usize..64,
        draws in 1usize..32,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..warmup {
            // Exercise differently sized draws so the saved state does not
            // depend on any single consumption pattern.
            match i % 3 {
                0 => { rng.next_u64(); }
                1 => { rng.next_f64(); }
                _ => { rng.bounded_u64(17); }
            }
        }
        let state = rng.state();
        let expected: Vec<u64> = (0..draws).map(|_| rng.next_u64()).collect();
        let mut restored = Rng::from_state(state);
        let resumed: Vec<u64> = (0..draws).map(|_| restored.next_u64()).collect();
        prop_assert_eq!(resumed, expected);
        // The restored generator stays in lockstep indefinitely, not just
        // for the first draw.
        prop_assert_eq!(restored.state(), rng.state());
    }

    /// Streams with different ids never collide on their first outputs.
    #[test]
    fn streams_are_distinct(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let mut ra = Rng::stream(seed, a);
        let mut rb = Rng::stream(seed, b);
        let va: Vec<u64> = (0..4).map(|_| ra.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| rb.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }
}
