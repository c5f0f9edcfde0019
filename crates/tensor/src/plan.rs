//! Execution-plan layer: the seeding order of multi-client work.
//!
//! The work-stealing pool in [`crate::parallel`] seeds each worker's deque
//! with a contiguous chunk of items in input order. [`grouped_schedule`]
//! permutes that order so same-group items (clients sharing a `ModelSpec`)
//! land contiguously on the same worker. Each client still trains alone,
//! and a client template owns no weights (`fedpkd-core`'s `cow` module), so
//! grouping shares no resident weights and batches no GEMMs across
//! clients.
//!
//! It is kept because it measured faster, not for a known mechanism. With
//! the cohort seeded in input order instead (`dispatch_stealing`),
//! `pkd_hetero`'s `core.phase.client_training_s` (five clients of mixed
//! tiers, `--trace 1`, a 2-core x86-64 box, alternated pairs) was slower
//! in 4 of 4 pairs at seed 707 (median 0.0267 → 0.0327 s, +23 %) and in
//! 4 of 5 at seed 1311 (median 0.0277 → 0.0295 s, +7 %). Every other
//! benchmark workload has one client tier, where grouping is the identity
//! order.
//!
//! # Why the schedule commutes with commit order
//!
//! Determinism does not depend on the schedule. Every task is a pure
//! function of `(index, item)` (clients never share mutable state), and
//! [`crate::parallel::dispatch_stealing_scheduled`] commits results through
//! a reorder buffer in strictly ascending *original* index whatever order
//! workers executed them in. Permuting the seeding order therefore changes
//! only *when* each result becomes available, never its value or the order
//! server-side folds observe it — so any schedule, any worker count, and
//! any steal interleaving replay bit-identically.
//! `scheduled_dispatch_is_order_invariant` (`tests/properties.rs`) checks
//! exactly this for random keys at 1–8 workers, and the gate matrix in
//! `tests/fleet.rs` replays all eight algorithms at worker budgets 1, 2
//! and the default.

/// The one seeding schedule there is, as `benchmark/src/provenance.rs`
/// prints it. That file is the only caller of the function below; ROADMAP
/// item 3 step 0 deletes its line and then this enum and the function.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Group same-key items contiguously per worker.
    Grouped,
}

/// Always [`PlanMode::Grouped`]; see [`PlanMode`].
#[doc(hidden)]
pub fn plan_mode() -> PlanMode {
    PlanMode::Grouped
}

/// Builds the grouped seeding schedule for items with the given group
/// keys: a permutation of `0..keys.len()` listing the items of each group
/// contiguously, groups ordered by first appearance and items within a
/// group in ascending index order. Fully deterministic — no hashing, no
/// dependence on key *values* beyond equality.
pub fn grouped_schedule(keys: &[u64]) -> Vec<usize> {
    let mut group_order: Vec<u64> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match group_order.iter().position(|&k| k == key) {
            Some(g) => members[g].push(i),
            None => {
                group_order.push(key);
                members.push(vec![i]);
            }
        }
    }
    members.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_schedule_is_a_permutation_that_groups_keys() {
        let keys = [3u64, 1, 3, 2, 1, 3, 2];
        let sched = grouped_schedule(&keys);
        // Groups in first-appearance order, members in index order.
        assert_eq!(sched, vec![0, 2, 5, 1, 4, 3, 6]);
        let mut sorted = sched.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..keys.len()).collect::<Vec<_>>());
    }

    #[test]
    fn grouped_schedule_handles_degenerate_inputs() {
        assert!(grouped_schedule(&[]).is_empty());
        assert_eq!(grouped_schedule(&[7]), vec![0]);
        // All-same and all-distinct keys are both the identity.
        assert_eq!(grouped_schedule(&[5, 5, 5]), vec![0, 1, 2]);
        assert_eq!(grouped_schedule(&[1, 2, 3]), vec![0, 1, 2]);
    }
}
