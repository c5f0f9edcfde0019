//! Execution-plan layer: grouped scheduling for batched multi-client work.
//!
//! The work-stealing pool in [`crate::parallel`] seeds each worker's deque
//! with a contiguous chunk of items in input order. For a heterogeneous
//! client fleet that order interleaves model architectures arbitrarily, so
//! a worker draining its queue alternates between weight templates and
//! scratch-buffer sizes on every task — each client's forward/backward
//! re-faults a different template into cache and regrows the thread-local
//! repack arenas.
//!
//! This module plans the *seeding order* instead: [`schedule`] permutes the
//! queue so same-group items (clients sharing a `ModelSpec` template) land
//! contiguously on the same worker. Consecutive tasks then run batched
//! per-layer GEMMs against the *same* resident template with same-sized
//! pooled scratch arenas — the fleet-scale form of batching heterogeneous
//! client work.
//!
//! # Why batching commutes with commit order
//!
//! Determinism does not depend on the schedule. Every task is a pure
//! function of `(index, item)` (clients never share mutable state), and
//! [`crate::parallel::dispatch_stealing_scheduled`] commits results through
//! a reorder buffer in strictly ascending *original* index whatever order
//! workers executed them in. Permuting the seeding order therefore changes
//! only *when* each result becomes available, never its value or the order
//! server-side folds observe it — so any schedule, any worker count, and
//! any steal interleaving replay bit-identically. The gate matrix in
//! `tests/fleet.rs` checks exactly this: grouped vs sequential schedules
//! must produce identical run results for all eight algorithms.

use crate::mode_switch::{ModeSwitch, Override};

/// Which seeding schedule the execution-plan dispatchers build.
///
/// Both modes produce bit-identical results (see the module docs); the
/// switch exists so the bit-identity gate can compare the schedules on
/// identical workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Seed worker queues in input order (the pre-plan behavior).
    Sequential,
    /// Group same-key items contiguously per worker (the default).
    Grouped,
}

static PLAN: ModeSwitch = ModeSwitch::new(PlanMode::Grouped as u8);

impl PlanMode {
    /// Selects this plan mode for the lifetime of the returned guard and
    /// restores the default ([`PlanMode::Grouped`]) when the guard drops
    /// (including on panic-unwind). The switch is process-wide and the
    /// override exclusive, exactly like [`crate::KernelMode::scoped`]: a
    /// second call blocks until the first guard drops, so never nest two on
    /// one thread, and take the kernel-tier guard first when holding both.
    #[must_use = "the plan mode reverts as soon as the guard drops"]
    pub fn scoped(self) -> PlanModeGuard {
        PlanModeGuard(PLAN.override_with(self as u8))
    }
}

/// RAII guard from [`PlanMode::scoped`]: restores the default plan mode on
/// drop, then lets the next override in.
#[derive(Debug)]
pub struct PlanModeGuard(#[allow(dead_code)] Override);

/// The currently selected plan mode: [`PlanMode::Grouped`] unless a
/// [`PlanMode::scoped`] guard is live.
pub fn plan_mode() -> PlanMode {
    if PLAN.get() == PlanMode::Sequential as u8 {
        PlanMode::Sequential
    } else {
        PlanMode::Grouped
    }
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

/// The seeding schedule for the current [`plan_mode`]: grouped by `keys`
/// under [`PlanMode::Grouped`], the identity permutation under
/// [`PlanMode::Sequential`].
pub fn schedule(keys: &[u64]) -> Vec<usize> {
    match plan_mode() {
        PlanMode::Sequential => (0..keys.len()).collect(),
        PlanMode::Grouped => grouped_schedule(keys),
    }
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

    #[test]
    fn scoped_guard_restores_previous_mode() {
        {
            let _g = PlanMode::Sequential.scoped();
            assert_eq!(plan_mode(), PlanMode::Sequential);
        }
        // Not a nested override: the first guard is gone.
        let _g = PlanMode::Grouped.scoped();
        assert_eq!(plan_mode(), PlanMode::Grouped);
    }

    #[test]
    fn schedule_respects_plan_mode() {
        let keys = [9u64, 8, 9];
        {
            let _g = PlanMode::Sequential.scoped();
            assert_eq!(schedule(&keys), vec![0, 1, 2]);
        }
        let _g = PlanMode::Grouped.scoped();
        assert_eq!(schedule(&keys), vec![0, 2, 1]);
    }
}
