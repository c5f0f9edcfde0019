//! Order-preserving thread dispatch.
//!
//! Tasks — a client's training, a client's evaluation — go through the one
//! work-stealing dispatcher ([`dispatch_stealing`], or
//! [`dispatch_stealing_scheduled`] with an execution plan) on scoped
//! threads, as many as the caller's worker budget, and commit results on
//! the caller's thread in item order. Items never share mutable state, so
//! the result is bit-identical to the sequential loop regardless of core
//! count or scheduling. Kernels never spawn: a thread a kernel started on
//! its own would not count against the budget and would oversubscribe the
//! cores the budget already handed out.

/// Per-thread reusable scratch buffers for transient `f32` workspaces.
///
/// The hot kernels repack an operand into a packed layout on every call,
/// and under [`dispatch_stealing`] each client's training loop issues
/// thousands of such calls from the same worker thread. Allocating the
/// packed buffer fresh each time makes the allocator the bottleneck at
/// fleet scale; this pool hands each thread back the buffers it just
/// released, so steady-state training does no repack allocations at all.
///
/// The pool is thread-local, which makes it safe by construction under
/// every dispatch idiom in this module (scoped worker threads never share
/// a buffer) and keeps results bit-identical: a pooled buffer is handed
/// out with unspecified contents, so callers must fully overwrite the
/// range they read — exactly what the repack loops already do.
pub mod scratch {
    use std::cell::RefCell;

    /// Buffers retained per thread; deeper nesting than this frees on drop.
    const MAX_POOLED: usize = 4;

    thread_local! {
        static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    }

    /// Runs `f` over a scratch buffer of exactly `len` elements drawn from
    /// the calling thread's pool, returning the buffer to the pool after.
    ///
    /// The buffer's contents are **unspecified** on entry — stale data from
    /// earlier borrows is deliberately not cleared — so `f` must write every
    /// element it later reads. Nested calls compose (each borrow gets a
    /// distinct buffer); a panic inside `f` simply drops the buffer.
    pub fn with_f32s<T>(len: usize, f: impl FnOnce(&mut [f32]) -> T) -> T {
        let mut buf = POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let result = f(&mut buf[..len]);
        POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
        result
    }

    /// Capacity (in `f32`s) currently parked in this thread's pool — an
    /// observability hook for the reuse tests.
    pub fn pooled_capacity() -> usize {
        POOL.with(|pool| pool.borrow().iter().map(Vec::capacity).sum())
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn max_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Load-balance counters reported by [`dispatch_stealing`].
///
/// `peak_pending` is the scheduler's memory bound: the caller's commit
/// callback consumes results in canonical item order, so out-of-order
/// completions park in a reorder buffer whose occupancy is bounded by
/// worker skew (how far the fastest worker runs ahead of the slowest),
/// never by the total item count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Items executed by a worker other than the one they were seeded on.
    pub steals: usize,
    /// Peak number of completed results waiting in the reorder buffer for
    /// an earlier item to finish.
    pub peak_pending: usize,
}

/// Runs `task` over `items` on a bounded pool of `workers` threads with
/// work stealing, committing results on the *caller's* thread in ascending
/// item order.
///
/// Each worker is seeded with a contiguous chunk of items and pops from its
/// own deque front; a worker that runs dry steals from the back of another
/// worker's deque, so stragglers cannot idle the pool. Results stream back
/// to the caller as they complete and are handed to `commit(index, result)`
/// strictly in item order via a reorder buffer — so any fold performed in
/// `commit` accumulates in canonical order and is bit-identical to the
/// sequential loop regardless of worker count or interleaving.
///
/// `task` receives `(index, item)` and must not share mutable state across
/// items; `commit` runs on the calling thread only, so it may freely mutate
/// caller-local accumulators without locking.
pub fn dispatch_stealing<I: Send, T: Send>(
    items: Vec<I>,
    workers: usize,
    task: impl Fn(usize, I) -> T + Sync,
    commit: impl FnMut(usize, T),
) -> StealStats {
    let seeded: Vec<(usize, I)> = items.into_iter().enumerate().collect();
    run_stealing(seeded, workers, task, commit)
}

/// [`dispatch_stealing`] with an explicit **seeding schedule**: workers are
/// seeded with `items` in `schedule` order (a permutation of item indices)
/// instead of input order, while `commit` still observes results in
/// strictly ascending *original* item index.
///
/// This is the execution-plan entry point from [`crate::plan`]: a grouped
/// schedule lays same-group items (e.g. clients sharing a model template)
/// contiguously on the same worker's deque, so consecutive tasks reuse hot
/// template weights and same-sized scratch arenas. Because `task` depends
/// only on `(index, item)` and the reorder buffer commits in ascending
/// original index regardless of seeding, any schedule produces bit-identical
/// results to the sequential loop — batching commutes with commit order.
///
/// # Panics
///
/// Panics if `schedule` is not a permutation of `0..items.len()`.
pub fn dispatch_stealing_scheduled<I: Send, T: Send>(
    items: Vec<I>,
    schedule: &[usize],
    workers: usize,
    task: impl Fn(usize, I) -> T + Sync,
    commit: impl FnMut(usize, T),
) -> StealStats {
    let n = items.len();
    assert_eq!(schedule.len(), n, "schedule must cover every item");
    let mut slots: Vec<Option<I>> = items.into_iter().map(Some).collect();
    let seeded: Vec<(usize, I)> = schedule
        .iter()
        .map(|&idx| {
            let item = slots
                .get_mut(idx)
                .and_then(Option::take)
                .expect("schedule must be a permutation of item indices");
            (idx, item)
        })
        .collect();
    run_stealing(seeded, workers, task, commit)
}

/// Shared work-stealing core: `seeded` pairs each item with its canonical
/// commit index, in the order workers should drain them. Commits run on the
/// caller's thread in ascending canonical index whatever the seeding order.
fn run_stealing<I: Send, T: Send>(
    seeded: Vec<(usize, I)>,
    workers: usize,
    task: impl Fn(usize, I) -> T + Sync,
    mut commit: impl FnMut(usize, T),
) -> StealStats {
    let n = seeded.len();
    if n == 0 {
        return StealStats::default();
    }
    let workers = workers.clamp(1, n);
    let chunk = n.div_ceil(workers);
    let mut seeded = seeded.into_iter();
    let deques: Vec<std::sync::Mutex<std::collections::VecDeque<(usize, I)>>> = (0..workers)
        .map(|_| std::sync::Mutex::new(seeded.by_ref().take(chunk).collect()))
        .collect();
    let deques = &deques;
    let task = &task;
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T, bool)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let own = deques[w].lock().expect("worker deque poisoned").pop_front();
                if let Some((idx, item)) = own {
                    if tx.send((idx, task(idx, item), false)).is_err() {
                        return;
                    }
                    continue;
                }
                // Own deque is dry: steal the *back* of another worker's
                // deque (the item its owner would reach last).
                let stolen = (1..workers).find_map(|off| {
                    deques[(w + off) % workers]
                        .lock()
                        .expect("worker deque poisoned")
                        .pop_back()
                });
                match stolen {
                    Some((idx, item)) => {
                        if tx.send((idx, task(idx, item), true)).is_err() {
                            return;
                        }
                    }
                    // Every deque is empty; no new items ever appear.
                    None => return,
                }
            });
        }
        drop(tx);
        let mut stats = StealStats::default();
        let mut pending = std::collections::BTreeMap::new();
        let mut next = 0usize;
        for (idx, result, stolen) in rx {
            if stolen {
                stats.steals += 1;
            }
            pending.insert(idx, result);
            stats.peak_pending = stats.peak_pending.max(pending.len());
            while let Some(result) = pending.remove(&next) {
                commit(next, result);
                next += 1;
            }
        }
        debug_assert_eq!(next, n, "every item must be committed exactly once");
        stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_commits_in_canonical_order_for_any_worker_count() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1, 2, 3, 8, 64, 1000] {
            let mut committed = Vec::new();
            let stats = dispatch_stealing(
                items.clone(),
                workers,
                |idx, i| {
                    assert_eq!(idx, i);
                    i * 3
                },
                |idx, r| committed.push((idx, r)),
            );
            let expected: Vec<(usize, usize)> = (0..257).map(|i| (i, i * 3)).collect();
            assert_eq!(committed, expected, "workers={workers}");
            assert!(stats.peak_pending <= 257);
        }
    }

    #[test]
    fn stealing_handles_empty_input() {
        let stats = dispatch_stealing(Vec::<usize>::new(), 4, |_, i| i, |_, _| panic!("no items"));
        assert_eq!(stats, StealStats::default());
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Seed all the slow items into the first worker's chunk; with
        // stealing the others must take some of them (unless the machine
        // is single-core, where no stealing can happen).
        let items: Vec<u64> = (0..64)
            .map(|i| if i < 32 { 2_000_000 } else { 10 })
            .collect();
        let mut sum = 0u64;
        let stats = dispatch_stealing(
            items,
            4,
            |_, spins| {
                let mut acc = 0u64;
                for k in 0..spins {
                    acc = acc.wrapping_add(k ^ (acc >> 3));
                }
                // Fold the busy-work in so the loop cannot be optimized out.
                1 + (acc & 1) / 2
            },
            |_, one| sum += one,
        );
        assert_eq!(sum, 64);
        if max_workers() > 1 {
            assert!(stats.steals > 0, "skewed chunks should trigger steals");
        }
    }

    #[test]
    fn scratch_buffers_are_reused_within_a_thread() {
        // Run on a dedicated thread so other tests' pool traffic cannot
        // interfere with the capacity accounting.
        std::thread::spawn(|| {
            let base = scratch::pooled_capacity();
            scratch::with_f32s(128, |buf| {
                assert_eq!(buf.len(), 128);
                buf.fill(1.0);
            });
            assert!(scratch::pooled_capacity() >= base + 128, "buffer parked");
            let parked = scratch::pooled_capacity();
            // A second, smaller borrow must reuse the parked buffer rather
            // than allocate: total pooled capacity stays flat.
            scratch::with_f32s(64, |buf| {
                assert_eq!(buf.len(), 64);
                assert!(buf.iter().all(|&v| v == 1.0), "stale contents kept");
            });
            assert_eq!(scratch::pooled_capacity(), parked);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_nested_borrows_get_distinct_buffers() {
        scratch::with_f32s(16, |outer| {
            outer.fill(2.0);
            scratch::with_f32s(16, |inner| inner.fill(3.0));
            assert!(outer.iter().all(|&v| v == 2.0));
        });
    }
}
