//! Order-preserving thread dispatch.
//!
//! Tasks — a client's training, a client's evaluation — go through the one
//! work-stealing dispatcher ([`dispatch_stealing`], or
//! [`dispatch_stealing_scheduled`] with an execution plan). A budget of
//! `n` is `n` threads counting the caller, which works as worker 0 beside
//! `n − 1` scoped helpers, so budget 1 runs every task on the caller's
//! thread; results commit on the caller's thread in item order. Items
//! never share mutable state, so the result is bit-identical to the
//! sequential loop regardless of core count or scheduling. Kernels never
//! spawn: a thread a kernel started on its own would not count against the
//! budget and would oversubscribe the cores the budget already handed out.

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
/// every dispatch idiom in this module (its workers, the caller among
/// them, never share a buffer) and keeps results bit-identical: a pooled
/// buffer is handed out with unspecified contents, so callers must fully
/// overwrite the range they read — exactly what the repack loops already
/// do.
pub mod scratch {
    use std::cell::RefCell;

    /// Buffers retained per thread; deeper nesting than this frees on drop.
    const MAX_POOLED: usize = 4;

    thread_local! {
        pub(super) static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
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
/// worker skew (how far the fastest worker runs ahead of the slowest, plus
/// the caller's one item in flight), never by the total item count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Items executed by a worker (the caller included) other than the one
    /// they were seeded on.
    pub steals: usize,
    /// Peak number of completed results waiting in the reorder buffer for
    /// an earlier item to finish.
    pub peak_pending: usize,
}

/// Runs `task` over `items` on a bounded pool of `workers` threads with
/// work stealing, committing results on the *caller's* thread in ascending
/// item order.
///
/// The caller is one of the `workers`: it runs worker 0's items itself
/// beside `workers − 1` scoped helpers, and spawns none at a budget of 1
/// or for a single item. Each worker is seeded with a contiguous chunk of
/// items and pops from its own deque front; a worker that runs dry steals
/// from the back of another worker's deque, so stragglers cannot idle the
/// pool. Helpers' results stream back as they complete, the caller files
/// them between its own items, and `commit(index, result)` sees them
/// strictly in item order via a reorder buffer — so any fold performed in
/// `commit` accumulates in canonical order and is bit-identical to the
/// sequential loop regardless of worker count or interleaving.
///
/// `task` receives `(index, item)` and must not share mutable state across
/// items; `commit` runs on the calling thread only, so it may freely mutate
/// caller-local accumulators without locking. A panicking task's panic
/// resumes on the caller, and no item above the panicked one is committed.
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
///
/// The caller is worker 0 and files the helpers' results between its own
/// items. A task that panics on the caller unwinds through the scope and
/// drops the receiver, so the helpers stop after their current item; a
/// helper's panic resurfaces from the scope's join once the caller has run
/// out the other items.
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
    // Worker `w`'s next item and whether it was stolen: the front of its
    // own deque, else the *back* of another's (the item its owner would
    // reach last). `None` once every deque is empty; no new items appear.
    let next_item = move |w: usize| {
        let own = deques[w].lock().expect("worker deque poisoned").pop_front();
        own.map(|item| (item, false)).or_else(|| {
            (1..workers)
                .find_map(|off| {
                    deques[(w + off) % workers]
                        .lock()
                        .expect("worker deque poisoned")
                        .pop_back()
                })
                .map(|item| (item, true))
        })
    };
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T, bool)>();
    std::thread::scope(|scope| {
        for w in 1..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some(((idx, item), stolen)) = next_item(w) {
                    if tx.send((idx, task(idx, item), stolen)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        // Owned by this closure, so a panicking task drops it on unwind.
        let rx = rx;
        let mut stats = StealStats::default();
        let mut pending = std::collections::BTreeMap::new();
        let mut next = 0usize;
        let mut file = |(idx, result, stolen): (usize, T, bool)| {
            stats.steals += usize::from(stolen);
            pending.insert(idx, result);
            stats.peak_pending = stats.peak_pending.max(pending.len());
            while let Some(result) = pending.remove(&next) {
                commit(next, result);
                next += 1;
            }
        };
        while let Some(((idx, item), stolen)) = next_item(0) {
            file((idx, task(idx, item), stolen));
            rx.try_iter().for_each(&mut file);
        }
        rx.into_iter().for_each(file);
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
    fn a_single_item_or_a_budget_of_one_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for (items, workers) in [(1, 2), (5, 1)] {
            let mut runs = 0;
            let stats = dispatch_stealing(
                (0..items).collect::<Vec<usize>>(),
                workers,
                |_, _| std::thread::current().id(),
                |_, ran_on| {
                    assert_eq!(ran_on, caller, "{items} items at budget {workers}");
                    runs += 1;
                },
            );
            assert_eq!(runs, items);
            assert_eq!(stats.steals, 0);
        }
    }

    /// Runs `dispatch_stealing` over items `0..8` at budget 2 (the caller
    /// owns `0..4`, the one helper `4..8`), catching the panic `task`
    /// raises: what was committed, the panic message, and the thread the
    /// panicking item ran on.
    fn dispatch_with_a_panic(
        panicking: usize,
        task: impl Fn(usize, &std::sync::atomic::AtomicBool) + Sync,
    ) -> (Vec<usize>, String, std::thread::ThreadId) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let reached = AtomicBool::new(false);
        let ran_on = std::sync::Mutex::new(None);
        let mut committed = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch_stealing(
                (0..8).collect(),
                2,
                |idx, _: usize| {
                    if idx == panicking {
                        *ran_on.lock().unwrap() = Some(std::thread::current().id());
                        reached.store(true, Ordering::SeqCst);
                        panic!("task {idx}");
                    }
                    task(idx, &reached);
                },
                |idx, ()| committed.push(idx),
            )
        }));
        let payload = outcome.expect_err("the panic must resume on the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        let ran_on = ran_on.into_inner().unwrap().expect("the item ran");
        (committed, message, ran_on)
    }

    /// Spins until the panicking item has started.
    fn wait_for(reached: &std::sync::atomic::AtomicBool) {
        while !reached.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_task_panicking_on_the_caller_resumes_with_only_the_items_below_committed() {
        // The helper waits in item 4 until item 2 has started, so it
        // cannot steal item 2: the caller runs 0, 1, then 2 and panics.
        let (committed, message, ran_on) = dispatch_with_a_panic(2, |idx, reached| {
            if idx >= 4 {
                wait_for(reached);
            }
        });
        assert_eq!(ran_on, std::thread::current().id());
        assert_eq!(message, "task 2");
        assert_eq!(committed, [0, 1]);
    }

    #[test]
    fn a_task_panicking_on_a_helper_resumes_on_the_caller_with_only_the_items_below_committed() {
        // The caller waits in item 0 until item 5 has started, so the
        // helper runs 4 and then 5, and panics; the caller runs out the
        // rest, stealing 6 and 7 from the dead helper's deque.
        let (committed, _, ran_on) = dispatch_with_a_panic(5, |idx, reached| {
            if idx == 0 {
                wait_for(reached);
            }
        });
        assert_ne!(ran_on, std::thread::current().id());
        assert_eq!(committed, [0, 1, 2, 3, 4]);
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

    /// Capacity (in `f32`s) currently parked in this thread's scratch pool.
    fn scratch_capacity() -> usize {
        scratch::POOL.with(|pool| pool.borrow().iter().map(Vec::capacity).sum())
    }

    #[test]
    fn scratch_buffers_are_reused_within_a_thread() {
        // Run on a dedicated thread so other tests' pool traffic cannot
        // interfere with the capacity accounting.
        std::thread::spawn(|| {
            let base = scratch_capacity();
            scratch::with_f32s(128, |buf| {
                assert_eq!(buf.len(), 128);
                buf.fill(1.0);
            });
            assert!(scratch_capacity() >= base + 128, "buffer parked");
            let parked = scratch_capacity();
            // A second, smaller borrow must reuse the parked buffer rather
            // than allocate: total pooled capacity stays flat.
            scratch::with_f32s(64, |buf| {
                assert_eq!(buf.len(), 64);
                assert!(buf.iter().all(|&v| v == 1.0), "stale contents kept");
            });
            assert_eq!(scratch_capacity(), parked);
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
