//! A counting global allocator for the trace binary.
//!
//! Only `fedpkd-benchmark-trace` installs it; the timed binary runs on the
//! product's default allocator path, untouched. Counting is per thread and
//! off until [`count`] turns it on for the calling thread, so a probe's
//! numbers are exact and repeat: nothing another thread allocates, and
//! nothing outside the probe, is ever counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation calls and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

#[derive(Clone, Copy)]
struct Tally {
    on: bool,
    counts: AllocCounts,
}

thread_local! {
    // Const-initialized and `Copy`: touching it never allocates and it has
    // no destructor, so the allocator may read it at any point of a
    // thread's life.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { on: false, counts: AllocCounts { allocs: 0, bytes: 0 } })
    };
}

fn note(bytes: usize) {
    // `try_with`: a thread past its TLS teardown simply is not counted.
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        if tally.on {
            tally.counts.allocs += 1;
            tally.counts.bytes += bytes as u64;
            t.set(tally);
        }
    });
}

/// The system allocator plus per-thread counting.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches a `Copy`
// thread-local and never allocates, so the allocator cannot re-enter itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator;
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on for this thread and returns what it
/// allocated. All zeros when [`CountingAlloc`] is not the process's global
/// allocator (the timed binary).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    TALLY.with(|t| {
        t.set(Tally {
            on: true,
            counts: AllocCounts::default(),
        });
    });
    let out = f();
    let counts = TALLY.with(|t| {
        let tally = t.get();
        t.set(Tally {
            on: false,
            counts: AllocCounts::default(),
        });
        tally.counts
    });
    (out, counts)
}

/// Whether [`CountingAlloc`] is installed in this process.
pub fn installed() -> bool {
    count(|| std::hint::black_box(Box::new(0u64))).1.allocs > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary installs the allocator (see `lib.rs`).

    fn fixed_probe() -> Vec<Vec<u32>> {
        (0..17u32).map(|i| vec![i; 1 + i as usize]).collect()
    }

    #[test]
    fn counts_repeat_exactly_on_a_fixed_probe() {
        assert!(installed());
        let (_, first) = count(fixed_probe);
        for _ in 0..5 {
            let (_, again) = count(fixed_probe);
            assert_eq!(again, first);
        }
        // 17 inner vectors plus the outer one (sized up front by `collect`).
        assert_eq!(first.allocs, 18);
        let inner: u64 = (1..=17u64).map(|n| 4 * n).sum();
        assert_eq!(
            first.bytes,
            inner + 17 * std::mem::size_of::<Vec<u32>>() as u64
        );
    }

    #[test]
    fn other_threads_and_code_outside_the_probe_are_not_counted() {
        let noisy = std::thread::spawn(|| {
            for _ in 0..1_000 {
                std::hint::black_box(vec![0u8; 64]);
            }
        });
        let (_, inside) = count(|| std::hint::black_box(vec![0u8; 10]));
        noisy.join().expect("noisy thread");
        std::hint::black_box(vec![0u8; 99]);
        assert_eq!(
            inside,
            AllocCounts {
                allocs: 1,
                bytes: 10
            }
        );
        assert_eq!(count(|| ()).1, AllocCounts::default());
    }
}
