//! The process-wide switch behind [`crate::KernelMode`] and
//! [`crate::plan::PlanMode`]: one atomic that reads as its default unless
//! an override is live, and at most one live override at a time.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
pub(crate) struct ModeSwitch {
    raw: AtomicU8,
    default: u8,
    /// Held by the live [`Override`], if any.
    exclusive: Mutex<()>,
}

impl ModeSwitch {
    pub(crate) const fn new(default: u8) -> Self {
        Self {
            raw: AtomicU8::new(default),
            default,
            exclusive: Mutex::new(()),
        }
    }

    /// The default, or the live override's value. Worker threads spawned
    /// under an override read it too, which is why the switch is
    /// process-wide rather than thread-local.
    pub(crate) fn get(&self) -> u8 {
        self.raw.load(Ordering::Relaxed)
    }

    /// Sets the switch to `raw` until the returned guard drops. Blocks
    /// while another override is live — on any thread, so two tests
    /// comparing modes in parallel each see their own mode for as long as
    /// they hold their guard, and a second call on the *same* thread would
    /// wait on itself for ever.
    pub(crate) fn override_with(&'static self, raw: u8) -> Override {
        // The lock guards no data, so a holder that panicked left nothing
        // half-updated behind it.
        let exclusive = self
            .exclusive
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.raw.store(raw, Ordering::Relaxed);
        Override {
            switch: self,
            _exclusive: exclusive,
        }
    }
}

/// Restores the switch's default on drop (also on panic-unwind), then lets
/// the next override in.
#[derive(Debug)]
pub(crate) struct Override {
    switch: &'static ModeSwitch,
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for Override {
    fn drop(&mut self) {
        self.switch
            .raw
            .store(self.switch.default, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Two threads overriding at once: each sees its own value for its
    /// guard's whole lifetime, because the second `override_with` cannot
    /// return before the first guard has dropped; afterwards the default is
    /// back.
    #[test]
    fn overrides_on_two_threads_each_see_their_own_value_throughout() {
        static SWITCH: ModeSwitch = ModeSwitch::new(1);
        let second_calling = AtomicBool::new(false);
        let first_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let first = SWITCH.override_with(0);
            s.spawn(|| {
                second_calling.store(true, Ordering::SeqCst);
                let _second = SWITCH.override_with(2);
                assert!(
                    first_done.load(Ordering::SeqCst),
                    "second override began inside the first"
                );
                assert_eq!(SWITCH.get(), 2);
            });
            while !second_calling.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The other thread is now inside `override_with` (or about to
            // be); give it every chance to overwrite the value.
            for _ in 0..10_000 {
                assert_eq!(SWITCH.get(), 0);
                std::thread::yield_now();
            }
            first_done.store(true, Ordering::SeqCst);
            drop(first);
        });
        assert_eq!(SWITCH.get(), 1);
    }
}
