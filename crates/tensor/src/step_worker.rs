//! The step worker: a second thread for the part of a training step that
//! nothing in the backward pass waits for.
//!
//! Of a fused training step only the input gradients `dx` chain from layer
//! to layer. A parameter's gradient products (`dW = xᵀ·g`, `db`) and its
//! optimizer update feed nothing until the next forward pass, so
//! [`ClassifierModel::backward_step_on`] hands them to a [`StepWorker`]
//! instead of running them inline: as a [`ParamHook`] it takes each
//! parameter out of the model *by value* the moment the pass is done with
//! it (with, for a fused-ReLU [`Linear`](crate::nn::Linear), the unapplied
//! [`PendingGrads`]), queues it for the thread running
//! [`serve`](StepWorker::serve), and puts every parameter back before the
//! step returns. Ownership moves, nothing is shared mutably, and the worker
//! runs the kernels the inline step runs ([`PendingGrads::apply`],
//! [`step_and_zero`]) on the same operands; parameters are independent of
//! each other, so which thread did the work cannot show in any bit.
//!
//! The worker does the same job slower than the caller would (its operands
//! were last touched on another core), so handing over everything makes
//! the caller wait at the end of the pass. The balance rule: while more
//! than [`BACKLOG_LIMIT`] jobs are unfinished, the caller applies a `dW`
//! product itself before handing the layer over.
//!
//! [`ClassifierModel::backward_step_on`]: crate::models::ClassifierModel::backward_step_on

use crate::nn::{Layer, Param, ParamHook, PendingGrads};
use crate::optim::{step_and_zero, Optimizer};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Unfinished jobs above which the caller keeps a `dW` product for itself.
pub const BACKLOG_LIMIT: usize = 4;

/// Polls of a wait that only spin, and polls after those that give the core
/// away each time (so a peer sharing it runs at once); then the wait blocks.
const BUSY_POLLS: usize = 128;
const YIELD_POLLS: usize = 1024;

/// Polls `ready` for a bounded time. The caller re-checks under the mailbox
/// lock and blocks there, so a `false` here costs time, never progress.
fn poll(ready: impl Fn() -> bool) {
    for round in 0..BUSY_POLLS + YIELD_POLLS {
        if ready() {
            return;
        }
        if round < BUSY_POLLS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// What travels to the worker: parameters by value, numbered by slot.
enum Job {
    Param {
        slot: usize,
        param: Param,
    },
    /// A `Linear`'s weight (at `slot`) and bias with the gradient products
    /// they still lack.
    Linear {
        slot: usize,
        weight: Param,
        bias: Param,
        pending: PendingGrads,
    },
}

#[derive(Default)]
struct Mailbox {
    jobs: VecDeque<Job>,
    /// Updated parameters by slot, until `finish_step` puts them back.
    returned: Vec<Option<Param>>,
    worker_asleep: bool,
    caller_asleep: bool,
    /// The payload of a panic on the worker's thread, for the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// Moves `param` out of the model, leaving a placeholder in its place.
fn take(param: &mut Param) -> Param {
    std::mem::replace(param, Param::placeholder())
}

/// One training call's step worker: the optimizer, and the mailbox between
/// the training thread and the thread running [`serve`](Self::serve).
///
/// Scoped to a call, not to the process: it borrows the call's optimizer,
/// and a [`std::thread::scope`] around the call joins its thread.
pub struct StepWorker<'a> {
    /// Only ever contended by mistake: the caller opens a step while the
    /// worker is idle, the worker updates while a step is open.
    optimizer: Mutex<&'a mut dyn Optimizer>,
    mailbox: Mutex<Mailbox>,
    wake_worker: Condvar,
    wake_caller: Condvar,
    /// Jobs handed over and not yet given back. Written under the mailbox
    /// lock, which is what publishes the jobs themselves; the relaxed reads
    /// outside it (polling, the balance rule) are hints.
    backlog: AtomicUsize,
    /// Likewise written under the mailbox lock.
    closed: AtomicBool,
}

impl<'a> StepWorker<'a> {
    /// A worker updating through `optimizer`. Nothing runs until a thread
    /// calls [`serve`](Self::serve).
    pub fn new(optimizer: &'a mut dyn Optimizer) -> Self {
        Self {
            optimizer: Mutex::new(optimizer),
            mailbox: Mutex::default(),
            wake_worker: Condvar::new(),
            wake_caller: Condvar::new(),
            backlog: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Every update under this lock is a push, a pop or a flag, valid at
    /// each step, so a poisoned mailbox is still a consistent one.
    fn mailbox(&self) -> MutexGuard<'_, Mailbox> {
        self.mailbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn optimizer(&self) -> MutexGuard<'_, &'a mut dyn Optimizer> {
        self.optimizer
            .lock()
            .expect("a thread panicked inside an optimizer update")
    }

    /// The worker thread's body: runs jobs until [`close`](Self::close). A
    /// panic in a job ends the loop and resurfaces from the training
    /// thread's current step instead.
    pub fn serve(&self) {
        let served = catch_unwind(AssertUnwindSafe(|| {
            while let Some(job) = self.next_job() {
                self.run(job);
            }
        }));
        if let Err(payload) = served {
            let mut mailbox = self.mailbox();
            mailbox.panic = Some(payload);
            if mailbox.caller_asleep {
                self.wake_caller.notify_one();
            }
        }
    }

    /// Tells the worker thread to return once its queue is empty.
    pub fn close(&self) {
        let mailbox = self.mailbox();
        self.closed.store(true, Ordering::Relaxed);
        if mailbox.worker_asleep {
            self.wake_worker.notify_one();
        }
    }

    /// [`close`](Self::close) when the returned guard drops, so a training
    /// thread that unwinds still releases the worker (and the scope joining
    /// it).
    pub fn close_on_drop(&self) -> CloseOnDrop<'_, 'a> {
        CloseOnDrop(self)
    }

    fn next_job(&self) -> Option<Job> {
        poll(|| self.backlog.load(Ordering::Relaxed) > 0 || self.closed.load(Ordering::Relaxed));
        let mut mailbox = self.mailbox();
        loop {
            if let Some(job) = mailbox.jobs.pop_front() {
                return Some(job);
            }
            if self.closed.load(Ordering::Relaxed) {
                return None;
            }
            mailbox.worker_asleep = true;
            mailbox = self
                .wake_worker
                .wait(mailbox)
                .unwrap_or_else(PoisonError::into_inner);
            mailbox.worker_asleep = false;
        }
    }

    fn run(&self, job: Job) {
        match job {
            Job::Param { slot, mut param } => {
                step_and_zero(&mut **self.optimizer(), slot, &mut param);
                self.give_back([(slot, param)]);
            }
            Job::Linear {
                slot,
                mut weight,
                mut bias,
                pending,
            } => {
                // Consumed here, so the layer is the input buffer's sole
                // owner again before the caller can see the job finished.
                pending.apply(&mut weight, &mut bias);
                let mut optimizer = self.optimizer();
                step_and_zero(&mut **optimizer, slot, &mut weight);
                step_and_zero(&mut **optimizer, slot + 1, &mut bias);
                drop(optimizer);
                self.give_back([(slot, weight), (slot + 1, bias)]);
            }
        }
    }

    fn give_back<const N: usize>(&self, params: [(usize, Param); N]) {
        let mut mailbox = self.mailbox();
        for (slot, param) in params {
            mailbox.returned[slot] = Some(param);
        }
        self.backlog.fetch_sub(1, Ordering::Relaxed);
        if mailbox.caller_asleep {
            self.wake_caller.notify_one();
        }
    }

    fn hand_over(&self, job: Job) {
        let mut mailbox = self.mailbox();
        mailbox.jobs.push_back(job);
        self.backlog.fetch_add(1, Ordering::Relaxed);
        if mailbox.worker_asleep {
            self.wake_worker.notify_one();
        }
    }

    /// Opens a step over `model` on the calling thread.
    pub(crate) fn begin_step(&self, model: &dyn Layer) {
        self.optimizer().begin_step(model);
        // Sized here, once, so that no later push grows the queue: when it
        // would have grown depends on timing, and this thread's allocations
        // must not.
        let slots = model.slot_count();
        let mut mailbox = self.mailbox();
        mailbox.returned.resize_with(slots, || None);
        mailbox.jobs.reserve(slots);
    }

    /// Waits for every job of the step and puts the parameters back.
    pub(crate) fn finish_step(&self, model: &mut dyn Layer) {
        poll(|| self.backlog.load(Ordering::Relaxed) == 0);
        let mut mailbox = self.mailbox();
        loop {
            if let Some(payload) = mailbox.panic.take() {
                drop(mailbox);
                resume_unwind(payload);
            }
            if self.backlog.load(Ordering::Relaxed) == 0 {
                break;
            }
            mailbox.caller_asleep = true;
            mailbox = self
                .wake_caller
                .wait(mailbox)
                .unwrap_or_else(PoisonError::into_inner);
            mailbox.caller_asleep = false;
        }
        let mut returned = mailbox.returned.iter_mut();
        model.visit_params_mut(&mut |param| {
            if let Some(updated) = returned.next().and_then(Option::take) {
                *param = updated;
            }
        });
    }
}

/// The guard of [`StepWorker::close_on_drop`].
pub struct CloseOnDrop<'w, 'a>(&'w StepWorker<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl ParamHook for &StepWorker<'_> {
    fn param(&mut self, slot: usize, param: &mut Param) {
        let param = take(param);
        self.hand_over(Job::Param { slot, param });
    }

    fn linear(
        &mut self,
        slot: usize,
        weight: &mut Param,
        bias: &mut Param,
        mut pending: PendingGrads,
    ) {
        // The layer is handed over either way, with `db` pending, so what
        // this thread allocates does not depend on the (timing-dependent)
        // backlog: `dW` accumulates in place.
        if self.backlog.load(Ordering::Relaxed) > BACKLOG_LIMIT {
            pending.apply_weight(weight);
        }
        self.hand_over(Job::Linear {
            slot,
            weight: take(weight),
            bias: take(bias),
            pending,
        });
    }
}
