//! The step worker: a second thread for the part of a training step that
//! nothing in the backward pass waits for.
//!
//! Of a fused training step only the input gradients `dx` chain from layer
//! to layer. A parameter's gradient products (`dW = xᵀ·g`, `db`) and its
//! optimizer update feed nothing until the next forward pass reaches that
//! parameter's layer, so [`ClassifierModel::backward_step_on`] hands them to
//! a [`StepWorker`] instead of running them inline: as a [`ParamHook`] it
//! takes each parameter out of the model *by value* the moment the pass is
//! done with it (with, for every [`Linear`](crate::nn::Linear), the
//! unapplied [`PendingGrads`]) and queues it for the thread running
//! [`serve`](StepWorker::serve). Every layer's
//! [`backward_with`](Layer::backward_with) hands its parameters over only
//! after computing its `dx`, so nothing the pass still reads leaves the
//! model. The training thread keeps only what the
//! backward chain waits for — the forward and each layer's `dx` — and the
//! worker gets the rest. The step returns with parameters still out. The
//! next forward ([`ClassifierModel::forward_train_on`]) takes each layer's
//! parameters back just before that layer runs
//! ([`reclaim`](StepWorker::reclaim)), so the worker's tail overlaps the
//! forward's head; the worker takes the newest job first, which is the
//! lowest layer, the first one the forward needs. After the last step,
//! [`finish_step`](StepWorker::finish_step) puts back whatever is still out.
//!
//! Ownership moves, nothing is shared mutably, and the worker runs the
//! kernels the inline step runs ([`PendingGrads::step`], [`step_and_zero`])
//! on the same operands; parameters are independent of each other, so which
//! thread did the work cannot show in any bit. A worker made
//! [`inline_until_served`](StepWorker::inline_until_served) does each
//! update inline, as the plain fused step does, until a thread serves, so a
//! thread busy with something else may start serving mid-call.
//!
//! [`ClassifierModel::backward_step_on`]: crate::models::ClassifierModel::backward_step_on
//! [`ClassifierModel::forward_train_on`]: crate::models::ClassifierModel::forward_train_on

use crate::nn::{Layer, Param, ParamHook, PendingGrads};
use crate::optim::{step_and_zero, Optimizer};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
        pending: PendingGrads<'static>,
    },
}

/// Where a parameter is, by slot, during a step.
#[derive(Default)]
enum Slot {
    /// In the model.
    #[default]
    Home,
    /// Handed over, not updated yet.
    Away,
    /// Updated, until a [`StepWorker::reclaim`] puts it back.
    Filed(Param),
}

#[derive(Default)]
struct Mailbox {
    /// A stack: the worker takes the newest job first.
    jobs: Vec<Job>,
    slots: Vec<Slot>,
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
    /// Only ever contended by mistake: the caller opens a step once every
    /// parameter is back, and updates inline only while no thread serves.
    optimizer: Mutex<&'a mut dyn Optimizer>,
    mailbox: Mutex<Mailbox>,
    wake_worker: Condvar,
    wake_caller: Condvar,
    /// Jobs handed over and not yet given back. Written under the mailbox
    /// lock, which is what publishes the jobs themselves; the relaxed reads
    /// outside it (polling) are hints.
    backlog: AtomicUsize,
    /// Likewise written under the mailbox lock.
    closed: AtomicBool,
    /// Whether the hook hands over: from the start, or once a thread runs
    /// [`serve`](Self::serve). Publishes nothing: a job still travels
    /// through the mailbox lock, and reading `false` late only means one
    /// more update inline.
    serving: AtomicBool,
}

impl<'a> StepWorker<'a> {
    /// A worker updating through `optimizer`, for a thread about to call
    /// [`serve`](Self::serve): jobs queue until it does.
    pub fn new(optimizer: &'a mut dyn Optimizer) -> Self {
        Self::with_serving(optimizer, true)
    }

    /// A worker for a thread with something else to do first: until it
    /// calls [`serve`](Self::serve), the training thread updates inline.
    pub fn inline_until_served(optimizer: &'a mut dyn Optimizer) -> Self {
        Self::with_serving(optimizer, false)
    }

    fn with_serving(optimizer: &'a mut dyn Optimizer, serving: bool) -> Self {
        Self {
            optimizer: Mutex::new(optimizer),
            mailbox: Mutex::default(),
            wake_worker: Condvar::new(),
            wake_caller: Condvar::new(),
            backlog: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            serving: AtomicBool::new(serving),
        }
    }

    /// Every update under this lock is a push, a pop, a slot change or a
    /// flag, valid at each step, so a poisoned mailbox is still a
    /// consistent one.
    fn mailbox(&self) -> MutexGuard<'_, Mailbox> {
        self.mailbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn optimizer(&self) -> MutexGuard<'_, &'a mut dyn Optimizer> {
        self.optimizer
            .lock()
            .expect("a thread panicked inside an optimizer update")
    }

    /// The worker thread's body: runs jobs until [`close`](Self::close). A
    /// panic in a job ends the loop and resurfaces on the training thread
    /// instead, at its next [`reclaim`](Self::reclaim).
    pub fn serve(&self) {
        self.serving.store(true, Ordering::Relaxed);
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
            if let Some(job) = mailbox.jobs.pop() {
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
                // `step` consumes `pending`, so the layer is the input
                // buffer's sole owner again before the caller can see the
                // job finished.
                pending.step(&mut **self.optimizer(), slot, &mut weight, &mut bias);
                self.give_back([(slot, weight), (slot + 1, bias)]);
            }
        }
    }

    fn give_back<const N: usize>(&self, params: [(usize, Param); N]) {
        let mut mailbox = self.mailbox();
        for (slot, param) in params {
            mailbox.slots[slot] = Slot::Filed(param);
        }
        self.backlog.fetch_sub(1, Ordering::Relaxed);
        if mailbox.caller_asleep {
            self.wake_caller.notify_one();
        }
    }

    fn hand_over(&self, job: Job) {
        let slots = match job {
            Job::Param { slot, .. } => slot..slot + 1,
            Job::Linear { slot, .. } => slot..slot + 2,
        };
        let mut mailbox = self.mailbox();
        mailbox.slots[slots].fill_with(|| Slot::Away);
        mailbox.jobs.push(job);
        self.backlog.fetch_add(1, Ordering::Relaxed);
        if mailbox.worker_asleep {
            self.wake_worker.notify_one();
        }
    }

    /// Opens a step over `model` on the calling thread. Every parameter
    /// must be back: the step's scalars (Adam's `t` and bias corrections)
    /// change here, and an update still in flight would read them.
    pub(crate) fn begin_step(&self, model: &dyn Layer) {
        // Sized here, once, so that no later push grows the queue: when it
        // would have grown depends on timing, and this thread's allocations
        // must not.
        let slots = model.slot_count();
        let mut mailbox = self.mailbox();
        debug_assert!(
            mailbox.slots.iter().all(|slot| matches!(slot, Slot::Home)),
            "a step opened with parameters still out of the model"
        );
        mailbox.slots.resize_with(slots, Slot::default);
        mailbox.jobs.reserve(slots);
        drop(mailbox);
        self.optimizer().begin_step(model);
    }

    /// Waits until the parameters of `layer` — the child of the stepped
    /// model whose first slot is `first_slot` — are updated, and puts them
    /// back. Resumes a panic raised on the worker's thread.
    pub fn reclaim(&self, first_slot: usize, layer: &mut dyn Layer) {
        let range = first_slot..first_slot + layer.slot_count();
        let mut mailbox = self.wait_until(|mailbox| {
            mailbox
                .slots
                .get(range.clone())
                .is_none_or(|slots| !slots.iter().any(|slot| matches!(slot, Slot::Away)))
        });
        let Some(slots) = mailbox.slots.get_mut(range) else {
            return;
        };
        let mut slots = slots.iter_mut();
        layer.visit_params_mut(&mut |param| {
            if let Some(Slot::Filed(updated)) = slots.next().map(std::mem::take) {
                *param = updated;
            }
        });
    }

    /// Waits for every job and puts every parameter of `model` back: what a
    /// training call does after its last step, so nothing outside the call
    /// can observe a hole. Resumes a panic raised on the worker's thread.
    pub fn finish_step(&self, model: &mut dyn Layer) {
        self.reclaim(0, model);
    }

    /// The training thread's wait: returns the mailbox locked once `ready`
    /// holds of it, or resumes the worker's panic. Only the worker changes
    /// the mailbox meanwhile, and every job it files lowers the backlog, so
    /// the wait spins on that and sleeps only once a whole poll saw none.
    fn wait_until(&self, ready: impl Fn(&Mailbox) -> bool) -> MutexGuard<'_, Mailbox> {
        let mut mailbox = self.mailbox();
        loop {
            if let Some(payload) = mailbox.panic.take() {
                drop(mailbox);
                resume_unwind(payload);
            }
            if ready(&mailbox) {
                return mailbox;
            }
            let backlog = self.backlog.load(Ordering::Relaxed);
            drop(mailbox);
            poll(|| self.backlog.load(Ordering::Relaxed) != backlog);
            mailbox = self.mailbox();
            if self.backlog.load(Ordering::Relaxed) == backlog && mailbox.panic.is_none() {
                mailbox.caller_asleep = true;
                mailbox = self
                    .wake_caller
                    .wait(mailbox)
                    .unwrap_or_else(PoisonError::into_inner);
                mailbox.caller_asleep = false;
            }
        }
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
        if !self.serving.load(Ordering::Relaxed) {
            return step_and_zero(&mut **self.optimizer(), slot, param);
        }
        let param = take(param);
        self.hand_over(Job::Param { slot, param });
    }

    fn linear(
        &mut self,
        slot: usize,
        weight: &mut Param,
        bias: &mut Param,
        pending: PendingGrads<'_>,
    ) {
        if !self.serving.load(Ordering::Relaxed) {
            return pending.step(&mut **self.optimizer(), slot, weight, bias);
        }
        self.hand_over(Job::Linear {
            slot,
            weight: take(weight),
            bias: take(bias),
            // The step's one copy of a plain layer's lent `grad_out`.
            pending: pending.into_owned(),
        });
    }
}
