//! A plain `Linear` lends its output gradient to the hook: the backward
//! pass copies `grad_out` only for a hook that keeps the products past the
//! call — the serving [`StepWorker`], which owns it before handing it over.
//!
//! A noting allocator counts, on the calling thread, the allocations of one
//! watched size: the byte size of `grad_out`, chosen so no other buffer of
//! the pass (`dx`, the weight, the bias sums, kernel scratch) shares it.
//! Each count is taken on the second step, after every pool and queue the
//! first one sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedpkd_rng::Rng;
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::nn::{Layer, Linear, Param, ParamHook, PendingGrads, Sequential};
use fedpkd_tensor::optim::Adam;
use fedpkd_tensor::step_worker::StepWorker;
use fedpkd_tensor::Tensor;

thread_local! {
    /// The allocation size being counted on this thread (0: none).
    static WATCHED: Cell<usize> = const { Cell::new(0) };
    /// Allocations of the watched size on this thread since the last reset.
    static HITS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requests of the watched size (`realloc`
/// and `alloc_zeroed` default to `alloc`).
struct Noting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the note touches two `Cell<usize>`s
// with no destructor and never allocates.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread may allocate while its locals are torn down.
        let _ = WATCHED.try_with(|watched| {
            if watched.get() == layout.size() {
                HITS.with(|hits| hits.set(hits.get() + 1));
            }
        });
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's block and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Noting = Noting;

const ROWS: usize = 13;
const IN: usize = 6;
const OUT: usize = 11;

/// Allocations of `grad`'s byte size that `run` makes on this thread.
fn copies_of(grad: &Tensor, run: impl FnOnce()) -> usize {
    WATCHED.with(|watched| watched.set(std::mem::size_of_val(grad.as_slice())));
    HITS.with(|hits| hits.set(0));
    run();
    WATCHED.with(|watched| watched.set(0));
    HITS.with(Cell::get)
}

fn operands() -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from_u64(3);
    let x = Tensor::rand_uniform(&[ROWS, IN], -1.0, 1.0, &mut rng);
    let g = Tensor::rand_uniform(&[ROWS, OUT], -1.0, 1.0, &mut rng);
    (x, g)
}

/// Copies of `grad_out` in a plain layer's second `backward_with` under
/// `hook`.
fn plain_layer_copies(hook: &mut dyn ParamHook) -> usize {
    let (x, g) = operands();
    let mut layer = Linear::new(IN, OUT, &mut Rng::seed_from_u64(4));
    layer.forward(&x, true);
    layer.backward_with(&g, 0, hook);
    layer.forward(&x, true);
    copies_of(&g, || {
        layer.backward_with(&g, 0, hook);
    })
}

/// Drops the products unrun, as a critic that wants only `dx` does.
struct DropProducts;

impl ParamHook for DropProducts {
    fn param(&mut self, _: usize, param: &mut Param) {
        param.zero_grad();
    }

    fn linear(&mut self, _: usize, _: &mut Param, _: &mut Param, _: PendingGrads<'_>) {}
}

#[test]
fn the_default_hook_applies_a_borrowed_gradient() {
    let mut applied = 0;
    let mut hook = |_: usize, param: &mut Param| {
        applied += 1;
        param.zero_grad();
    };
    assert_eq!(plain_layer_copies(&mut hook), 0);
    assert_eq!(applied, 4, "both parameters, at both steps");
}

#[test]
fn a_hook_that_drops_the_products_copies_nothing() {
    assert_eq!(plain_layer_copies(&mut DropProducts), 0);
}

/// Copies of the logit gradient in the second of two worker steps of a
/// model that is one plain `Linear`.
fn worker_step_copies(serve: bool) -> usize {
    let (x, g) = operands();
    let head = Linear::new(IN, OUT, &mut Rng::seed_from_u64(4));
    let mut model = ClassifierModel::new(Sequential::empty(), head, IN);
    let mut optimizer = Adam::new(0.01);
    let worker = if serve {
        StepWorker::new(&mut optimizer)
    } else {
        StepWorker::inline_until_served(&mut optimizer)
    };
    std::thread::scope(|scope| {
        let _close = worker.close_on_drop();
        if serve {
            scope.spawn(|| worker.serve());
        }
        model.forward_train_on(&x, &worker);
        model.backward_step_on(&g, None, &worker);
        model.forward_train_on(&x, &worker);
        let copies = copies_of(&g, || {
            model.backward_step_on(&g, None, &worker);
        });
        worker.finish_step(&mut model);
        copies
    })
}

#[test]
fn only_a_serving_worker_owns_the_gradient_it_carries_off() {
    assert_eq!(worker_step_copies(false), 0, "inline: applied borrowed");
    assert_eq!(worker_step_copies(true), 1, "served: one owned copy");
}
