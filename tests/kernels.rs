//! Cross-kernel determinism: a full federated run must produce the exact
//! same history under the scalar reference kernels and the tiled/parallel
//! fast kernels.
//!
//! These tests live in their own integration binary, and take
//! [`MODE_LOCK`], so nothing else runs while a scoped kernel-mode override
//! is held.

use fedpkd::prelude::*;
use fedpkd::tensor::{KernelMode, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The kernel tier is a process-wide switch; every test here holds this
/// lock so one test's override never leaks into another's products.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock_mode() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock has already reported; the
    // unit payload cannot be left inconsistent.
    MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scenario(seed: u64) -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(360)
        .public_size(120)
        .global_test_size(150)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn run_fedpkd(seed: u64) -> RunResult {
    let client = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T11,
    };
    let server = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T20,
    };
    let config = FedPkdConfig {
        client_private_epochs: 2,
        client_public_epochs: 1,
        server_epochs: 2,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    };
    let mut algo = FedPkd::new(scenario(11), vec![client; 3], server, config, seed).unwrap();
    Driver::rounds(2).run_silent(&mut algo)
}

/// The fast kernel tier (register tiling, fused epilogues, packed transposed
/// products, row-parallel dispatch) must reproduce the scalar tier's
/// `RunResult` — history and communication ledger — exactly, on the same
/// seed. Accuracies are compared as full f64 values, so even a one-ulp
/// drift in any forward or backward pass fails this test.
#[test]
fn scalar_and_fast_kernels_produce_identical_runs() {
    let _serial = lock_mode();
    let scalar_run = {
        let _scalar = KernelMode::scoped(KernelMode::Scalar);
        run_fedpkd(77)
    };
    let fast_run = {
        let _fast = KernelMode::scoped(KernelMode::Fast);
        run_fedpkd(77)
    };
    assert_eq!(
        scalar_run.history, fast_run.history,
        "kernel tiers diverged: per-round metrics differ"
    );
    assert_eq!(
        scalar_run.ledger, fast_run.ledger,
        "kernel tiers diverged: communication ledgers differ"
    );
}

/// Strategy: a backward-pass layer width — the capacity-tier widths whole
/// register tiles cover (`Aᵀ·B` reads its operand in place) and ragged
/// ones that take the repack fallback.
fn width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(48usize),
        Just(64),
        Just(80),
        Just(128),
        Just(1),
        Just(10),
        Just(17),
        Just(50),
        Just(127),
    ]
}

/// Strategy: a batch size — the reduction length of `Aᵀ·B` and the row
/// count of `g` in `g·Wᵀ`: a 4-row tail batch, whole and ragged multiples
/// of the tile height, and sizes either side of a transpose block.
fn batch() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(4),
        Just(7),
        Just(16),
        Just(32),
        Just(33),
        Just(48)
    ]
}

/// Strategy: an `[r, c]` tensor with about a quarter of its entries exact
/// zeros, like a post-ReLU activation.
fn activations(r: usize, c: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec((-4.0f32..4.0, 0u8..4), r * c).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .map(|(v, zero)| if zero == 0 { 0.0 } else { v })
            .collect();
        Tensor::from_vec(data, &[r, c]).expect("r·c values")
    })
}

/// Strategy: an `[r, c]` gradient accumulator — non-zero values, `+0.0`
/// (a freshly zeroed gradient) and `-0.0` (which `+0.0` sums must turn
/// into `+0.0`, exactly as `axpy` does).
fn accumulator(r: usize, c: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec((-4.0f32..4.0, 0u8..3), r * c).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .map(|(v, kind)| match kind {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            })
            .collect();
        Tensor::from_vec(data, &[r, c]).expect("r·c values")
    })
}

fn assert_same_bits(fast: &Tensor, scalar: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape(), scalar.shape());
    for (x, y) in fast.as_slice().iter().zip(scalar.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `dW = xᵀ·g` at layer shapes: the in-place register tile (both widths
    /// tile-aligned) and the repack fallback (either width ragged) equal
    /// the scalar tier's materialize-then-multiply, bit for bit.
    #[test]
    fn tr_matmul_matches_scalar_at_layer_widths(
        (x, g) in (batch(), width(), width())
            .prop_flat_map(|(r, m, n)| (activations(r, m), activations(r, n))),
    ) {
        let _serial = lock_mode();
        let _fast = KernelMode::scoped(KernelMode::Fast);
        let fast = x.tr_matmul(&g).unwrap();
        let scalar = x.transpose().unwrap().matmul_scalar(&g).unwrap();
        assert_same_bits(&fast, &scalar)?;
    }

    /// `dW += xᵀ·g` at layer shapes: the tile's accumulate epilogue and the
    /// repack fallback equal the scalar tier's materialize, multiply, then
    /// `axpy(1.0, ·)` into the same starting gradient, bit for bit — and
    /// the scalar tier's own `tr_matmul_acc` is that reference.
    #[test]
    fn tr_matmul_acc_matches_scalar_axpy_at_layer_widths(
        (x, g, grad) in (batch(), width(), width()).prop_flat_map(|(r, m, n)| {
            (activations(r, m), activations(r, n), accumulator(m, n))
        }),
    ) {
        let _serial = lock_mode();
        let mut reference = grad.clone();
        let product = x.transpose().unwrap().matmul_scalar(&g).unwrap();
        reference.axpy(1.0, &product).unwrap();
        for mode in [KernelMode::Fast, KernelMode::Scalar] {
            let _mode = KernelMode::scoped(mode);
            let mut acc = grad.clone();
            x.tr_matmul_acc(&g, &mut acc).unwrap();
            assert_same_bits(&acc, &reference)?;
        }
    }

    /// `dx = g·Wᵀ` at layer shapes: the blocked `Wᵀ` repack — whole blocks
    /// through the shuffle transpose, partial edge blocks element by
    /// element — equals the scalar tier bit for bit.
    #[test]
    fn matmul_transposed_matches_scalar_at_layer_widths(
        (g, w) in (batch(), width(), width())
            .prop_flat_map(|(m, k, n)| (activations(m, k), activations(n, k))),
    ) {
        let _serial = lock_mode();
        let _fast = KernelMode::scoped(KernelMode::Fast);
        let fast = g.matmul_transposed(&w).unwrap();
        let scalar = g.matmul_scalar(&w.transpose().unwrap()).unwrap();
        assert_same_bits(&fast, &scalar)?;
    }
}
