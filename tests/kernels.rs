//! Kernel determinism at the product level: the two backward products must
//! equal their scalar reference (`Tensor::matmul_scalar` composed with
//! `transpose` / `axpy`) bit for bit at every layer shape.

use fedpkd::tensor::Tensor;
use proptest::prelude::*;

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
    /// the scalar reference's materialize-then-multiply, bit for bit.
    #[test]
    fn tr_matmul_matches_scalar_at_layer_widths(
        (x, g) in (batch(), width(), width())
            .prop_flat_map(|(r, m, n)| (activations(r, m), activations(r, n))),
    ) {
        let fast = x.tr_matmul(&g).unwrap();
        let scalar = x.transpose().unwrap().matmul_scalar(&g).unwrap();
        assert_same_bits(&fast, &scalar)?;
    }

    /// `dW += xᵀ·g` at layer shapes: the tile's accumulate epilogue and the
    /// repack fallback equal the scalar reference's materialize, multiply,
    /// then `axpy(1.0, ·)` into the same starting gradient, bit for bit.
    #[test]
    fn tr_matmul_acc_matches_scalar_axpy_at_layer_widths(
        (x, g, grad) in (batch(), width(), width()).prop_flat_map(|(r, m, n)| {
            (activations(r, m), activations(r, n), accumulator(m, n))
        }),
    ) {
        let mut reference = grad.clone();
        let product = x.transpose().unwrap().matmul_scalar(&g).unwrap();
        reference.axpy(1.0, &product).unwrap();
        let mut acc = grad.clone();
        x.tr_matmul_acc(&g, &mut acc).unwrap();
        assert_same_bits(&acc, &reference)?;
    }

    /// `dx = g·Wᵀ` at layer shapes: the blocked `Wᵀ` repack — whole blocks
    /// through the shuffle transpose, partial edge blocks element by
    /// element — equals the scalar reference bit for bit.
    #[test]
    fn matmul_transposed_matches_scalar_at_layer_widths(
        (g, w) in (batch(), width(), width())
            .prop_flat_map(|(m, k, n)| (activations(m, k), activations(n, k))),
    ) {
        let fast = g.matmul_transposed(&w).unwrap();
        let scalar = g.matmul_scalar(&w.transpose().unwrap()).unwrap();
        assert_same_bits(&fast, &scalar)?;
    }
}
