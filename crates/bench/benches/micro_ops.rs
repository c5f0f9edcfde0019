//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! tensor kernels, FedPKD's aggregation and filtering, and the wire codec.

use criterion::{criterion_group, criterion_main, Criterion};
use fedpkd_core::fedpkd::filter::filter_public;
use fedpkd_core::fedpkd::logits::aggregate_logits;
use fedpkd_netsim::{Message, Wire};
use fedpkd_rng::Rng;
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::Tensor;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let a = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()))
    });
    let a = Tensor::rand_uniform(&[32, 256], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[256, 128], -1.0, 1.0, &mut rng);
    c.bench_function("matmul_batch32_256x128", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()))
    });
    // ReLU-style left operand: ~half the entries are exact zeros. The two
    // kernel tiers treat this case oppositely, and both choices are
    // measured, not assumed (see `fedpkd_tensor::kernels` for why both are
    // bit-identical anyway):
    //
    // - The *scalar* reference tier keeps the historical per-row zero-skip
    //   (`if a == 0.0 { continue; }`), now gated on the right operand being
    //   all-finite so `0·NaN` propagates instead of being masked. On
    //   post-ReLU rows the skip still wins ~25% for that tier.
    // - The *fast* tiled tier is fully branch-free: inside a register tile
    //   the same skip mispredicts on ~50%-sparse activations and blocks
    //   vectorization, which measured *slower* than doing all the work.
    //   Dropping it made the tile straight-line vector code and is where
    //   the 2–3× per-product speedup comes from.
    //
    // This bench runs whichever tier is active (the default is Fast); flip
    // with a `KernelMode::scoped` guard and re-measure both before
    // touching either inner loop. `bash benchmark/run.sh trace pkd_hetero`
    // gives the end-to-end phase view.
    let mut a = Tensor::rand_uniform(&[32, 256], -1.0, 1.0, &mut rng);
    for x in a.as_mut_slice() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
    c.bench_function("matmul_relu32_256x128", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()))
    });
    // The backward-pass product shapes: dW = xᵀ·g and dx = g·Wᵀ, both
    // served by dedicated kernels (no materialized transposes on the fast
    // tier).
    let x64 = Tensor::rand_uniform(&[64, 128], -1.0, 1.0, &mut rng);
    let g64 = Tensor::rand_uniform(&[64, 128], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[128, 128], -1.0, 1.0, &mut rng);
    c.bench_function("tr_matmul_dw_64x128x128", |bench| {
        bench.iter(|| black_box(x64.tr_matmul(&g64).unwrap()))
    });
    c.bench_function("matmul_transposed_dx_64x128x128", |bench| {
        bench.iter(|| black_box(g64.matmul_transposed(&w).unwrap()))
    });
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(2);
    let logits = Tensor::rand_uniform(&[500, 10], -4.0, 4.0, &mut rng);
    c.bench_function("softmax_500x10", |bench| {
        bench.iter(|| black_box(softmax(&logits, 2.0)))
    });
    let logits = Tensor::rand_uniform(&[500, 100], -4.0, 4.0, &mut rng);
    c.bench_function("softmax_500x100", |bench| {
        bench.iter(|| black_box(softmax(&logits, 2.0)))
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(3);
    let clients: Vec<Tensor> = (0..10)
        .map(|_| Tensor::rand_uniform(&[500, 10], -4.0, 4.0, &mut rng))
        .collect();
    c.bench_function("aggregate_logits_variance_10c_500x10", |bench| {
        bench.iter(|| black_box(aggregate_logits(&clients, true)))
    });
    c.bench_function("aggregate_logits_uniform_10c_500x10", |bench| {
        bench.iter(|| black_box(aggregate_logits(&clients, false)))
    });
}

fn bench_filter(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(4);
    let features = Tensor::rand_uniform(&[500, 64], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..500).map(|i| i % 10).collect();
    let protos: Vec<Option<Tensor>> = (0..10)
        .map(|_| Some(Tensor::rand_uniform(&[64], -1.0, 1.0, &mut rng)))
        .collect();
    c.bench_function("filter_public_500x64_theta70", |bench| {
        bench.iter(|| black_box(filter_public(&features, &labels, &protos, 0.7)))
    });
}

fn bench_wire(c: &mut Criterion) {
    let msg = Message::Logits {
        sample_ids: (0..500).collect(),
        num_classes: 10,
        values: vec![0.5; 5_000],
    };
    c.bench_function("wire_encode_logits_500x10", |bench| {
        bench.iter(|| black_box(msg.to_bytes()))
    });
    let bytes = msg.to_bytes();
    c.bench_function("wire_decode_logits_500x10", |bench| {
        bench.iter(|| {
            let mut slice = bytes.as_slice();
            black_box(Message::decode(&mut slice).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_softmax,
    bench_aggregation,
    bench_filter,
    bench_wire
);
criterion_main!(benches);
