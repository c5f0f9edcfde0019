//! Data-free distillation: a server-side sample generator
//! (FedGen/FedDistill extension).
//!
//! FedPKD as published assumes a shared unlabeled public dataset. The
//! data-free mode drops that assumption: a small conditional MLP generator
//! synthesizes the round's transfer set on the server, the batch is
//! broadcast to the participants (charged to the downlink ledger), and the
//! clients score it exactly as they would the public set. After the
//! aggregation phase the generator is refined against the *client logit
//! ensemble*: its samples are pushed to (1) be classified as their
//! intended class by the ensemble-distilled server model, (2) match the
//! aggregated teacher distribution, and (3) embed near the global
//! prototype of their class — the FedGen recipe adapted to a server that
//! never holds client models, only their aggregated knowledge.
//!
//! Determinism: latents come from a dedicated RNG stream owned by the
//! algorithm state and every loss is computed in fixed row order with `f64`
//! accumulation, so generated batches and generator updates replay
//! bit-identically across worker counts.
//!
//! The critic (the server model) forwards in a frozen training pass
//! ([`Pass::Frozen`]): its normalization layers use batch statistics and
//! can backpropagate, but their running statistics stay put, and its
//! `Linear`s keep nothing for a weight gradient. [`refine`] never steps
//! its parameters and leaves its gradients at zero, so the critic need not
//! be the server itself: a round hands it a
//! copy — built from the server's spec and loaded with the server's state
//! vector — and, at a worker budget of 2 or more, refines on its own thread
//! while the server distills; the copy is as good a critic as the server,
//! bit for bit.

use fedpkd_rng::Rng;
use fedpkd_tensor::loss::{CrossEntropy, DistillKl, Mse};
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::nn::{Layer, Linear, Param, ParamHook, Pass, PendingGrads, Relu, Sequential};
use fedpkd_tensor::optim::{Adam, FusedStep, Optimizer};
use fedpkd_tensor::Tensor;

/// Hidden width of the generator MLP.
const HIDDEN: usize = 64;

/// Weight of the input-space moment-matching term in [`refine`]. The
/// moment pull is the only loss grounded in *real* data — the CE/KL terms
/// only relay the ensemble's opinion of the current samples, which is
/// uninformative while those samples are still noise — so it gets enough
/// weight to dominate until the generator lands in-distribution.
const MOMENT_WEIGHT: f32 = 10.0;

/// A class-conditional sample generator: `z ⊕ onehot(y) → x`.
pub struct Generator {
    net: Sequential,
    latent_dim: usize,
    num_classes: usize,
    sample_dim: usize,
}

impl Generator {
    /// Builds the generator for `sample_dim`-dimensional samples.
    pub fn new(latent_dim: usize, num_classes: usize, sample_dim: usize, rng: &mut Rng) -> Self {
        let net = Sequential::new(vec![
            Box::new(Linear::new(latent_dim + num_classes, HIDDEN, rng)) as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(Linear::new(HIDDEN, HIDDEN, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(HIDDEN, sample_dim, rng)),
        ]);
        Self {
            net,
            latent_dim,
            num_classes,
            sample_dim,
        }
    }

    /// Latent dimension.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Output sample dimension.
    pub fn sample_dim(&self) -> usize {
        self.sample_dim
    }

    /// Draws a batch of latents and intended labels: `n` rows with labels
    /// cycling `0..num_classes` so every class — including classes no
    /// client may have seen — appears in every broadcast.
    pub fn draw_batch(&self, n: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let labels: Vec<usize> = (0..n).map(|i| i % self.num_classes).collect();
        let latents = Tensor::randn(&[n, self.latent_dim], 1.0, rng);
        (latents, labels)
    }

    /// Assembles the conditioned input rows `[z ⊕ onehot(y)]`.
    fn conditioned(&self, latents: &Tensor, labels: &[usize]) -> Tensor {
        let n = labels.len();
        let width = self.latent_dim + self.num_classes;
        let mut data = vec![0.0f32; n * width];
        let z = latents.as_slice();
        for (row, &y) in labels.iter().enumerate() {
            let out = &mut data[row * width..(row + 1) * width];
            out[..self.latent_dim]
                .copy_from_slice(&z[row * self.latent_dim..(row + 1) * self.latent_dim]);
            out[self.latent_dim + y] = 1.0;
        }
        Tensor::from_vec(data, &[n, width]).expect("conditioned batch is dense")
    }

    /// Synthesizes samples for the given latents/labels (forward only, no
    /// gradient caching side effects beyond the usual layer caches).
    pub fn synthesize(&mut self, latents: &Tensor, labels: &[usize]) -> Tensor {
        let input = self.conditioned(latents, labels);
        self.net.forward(&input, false)
    }

    /// The network, whose state the snapshot writes.
    pub(crate) fn net(&self) -> &Sequential {
        &self.net
    }

    /// The network, whose state a restore loads.
    pub(crate) fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }
}

/// The backward hook of the pass through the critic: [`refine`] wants the
/// input gradient only, so every `Linear`'s weight products, which a frozen
/// forward leaves without an input, are dropped (a plain layer's gradient
/// was only lent, so nothing was copied for them) and any other parameter's
/// gradient (a `BatchNorm1d`'s `dγ`/`dβ`) is zeroed the moment it is
/// accumulated.
struct Critic;

impl ParamHook for Critic {
    fn param(&mut self, _: usize, param: &mut Param) {
        param.zero_grad();
    }

    fn linear(&mut self, _: usize, _: &mut Param, _: &mut Param, _: PendingGrads<'_>) {}
}

/// Telemetry byproducts of one [`refine`] call (final step's values).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GeneratorStats {
    /// KL of the server's prediction on generated samples against the
    /// aggregated client-ensemble distribution.
    pub ensemble_loss: f64,
    /// Cross-entropy of the server's prediction against intended labels.
    pub ce_loss: f64,
    /// Mean squared distance of generated embeddings to their class
    /// prototypes (covered classes only).
    pub proto_loss: f64,
    /// Mean squared distance (per dimension, unweighted) of each class's
    /// generated batch mean to the aggregated real input-space class mean
    /// (classes with observed moments only).
    pub moment_loss: f64,
}

/// Refines the generator against the round's aggregated knowledge.
///
/// Re-forwards the round's broadcast latents through the generator (in
/// train mode) and through the server critic (in a frozen pass); the loss
/// is the sum of the ensemble KL (when `teacher_probs` is available), the
/// intended-label cross-entropy, the prototype alignment MSE over rows
/// whose class has a global prototype, and — the real-data anchor — a
/// `MOMENT_WEIGHT`-scaled first-moment match pulling each class's
/// generated batch mean onto the aggregated input-space class mean in
/// `class_moments` (per-batch-mean, so individual samples keep their
/// latent-driven diversity instead of collapsing onto the mean). The
/// server model is a critic here, never a trainee: its parameters are never
/// stepped, its running statistics never move, and the pass through it
/// runs no `Linear` weight product and zeroes every other gradient it
/// accumulates, so a critic that comes in with zero gradients leaves with
/// zero gradients.
#[allow(clippy::too_many_arguments)]
pub fn refine(
    generator: &mut Generator,
    optimizer: &mut Adam,
    server: &mut ClassifierModel,
    latents: &Tensor,
    labels: &[usize],
    teacher_probs: Option<&Tensor>,
    global_prototypes: &[Option<Tensor>],
    class_moments: &[Option<Tensor>],
    temperature: f32,
    epochs: usize,
) -> GeneratorStats {
    let mut stats = GeneratorStats::default();
    if labels.is_empty() || epochs == 0 {
        return stats;
    }
    let n = labels.len();
    let kl = DistillKl::new(temperature);
    let ce = CrossEntropy::new();
    let mse = Mse::new();
    let input = generator.conditioned(latents, labels);
    // Labels, prototypes and moments do not change between epochs, so
    // neither do the covered rows, their targets or the per-class row
    // lists; the per-epoch tensors are rebuilt in place.
    let dim = server.feature_dim();
    let covered_rows: Vec<usize> = (0..n)
        .filter(|&i| global_prototypes[labels[i]].is_some())
        .collect();
    let mut target = Tensor::zeros(&[covered_rows.len(), dim]);
    for (k, &i) in covered_rows.iter().enumerate() {
        let proto = global_prototypes[labels[i]].as_ref().expect("covered row");
        target.row_mut(k).copy_from_slice(proto.as_slice());
    }
    let mut pred = Tensor::zeros(&[covered_rows.len(), dim]);
    // Only covered rows are ever written, so the rest stay zero.
    let mut feature_grad = Tensor::zeros(&[n, dim]);
    // Rows grouped by class, ascending within each (the sort is stable).
    let mut by_class: Vec<usize> = (0..n).collect();
    by_class.sort_by_key(|&i| labels[i]);
    let dim_in = generator.sample_dim;
    let mut mean = vec![0.0f64; dim_in];
    for _ in 0..epochs {
        let x = generator.net.forward(&input, true);
        let (features, logits) = server.forward_full_pass(&x, Pass::Frozen);
        // Logit-space pull: ensemble KL plus intended-label CE.
        let (ce_loss, ce_grad) = ce.loss_and_grad(&logits, labels);
        let (ens_loss, mut logit_grad) = match teacher_probs {
            Some(teacher) => kl.loss_and_grad(&logits, teacher),
            None => (0.0, Tensor::zeros(logits.shape())),
        };
        for (g, &c) in logit_grad.as_mut_slice().iter_mut().zip(ce_grad.as_slice()) {
            *g += c;
        }
        // Feature-space pull toward the class prototypes (covered rows).
        let mut proto_loss = 0.0f64;
        if !covered_rows.is_empty() {
            // Reuse the shared MSE loss on the per-row targets so gradient
            // conventions stay uniform with the server path.
            for (k, &i) in covered_rows.iter().enumerate() {
                pred.row_mut(k).copy_from_slice(features.row(i));
            }
            let (loss, grad) = mse.loss_and_grad(&pred, &target);
            proto_loss = f64::from(loss);
            for (k, &i) in covered_rows.iter().enumerate() {
                feature_grad.row_mut(i).copy_from_slice(grad.row(k));
            }
        }
        let mut input_grad =
            server.backward_dual_with(&logit_grad, Some(&feature_grad), &mut Critic);
        // Input-space grounding: match each class's generated batch mean
        // to the real class mean. Fixed class order + f64 accumulation
        // keep this bit-identical across tiers and worker counts.
        let mut moment_loss = 0.0f64;
        let mut engaged = 0usize;
        for rows in by_class.chunk_by(|&a, &b| labels[a] == labels[b]) {
            let Some(target) = class_moments.get(labels[rows[0]]).and_then(Option::as_ref) else {
                continue;
            };
            mean.fill(0.0);
            for &i in rows {
                for (m, &v) in mean.iter_mut().zip(x.row(i)) {
                    *m += f64::from(v);
                }
            }
            for m in &mut mean {
                *m /= rows.len() as f64;
            }
            let t = target.as_slice();
            let mut cls_loss = 0.0f64;
            let scale = f64::from(MOMENT_WEIGHT) * 2.0 / (dim_in as f64 * rows.len() as f64);
            for (j, &m) in mean.iter().enumerate() {
                let d = m - f64::from(t[j]);
                cls_loss += d * d;
                let g = (scale * d) as f32;
                for &i in rows {
                    input_grad.row_mut(i)[j] += g;
                }
            }
            moment_loss += cls_loss / dim_in as f64;
            engaged += 1;
        }
        if engaged > 0 {
            moment_loss /= engaged as f64;
        }
        optimizer.begin_step(&generator.net);
        generator
            .net
            .backward_with(&input_grad, 0, &mut FusedStep(optimizer));
        stats = GeneratorStats {
            ensemble_loss: f64::from(ens_loss),
            ce_loss: f64::from(ce_loss),
            proto_loss,
            moment_loss,
        };
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_tensor::models::{build_mlp, DepthTier, ModelSpec};
    use fedpkd_tensor::ops::softmax;
    use fedpkd_tensor::serialize::{load_state_vector, param_vector, state_vector};

    #[test]
    fn synthesize_produces_finite_batches_of_the_right_shape() {
        let mut rng = Rng::seed_from_u64(1);
        let mut gen = Generator::new(8, 10, 32, &mut rng);
        let (latents, labels) = gen.draw_batch(25, &mut rng);
        assert_eq!(labels.len(), 25);
        // Round-robin labels cover every class.
        assert_eq!(
            (0..10).filter(|c| labels.contains(c)).count(),
            10,
            "all classes present"
        );
        let x = gen.synthesize(&latents, &labels);
        assert_eq!(x.shape(), &[25, 32]);
        assert!(x.all_finite());
    }

    #[test]
    fn synthesis_is_deterministic_for_fixed_latents() {
        let mut rng = Rng::seed_from_u64(2);
        let mut gen = Generator::new(8, 10, 32, &mut rng);
        let (latents, labels) = gen.draw_batch(10, &mut rng);
        let a = gen.synthesize(&latents, &labels);
        let b = gen.synthesize(&latents, &labels);
        assert_eq!(a, b);
    }

    #[test]
    fn refine_reduces_the_generator_objective() {
        let mut rng = Rng::seed_from_u64(3);
        let mut gen = Generator::new(8, 10, 32, &mut rng);
        let mut server = build_mlp(&[32, 64], 10, &mut rng);
        let mut opt = Adam::new(0.005);
        let (latents, labels) = gen.draw_batch(40, &mut rng);
        // A synthetic "ensemble": softened one-hot targets at the intended
        // labels, as a perfectly-informative teacher would produce.
        let mut teacher_logits = Tensor::zeros(&[40, 10]);
        for (i, &y) in labels.iter().enumerate() {
            teacher_logits.row_mut(i)[y] = 4.0;
        }
        let teacher = softmax(&teacher_logits, 1.0);
        let protos: Vec<Option<Tensor>> = vec![None; 10];
        let no_moments: Vec<Option<Tensor>> = vec![None; 10];
        let first = refine(
            &mut gen,
            &mut opt,
            &mut server,
            &latents,
            &labels,
            Some(&teacher),
            &protos,
            &no_moments,
            1.0,
            1,
        );
        let mut last = first;
        for _ in 0..60 {
            last = refine(
                &mut gen,
                &mut opt,
                &mut server,
                &latents,
                &labels,
                Some(&teacher),
                &protos,
                &no_moments,
                1.0,
                1,
            );
        }
        let total_first = first.ensemble_loss + first.ce_loss;
        let total_last = last.ensemble_loss + last.ce_loss;
        assert!(
            total_last < total_first,
            "objective must drop: {total_first} → {total_last}"
        );
    }

    /// Refines against `server` for three epochs and checks the critic
    /// comes back as it went in: the same state vector, every gradient zero.
    fn assert_refine_leaves_the_critic_unchanged(
        gen: &mut Generator,
        server: &mut ClassifierModel,
        rng: &mut Rng,
    ) {
        let mut opt = Adam::new(0.01);
        let before = state_vector(server);
        let (latents, labels) = gen.draw_batch(20, rng);
        let protos: Vec<Option<Tensor>> = vec![Some(Tensor::zeros(&[server.feature_dim()])); 10];
        let no_moments: Vec<Option<Tensor>> = vec![None; 10];
        refine(
            gen,
            &mut opt,
            server,
            &latents,
            &labels,
            None,
            &protos,
            &no_moments,
            1.0,
            3,
        );
        assert_eq!(state_vector(server), before);
        let mut grads: Vec<f32> = Vec::new();
        server.visit_params(&mut |p| grads.extend(p.grad().map_or(&[][..], Tensor::as_slice)));
        assert!(
            grads.iter().all(|&g| g == 0.0),
            "critic grads must be zeroed"
        );
    }

    #[test]
    fn refine_leaves_the_server_critic_unchanged() {
        let mut rng = Rng::seed_from_u64(4);
        let mut gen = Generator::new(8, 10, 32, &mut rng);
        let mut server = build_mlp(&[32, 16], 10, &mut rng);
        assert_refine_leaves_the_critic_unchanged(&mut gen, &mut server, &mut rng);
    }

    /// The same contract through `BatchNorm1d`, whose `dγ`/`dβ` the pass
    /// accumulates and zeroes and whose running statistics it never moves —
    /// drifted off their initial values first, so a move would show.
    #[test]
    fn refine_leaves_a_batch_norm_critic_unchanged() {
        let mut rng = Rng::seed_from_u64(9);
        let mut gen = Generator::new(8, 10, 32, &mut rng);
        let mut server = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T11,
        }
        .build(&mut rng);
        server.forward(&Tensor::randn(&[16, 32], 2.0, &mut rng), true);
        assert!(server.buffer_count() > 0, "the critic has normalization");
        assert_refine_leaves_the_critic_unchanged(&mut gen, &mut server, &mut rng);
    }

    /// A refine running beside the server distillation reads a copy of the
    /// server built from its spec and loaded with its state vector. That
    /// copy must be as good a critic as the server itself: same stats, same
    /// generator parameters, same Adam state — and the server is untouched.
    #[test]
    fn refine_against_a_state_vector_copy_matches_refine_against_the_original() {
        let spec = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T11,
        };
        let mut rng = Rng::seed_from_u64(7);
        let mut server = spec.build(&mut rng);
        // Drift the normalization buffers off their initial values, so the
        // copy has to carry them as well as the parameters.
        server.forward(&Tensor::randn(&[16, 32], 2.0, &mut rng), true);
        let before = state_vector(&server);
        let mut copy = spec.build(&mut Rng::seed_from_u64(99));
        load_state_vector(&mut copy, &before).unwrap();
        let run = |critic: &mut ClassifierModel| {
            let mut rng = Rng::seed_from_u64(8);
            let mut gen = Generator::new(8, 10, 32, &mut rng);
            let mut opt = Adam::new(0.01);
            let (latents, labels) = gen.draw_batch(30, &mut rng);
            let teacher = softmax(&Tensor::randn(&[30, 10], 1.0, &mut rng), 1.0);
            let protos: Vec<Option<Tensor>> = (0..10)
                .map(|c| {
                    (c % 2 == 0).then(|| Tensor::full(&[critic.feature_dim()], 0.1 * c as f32))
                })
                .collect();
            let moments: Vec<Option<Tensor>> = (0..10)
                .map(|c| (c % 3 == 0).then(|| Tensor::full(&[32], 0.2 * c as f32)))
                .collect();
            let stats = refine(
                &mut gen,
                &mut opt,
                critic,
                &latents,
                &labels,
                Some(&teacher),
                &protos,
                &moments,
                2.0,
                4,
            );
            let (m, v) = opt.moments();
            (
                stats,
                param_vector(&gen.net),
                opt.step_count(),
                m.to_vec(),
                v.to_vec(),
            )
        };
        let on_copy = run(&mut copy);
        assert_eq!(state_vector(&server), before, "the server is untouched");
        assert_eq!(on_copy, run(&mut server));
    }

    #[test]
    fn prototype_term_engages_only_for_covered_classes() {
        let mut rng = Rng::seed_from_u64(5);
        let mut gen = Generator::new(4, 2, 8, &mut rng);
        let mut server = build_mlp(&[8, 6], 2, &mut rng);
        let mut opt = Adam::new(0.01);
        let (latents, labels) = gen.draw_batch(10, &mut rng);
        let none: Vec<Option<Tensor>> = vec![None; 2];
        let s = refine(
            &mut gen,
            &mut opt,
            &mut server,
            &latents,
            &labels,
            None,
            &none,
            &none,
            1.0,
            1,
        );
        assert_eq!(s.proto_loss, 0.0);
        assert_eq!(s.moment_loss, 0.0);
        let some: Vec<Option<Tensor>> = vec![Some(Tensor::full(&[6], 3.0)); 2];
        let s = refine(
            &mut gen,
            &mut opt,
            &mut server,
            &latents,
            &labels,
            None,
            &some,
            &none,
            1.0,
            1,
        );
        assert!(s.proto_loss > 0.0);
    }

    #[test]
    fn moment_matching_pulls_the_class_batch_mean_onto_the_real_mean() {
        let mut rng = Rng::seed_from_u64(6);
        let mut gen = Generator::new(4, 2, 8, &mut rng);
        let mut server = build_mlp(&[8, 6], 2, &mut rng);
        let mut opt = Adam::new(0.01);
        let (latents, labels) = gen.draw_batch(20, &mut rng);
        // Real class means far from anything a fresh generator emits.
        let moments: Vec<Option<Tensor>> = vec![
            Some(Tensor::full(&[8], 5.0)),
            Some(Tensor::full(&[8], -5.0)),
        ];
        let protos: Vec<Option<Tensor>> = vec![None; 2];
        let batch_mean = |gen: &mut Generator, class: usize| -> f64 {
            let x = gen.synthesize(&latents, &labels);
            let rows: Vec<usize> = (0..20).filter(|&i| labels[i] == class).collect();
            let mut sum = 0.0f64;
            for &i in &rows {
                sum += x.row(i).iter().map(|&v| f64::from(v)).sum::<f64>();
            }
            sum / (rows.len() * 8) as f64
        };
        let before = (batch_mean(&mut gen, 0), batch_mean(&mut gen, 1));
        let mut first = GeneratorStats::default();
        let mut last = GeneratorStats::default();
        for step in 0..300 {
            let s = refine(
                &mut gen,
                &mut opt,
                &mut server,
                &latents,
                &labels,
                None,
                &protos,
                &moments,
                1.0,
                1,
            );
            if step == 0 {
                first = s;
            }
            last = s;
        }
        assert!(
            last.moment_loss < first.moment_loss / 4.0,
            "moment loss must shrink: {} → {}",
            first.moment_loss,
            last.moment_loss
        );
        let after = (batch_mean(&mut gen, 0), batch_mean(&mut gen, 1));
        assert!(
            (after.0 - 5.0).abs() < (before.0 - 5.0).abs(),
            "class-0 mean must move toward +5: {before:?} → {after:?}"
        );
        assert!(
            (after.1 + 5.0).abs() < (before.1 + 5.0).abs(),
            "class-1 mean must move toward -5: {before:?} → {after:?}"
        );
    }
}
