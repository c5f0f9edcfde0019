//! Model evaluation helpers.

use fedpkd_data::Dataset;
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::{metrics, Tensor};

/// Batch size used for evaluation forward passes.
///
/// Large enough that a public or test set goes through each layer in a few
/// large products, on the calling thread (kernels never spawn one). Every
/// eval-mode layer is row-wise (BatchNorm uses running statistics in
/// inference mode), so batching is value-invariant: any batch size produces
/// bit-identical outputs, and this constant is purely a throughput knob.
const EVAL_BATCH: usize = 2048;

/// Accuracy of `model` on `dataset`, evaluated in inference mode.
///
/// Returns 0 for an empty dataset.
pub fn accuracy(model: &mut ClassifierModel, dataset: &Dataset) -> f64 {
    if dataset.is_empty() {
        return 0.0;
    }
    let preds = logits_on(model, dataset).argmax_rows();
    let correct = preds.iter().zip(dataset.labels()).filter(|(p, y)| p == y);
    correct.count() as f64 / dataset.len() as f64
}

/// Per-class accuracy of `model` on `dataset` (`NaN` for absent classes).
pub fn per_class_accuracy(model: &mut ClassifierModel, dataset: &Dataset) -> Vec<f64> {
    let logits = logits_on(model, dataset);
    metrics::per_class_accuracy(&logits, dataset.labels(), dataset.num_classes())
}

/// Full-dataset logits of `model`, computed in evaluation mode, row-aligned
/// with the dataset.
pub fn logits_on(model: &mut ClassifierModel, dataset: &Dataset) -> Tensor {
    forward_in_windows(dataset, |features| model.forward_logits(features, false))
}

/// Full-dataset feature embeddings of `model`, row-aligned with the dataset.
pub fn features_on(model: &mut ClassifierModel, dataset: &Dataset) -> Tensor {
    forward_in_windows(dataset, |features| model.forward_features(features, false))
}

/// `f`'s output over the whole dataset as one `[rows, width]` tensor: the
/// rows go through `f` in [`EVAL_BATCH`]-row windows, gathered into one
/// reused buffer, and each window's output is appended to the result.
fn forward_in_windows(dataset: &Dataset, mut f: impl FnMut(&Tensor) -> Tensor) -> Tensor {
    let (n, features) = (dataset.len(), dataset.features());
    let (mut out, mut width) = (Vec::new(), 0);
    let (mut window, mut rows) = (Tensor::default(), Vec::with_capacity(EVAL_BATCH));
    for first in (0..n).step_by(EVAL_BATCH) {
        rows.clear();
        rows.extend(first..n.min(first + EVAL_BATCH));
        // Every window row is below `n`, the feature row count.
        features
            .select_rows_into(&rows, &mut window)
            .expect("in range");
        let y = f(&window);
        width = y.cols();
        out.extend_from_slice(y.as_slice());
    }
    // `f` gives one `width`-wide row per input row.
    Tensor::from_vec(out, &[n, width]).expect("one row per input row")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_rng::Rng;
    use fedpkd_tensor::models::build_mlp;

    fn toy_dataset(n: usize) -> Dataset {
        // Linearly separable: label = (x0 > 0).
        let mut rng = Rng::seed_from_u64(1);
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0 = rng.standard_normal() as f32;
            data.push(x0);
            data.push(rng.standard_normal() as f32);
            labels.push(if x0 > 0.0 { 1 } else { 0 });
        }
        Dataset::new(Tensor::from_vec(data, &[n, 2]).unwrap(), labels, 2).unwrap()
    }

    #[test]
    fn accuracy_of_untrained_model_is_near_chance() {
        let mut rng = Rng::seed_from_u64(2);
        let mut model = build_mlp(&[2, 8], 2, &mut rng);
        let ds = toy_dataset(400);
        let acc = accuracy(&mut model, &ds);
        assert!((0.2..=0.8).contains(&acc), "untrained accuracy {acc}");
    }

    #[test]
    fn empty_dataset_accuracy_is_zero() {
        let mut rng = Rng::seed_from_u64(3);
        let mut model = build_mlp(&[2, 4], 2, &mut rng);
        let ds = Dataset::new(Tensor::zeros(&[0, 2]), vec![], 2).unwrap();
        assert_eq!(accuracy(&mut model, &ds), 0.0);
    }

    #[test]
    fn logits_align_with_dataset_rows() {
        let mut rng = Rng::seed_from_u64(4);
        let mut model = build_mlp(&[2, 4], 2, &mut rng);
        let ds = toy_dataset(300); // spans two eval batches
        let all = logits_on(&mut model, &ds);
        assert_eq!(all.shape(), &[300, 2]);
        // Spot-check the row for sample 260 against a direct forward.
        let single = ds.subset(&[260]);
        let direct = model.forward_logits(single.features(), false);
        for (a, b) in all.row(260).iter().zip(direct.row(0)) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn features_have_feature_dim_width() {
        let mut rng = Rng::seed_from_u64(5);
        let mut model = build_mlp(&[2, 6], 2, &mut rng);
        let ds = toy_dataset(10);
        let features = features_on(&mut model, &ds);
        assert_eq!(features.shape(), &[10, 6]);
    }

    #[test]
    fn evaluation_leaves_model_state_byte_identical() {
        use fedpkd_tensor::models::{build_res_mlp, DepthTier};
        use fedpkd_tensor::nn::Layer;
        use fedpkd_tensor::serialize::param_vector;

        // A ResMlp has BatchNorm layers, whose running statistics are
        // exactly the state a `train: true` leak would perturb. Every
        // inference-only entry point must leave parameters AND buffers
        // byte-for-byte untouched.
        let mut rng = Rng::seed_from_u64(7);
        let mut model = build_res_mlp(2, 2, DepthTier::T11, &mut rng);
        let ds = toy_dataset(64);
        // One training-mode forward so the running stats are non-trivial.
        let _ = model.forward_logits(ds.features(), true);

        let snapshot = |m: &fedpkd_tensor::models::ClassifierModel| {
            let params: Vec<u32> = param_vector(m).iter().map(|v| v.to_bits()).collect();
            let mut buffers: Vec<u32> = Vec::new();
            m.visit_buffers(&mut |b| buffers.extend(b.iter().map(|v| v.to_bits())));
            (params, buffers)
        };
        let before = snapshot(&model);
        let _ = accuracy(&mut model, &ds);
        let _ = logits_on(&mut model, &ds);
        let _ = features_on(&mut model, &ds);
        let _ = per_class_accuracy(&mut model, &ds);
        assert_eq!(before, snapshot(&model), "evaluation perturbed model state");
    }

    #[test]
    fn per_class_accuracy_has_one_entry_per_class() {
        let mut rng = Rng::seed_from_u64(6);
        let mut model = build_mlp(&[2, 4], 2, &mut rng);
        let ds = toy_dataset(50);
        assert_eq!(per_class_accuracy(&mut model, &ds).len(), 2);
    }
}
