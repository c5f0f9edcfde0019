//! Prototype-based data filtering (Algorithm 1, Eqs. 9–10).

use fedpkd_tensor::Tensor;

/// Diagnostic summary of one filtering pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterStats {
    /// Samples kept per pseudo-class.
    pub kept_per_class: Vec<usize>,
    /// Pseudo-class populations before filtering.
    pub total_per_class: Vec<usize>,
    /// Five-number summary (min, q25, median, q75, max) of the Eq. 10
    /// prototype distances over all samples whose class had a prototype;
    /// empty when no class did.
    pub distance_quantiles: Vec<f64>,
    /// Samples dropped because their class had no global prototype and
    /// `drop_uncovered` was set (data-free mode).
    pub dropped_uncovered: usize,
}

impl FilterStats {
    /// Total samples kept.
    pub fn kept(&self) -> usize {
        self.kept_per_class.iter().sum()
    }

    /// Total samples dropped.
    pub fn dropped(&self) -> usize {
        let total: usize = self.total_per_class.iter().sum();
        total - self.kept()
    }
}

/// Selects the high-quality subset of the public dataset.
///
/// For every pseudo-class `n` (labels from Eq. 9), the L2 distance between
/// each sample's server-side feature embedding and the class's global
/// prototype is computed (Eq. 10); the `⌈θ·|D_p^n|⌉` closest samples are
/// kept. Classes without a global prototype keep their `θ` fraction in
/// index order (no distance signal is available).
///
/// Returns the kept public-set indices in ascending order.
///
/// # Panics
///
/// Panics if `theta` is not in `(0, 1]`, the row counts of
/// `server_features` and `pseudo_labels` differ, or a pseudo-label indexes
/// past `global_prototypes`.
pub fn filter_public(
    server_features: &Tensor,
    pseudo_labels: &[usize],
    global_prototypes: &[Option<Tensor>],
    theta: f32,
) -> Vec<usize> {
    filter_impl(
        server_features,
        pseudo_labels,
        global_prototypes,
        theta,
        false,
        None,
    )
}

/// [`filter_public`] plus a [`FilterStats`] diagnostic summary. With
/// `drop_uncovered` (data-free mode) a class without a global prototype
/// is dropped outright instead of keeping a θ fraction in index order: a
/// generated sample of a class no client has seen carries no teachable
/// signal (Eq. 10 has no target). Otherwise the kept set is
/// [`filter_public`]'s; the summary costs a global sort of the distances,
/// so paths that drop it should call [`filter_public`].
///
/// # Panics
///
/// Same conditions as [`filter_public`].
pub fn filter_public_opts(
    server_features: &Tensor,
    pseudo_labels: &[usize],
    global_prototypes: &[Option<Tensor>],
    theta: f32,
    drop_uncovered: bool,
) -> (Vec<usize>, FilterStats) {
    let mut stats = FilterStats::default();
    let selected = filter_impl(
        server_features,
        pseudo_labels,
        global_prototypes,
        theta,
        drop_uncovered,
        Some(&mut stats),
    );
    (selected, stats)
}

fn filter_impl(
    server_features: &Tensor,
    pseudo_labels: &[usize],
    global_prototypes: &[Option<Tensor>],
    theta: f32,
    drop_uncovered: bool,
    mut stats: Option<&mut FilterStats>,
) -> Vec<usize> {
    assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
    assert_eq!(
        server_features.rows(),
        pseudo_labels.len(),
        "one pseudo-label per feature row"
    );

    let num_classes = global_prototypes.len();
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &y) in pseudo_labels.iter().enumerate() {
        assert!(y < num_classes, "pseudo-label {y} out of range");
        by_class[y].push(i);
    }
    if let Some(s) = stats.as_deref_mut() {
        s.kept_per_class = vec![0; num_classes];
        s.total_per_class = by_class.iter().map(Vec::len).collect();
    }

    let mut distances: Vec<f32> = Vec::new();
    let mut selected = Vec::new();
    for (class, members) in by_class.into_iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let keep_target = (((members.len() as f32) * theta).ceil() as usize).min(members.len());
        match &global_prototypes[class] {
            Some(proto) => {
                let mut scored: Vec<(usize, f32)> = members
                    .into_iter()
                    .map(|i| {
                        let d: f32 = server_features
                            .row(i)
                            .iter()
                            .zip(proto.as_slice())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        (i, d)
                    })
                    .collect();
                // A total order keeps the sort deterministic even when a
                // NaN distance reaches it — those sort past every finite
                // distance, so "farthest from the prototype" drops them first.
                scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if let Some(s) = stats.as_deref_mut() {
                    distances.extend(scored.iter().map(|&(_, d)| d));
                    s.kept_per_class[class] = keep_target;
                }
                selected.extend(scored.into_iter().take(keep_target).map(|(i, _)| i));
            }
            None if drop_uncovered => {
                if let Some(s) = stats.as_deref_mut() {
                    s.dropped_uncovered += members.len();
                }
            }
            None => {
                selected.extend(members.into_iter().take(keep_target));
                if let Some(s) = stats.as_deref_mut() {
                    s.kept_per_class[class] = keep_target;
                }
            }
        }
    }
    if let Some(s) = stats {
        s.distance_quantiles = five_number_summary(&mut distances);
    }
    selected.sort_unstable();
    selected
}

/// Min, quartiles, and max of `values` (nearest-rank), or empty for no
/// values.
fn five_number_summary(values: &mut [f32]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(f32::total_cmp);
    [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|p| {
            let idx = (p * (values.len() - 1) as f64).round() as usize;
            f64::from(values[idx])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(rows: &[&[f32]]) -> Tensor {
        Tensor::from_vec(rows.concat(), &[rows.len(), rows[0].len()]).unwrap()
    }

    fn proto(values: &[f32]) -> Option<Tensor> {
        Some(Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap())
    }

    #[test]
    fn keeps_closest_samples_per_class() {
        // Class 0 prototype at the origin; four samples at distances
        // 1, 2, 3, 4. theta = 0.5 keeps the two closest.
        let f = features(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0], &[4.0, 0.0]]);
        let labels = vec![0, 0, 0, 0];
        let protos = vec![proto(&[0.0, 0.0])];
        let kept = filter_public(&f, &labels, &protos, 0.5);
        assert_eq!(kept, vec![0, 1]);
    }

    #[test]
    fn theta_one_keeps_everything() {
        let f = features(&[&[1.0], &[5.0], &[2.0]]);
        let labels = vec![0, 0, 0];
        let protos = vec![proto(&[0.0])];
        assert_eq!(filter_public(&f, &labels, &protos, 1.0), vec![0, 1, 2]);
    }

    #[test]
    fn filtering_is_per_class() {
        // Class 0: two samples, class 1: two samples; theta = 0.5 keeps the
        // best of each class, not the two globally closest.
        let f = features(&[&[1.0], &[10.0], &[2.0], &[20.0]]);
        let labels = vec![0, 0, 1, 1];
        let protos = vec![proto(&[0.0]), proto(&[0.0])];
        let kept = filter_public(&f, &labels, &protos, 0.5);
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn keep_count_is_ceil() {
        // 3 samples at theta = 0.5 → ceil(1.5) = 2 kept.
        let f = features(&[&[1.0], &[2.0], &[3.0]]);
        let labels = vec![0, 0, 0];
        let protos = vec![proto(&[0.0])];
        assert_eq!(filter_public(&f, &labels, &protos, 0.5).len(), 2);
    }

    #[test]
    fn missing_prototype_falls_back_to_index_order() {
        let f = features(&[&[9.0], &[1.0], &[5.0]]);
        let labels = vec![0, 0, 0];
        let protos: Vec<Option<Tensor>> = vec![None];
        // Keeps the first ceil(3·0.34) = 2 in index order.
        assert_eq!(filter_public(&f, &labels, &protos, 0.34), vec![0, 1]);
    }

    #[test]
    fn permutation_invariance_of_the_kept_set() {
        // Shuffling sample order must not change *which* samples survive.
        let rows: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 + 0.5]).collect();
        let labels = vec![0usize; 6];
        let protos = vec![proto(&[0.0])];
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let direct = filter_public(&features(&refs), &labels, &protos, 0.5);
        // Reverse the order; map kept indices back.
        let rev_refs: Vec<&[f32]> = rows.iter().rev().map(Vec::as_slice).collect();
        let rev = filter_public(&features(&rev_refs), &labels, &protos, 0.5);
        let mapped: Vec<usize> = rev.into_iter().map(|i| 5 - i).collect();
        let mut mapped_sorted = mapped;
        mapped_sorted.sort_unstable();
        assert_eq!(direct, mapped_sorted);
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let f = features(&[&[3.0], &[1.0], &[2.0], &[0.5]]);
        let labels = vec![0, 1, 0, 1];
        let protos = vec![proto(&[0.0]), proto(&[0.0])];
        let kept = filter_public(&f, &labels, &protos, 1.0);
        let mut sorted = kept.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(kept, sorted);
    }

    #[test]
    fn stats_variant_keeps_the_same_set_and_counts_classes() {
        let f = features(&[&[1.0], &[10.0], &[2.0], &[20.0], &[3.0]]);
        let labels = vec![0, 0, 1, 1, 0];
        let protos = vec![proto(&[0.0]), proto(&[0.0])];
        let plain = filter_public(&f, &labels, &protos, 0.5);
        let (kept, stats) = filter_public_opts(&f, &labels, &protos, 0.5, false);
        assert_eq!(kept, plain);
        assert_eq!(stats.total_per_class, vec![3, 2]);
        assert_eq!(stats.kept_per_class, vec![2, 1]);
        assert_eq!(stats.kept(), 3);
        assert_eq!(stats.dropped(), 2);
        // All five distances summarized: min 1, max 400.
        assert_eq!(stats.distance_quantiles.len(), 5);
        assert_eq!(stats.distance_quantiles[0], 1.0);
        assert_eq!(stats.distance_quantiles[4], 400.0);
    }

    #[test]
    fn stats_quantiles_empty_without_prototypes() {
        let f = features(&[&[1.0], &[2.0]]);
        let labels = vec![0, 0];
        let protos: Vec<Option<Tensor>> = vec![None];
        let (kept, stats) = filter_public_opts(&f, &labels, &protos, 1.0, false);
        assert_eq!(kept, vec![0, 1]);
        assert!(stats.distance_quantiles.is_empty());
        assert_eq!(stats.kept_per_class, vec![2]);
    }

    #[test]
    fn nan_distances_are_dropped_first_not_fatal() {
        // Sample 1's NaN feature yields a NaN Eq. 10 distance; the total
        // order sorts it past every finite distance, so it is the first
        // sample the filter discards.
        let f = features(&[&[1.0], &[f32::NAN], &[2.0]]);
        let labels = vec![0, 0, 0];
        let protos = vec![proto(&[0.0])];
        let selected = filter_public(&f, &labels, &protos, 0.5);
        assert_eq!(selected, vec![0, 2]);
    }

    #[test]
    fn drop_uncovered_discards_classes_without_prototypes() {
        // Class 1 has no prototype: with drop_uncovered every class-1
        // sample is discarded and reported, instead of the index-order
        // fallback keeping a θ fraction.
        let f = features(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let labels = vec![0, 1, 0, 1];
        let protos = vec![proto(&[0.0]), None];
        let (kept, stats) = filter_public_opts(&f, &labels, &protos, 1.0, true);
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(stats.dropped_uncovered, 2);
        assert_eq!(stats.kept_per_class, vec![2, 0]);
        assert_eq!(stats.dropped(), 2);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn rejects_zero_theta() {
        let f = features(&[&[1.0]]);
        filter_public(&f, &[0], &[proto(&[0.0])], 0.0);
    }

    #[test]
    #[should_panic(expected = "pseudo-label")]
    fn rejects_out_of_range_label() {
        let f = features(&[&[1.0]]);
        filter_public(&f, &[3], &[proto(&[0.0])], 0.5);
    }
}
