//! Prototype extraction (Eq. 5) and aggregation (Eq. 8), with a
//! Byzantine-robust outlier-rejecting variant.

use crate::admission::RejectReason;
use crate::eval;
use crate::robust::{coordinate_median, trim_count, AggregationError};
use crate::streaming::size_weighted_mean;
use fedpkd_data::Dataset;
use fedpkd_netsim::PrototypeEntry;
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::Tensor;

/// A class prototype: the mean feature embedding of the class's samples,
/// together with how many samples were averaged (needed for the
/// size-weighted aggregation of Eq. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct Prototype {
    /// Number of samples averaged.
    pub count: usize,
    /// Mean feature vector (`[feature_dim]`).
    pub vector: Tensor,
}

/// Computes a client's local prototypes (Eq. 5): for each class `j` present
/// in `dataset`, the mean of the model's feature embeddings over the class's
/// samples. Absent classes yield `None`.
pub fn compute_prototypes(
    model: &mut ClassifierModel,
    dataset: &Dataset,
) -> Vec<Option<Prototype>> {
    let dim = model.feature_dim();
    class_means(&eval::features_on(model, dataset), dataset, dim)
}

/// Computes a client's per-class *input-space* first moments: for each class
/// present in `dataset`, the mean of the raw feature rows. The shape mirrors
/// [`compute_prototypes`] (and reuses [`Prototype`]) but needs no model —
/// these are data statistics, not embeddings. The data-free mode uplinks
/// them so the server's generator can be grounded in the real per-class
/// input distribution instead of chasing the ensemble's opinion of noise.
pub fn compute_input_moments(dataset: &Dataset) -> Vec<Option<Prototype>> {
    class_means(dataset.features(), dataset, dataset.sample_dim())
}

/// Per class of `dataset`, the mean of its `dim`-wide `rows`, summed in
/// `f64` in row order; `None` for a class with no row.
fn class_means(rows: &Tensor, dataset: &Dataset, dim: usize) -> Vec<Option<Prototype>> {
    let num_classes = dataset.num_classes();
    let mut sums: Vec<Vec<f64>> = vec![vec![0.0; dim]; num_classes];
    let mut counts = vec![0usize; num_classes];
    for (row, &y) in dataset.labels().iter().enumerate() {
        counts[y] += 1;
        for (s, &v) in sums[y].iter_mut().zip(rows.row(row)) {
            *s += v as f64;
        }
    }
    sums.into_iter()
        .zip(counts)
        .map(|(sum, count)| {
            (count > 0).then(|| {
                let mean: Vec<f32> = sum.into_iter().map(|s| (s / count as f64) as f32).collect();
                Prototype {
                    count,
                    vector: Tensor::from_vec(mean, &[dim]).expect("dim matches"),
                }
            })
        })
        .collect()
}

/// Aggregates clients' local prototypes into global prototypes (Eq. 8): for
/// each class, the sample-count-weighted mean of the prototypes of all
/// clients holding that class. Classes no client holds yield `None`.
///
/// Note: Eq. 8 as printed carries an extra `1/|C_j|` prefactor that would
/// shrink every prototype by the number of contributing clients; that is
/// inconsistent with the prototype's role as a feature-space target in
/// Eqs. 10, 12, and 16 (and with FedProto, which the paper builds on), so —
/// as in FedProto — the size-weighted mean is used.
///
/// This is the *buffered* entry point over the canonical streaming fold:
/// it folds the clients through a
/// [`PrototypeAccumulator`](crate::streaming::PrototypeAccumulator) in
/// slice order, so a server that streams uploads through the same
/// accumulator in the same (canonical client) order produces bit-identical
/// output by construction.
///
/// # Errors
///
/// [`AggregationError::Empty`] with no clients,
/// [`AggregationError::ShapeMismatch`] when clients disagree on the number
/// of classes or prototype widths.
pub fn aggregate_prototypes(
    client_prototypes: &[Vec<Option<Prototype>>],
) -> Result<Vec<Option<Tensor>>, AggregationError> {
    if client_prototypes.is_empty() {
        return Err(AggregationError::Empty);
    }
    let mut acc = crate::streaming::PrototypeAccumulator::new();
    for prototypes in client_prototypes {
        acc.fold(prototypes)?;
    }
    acc.finish()
}

/// Byzantine-robust variant of Eq. 8: per class, contributors whose
/// prototypes lie farthest from the coordinate-wise median are discarded
/// before the size-weighted mean.
///
/// For each class with `n ≥ 3` contributors, the
/// [`trim_count`]`(n, trim_fraction)` prototypes with the largest L2
/// distance to the coordinate-wise median vector are dropped (at least one
/// contributor always survives). Contributors tied at equal distance are
/// ordered by their position in canonical (ascending) client order, and the
/// highest-ordinal tied contributor is dropped first — the choice is pinned
/// by the data, never by incidental sort or map-iteration order. With fewer
/// than three contributors there is no meaningful notion of an outlier, so
/// the plain Eq. 8 mean is used.
/// The second return value counts how many prototypes were discarded
/// across all classes, for telemetry.
///
/// # Errors
///
/// Same contract as [`aggregate_prototypes`].
pub fn aggregate_prototypes_robust(
    client_prototypes: &[Vec<Option<Prototype>>],
    trim_fraction: f32,
) -> Result<(Vec<Option<Tensor>>, usize), AggregationError> {
    let first = client_prototypes.first().ok_or(AggregationError::Empty)?;
    let num_classes = first.len();
    if client_prototypes
        .iter()
        .any(|protos| protos.len() != num_classes)
    {
        return Err(AggregationError::ShapeMismatch);
    }
    let mut global = Vec::with_capacity(num_classes);
    let mut outliers = 0usize;
    for class in 0..num_classes {
        let contributors: Vec<&Prototype> = client_prototypes
            .iter()
            .filter_map(|protos| protos[class].as_ref())
            .collect();
        let Some(first_p) = contributors.first() else {
            global.push(None);
            continue;
        };
        let dim = first_p.vector.len();
        if contributors.iter().any(|p| p.vector.len() != dim) {
            return Err(AggregationError::ShapeMismatch);
        }
        let drop = if contributors.len() >= 3 {
            trim_count(contributors.len(), trim_fraction)
        } else {
            0
        };
        let kept: Vec<&Prototype> = if drop == 0 {
            contributors
        } else {
            let rows: Vec<&[f32]> = contributors.iter().map(|p| p.vector.as_slice()).collect();
            let center = coordinate_median(&rows)?;
            // The sort key carries the contributor's ordinal (its position in
            // canonical client order) so ties at equal distance-to-median are
            // pinned: among tied contributors, the highest ordinal is dropped
            // first. Without the ordinal, the choice would silently depend on
            // the sort's treatment of equal keys.
            let mut by_distance: Vec<(f64, usize, &Prototype)> = contributors
                .iter()
                .enumerate()
                .map(|(ordinal, &p)| {
                    let d2: f64 = p
                        .vector
                        .as_slice()
                        .iter()
                        .zip(&center)
                        .map(|(&v, &c)| {
                            let d = f64::from(v) - f64::from(c);
                            d * d
                        })
                        .sum();
                    (d2, ordinal, p)
                })
                .collect();
            by_distance.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            by_distance.truncate(by_distance.len() - drop);
            outliers += drop;
            by_distance.into_iter().map(|(_, _, p)| p).collect()
        };
        let mut sum = vec![0.0f64; dim];
        let mut total = 0usize;
        for p in kept {
            for (s, &v) in sum.iter_mut().zip(p.vector.as_slice()) {
                *s += p.count as f64 * v as f64;
            }
            total += p.count;
        }
        global.push(size_weighted_mean(Some(sum), total));
    }
    Ok((global, outliers))
}

/// Decodes wire entries into `classes` per-class slots: the inverse of
/// [`to_wire_entries`] and, with count 0, of [`global_to_wire_entries`].
/// Only the structure is checked; widths, counts and values are the
/// receiver's to judge.
///
/// # Errors
///
/// At the first entry whose class is not above the last one's,
/// [`RejectReason::Malformed`]; at the first one outside `0..classes`,
/// [`RejectReason::WrongShape`].
pub fn from_wire_entries(
    entries: Vec<PrototypeEntry>,
    classes: usize,
) -> Result<Vec<Option<Prototype>>, RejectReason> {
    let mut slots = vec![None; classes];
    let mut last: Option<u32> = None;
    for entry in entries {
        if last.is_some_and(|prev| entry.class <= prev) {
            return Err(RejectReason::Malformed);
        }
        last = Some(entry.class);
        let slot = slots
            .get_mut(entry.class as usize)
            .ok_or(RejectReason::WrongShape)?;
        let dim = entry.vector.len();
        *slot = Some(Prototype {
            count: entry.count as usize,
            vector: Tensor::from_vec(entry.vector, &[dim]).expect("`[len]` holds `len` values"),
        });
    }
    Ok(slots)
}

/// Converts local prototypes into wire entries for uplink accounting.
pub fn to_wire_entries(prototypes: &[Option<Prototype>]) -> Vec<PrototypeEntry> {
    prototypes
        .iter()
        .enumerate()
        .filter_map(|(class, p)| {
            p.as_ref().map(|p| PrototypeEntry {
                class: class as u32,
                count: p.count as u32,
                vector: p.vector.as_slice().to_vec(),
            })
        })
        .collect()
}

/// Converts global prototypes into wire entries for downlink accounting
/// (count 0 marks a server-side aggregate).
pub fn global_to_wire_entries(prototypes: &[Option<Tensor>]) -> Vec<PrototypeEntry> {
    prototypes
        .iter()
        .enumerate()
        .filter_map(|(class, p)| {
            p.as_ref().map(|v| PrototypeEntry {
                class: class as u32,
                count: 0,
                vector: v.as_slice().to_vec(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_rng::Rng;
    use fedpkd_tensor::models::build_mlp;

    fn dataset_with_labels(labels: Vec<usize>, num_classes: usize) -> Dataset {
        let n = labels.len();
        let mut rng = Rng::seed_from_u64(9);
        let features = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        Dataset::new(features, labels, num_classes).unwrap()
    }

    #[test]
    fn prototypes_cover_present_classes_only() {
        let mut rng = Rng::seed_from_u64(1);
        let mut model = build_mlp(&[4, 6], 3, &mut rng);
        let ds = dataset_with_labels(vec![0, 0, 2, 2, 2], 3);
        let protos = compute_prototypes(&mut model, &ds);
        assert_eq!(protos.len(), 3);
        assert_eq!(protos[0].as_ref().unwrap().count, 2);
        assert!(protos[1].is_none());
        assert_eq!(protos[2].as_ref().unwrap().count, 3);
        assert_eq!(protos[0].as_ref().unwrap().vector.shape(), &[6]);
    }

    #[test]
    fn input_moments_are_raw_class_means() {
        let features = Tensor::from_vec(
            vec![
                1.0, 3.0, // class 0
                3.0, 5.0, // class 0
                10.0, -2.0, // class 2
            ],
            &[3, 2],
        )
        .unwrap();
        let ds = Dataset::new(features, vec![0, 0, 2], 3).unwrap();
        let moments = compute_input_moments(&ds);
        assert_eq!(moments.len(), 3);
        let m0 = moments[0].as_ref().unwrap();
        assert_eq!(m0.count, 2);
        assert_eq!(m0.vector.as_slice(), &[2.0, 4.0]);
        assert!(moments[1].is_none());
        assert_eq!(
            moments[2].as_ref().unwrap().vector.as_slice(),
            &[10.0, -2.0]
        );
    }

    #[test]
    fn prototype_is_mean_of_features() {
        let mut rng = Rng::seed_from_u64(2);
        let mut model = build_mlp(&[4, 5], 2, &mut rng);
        let ds = dataset_with_labels(vec![0, 0, 0], 2);
        let features = eval::features_on(&mut model, &ds);
        let protos = compute_prototypes(&mut model, &ds);
        let proto = protos[0].as_ref().unwrap();
        for j in 0..5 {
            let mean: f32 = (0..3).map(|r| features.row(r)[j]).sum::<f32>() / 3.0;
            assert!((proto.vector.as_slice()[j] - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_dataset_yields_no_prototypes() {
        let mut rng = Rng::seed_from_u64(3);
        let mut model = build_mlp(&[4, 5], 2, &mut rng);
        let ds = Dataset::new(Tensor::zeros(&[0, 4]), vec![], 2).unwrap();
        let protos = compute_prototypes(&mut model, &ds);
        assert!(protos.iter().all(Option::is_none));
    }

    fn proto(count: usize, values: &[f32]) -> Prototype {
        Prototype {
            count,
            vector: Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        }
    }

    #[test]
    fn wire_entries_decode_back_into_their_slots() {
        let local = vec![
            Some(proto(3, &[1.0, -2.0])),
            None,
            Some(proto(1, &[0.5, 4.0])),
        ];
        assert_eq!(
            from_wire_entries(to_wire_entries(&local), 3),
            Ok(local.clone())
        );
        // Global prototypes travel with count 0 and decode as they are.
        let global: Vec<Option<Tensor>> = local
            .iter()
            .map(|p| Some(p.as_ref()?.vector.clone()))
            .collect();
        let decoded = from_wire_entries(global_to_wire_entries(&global), 3).unwrap();
        assert!(decoded.iter().flatten().all(|p| p.count == 0));
        let vectors: Vec<Option<Tensor>> =
            decoded.into_iter().map(|p| p.map(|p| p.vector)).collect();
        assert_eq!(vectors, global);
        // Structure is checked, in entry order: ascending classes first.
        let mut entries = to_wire_entries(&local);
        assert_eq!(
            from_wire_entries(entries.clone(), 2),
            Err(RejectReason::WrongShape)
        );
        entries.swap(0, 1);
        assert_eq!(
            from_wire_entries(entries.clone(), 3),
            Err(RejectReason::Malformed)
        );
        entries[1].class = 2;
        assert_eq!(from_wire_entries(entries, 3), Err(RejectReason::Malformed));
    }

    #[test]
    fn aggregation_is_size_weighted_mean() {
        // Client A: class 0 proto [1, 1] from 3 samples;
        // Client B: class 0 proto [5, 5] from 1 sample.
        let a = vec![Some(proto(3, &[1.0, 1.0])), None];
        let b = vec![Some(proto(1, &[5.0, 5.0])), None];
        let global = aggregate_prototypes(&[a, b]).unwrap();
        let g0 = global[0].as_ref().unwrap();
        // (3·1 + 1·5) / 4 = 2.
        assert!((g0.as_slice()[0] - 2.0).abs() < 1e-6);
        assert!(global[1].is_none());
    }

    #[test]
    fn aggregation_handles_disjoint_class_coverage() {
        // The paper's example: overlapping and non-overlapping classes.
        let a = vec![Some(proto(2, &[1.0])), Some(proto(2, &[3.0])), None];
        let b = vec![None, Some(proto(2, &[5.0])), Some(proto(4, &[7.0]))];
        let global = aggregate_prototypes(&[a, b]).unwrap();
        assert!((global[0].as_ref().unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
        assert!((global[1].as_ref().unwrap().as_slice()[0] - 4.0).abs() < 1e-6);
        assert!((global[2].as_ref().unwrap().as_slice()[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_aggregation_inputs_are_errors_not_panics() {
        assert_eq!(aggregate_prototypes(&[]), Err(AggregationError::Empty));
        assert_eq!(
            aggregate_prototypes_robust(&[], 0.2),
            Err(AggregationError::Empty)
        );
        // Class-count disagreement.
        let a = vec![Some(proto(1, &[1.0])), None];
        let b = vec![Some(proto(1, &[1.0]))];
        assert_eq!(
            aggregate_prototypes(&[a.clone(), b.clone()]),
            Err(AggregationError::ShapeMismatch)
        );
        assert_eq!(
            aggregate_prototypes_robust(&[a, b], 0.2),
            Err(AggregationError::ShapeMismatch)
        );
        // Width disagreement within a class.
        let a = vec![Some(proto(1, &[1.0, 2.0]))];
        let b = vec![Some(proto(1, &[1.0]))];
        assert_eq!(
            aggregate_prototypes(&[a.clone(), b.clone()]),
            Err(AggregationError::ShapeMismatch)
        );
        assert_eq!(
            aggregate_prototypes_robust(&[a, b], 0.2),
            Err(AggregationError::ShapeMismatch)
        );
    }

    #[test]
    fn robust_aggregation_drops_the_farthest_contributor() {
        // Four honest clients cluster near [1, 1]; one adversary parks its
        // prototype far away. trim 0.2 of 5 drops exactly the adversary.
        let clients: Vec<Vec<Option<Prototype>>> = vec![
            vec![Some(proto(2, &[1.0, 1.0]))],
            vec![Some(proto(2, &[1.1, 0.9]))],
            vec![Some(proto(2, &[0.9, 1.1]))],
            vec![Some(proto(2, &[1.0, 1.05]))],
            vec![Some(proto(2, &[100.0, -100.0]))],
        ];
        let (global, outliers) = aggregate_prototypes_robust(&clients, 0.2).unwrap();
        assert_eq!(outliers, 1);
        let g = global[0].as_ref().unwrap();
        for &v in g.as_slice() {
            assert!((0.8..=1.2).contains(&v), "coordinate {v} dragged away");
        }
    }

    #[test]
    fn robust_aggregation_tie_break_is_pinned_to_canonical_order() {
        // Three contributors (the minimum with a trim), two of them at
        // *exactly* the same distance from the coordinate-wise median.
        // Median of {0, 4, 2} is 2, so contributors 0 and 1 are both at
        // distance 2. The pinned rule drops the highest-ordinal tied
        // contributor (client B), keeping A (value 0) and C (value 2):
        // size-weighted mean (1·0 + 1·2) / 2 = 1.
        let a = vec![Some(proto(1, &[0.0]))];
        let b = vec![Some(proto(1, &[4.0]))];
        let c = vec![Some(proto(1, &[2.0]))];
        let (global, outliers) =
            aggregate_prototypes_robust(&[a.clone(), b.clone(), c.clone()], 0.34).unwrap();
        assert_eq!(outliers, 1);
        assert!((global[0].as_ref().unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
        // Reordering the tied contributors flips which one survives — the
        // outcome tracks canonical order, not value identity: median of
        // {4, 0, 2} is still 2, B and A still tie, but now A holds the
        // higher ordinal and is dropped: (1·4 + 1·2) / 2 = 3.
        let (global, outliers) = aggregate_prototypes_robust(&[b, a, c], 0.34).unwrap();
        assert_eq!(outliers, 1);
        assert!((global[0].as_ref().unwrap().as_slice()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn robust_aggregation_with_few_contributors_matches_plain_mean() {
        // Two contributors: no outlier notion, must equal Eq. 8 exactly.
        let a = vec![Some(proto(3, &[1.0, 1.0])), None];
        let b = vec![Some(proto(1, &[5.0, 5.0])), None];
        let plain = aggregate_prototypes(&[a.clone(), b.clone()]).unwrap();
        let (robust, outliers) = aggregate_prototypes_robust(&[a, b], 0.2).unwrap();
        assert_eq!(outliers, 0);
        assert_eq!(plain, robust);
    }

    #[test]
    fn robust_aggregation_keeps_uncovered_classes_none() {
        let a = vec![Some(proto(1, &[1.0])), None];
        let b = vec![Some(proto(1, &[2.0])), None];
        let c = vec![Some(proto(1, &[3.0])), None];
        let (global, _) = aggregate_prototypes_robust(&[a, b, c], 0.4).unwrap();
        assert!(global[0].is_some());
        assert!(global[1].is_none());
    }

    #[test]
    fn wire_entries_skip_missing_classes() {
        let protos = vec![
            Some(proto(2, &[1.0, 2.0])),
            None,
            Some(proto(1, &[3.0, 4.0])),
        ];
        let entries = to_wire_entries(&protos);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].class, 0);
        assert_eq!(entries[0].count, 2);
        assert_eq!(entries[1].class, 2);

        let global = vec![Some(Tensor::from_vec(vec![1.0], &[1]).unwrap()), None];
        let g_entries = global_to_wire_entries(&global);
        assert_eq!(g_entries.len(), 1);
        assert_eq!(g_entries[0].count, 0);
    }
}
