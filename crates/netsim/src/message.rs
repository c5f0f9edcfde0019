//! The catalog of messages exchanged in the simulated federation.

use crate::wire::{
    get_f32_vec, get_len, get_u32, get_u32_vec, get_u8, put_f32_slice, put_u32, put_u32_slice,
    put_u8, Wire, WireError,
};

/// One class prototype as shipped on the wire: the class id, the number of
/// local samples it was averaged over (needed for the size-weighted
/// aggregation of Eq. 8), and the feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct PrototypeEntry {
    /// Class index.
    pub class: u32,
    /// Number of samples averaged into this prototype.
    pub count: u32,
    /// The prototype vector (mean feature embedding, Eq. 5).
    pub vector: Vec<f32>,
}

impl Wire for PrototypeEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.class);
        put_u32(buf, self.count);
        put_f32_slice(buf, &self.vector);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let class = get_u32(buf)?;
        let count = get_u32(buf)?;
        let vector = get_f32_vec(buf)?;
        Ok(Self {
            class,
            count,
            vector,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + 4 + 4 + 4 * self.vector.len()
    }
}

/// A payload crossing the simulated client↔server network.
///
/// The variants cover everything the reproduced algorithms transfer:
/// parameter vectors (FedAvg, FedProx, FedDF), per-sample logits (all
/// KD-based methods), prototypes (FedPKD's dual knowledge), and
/// filtered-subset announcements (FedPKD's server→client selection).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A full model parameter vector.
    ModelUpdate {
        /// Flattened parameters.
        params: Vec<f32>,
    },
    /// Logits over a set of public samples: `logits[i]` belongs to
    /// `sample_ids[i]` and all rows share `num_classes` columns.
    Logits {
        /// Public-dataset indices the rows refer to.
        sample_ids: Vec<u32>,
        /// Number of classes (row width).
        num_classes: u32,
        /// Row-major logits, `sample_ids.len() × num_classes` values.
        values: Vec<f32>,
    },
    /// A set of class prototypes.
    Prototypes {
        /// One entry per class the sender has data for.
        entries: Vec<PrototypeEntry>,
    },
    /// The server's announcement of which public samples were selected by
    /// the data filter (clients need the ids to train on the subset).
    SampleSelection {
        /// Selected public-dataset indices.
        ids: Vec<u32>,
    },
    /// A server-synthesized transfer batch (data-free distillation): the
    /// generated samples plus the class each row was conditioned on.
    SyntheticBatch {
        /// Feature dimension (row width of `values`).
        sample_dim: u32,
        /// Conditioning class per row.
        labels: Vec<u32>,
        /// Row-major features, `labels.len() × sample_dim` values.
        values: Vec<f32>,
    },
    /// Per-class *input-space* first moments of a client's private data
    /// (data-free mode): the raw-feature class means that ground the
    /// server's generator in the real data distribution. Same entry shape
    /// as [`Message::Prototypes`], but the vectors live in input space,
    /// not the model's embedding space.
    DataMoments {
        /// One entry per class the sender has data for.
        entries: Vec<PrototypeEntry>,
    },
}

impl Message {
    const TAG_MODEL: u8 = 1;
    const TAG_LOGITS: u8 = 2;
    const TAG_PROTOTYPES: u8 = 3;
    const TAG_SELECTION: u8 = 4;
    const TAG_SYNTHETIC: u8 = 5;
    const TAG_MOMENTS: u8 = 6;

    /// A short name for logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::ModelUpdate { .. } => "model-update",
            Self::Logits { .. } => "logits",
            Self::Prototypes { .. } => "prototypes",
            Self::SampleSelection { .. } => "sample-selection",
            Self::SyntheticBatch { .. } => "synthetic-batch",
            Self::DataMoments { .. } => "data-moments",
        }
    }

    /// Encoded size of a [`Message::ModelUpdate`] of `params` parameters,
    /// for billing a transfer without materialising it.
    pub fn model_update_encoded_len(params: usize) -> usize {
        1 + 4 + 4 * params
    }

    /// Encoded size of a [`Message::Logits`] carrying `samples` ids and
    /// `values` logits.
    pub fn logits_encoded_len(samples: usize, values: usize) -> usize {
        1 + 4 + 4 * samples + 4 + 4 + 4 * values
    }
}

impl Wire for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::ModelUpdate { params } => {
                put_u8(buf, Self::TAG_MODEL);
                put_f32_slice(buf, params);
            }
            Self::Logits {
                sample_ids,
                num_classes,
                values,
            } => {
                put_u8(buf, Self::TAG_LOGITS);
                put_u32_slice(buf, sample_ids);
                put_u32(buf, *num_classes);
                put_f32_slice(buf, values);
            }
            Self::Prototypes { entries } => {
                put_u8(buf, Self::TAG_PROTOTYPES);
                put_u32(buf, entries.len() as u32);
                for e in entries {
                    e.encode(buf);
                }
            }
            Self::SampleSelection { ids } => {
                put_u8(buf, Self::TAG_SELECTION);
                put_u32_slice(buf, ids);
            }
            Self::SyntheticBatch {
                sample_dim,
                labels,
                values,
            } => {
                put_u8(buf, Self::TAG_SYNTHETIC);
                put_u32(buf, *sample_dim);
                put_u32_slice(buf, labels);
                put_f32_slice(buf, values);
            }
            Self::DataMoments { entries } => {
                put_u8(buf, Self::TAG_MOMENTS);
                put_u32(buf, entries.len() as u32);
                for e in entries {
                    e.encode(buf);
                }
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_u8(buf)? {
            Self::TAG_MODEL => Ok(Self::ModelUpdate {
                params: get_f32_vec(buf)?,
            }),
            Self::TAG_LOGITS => {
                let sample_ids = get_u32_vec(buf)?;
                let num_classes = get_u32(buf)?;
                let values = get_f32_vec(buf)?;
                Ok(Self::Logits {
                    sample_ids,
                    num_classes,
                    values,
                })
            }
            Self::TAG_PROTOTYPES => {
                let n = get_len(buf)?;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    entries.push(PrototypeEntry::decode(buf)?);
                }
                Ok(Self::Prototypes { entries })
            }
            Self::TAG_SELECTION => Ok(Self::SampleSelection {
                ids: get_u32_vec(buf)?,
            }),
            Self::TAG_SYNTHETIC => {
                let sample_dim = get_u32(buf)?;
                let labels = get_u32_vec(buf)?;
                let values = get_f32_vec(buf)?;
                Ok(Self::SyntheticBatch {
                    sample_dim,
                    labels,
                    values,
                })
            }
            Self::TAG_MOMENTS => {
                let n = get_len(buf)?;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    entries.push(PrototypeEntry::decode(buf)?);
                }
                Ok(Self::DataMoments { entries })
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Self::ModelUpdate { params } => Self::model_update_encoded_len(params.len()),
            Self::Logits {
                sample_ids, values, ..
            } => Self::logits_encoded_len(sample_ids.len(), values.len()),
            Self::Prototypes { entries } | Self::DataMoments { entries } => {
                1 + 4 + entries.iter().map(Wire::encoded_len).sum::<usize>()
            }
            Self::SampleSelection { ids } => 1 + 4 + 4 * ids.len(),
            Self::SyntheticBatch { labels, values, .. } => {
                1 + 4 + 4 + 4 * labels.len() + 4 + 4 * values.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) {
        let bytes = msg.to_bytes();
        assert_eq!(
            bytes.len(),
            msg.encoded_len(),
            "encoded_len must match the real encoding"
        );
        let mut slice = bytes.as_slice();
        let decoded = Message::decode(&mut slice).unwrap();
        assert_eq!(&decoded, msg);
        assert!(slice.is_empty(), "decode must consume everything");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(&Message::ModelUpdate {
            params: vec![1.0, -2.0, 3.5],
        });
        round_trip(&Message::Logits {
            sample_ids: vec![0, 5, 9],
            num_classes: 4,
            values: (0..12).map(|i| i as f32).collect(),
        });
        round_trip(&Message::Prototypes {
            entries: vec![
                PrototypeEntry {
                    class: 0,
                    count: 17,
                    vector: vec![0.5; 8],
                },
                PrototypeEntry {
                    class: 3,
                    count: 2,
                    vector: vec![-1.0; 8],
                },
            ],
        });
        round_trip(&Message::SampleSelection { ids: vec![1, 2, 3] });
        round_trip(&Message::SyntheticBatch {
            sample_dim: 3,
            labels: vec![0, 1],
            values: vec![0.5, -0.5, 1.0, 2.0, -2.0, 0.0],
        });
        round_trip(&Message::DataMoments {
            entries: vec![PrototypeEntry {
                class: 7,
                count: 40,
                vector: vec![0.25; 16],
            }],
        });
    }

    #[test]
    fn empty_variants_round_trip() {
        round_trip(&Message::ModelUpdate { params: vec![] });
        round_trip(&Message::Prototypes { entries: vec![] });
        round_trip(&Message::SampleSelection { ids: vec![] });
        round_trip(&Message::SyntheticBatch {
            sample_dim: 0,
            labels: vec![],
            values: vec![],
        });
        round_trip(&Message::DataMoments { entries: vec![] });
    }

    #[test]
    fn size_only_helpers_match_the_materialised_message() {
        for (n, k) in [(0usize, 0usize), (1, 1), (3, 4), (120, 10), (7, 100)] {
            let ids: Vec<u32> = (0..n as u32).collect();
            let values = vec![0.5f32; n * k];
            assert_eq!(
                Message::model_update_encoded_len(n * k),
                Message::ModelUpdate {
                    params: values.clone()
                }
                .to_bytes()
                .len()
            );
            assert_eq!(
                Message::logits_encoded_len(n, n * k),
                Message::Logits {
                    sample_ids: ids,
                    num_classes: k as u32,
                    values,
                }
                .to_bytes()
                .len()
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut slice: &[u8] = &[99u8, 0, 0, 0, 0];
        assert_eq!(Message::decode(&mut slice), Err(WireError::UnknownTag(99)));
    }

    #[test]
    fn logits_size_scales_with_samples_and_classes() {
        // The motivation experiment (Fig. 3): logit traffic is proportional
        // to public-set size.
        let size = |n: usize, k: usize| {
            Message::Logits {
                sample_ids: (0..n as u32).collect(),
                num_classes: k as u32,
                values: vec![0.0; n * k],
            }
            .encoded_len()
        };
        let s1 = size(100, 10);
        let s2 = size(200, 10);
        assert!(s2 > 2 * s1 - 64, "doubling samples ~doubles bytes");
        assert!(size(100, 100) > size(100, 10) * 5);
    }

    #[test]
    fn kind_names() {
        assert_eq!(
            Message::ModelUpdate { params: vec![] }.kind(),
            "model-update"
        );
        assert_eq!(
            Message::SampleSelection { ids: vec![] }.kind(),
            "sample-selection"
        );
    }
}
