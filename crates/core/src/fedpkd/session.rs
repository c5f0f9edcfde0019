//! The client's half of Algorithm 2, over a live [`ClientState`]: it
//! reads the server's [`Message`]s and returns its own. Every message is
//! checked before the first training step, so a refused one leaves the
//! client as it was.

use std::borrow::Cow;

use crate::admission::RejectReason;
use crate::clients::ClientState;
use crate::eval;
use crate::fedpkd::config::{DistillSource, FedPkdConfig};
use crate::fedpkd::prototypes::{
    compute_input_moments, compute_prototypes, from_wire_entries, to_wire_entries,
};
use crate::train::{train_distill, train_supervised_with_prototypes, TrainStats};
use fedpkd_data::{ClientData, Dataset};
use fedpkd_netsim::Message;
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::Tensor;

/// Private training — Eq. 16 toward the global prototypes when the round
/// started with them, else Eq. 4 — then the uplink: `Logits` over the
/// transfer set, `Prototypes` when they are on, and in data-free mode the
/// input-space `DataMoments` that ground the server's generator.
///
/// # Errors
///
/// Why `start` cannot be read: see [`transfer_set`]; round-start
/// prototypes out of order ([`RejectReason::Malformed`]), or of a class
/// or width this client does not have ([`RejectReason::WrongShape`]).
pub(crate) fn upload(
    config: &FedPkdConfig,
    public: &Dataset,
    client: &mut ClientState,
    data: &ClientData,
    start: &[Message],
) -> Result<(Vec<Message>, TrainStats), RejectReason> {
    let transfer = transfer_set(public, start)?;
    let (model, optimizer, rng) = (&mut client.model, &mut client.optimizer, &mut client.rng);
    let (epochs, batch) = (config.client_private_epochs, config.batch_size);
    // No round-start prototypes, nothing to pull toward: Eq. 16 is Eq. 4.
    let global: Vec<Option<Tensor>> = match start.last() {
        Some(Message::Prototypes { entries }) => {
            from_wire_entries(entries.clone(), public.num_classes())?
                .into_iter()
                .map(|p| Some(p?.vector))
                .collect()
        }
        _ => Vec::new(),
    };
    let width = model.feature_dim();
    if global.iter().flatten().any(|g| g.len() != width) {
        return Err(RejectReason::WrongShape);
    }
    let (train, epsilon) = (&data.train, config.epsilon);
    let stats = train_supervised_with_prototypes(
        model, train, &global, epsilon, epochs, batch, optimizer, rng,
    );
    let logits = eval::logits_on(model, &transfer);
    let mut uplink = vec![Message::Logits {
        sample_ids: (0..transfer.len() as u32).collect(),
        num_classes: logits.cols() as u32,
        values: logits.into_vec(),
    }];
    let prototypes = compute_prototypes(model, &data.train);
    if config.use_prototypes {
        let entries = to_wire_entries(&prototypes);
        uplink.push(Message::Prototypes { entries });
    }
    if config.distill_source == DistillSource::Generated {
        let entries = to_wire_entries(&compute_input_moments(&data.train));
        uplink.push(Message::DataMoments { entries });
    }
    Ok((uplink, stats))
}

/// Public-phase distillation (Eq. 15): the selected rows of the transfer
/// set, toward the server's logits on them softened at the temperature.
///
/// # Errors
///
/// Why `start` cannot be read (see [`transfer_set`]); a `downlink` that
/// does not open with `Logits` and close with a `SampleSelection`
/// ([`RejectReason::UnexpectedPayload`]); logits that are not whole rows
/// over this problem's classes, or a selection that is not one transfer-set
/// row per logit row ([`RejectReason::WrongShape`]).
pub(crate) fn digest(
    config: &FedPkdConfig,
    public: &Dataset,
    client: &mut ClientState,
    start: &[Message],
    downlink: &[Message],
) -> Result<TrainStats, RejectReason> {
    let [Message::Logits {
        sample_ids,
        num_classes,
        values,
    }, .., Message::SampleSelection { ids }] = downlink
    else {
        return Err(RejectReason::UnexpectedPayload);
    };
    if *num_classes as usize != public.num_classes() || ids.len() != sample_ids.len() {
        return Err(RejectReason::WrongShape);
    }
    let shape = [sample_ids.len(), *num_classes as usize];
    let logits = Tensor::from_vec(values.clone(), &shape).map_err(|_| RejectReason::WrongShape)?;
    let selected: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
    let features = transfer_set(public, start)?
        .features()
        .select_rows(&selected)
        .map_err(|_| RejectReason::WrongShape)?;
    Ok(train_distill(
        &mut client.model,
        &features,
        &softmax(&logits, config.temperature),
        config.gamma,
        config.temperature,
        config.client_public_epochs,
        config.batch_size,
        &mut client.optimizer,
        &mut client.rng,
    ))
}

/// The round's transfer set: the generated batch when the round started
/// with one, else the public set.
///
/// # Errors
///
/// [`RejectReason::WrongShape`] for a batch whose rows are not the public
/// set's width, whose values are not whole rows, or with a label outside
/// the problem's classes.
pub(crate) fn transfer_set<'a>(
    public: &'a Dataset,
    start: &[Message],
) -> Result<Cow<'a, Dataset>, RejectReason> {
    let Some(Message::SyntheticBatch {
        sample_dim,
        labels,
        values,
    }) = start.first()
    else {
        return Ok(Cow::Borrowed(public));
    };
    if *sample_dim as usize != public.sample_dim() {
        return Err(RejectReason::WrongShape);
    }
    let shape = [labels.len(), *sample_dim as usize];
    let features =
        Tensor::from_vec(values.clone(), &shape).map_err(|_| RejectReason::WrongShape)?;
    let labels = labels.iter().map(|&y| y as usize).collect();
    let batch = Dataset::new(features, labels, public.num_classes());
    Ok(Cow::Owned(batch.map_err(|_| RejectReason::WrongShape)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cow::ClientPool;
    use crate::fedpkd::prototypes::global_to_wire_entries;
    use crate::snapshot::{write_adam, write_model, write_rng};
    use fedpkd_data::{FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::Wire;
    use fedpkd_rng::Rng;
    use fedpkd_tensor::models::{DepthTier, ModelSpec};
    use fedpkd_tensor::serialize::state_vector;

    /// What one round does to client 0 of a fresh pool: its uplink, both
    /// calls' stats, its parameters, and its serialized state (model, Adam
    /// moments, RNG words) after the digest.
    type Outcome = (Vec<Message>, TrainStats, TrainStats, Vec<f32>, Vec<u8>);

    fn spec(scenario: &FederatedScenario) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: scenario.public.sample_dim(),
            num_classes: scenario.num_classes,
            tier: DepthTier::T11,
        }
    }

    fn round(
        config: &FedPkdConfig,
        scenario: &FederatedScenario,
        start: &[Message],
        downlink: &[Message],
    ) -> Outcome {
        let pool = ClientPool::new(&[spec(scenario)], config.learning_rate, 3);
        let mut client = pool.materialize(0);
        let data = &scenario.clients[0];
        let (uplink, trained) = upload(config, &scenario.public, &mut client, data, start).unwrap();
        let distilled = digest(config, &scenario.public, &mut client, start, downlink).unwrap();
        (
            uplink,
            trained,
            distilled,
            state_vector(&client.model),
            client_bytes(&client),
        )
    }

    /// A client's serialized state: model, Adam moments, RNG words.
    fn client_bytes(client: &ClientState) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_model(&mut bytes, &client.model);
        write_adam(&mut bytes, &client.optimizer);
        write_rng(&mut bytes, &client.rng);
        bytes
    }

    /// Every message as a socket delivers it: encoded, then decoded.
    fn over_the_wire(messages: &[Message]) -> Vec<Message> {
        let decode = |m: &Message| Message::decode(&mut m.to_bytes().as_slice()).unwrap();
        messages.iter().map(decode).collect()
    }

    #[test]
    fn the_session_is_transparent_to_the_wire() {
        let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(1)
            .samples(120)
            .public_size(60)
            .global_test_size(30)
            .partition(Partition::Iid)
            .seed(4)
            .build()
            .unwrap();
        let (rows, classes) = (scenario.public.len(), scenario.num_classes);
        let sample_dim = scenario.public.sample_dim();
        let mut rng = Rng::seed_from_u64(5);
        let feature_dim = spec(&scenario).build(&mut rng).feature_dim();
        let global: Vec<Option<Tensor>> = (0..classes)
            .map(|c| (c % 3 != 0).then(|| Tensor::randn(&[feature_dim], 1.0, &mut rng)))
            .collect();
        let prototypes = Message::Prototypes {
            entries: global_to_wire_entries(&global),
        };
        let batch = Message::SyntheticBatch {
            sample_dim: sample_dim as u32,
            labels: (0..rows).map(|i| (i % classes) as u32).collect(),
            values: Tensor::randn(&[rows, sample_dim], 1.0, &mut rng).into_vec(),
        };
        let ids: Vec<u32> = (0..rows as u32).step_by(3).collect();
        let downlink = [
            Message::Logits {
                sample_ids: ids.clone(),
                num_classes: classes as u32,
                values: Tensor::randn(&[ids.len(), classes], 2.0, &mut rng).into_vec(),
            },
            prototypes.clone(),
            Message::SampleSelection { ids },
        ];
        // Round 0 and a later round of public mode, then data-free mode.
        let cases = [
            (DistillSource::Public, vec![]),
            (DistillSource::Public, vec![prototypes.clone()]),
            (DistillSource::Generated, vec![batch, prototypes]),
        ];
        for (distill_source, start) in cases {
            let config = FedPkdConfig {
                distill_source,
                client_private_epochs: 1,
                client_public_epochs: 1,
                ..FedPkdConfig::default()
            };
            let local = round(&config, &scenario, &start, &downlink);
            let wired = round(
                &config,
                &scenario,
                &over_the_wire(&start),
                &over_the_wire(&downlink),
            );
            assert_eq!(
                local,
                wired,
                "{distill_source:?}, {} start messages",
                start.len()
            );
            let kinds: Vec<&str> = local.0.iter().map(Message::kind).collect();
            let mut expected = vec!["logits", "prototypes"];
            if distill_source == DistillSource::Generated {
                expected.push("data-moments");
            }
            assert_eq!(kinds, expected);
            assert!(local.1.batches > 0 && local.2.batches > 0);
        }
    }

    #[test]
    fn hostile_messages_are_refused_typed_and_leave_the_client_unchanged() {
        let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(1)
            .samples(60)
            .public_size(30)
            .global_test_size(10)
            .partition(Partition::Iid)
            .seed(6)
            .build()
            .unwrap();
        let (public, data) = (&scenario.public, &scenario.clients[0]);
        let (rows, classes, sample_dim) = (public.len(), scenario.num_classes, public.sample_dim());
        let config = FedPkdConfig {
            client_private_epochs: 1,
            client_public_epochs: 1,
            ..FedPkdConfig::default()
        };
        let pool = ClientPool::new(&[spec(&scenario)], config.learning_rate, 3);
        let mut client = pool.materialize(0);
        let before = client_bytes(&client);
        let mut rng = Rng::seed_from_u64(7);

        let prototypes = |width: usize| Message::Prototypes {
            entries: global_to_wire_entries(&vec![Some(Tensor::zeros(&[width])); classes]),
        };
        let feature_dim = client.model.feature_dim();
        let mut swapped = global_to_wire_entries(&vec![Some(Tensor::zeros(&[feature_dim])); 2]);
        swapped.swap(0, 1);
        let batch = |dim: usize, label: u32, short: usize| Message::SyntheticBatch {
            sample_dim: dim as u32,
            labels: vec![label; rows],
            values: vec![0.5; rows * dim - short],
        };
        let starts = [
            (
                "out-of-order prototypes",
                vec![Message::Prototypes { entries: swapped }],
                RejectReason::Malformed,
            ),
            (
                "prototype width",
                vec![prototypes(feature_dim + 1)],
                RejectReason::WrongShape,
            ),
            (
                "short batch values",
                vec![batch(sample_dim, 0, 1)],
                RejectReason::WrongShape,
            ),
            (
                "batch width",
                vec![batch(sample_dim + 1, 0, 0)],
                RejectReason::WrongShape,
            ),
            (
                "label past the classes",
                vec![batch(sample_dim, classes as u32, 0)],
                RejectReason::WrongShape,
            ),
        ];
        for (case, start, reason) in starts {
            let refused = upload(&config, public, &mut client, data, &start).map(|_| ());
            assert_eq!(refused, Err(reason), "{case}");
            assert_eq!(client_bytes(&client), before, "{case}");
        }

        let logits = Message::Logits {
            sample_ids: vec![0, 1, 2],
            num_classes: classes as u32,
            values: Tensor::randn(&[3, classes], 1.0, &mut rng).into_vec(),
        };
        let select = |ids: Vec<u32>| Message::SampleSelection { ids };
        let downlinks = [
            (
                "selection before logits",
                vec![select(vec![0, 1, 2]), logits.clone()],
                RejectReason::UnexpectedPayload,
            ),
            (
                "selection past the transfer set",
                vec![logits.clone(), select(vec![0, 1, rows as u32])],
                RejectReason::WrongShape,
            ),
            (
                "selection length",
                vec![logits.clone(), select(vec![0, 1])],
                RejectReason::WrongShape,
            ),
        ];
        for (case, downlink, reason) in downlinks {
            let refused = digest(&config, public, &mut client, &[], &downlink).map(|_| ());
            assert_eq!(refused, Err(reason), "{case}");
            assert_eq!(client_bytes(&client), before, "{case}");
        }
        // The same client reads well-formed messages.
        let honest = [logits, select(vec![0, 1, 2])];
        assert!(digest(&config, public, &mut client, &[], &honest).is_ok());
        assert_ne!(client_bytes(&client), before);
    }
}
