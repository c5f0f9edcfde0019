//! The client's half of Algorithm 2, over a live [`ClientState`]: it
//! reads the server's [`Message`]s and returns its own. Every message it
//! reads is built by [`FedPkd`](super::FedPkd) in this process from the
//! server's own state, so none of the decodes below can fail.

use std::borrow::Cow;

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
pub(crate) fn upload(
    config: &FedPkdConfig,
    public: &Dataset,
    client: &mut ClientState,
    data: &ClientData,
    start: &[Message],
) -> (Vec<Message>, TrainStats) {
    let (model, optimizer, rng) = (&mut client.model, &mut client.optimizer, &mut client.rng);
    let (epochs, batch) = (config.client_private_epochs, config.batch_size);
    // No round-start prototypes, nothing to pull toward: Eq. 16 is Eq. 4.
    let global: Vec<Option<Tensor>> = match start.last() {
        Some(Message::Prototypes { entries }) => {
            from_wire_entries(entries.clone(), public.num_classes())
                .expect("the server sends one entry per present class, ascending")
                .into_iter()
                .map(|p| Some(p?.vector))
                .collect()
        }
        _ => Vec::new(),
    };
    let (train, epsilon) = (&data.train, config.epsilon);
    let stats = train_supervised_with_prototypes(
        model, train, &global, epsilon, epochs, batch, optimizer, rng,
    );
    let transfer = transfer_set(public, start);
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
    (uplink, stats)
}

/// Public-phase distillation (Eq. 15): the selected rows of the transfer
/// set, toward the server's logits on them softened at the temperature.
pub(crate) fn digest(
    config: &FedPkdConfig,
    public: &Dataset,
    client: &mut ClientState,
    start: &[Message],
    downlink: &[Message],
) -> TrainStats {
    let [Message::Logits {
        sample_ids,
        num_classes,
        values,
    }, .., Message::SampleSelection { ids }] = downlink
    else {
        unreachable!("the server sends its logits first and the selection last");
    };
    let shape = [sample_ids.len(), *num_classes as usize];
    let logits = Tensor::from_vec(values.clone(), &shape).expect("the server sends whole rows");
    let selected: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
    let features = transfer_set(public, start)
        .features()
        .select_rows(&selected)
        .expect("the server selects rows of the transfer set");
    train_distill(
        &mut client.model,
        &features,
        &softmax(&logits, config.temperature),
        config.gamma,
        config.temperature,
        config.client_public_epochs,
        config.batch_size,
        &mut client.optimizer,
        &mut client.rng,
    )
}

/// The round's transfer set: the generated batch when the round started
/// with one, else the public set.
pub(crate) fn transfer_set<'a>(public: &'a Dataset, start: &[Message]) -> Cow<'a, Dataset> {
    let Some(Message::SyntheticBatch {
        sample_dim,
        labels,
        values,
    }) = start.first()
    else {
        return Cow::Borrowed(public);
    };
    let shape = [labels.len(), *sample_dim as usize];
    let features = Tensor::from_vec(values.clone(), &shape).expect("the server sends whole rows");
    let labels = labels.iter().map(|&y| y as usize).collect();
    let batch = Dataset::new(features, labels, public.num_classes());
    Cow::Owned(batch.expect("the generator conditions on in-range labels"))
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
        let (uplink, trained) = upload(config, &scenario.public, &mut client, data, start);
        let distilled = digest(config, &scenario.public, &mut client, start, downlink);
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
}
