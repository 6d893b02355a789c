//! Offline training (§3 "Offline Training"): preprocessing → initial grouping →
//! per-group hierarchical clustering → model assembly.

use crate::cluster::{cluster_group, LocalNode};
use crate::config::TrainConfig;
use crate::grouping::initial_groups;
use crate::model::ParserModel;
use crate::parallel::run_parallel;
use crate::tree::{NodeId, TreeNode};
use logtok::{EncodedLog, PreprocessedBatch, Preprocessor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of one training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained model.
    pub model: ParserModel,
    /// For every input record, the node its unique log was clustered into (the most
    /// precise template containing it), or `None` for a record the OOM guard's sample
    /// left out. Used by the "w/ naive match" ablation variant and by tests.
    pub training_assignment: Vec<Option<NodeId>>,
}

/// Train a model from raw records, preprocessed by `preprocessor` — the one its caller
/// matches with, built from `config.preprocess` (a [`ByteBrainParser`]'s own, or a
/// service topic's).
///
/// [`ByteBrainParser`]: crate::ByteBrainParser
pub fn train<S: AsRef<str>>(
    records: &[S],
    preprocessor: &Preprocessor,
    config: &TrainConfig,
) -> TrainOutcome {
    train_keeping_batch(records, preprocessor, config).0
}

/// [`train`], also returning the batch it clustered and, when the OOM guard (§3)
/// sampled `max_training_records` of the records uniformly, the indices of the records
/// the batch holds, in input order.
pub(crate) fn train_keeping_batch<S: AsRef<str>>(
    records: &[S],
    preprocessor: &Preprocessor,
    config: &TrainConfig,
) -> (TrainOutcome, PreprocessedBatch, Option<Vec<usize>>) {
    if records.len() <= config.max_training_records {
        let batch = preprocessor.preprocess(records);
        return (train_from_batch(&batch, config), batch, None);
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5A5A);
    let mut indices: Vec<usize> = (0..records.len()).collect();
    indices.shuffle(&mut rng);
    indices.truncate(config.max_training_records);
    indices.sort_unstable();
    let sampled: Vec<&str> = indices.iter().map(|&i| records[i].as_ref()).collect();
    let batch = preprocessor.preprocess(&sampled);
    let mut outcome = train_from_batch(&batch, config);
    let clustered = &outcome.training_assignment;
    outcome.training_assignment = spread_sample(&indices, clustered, records.len());
    (outcome, batch, Some(indices))
}

/// Per record of a batch of `len`: the node of its place in the sample `indices`, `None`
/// for a record the sample left out.
pub(crate) fn spread_sample(
    indices: &[usize],
    sampled: &[Option<NodeId>],
    len: usize,
) -> Vec<Option<NodeId>> {
    let mut spread = vec![None; len];
    for (&i, &node) in indices.iter().zip(sampled) {
        spread[i] = node;
    }
    spread
}

/// Train a model from an already-preprocessed batch (used by the service layer, which
/// preprocesses incrementally as records arrive). Every record of the batch is
/// clustered, so its `training_assignment` has no `None`.
pub fn train_from_batch(batch: &PreprocessedBatch, config: &TrainConfig) -> TrainOutcome {
    let unique_logs = &batch.unique_logs;
    let groups = initial_groups(unique_logs, config.prefix_tokens);

    // Cluster every initial group, in parallel when requested. Each task returns the
    // group's member indices alongside its local tree so results can be assembled in a
    // deterministic order.
    let group_inputs: Vec<(usize, Vec<usize>)> =
        groups.into_iter().map(|g| g.members).enumerate().collect();
    let mut ordered: Vec<(usize, Vec<usize>, Vec<LocalNode>)> =
        run_parallel(config.parallelism, group_inputs, |(group_idx, members)| {
            let group_logs: Vec<&EncodedLog> = members.iter().map(|&m| &unique_logs[m]).collect();
            let local = cluster_group(
                &group_logs,
                config,
                config.seed ^ (group_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            (group_idx, members, local)
        });
    ordered.sort_by_key(|(idx, _, _)| *idx);

    let mut model = ParserModel::new();
    // unique-log index → most precise node id.
    let mut unique_assignment: Vec<Option<NodeId>> = vec![None; unique_logs.len()];

    for (_, members, mut local_nodes) in ordered {
        // First pass: create global nodes; remember local → global mapping.
        let mut local_to_global: Vec<NodeId> = Vec::with_capacity(local_nodes.len());
        for local in &mut local_nodes {
            let unique_count = local.members.len() as u64;
            let node = TreeNode {
                id: NodeId(0),
                parent: None,
                children: Vec::new(),
                template: std::mem::take(&mut local.template),
                saturation: local.saturation,
                depth: local.depth,
                log_count: local.log_count,
                unique_count,
                temporary: false,
                retired: false,
            };
            local_to_global.push(model.push_node(node));
        }
        // Second pass: wire parents/children and register the root.
        for (local_idx, local) in local_nodes.iter().enumerate() {
            match local.parent {
                Some(parent_local) => {
                    model.attach_child(local_to_global[parent_local], local_to_global[local_idx]);
                }
                None => model.add_root(local_to_global[local_idx]),
            }
        }
        // Third pass: assign every unique log to its most precise (deepest) node. Leaves
        // partition the group's members, so walking the leaves covers everything.
        for (local_idx, local) in local_nodes.iter().enumerate() {
            if local.children.is_empty() {
                for &member_slot in &local.members {
                    let global_unique_idx = members[member_slot];
                    unique_assignment[global_unique_idx] = Some(local_to_global[local_idx]);
                }
            }
        }
    }
    model.rebuild_match_order();

    // Expand the per-unique-log assignment to per-record.
    let training_assignment: Vec<Option<NodeId>> = batch
        .record_to_unique
        .iter()
        .map(|&u| Some(unique_assignment[u].expect("every unique log is assigned to a leaf")))
        .collect();

    TrainOutcome {
        model,
        training_assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;

    fn preprocessor() -> Preprocessor {
        Preprocessor::new(TrainConfig::default().preprocess)
    }

    fn ssh_like_records() -> Vec<String> {
        let mut records = Vec::new();
        for i in 0..30 {
            records.push(format!(
                "Accepted password for user{} from 10.0.0.{} port 22 ssh2",
                i % 5,
                i % 9
            ));
            records.push(format!("Connection closed by 10.0.0.{}", i % 9));
            records.push(format!(
                "Failed password for invalid user guest{} from 10.1.1.{} port 22 ssh2",
                i % 3,
                i % 7
            ));
        }
        records
    }

    #[test]
    fn training_builds_a_nonempty_model() {
        let records = ssh_like_records();
        let outcome = train(&records, &preprocessor(), &TrainConfig::default());
        assert!(!outcome.model.is_empty());
        assert_eq!(outcome.training_assignment.len(), records.len());
        assert!(
            outcome.model.roots.len() >= 2,
            "length grouping should give ≥2 roots"
        );
    }

    #[test]
    fn assignment_points_to_matching_templates() {
        let records = ssh_like_records();
        let config = TrainConfig::default();
        let preprocessor = Preprocessor::new(config.preprocess.clone());
        let outcome = train(&records, &preprocessor, &config);
        for (record, node_id) in records.iter().zip(&outcome.training_assignment) {
            let tokens = preprocessor.tokens_of(record);
            let node = node_id.and_then(|id| outcome.model.node(id)).unwrap();
            assert!(
                node.matches(tokens.iter().map(String::as_str)),
                "record {record:?} assigned to non-matching template {:?}",
                node.template_text()
            );
        }
    }

    #[test]
    fn record_counts_are_preserved() {
        let records = ssh_like_records();
        let outcome = train(&records, &preprocessor(), &TrainConfig::default());
        assert_eq!(outcome.model.trained_records(), records.len() as u64);
    }

    #[test]
    fn distinct_log_statements_get_distinct_leaf_templates() {
        let records = ssh_like_records();
        let outcome = train(&records, &preprocessor(), &TrainConfig::default());
        let accepted = &outcome.training_assignment[0];
        let closed = &outcome.training_assignment[1];
        assert_ne!(
            accepted, closed,
            "structurally different logs must not share a leaf"
        );
    }

    #[test]
    fn sampling_caps_training_size() {
        let records: Vec<String> = (0..500)
            .map(|i| format!("event number {i} occurred"))
            .collect();
        let config = TrainConfig {
            max_training_records: 100,
            ..TrainConfig::default()
        };
        let outcome = train(
            &records,
            &Preprocessor::new(config.preprocess.clone()),
            &config,
        );
        assert!(outcome.model.trained_records() <= 100);
        // One entry per input record; only the sampled ones were clustered.
        assert_eq!(outcome.training_assignment.len(), records.len());
        assert_eq!(outcome.training_assignment.iter().flatten().count(), 100);
    }

    #[test]
    fn parallel_training_matches_sequential_structure() {
        let records = ssh_like_records();
        let seq = train(
            &records,
            &preprocessor(),
            &TrainConfig::default().with_parallelism(1),
        );
        let par = train(
            &records,
            &preprocessor(),
            &TrainConfig::default().with_parallelism(4),
        );
        assert_eq!(seq.model.roots.len(), par.model.roots.len());
        assert_eq!(seq.model.len(), par.model.len());
        // Identical seeds per group make the trees identical regardless of thread count.
        let seq_templates: Vec<String> =
            seq.model.nodes.iter().map(|n| n.template_text()).collect();
        let par_templates: Vec<String> =
            par.model.nodes.iter().map(|n| n.template_text()).collect();
        assert_eq!(seq_templates, par_templates);
    }

    #[test]
    fn empty_input_trains_empty_model() {
        let outcome = train(&[] as &[String], &preprocessor(), &TrainConfig::default());
        assert!(outcome.model.is_empty());
        assert!(outcome.training_assignment.is_empty());
    }
}
