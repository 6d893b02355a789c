//! Training and ablation configuration.

use logtok::PreprocessConfig;
use serde::{Deserialize, Serialize};

/// Switches for the techniques evaluated in the ablation study (§5.4, Fig. 8 and Fig. 9).
///
/// Every field defaults to `true` (the full ByteBrain configuration); the ablation
/// experiments disable one technique at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationConfig {
    /// Weight positions by `1/(n_i − 1)` in the positional similarity distance (Eq. 2).
    /// Disabled → every position weight is 1 ("w/o position importance").
    pub position_importance: bool,
    /// Include the variability factor of unresolved positions in the saturation score
    /// (Eq. 3). Disabled → `s = f_c` ("w/o variable in saturation").
    pub variable_in_saturation: bool,
    /// Include the confidence factor `p_c` in the saturation score. Disabled →
    /// `s = f_v · f_c` ("w/o confidence factor").
    pub confidence_factor: bool,
    /// Select new cluster centroids K-Means++-style (farthest log). Disabled → random
    /// centroid selection ("random centroid selection").
    pub kmeanspp_centroids: bool,
    /// Only keep a split when every child's saturation improves on the parent
    /// ("w/o ensure saturation increase" splits unconditionally into two clusters).
    pub ensure_saturation_increase: bool,
    /// Randomly break ties when a log is equidistant from several clusters
    /// ("w/o balanced group" always picks the first cluster).
    pub balanced_grouping: bool,
    /// Stop clustering early for trivially-resolved nodes (§4.7).
    pub early_stopping: bool,
    /// Collapse duplicate logs before clustering (§4.1.3). Disabling this also disables
    /// the optimisations that depend on it, mirroring "w/o deduplication & related techs".
    pub deduplication: bool,
    /// Assign templates to training logs with the online text matcher (§4.8). Disabled →
    /// use the clustering assignment directly ("w/ naive match").
    pub text_based_matching: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            position_importance: true,
            variable_in_saturation: true,
            confidence_factor: true,
            kmeanspp_centroids: true,
            ensure_saturation_increase: true,
            balanced_grouping: true,
            early_stopping: true,
            deduplication: true,
            text_based_matching: true,
        }
    }
}

impl AblationConfig {
    /// The full configuration (all techniques enabled).
    pub fn full() -> Self {
        Self::default()
    }

    /// Named ablation variants exactly as they appear in Fig. 8 / Fig. 9, mapping the
    /// variant label to its configuration. Fig. 9's "ordinal encoding" is absent:
    /// tokens are always hash-encoded, so it would train exactly as "ByteBrain".
    pub fn named_variants() -> Vec<(&'static str, AblationConfig)> {
        let full = AblationConfig::full();
        vec![
            ("ByteBrain", full),
            (
                "w/ naive match",
                AblationConfig {
                    text_based_matching: false,
                    ..full
                },
            ),
            (
                "w/o variable in saturation",
                AblationConfig {
                    variable_in_saturation: false,
                    ..full
                },
            ),
            (
                "w/o position importance",
                AblationConfig {
                    position_importance: false,
                    ..full
                },
            ),
            (
                "w/o confidence factor",
                AblationConfig {
                    confidence_factor: false,
                    ..full
                },
            ),
            (
                "random centroid selection",
                AblationConfig {
                    kmeanspp_centroids: false,
                    ..full
                },
            ),
            (
                "w/o ensure saturation increase",
                AblationConfig {
                    ensure_saturation_increase: false,
                    ..full
                },
            ),
            (
                "w/o balanced group",
                AblationConfig {
                    balanced_grouping: false,
                    ..full
                },
            ),
            (
                "w/o early stopping",
                AblationConfig {
                    early_stopping: false,
                    ..full
                },
            ),
            (
                "w/o deduplication&related techs",
                AblationConfig {
                    deduplication: false,
                    balanced_grouping: false,
                    early_stopping: false,
                    ..full
                },
            ),
        ]
    }
}

/// Full training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Preprocessing configuration (tokenizer, masking, deduplication).
    pub preprocess: PreprocessConfig,
    /// Number of leading tokens used by prefix-based initial grouping (§4.2). The paper's
    /// default is 0 (group by length only).
    pub prefix_tokens: usize,
    /// Hard cap on clustering-tree depth (a safety bound; saturation normally terminates
    /// the recursion much earlier).
    pub max_depth: usize,
    /// Maximum refinement iterations in one single-clustering process (§4.4).
    pub max_cluster_iters: usize,
    /// Random seed (centroid selection and balanced-grouping tie breaks).
    pub seed: u64,
    /// Number of worker threads used for training and matching (the paper limits
    /// production deployments to 1–5 cores; Fig. 12 sweeps this value).
    pub parallelism: usize,
    /// Random sampling cap: when a training batch exceeds this many records, a uniform
    /// sample of this size is used (the paper's OOM guard for exceptionally large topics).
    pub max_training_records: usize,
    /// Technique switches for the ablation study.
    pub ablation: AblationConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            preprocess: PreprocessConfig::default(),
            prefix_tokens: 0,
            max_depth: 24,
            max_cluster_iters: 8,
            seed: 0x5EED,
            parallelism: 1,
            max_training_records: 2_000_000,
            ablation: AblationConfig::default(),
        }
    }
}

impl TrainConfig {
    /// Configuration used by the efficiency experiments: identical algorithmic behaviour,
    /// `parallelism` worker threads.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Replace the ablation switches.
    pub fn with_ablation(mut self, ablation: AblationConfig) -> Self {
        self.ablation = ablation;
        // Deduplication is implemented in the preprocessing pipeline.
        self.preprocess.deduplicate = ablation.deduplication;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_every_technique() {
        let a = AblationConfig::default();
        assert!(a.position_importance);
        assert!(a.deduplication);
        assert!(a.text_based_matching);
    }

    #[test]
    fn named_variants_cover_the_paper_figures() {
        let variants = AblationConfig::named_variants();
        let names: Vec<&str> = variants.iter().map(|(n, _)| *n).collect();
        for expected in [
            "ByteBrain",
            "w/ naive match",
            "w/o variable in saturation",
            "w/o position importance",
            "w/o confidence factor",
            "random centroid selection",
            "w/o ensure saturation increase",
            "w/o balanced group",
            "w/o early stopping",
            "w/o deduplication&related techs",
        ] {
            assert!(names.contains(&expected), "missing variant {expected}");
        }
        // The first variant is the full configuration.
        assert_eq!(variants[0].1, AblationConfig::full());
    }

    #[test]
    fn dedup_variant_disables_dependent_techniques() {
        let variants = AblationConfig::named_variants();
        let (_, config) = variants
            .iter()
            .find(|(n, _)| *n == "w/o deduplication&related techs")
            .unwrap();
        assert!(!config.deduplication);
        assert!(!config.balanced_grouping);
        assert!(!config.early_stopping);
    }

    #[test]
    fn with_ablation_propagates_dedup_to_preprocessing() {
        let config = TrainConfig::default().with_ablation(AblationConfig {
            deduplication: false,
            ..AblationConfig::full()
        });
        assert!(!config.preprocess.deduplicate);
    }

    #[test]
    fn with_parallelism_floors_at_one() {
        assert_eq!(TrainConfig::default().with_parallelism(0).parallelism, 1);
        assert_eq!(TrainConfig::default().with_parallelism(8).parallelism, 8);
    }
}
