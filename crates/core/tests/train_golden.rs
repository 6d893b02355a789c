//! Golden differential for the offline trainer.
//!
//! Every row of [`GOLDEN`] is the fingerprint of one complete training run, captured
//! from the `Vec<HashMap<u64, u64>>` trainer before the columnar kernel replaced it.
//! The kernel must be decision-for-decision identical — same RNG draws in the same
//! order, same tie behaviour, same f64 expression order — so the table never changes
//! with a trainer rewrite. If a change is *meant* to alter training decisions, run
//! `BYTEBRAIN_GOLDEN_PRINT=1 cargo test --release -p bytebrain --test train_golden -- --nocapture`
//! and paste the printed table, saying why in the commit.

use bytebrain::train::{train, TrainOutcome};
use bytebrain::tree::TemplateToken;
use bytebrain::{AblationConfig, TrainConfig};
use datasets::{loghub2_dataset_names, LabeledDataset};
use logtok::Preprocessor;

const LOGS_PER_FAMILY: usize = 1024;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a over everything the trainer decides: tree shape, templates, saturation bits,
/// counts, the match order and the per-record assignment.
fn fingerprint(outcome: &TrainOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(outcome.model.nodes.len() as u64);
    for node in &outcome.model.nodes {
        h.u64(node.parent.map_or(u64::MAX, |p| p.0 as u64));
        h.u64(node.depth as u64);
        h.u64(node.template.len() as u64);
        for token in &node.template {
            match token {
                TemplateToken::Const(text) => {
                    h.u64(text.len() as u64);
                    h.bytes(text.as_bytes());
                }
                TemplateToken::Wildcard => h.u64(u64::MAX),
            }
        }
        h.u64(node.saturation.to_bits());
        h.u64(node.log_count);
        h.u64(node.unique_count);
    }
    h.u64(outcome.model.match_order().len() as u64);
    for id in outcome.model.match_order() {
        h.u64(id.0 as u64);
    }
    h.u64(outcome.training_assignment.len() as u64);
    for id in &outcome.training_assignment {
        h.u64(id.map_or(u64::MAX, |id| id.0 as u64));
    }
    h.0
}

/// Records of four families interleaved, so prefix grouping (`prefix_tokens = 1`) yields
/// many initial groups of uneven size for the worker pool to race over.
fn multi_group_records() -> Vec<String> {
    let families: Vec<LabeledDataset> = ["HDFS", "Linux", "Hadoop", "Spark"]
        .iter()
        .map(|name| LabeledDataset::loghub2(name, 512))
        .collect();
    (0..512)
        .flat_map(|i| families.iter().map(move |f| f.records[i].clone()))
        .collect()
}

fn actual_rows() -> Vec<(String, String, u64)> {
    let mut rows = Vec::new();
    for family in loghub2_dataset_names() {
        let records = LabeledDataset::loghub2(family, LOGS_PER_FAMILY).records;
        for (variant, ablation) in AblationConfig::named_variants() {
            let config = TrainConfig::default().with_ablation(ablation);
            let outcome = train(
                &records,
                &Preprocessor::new(config.preprocess.clone()),
                &config,
            );
            rows.push((
                family.to_string(),
                variant.to_string(),
                fingerprint(&outcome),
            ));
        }
    }
    // Short and long refinement runs of the full variant: one iteration ends right after
    // the first assignment, two can end on a growth step whose seed has no members, 32
    // run the refinement loop to convergence on every split.
    for family in loghub2_dataset_names() {
        let records = LabeledDataset::loghub2(family, LOGS_PER_FAMILY).records;
        for max_cluster_iters in [1usize, 2, 32] {
            let config = TrainConfig {
                max_cluster_iters,
                ..TrainConfig::default()
            };
            let outcome = train(
                &records,
                &Preprocessor::new(config.preprocess.clone()),
                &config,
            );
            rows.push((
                family.to_string(),
                format!("max_cluster_iters {max_cluster_iters}"),
                fingerprint(&outcome),
            ));
        }
    }
    let records = multi_group_records();
    for parallelism in [1usize, 4] {
        let config = TrainConfig {
            prefix_tokens: 1,
            ..TrainConfig::default().with_parallelism(parallelism)
        };
        let outcome = train(
            &records,
            &Preprocessor::new(config.preprocess.clone()),
            &config,
        );
        rows.push((
            "multi-group".to_string(),
            format!("parallelism {parallelism}"),
            fingerprint(&outcome),
        ));
    }
    rows
}

#[test]
fn trainer_reproduces_the_golden_fingerprints() {
    let actual = actual_rows();
    if std::env::var_os("BYTEBRAIN_GOLDEN_PRINT").is_some() {
        for (family, variant, print) in &actual {
            println!("    ({family:?}, {variant:?}, {print:#018x}),");
        }
        return;
    }
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "row count differs from the table"
    );
    let mut mismatches = Vec::new();
    for ((family, variant, print), &(g_family, g_variant, g_print)) in actual.iter().zip(GOLDEN) {
        assert_eq!((family.as_str(), variant.as_str()), (g_family, g_variant));
        if *print != g_print {
            mismatches.push(format!(
                "{family} / {variant}: {print:#018x}, golden {g_print:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} training runs diverged from the golden table:\n{}",
        mismatches.len(),
        GOLDEN.len(),
        mismatches.join("\n")
    );
}

/// Thread count must not leak into the result: both multi-group rows are one number.
#[test]
fn multi_group_rows_agree_across_parallelism() {
    let rows: Vec<_> = GOLDEN
        .iter()
        .filter(|(family, _, _)| *family == "multi-group")
        .collect();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].2, rows[1].2);
}

/// (family, variant, fingerprint). The ablation and multi-group rows were captured at
/// commit 5750591 (the HashMap trainer).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64)] = &[
    ("HealthApp", "ByteBrain", 0xbd4b51e999bbff15),
    ("HealthApp", "w/ naive match", 0xbd4b51e999bbff15),
    ("HealthApp", "w/o variable in saturation", 0x9b01069c83690a70),
    ("HealthApp", "w/o position importance", 0x8a4ee9ee88cdf690),
    ("HealthApp", "w/o confidence factor", 0xfe0b795b14ed8609),
    ("HealthApp", "random centroid selection", 0x273156bc1a223d7e),
    ("HealthApp", "w/o ensure saturation increase", 0x0c2a3a6ccf970716),
    ("HealthApp", "w/o balanced group", 0x38b7ec88c89ed37a),
    ("HealthApp", "w/o early stopping", 0x93df41b5f1e9f1bd),
    ("HealthApp", "w/o deduplication&related techs", 0x9a11b6efc8973737),
    ("OpenStack", "ByteBrain", 0xf3132e808afa2d8d),
    ("OpenStack", "w/ naive match", 0xf3132e808afa2d8d),
    ("OpenStack", "w/o variable in saturation", 0xb1dbf230ca85683e),
    ("OpenStack", "w/o position importance", 0x93ef0d04ee8ba959),
    ("OpenStack", "w/o confidence factor", 0x92e043fe7b1418ac),
    ("OpenStack", "random centroid selection", 0xb76e4df825176a18),
    ("OpenStack", "w/o ensure saturation increase", 0x592c62bfeaf094df),
    ("OpenStack", "w/o balanced group", 0xcae9664a9fc051d0),
    ("OpenStack", "w/o early stopping", 0xfa426b098b4c84da),
    ("OpenStack", "w/o deduplication&related techs", 0xefdf7463097e38f7),
    ("OpenSSH", "ByteBrain", 0x52f7bb045b5f75e7),
    ("OpenSSH", "w/ naive match", 0x52f7bb045b5f75e7),
    ("OpenSSH", "w/o variable in saturation", 0x0948a6ff0cd8315e),
    ("OpenSSH", "w/o position importance", 0x4d2dbc828c4736a4),
    ("OpenSSH", "w/o confidence factor", 0x6d377ce51d73d5ca),
    ("OpenSSH", "random centroid selection", 0xd959e647fe83c919),
    ("OpenSSH", "w/o ensure saturation increase", 0x3621480f6dc5331b),
    ("OpenSSH", "w/o balanced group", 0x6e675b8e2d32700f),
    ("OpenSSH", "w/o early stopping", 0xc0d70f0996b0d1dd),
    ("OpenSSH", "w/o deduplication&related techs", 0xfa4be92943f8df98),
    ("Proxifier", "ByteBrain", 0x67df0e714471c28e),
    ("Proxifier", "w/ naive match", 0x67df0e714471c28e),
    ("Proxifier", "w/o variable in saturation", 0x7b1fd8ef01f361be),
    ("Proxifier", "w/o position importance", 0x06b7b1138a5f18da),
    ("Proxifier", "w/o confidence factor", 0xfd065c7fb9f25bfc),
    ("Proxifier", "random centroid selection", 0x97a66dd96bba26d0),
    ("Proxifier", "w/o ensure saturation increase", 0x5aed769e4db715c5),
    ("Proxifier", "w/o balanced group", 0x584f258f9a739919),
    ("Proxifier", "w/o early stopping", 0xe1daca0264023dc7),
    ("Proxifier", "w/o deduplication&related techs", 0xc0a525645444af6b),
    ("HPC", "ByteBrain", 0xc8d2a62803bc4819),
    ("HPC", "w/ naive match", 0xc8d2a62803bc4819),
    ("HPC", "w/o variable in saturation", 0x83f72801c262b51b),
    ("HPC", "w/o position importance", 0x010979ab3cbf3b77),
    ("HPC", "w/o confidence factor", 0x27a47c0e8e932c35),
    ("HPC", "random centroid selection", 0xa5e73c6b372f2893),
    ("HPC", "w/o ensure saturation increase", 0x0ebb60442b2d0d18),
    ("HPC", "w/o balanced group", 0x48e72e896b6d4396),
    ("HPC", "w/o early stopping", 0x2cf65e67e7c62ed1),
    ("HPC", "w/o deduplication&related techs", 0xc11cba9cc2be6363),
    ("Zookeeper", "ByteBrain", 0xc1bb4966f92f880d),
    ("Zookeeper", "w/ naive match", 0xc1bb4966f92f880d),
    ("Zookeeper", "w/o variable in saturation", 0xa34f49281b31a19f),
    ("Zookeeper", "w/o position importance", 0xaeae5dde4adc2087),
    ("Zookeeper", "w/o confidence factor", 0x99a8fac659a101ef),
    ("Zookeeper", "random centroid selection", 0x4af6149f29e4b1c3),
    ("Zookeeper", "w/o ensure saturation increase", 0x233a9b9dbc54e6f2),
    ("Zookeeper", "w/o balanced group", 0x69bbea12d1c04d2c),
    ("Zookeeper", "w/o early stopping", 0x141b44bce5f6c768),
    ("Zookeeper", "w/o deduplication&related techs", 0x0d2e4a29c26f598f),
    ("Mac", "ByteBrain", 0xfeaf80a200c6f0f0),
    ("Mac", "w/ naive match", 0xfeaf80a200c6f0f0),
    ("Mac", "w/o variable in saturation", 0x10cfd2a90399d562),
    ("Mac", "w/o position importance", 0x19db709a6efc16ed),
    ("Mac", "w/o confidence factor", 0xb1d6c5f5b84d30b2),
    ("Mac", "random centroid selection", 0x9caa409e9c5e7e68),
    ("Mac", "w/o ensure saturation increase", 0xd883902c444cdeff),
    ("Mac", "w/o balanced group", 0x8ed6cca2ab126dd8),
    ("Mac", "w/o early stopping", 0xf8461bedc5a86318),
    ("Mac", "w/o deduplication&related techs", 0x4497cfceb07080c6),
    ("Hadoop", "ByteBrain", 0x3ecbc973ef663c90),
    ("Hadoop", "w/ naive match", 0x3ecbc973ef663c90),
    ("Hadoop", "w/o variable in saturation", 0x177ffff85d11a9e2),
    ("Hadoop", "w/o position importance", 0x35ddfd83d89fc2ed),
    ("Hadoop", "w/o confidence factor", 0x706022da3155262d),
    ("Hadoop", "random centroid selection", 0x2ed07f02c67b25a4),
    ("Hadoop", "w/o ensure saturation increase", 0xdb887aab6472ba23),
    ("Hadoop", "w/o balanced group", 0xa7488166513146c2),
    ("Hadoop", "w/o early stopping", 0x485b5fd20fa8e3ce),
    ("Hadoop", "w/o deduplication&related techs", 0xa6d3bd1c7b261938),
    ("Linux", "ByteBrain", 0xfecd822186927f6f),
    ("Linux", "w/ naive match", 0xfecd822186927f6f),
    ("Linux", "w/o variable in saturation", 0xa7198a712ffc6cc3),
    ("Linux", "w/o position importance", 0xdd4cc04ce76d36ea),
    ("Linux", "w/o confidence factor", 0x330250653ee1f2c4),
    ("Linux", "random centroid selection", 0xe32f549e10f64e78),
    ("Linux", "w/o ensure saturation increase", 0xe404d3d116d15d6a),
    ("Linux", "w/o balanced group", 0x605140f4b692a037),
    ("Linux", "w/o early stopping", 0xe786dc07b8b6bbf4),
    ("Linux", "w/o deduplication&related techs", 0x33085f4a2819a16e),
    ("HDFS", "ByteBrain", 0xa36201e490f37537),
    ("HDFS", "w/ naive match", 0xa36201e490f37537),
    ("HDFS", "w/o variable in saturation", 0x903a0f89a3d9f20a),
    ("HDFS", "w/o position importance", 0xf118824e85397bcf),
    ("HDFS", "w/o confidence factor", 0xbb7240a6f3b6428e),
    ("HDFS", "random centroid selection", 0xc2bc06d5b1cb1406),
    ("HDFS", "w/o ensure saturation increase", 0xa16c487034301b29),
    ("HDFS", "w/o balanced group", 0x33bbb88d8e254c0e),
    ("HDFS", "w/o early stopping", 0x6e2c30f2a84bb913),
    ("HDFS", "w/o deduplication&related techs", 0x40d4dd9a1829fbf5),
    ("BGL", "ByteBrain", 0xb4c12219424612b2),
    ("BGL", "w/ naive match", 0xb4c12219424612b2),
    ("BGL", "w/o variable in saturation", 0x6ad168ec0ae2073c),
    ("BGL", "w/o position importance", 0x4475462d2138d9d6),
    ("BGL", "w/o confidence factor", 0x0e9bd8e5531a785a),
    ("BGL", "random centroid selection", 0xac48d8b428524619),
    ("BGL", "w/o ensure saturation increase", 0xde7f00931fc2c9c2),
    ("BGL", "w/o balanced group", 0xf98a12f592d06978),
    ("BGL", "w/o early stopping", 0xe4ecf79df75545f0),
    ("BGL", "w/o deduplication&related techs", 0x189da22606757201),
    ("Apache", "ByteBrain", 0x368f69d37111298e),
    ("Apache", "w/ naive match", 0x368f69d37111298e),
    ("Apache", "w/o variable in saturation", 0xe8bac9cc9fddf87f),
    ("Apache", "w/o position importance", 0x376157ef703aa74c),
    ("Apache", "w/o confidence factor", 0x2435901b021912e8),
    ("Apache", "random centroid selection", 0x86d3afec20ba9c7d),
    ("Apache", "w/o ensure saturation increase", 0x59581d11e0c9385f),
    ("Apache", "w/o balanced group", 0x9a784d8a08a573a4),
    ("Apache", "w/o early stopping", 0xf75cd195107d94e3),
    ("Apache", "w/o deduplication&related techs", 0x280722b4b7a032bf),
    ("Thunderbird", "ByteBrain", 0xc3127f8a6c18210d),
    ("Thunderbird", "w/ naive match", 0xc3127f8a6c18210d),
    ("Thunderbird", "w/o variable in saturation", 0x03c15fd95e9f530a),
    ("Thunderbird", "w/o position importance", 0xe869da3d928ae755),
    ("Thunderbird", "w/o confidence factor", 0xfe6f0b5b969b327d),
    ("Thunderbird", "random centroid selection", 0xca8c81a6b8e3dc17),
    ("Thunderbird", "w/o ensure saturation increase", 0x15b9db470325e0f3),
    ("Thunderbird", "w/o balanced group", 0x8ea96964c8be5dd8),
    ("Thunderbird", "w/o early stopping", 0x2c57694602e01007),
    ("Thunderbird", "w/o deduplication&related techs", 0x0060282c7500d3c2),
    ("Spark", "ByteBrain", 0x5ce8b09094d0371f),
    ("Spark", "w/ naive match", 0x5ce8b09094d0371f),
    ("Spark", "w/o variable in saturation", 0x3100ee39f86bd054),
    ("Spark", "w/o position importance", 0x40909439390b638b),
    ("Spark", "w/o confidence factor", 0xead4e55c22557ab6),
    ("Spark", "random centroid selection", 0x8d2fd9d7dd1f703e),
    ("Spark", "w/o ensure saturation increase", 0x89427de24ba85f22),
    ("Spark", "w/o balanced group", 0xb6fdb140b29a5a0a),
    ("Spark", "w/o early stopping", 0xbeba50a86bb107b7),
    ("Spark", "w/o deduplication&related techs", 0x6fc9963399da0e78),
    // The `max_cluster_iters` rows were captured at commit 8dbfdba, before refinement
    // became incremental.
    ("HealthApp", "max_cluster_iters 1", 0x4f6813d77298217f),
    ("HealthApp", "max_cluster_iters 2", 0x1b142fd1fea7ecf5),
    ("HealthApp", "max_cluster_iters 32", 0xdf1f02619e748aeb),
    ("OpenStack", "max_cluster_iters 1", 0xc5aae59661395778),
    ("OpenStack", "max_cluster_iters 2", 0x0096725bd5d3cfdd),
    ("OpenStack", "max_cluster_iters 32", 0xce88568478b549d4),
    ("OpenSSH", "max_cluster_iters 1", 0xc7debd708b19949c),
    ("OpenSSH", "max_cluster_iters 2", 0x93886cdde241f23d),
    ("OpenSSH", "max_cluster_iters 32", 0x696a05792af52ded),
    ("Proxifier", "max_cluster_iters 1", 0x0d4b1a51eda30792),
    ("Proxifier", "max_cluster_iters 2", 0xa381c3ebf4e3adc6),
    ("Proxifier", "max_cluster_iters 32", 0x28349e56d95a28cb),
    ("HPC", "max_cluster_iters 1", 0x96b8327504bba625),
    ("HPC", "max_cluster_iters 2", 0xfdac3c589c6ad7bd),
    ("HPC", "max_cluster_iters 32", 0xdcf648c1770cf493),
    ("Zookeeper", "max_cluster_iters 1", 0x612b32585ad14714),
    ("Zookeeper", "max_cluster_iters 2", 0x32b25a0a8c1ed818),
    ("Zookeeper", "max_cluster_iters 32", 0x13658b72c693adcf),
    ("Mac", "max_cluster_iters 1", 0x0b8a040fc6747fef),
    ("Mac", "max_cluster_iters 2", 0xdf2fa4913381ba39),
    ("Mac", "max_cluster_iters 32", 0x93f1d6d9fe61e7c7),
    ("Hadoop", "max_cluster_iters 1", 0xb557a05b95226dda),
    ("Hadoop", "max_cluster_iters 2", 0xaa1f9a7f4768f67b),
    ("Hadoop", "max_cluster_iters 32", 0xa9ecf5820db3c3da),
    ("Linux", "max_cluster_iters 1", 0xc916d7e576722822),
    ("Linux", "max_cluster_iters 2", 0xce44898319373c9a),
    ("Linux", "max_cluster_iters 32", 0x44e6f8092bd82b3a),
    ("HDFS", "max_cluster_iters 1", 0xeaa26d003822d250),
    ("HDFS", "max_cluster_iters 2", 0x33956dc9bce85b4e),
    ("HDFS", "max_cluster_iters 32", 0xa126c25d4c7635f9),
    ("BGL", "max_cluster_iters 1", 0x20135bfc15c6a71b),
    ("BGL", "max_cluster_iters 2", 0xb397c3b20f9e50a0),
    ("BGL", "max_cluster_iters 32", 0x01a7553ef082759a),
    ("Apache", "max_cluster_iters 1", 0x83f287181f574283),
    ("Apache", "max_cluster_iters 2", 0x6a8e2ebaf1e7480f),
    ("Apache", "max_cluster_iters 32", 0x6f9ccceebdc75634),
    ("Thunderbird", "max_cluster_iters 1", 0x5d321eea9eb68f8b),
    ("Thunderbird", "max_cluster_iters 2", 0xe6b93ac799d90de4),
    ("Thunderbird", "max_cluster_iters 32", 0x30180851e3186b96),
    ("Spark", "max_cluster_iters 1", 0x3b2c21bc30c102b2),
    ("Spark", "max_cluster_iters 2", 0x4fa93589f352e972),
    ("Spark", "max_cluster_iters 32", 0xe3b3ba7d14a41a69),
    ("multi-group", "parallelism 1", 0xbc87611faa637d28),
    ("multi-group", "parallelism 4", 0xbc87611faa637d28),
];
