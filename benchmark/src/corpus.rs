//! Seeded corpora. Everything the program under test receives is generated here
//! from `--seed`; the program itself never sees the seed.
//!
//! Lines are rendered from the repository's LogHub-style template pools
//! (`datasets`), so every record carries the exact template label grouping accuracy
//! is scored against.
//! The service workloads add what a shipped log line has and the bare generator
//! output lacks: a timestamp header, which also makes each fresh line unique.

use datasets::catalog::build_templates;
use datasets::variables::{render_value, VariablePools};
use datasets::{dataset_spec, GeneratorConfig, Segment, TemplateSpec, VarKind, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use service::api::IngestRequest;
use std::collections::HashSet;

/// Records plus the generator's ground-truth template label of each.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    pub records: Vec<String>,
    pub labels: Vec<usize>,
}

impl Corpus {
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn mean_record_bytes(&self) -> f64 {
        let bytes: usize = self.records.iter().map(String::len).sum();
        bytes as f64 / self.records.len().max(1) as f64
    }

    fn push(&mut self, record: String, label: usize) {
        self.records.push(record);
        self.labels.push(label);
    }
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two seeds a corpus is drawn from.
///
/// `shape` decides which template each line instantiates, which lines repeat, where
/// the population drifts, and every variable value the parser has to *learn* is a
/// variable. `values` (from `--seed`) draws exactly what the parser's default mask
/// rules erase before it learns anything — every timestamp header and every IP
/// address, UUID, duration and size — so two `--seed`s give different bytes on the
/// wire, in the line cache and on disk, and the same token sequences after masking.
///
/// The split is measured, not assumed. Clustering is chaotic in its input: with the
/// shape drawn from `--seed` too (as `LabeledDataset::generate` does) the retraining
/// workload's model ended a round with 1165 to 1576 templates depending on the seed,
/// and with only the variable values of one line in sixteen drawn from it, still
/// with 1239 to 1565 — and latency, memory and accuracy followed, by 15-30 %. That is
/// more than any change the benchmark is meant to resolve, and the acceptance driver
/// compares runs across seeds. So `--seed` alone is **not** input diversity: the
/// shape stays at [`DEFAULT_SHAPE`] unless `--shape` is given, which `smoke.sh` and
/// `lpbench aa` do to check that a differently shaped corpus also runs clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub values: u64,
    pub shape: u64,
}

pub const DEFAULT_SHAPE: u64 = 0x5AFE_5EED;

impl Seeds {
    /// An independent value stream for one tenant or family; the shape is shared.
    pub fn salted(self, salt: u64) -> Seeds {
        Seeds {
            values: mix(self.values, salt),
            shape: self.shape,
        }
    }

    fn shape_rng(self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(mix(self.shape, salt))
    }
}

/// Templates with the share of lines each is expected to produce.
struct Population {
    templates: Vec<TemplateSpec>,
    labels: Vec<usize>,
    shares: Vec<f64>,
    pools: VariablePools,
}

impl Population {
    /// One LogHub family's pool of `count` templates, Zipf-weighted as its catalog
    /// entry says.
    fn family(name: &str, count: usize, pools: VariablePools) -> Self {
        let spec = dataset_spec(name).unwrap_or_else(|| panic!("unknown dataset family {name:?}"));
        let zipf = Zipf::new(count, spec.zipf_exponent);
        Population {
            templates: build_templates(name, count),
            labels: (0..count).collect(),
            shares: (0..count).map(|i| zipf.probability(i)).collect(),
            pools,
        }
    }

    /// The population a service topic draws from: the full LogHub-2.0 pools of
    /// [`SERVICE_FAMILIES`] side by side, equally weighted, label spaces kept apart.
    fn service() -> Self {
        // Wide variable pools: fresh lines should differ in their variables, not
        // only in their header.
        let pools = VariablePools {
            small_pool: 2_000,
            id_pool: 200_000,
        };
        let mut all = Population {
            templates: Vec::new(),
            labels: Vec::new(),
            shares: Vec::new(),
            pools: pools.clone(),
        };
        for (idx, name) in SERVICE_FAMILIES.iter().enumerate() {
            let count = dataset_spec(name)
                .and_then(|spec| spec.loghub2_templates)
                .expect("service families are LogHub-2.0 families");
            let family = Population::family(name, count, pools.clone());
            all.templates.extend(family.templates);
            all.labels
                .extend(family.labels.iter().map(|l| idx * LABEL_STRIDE + l));
            all.shares.extend(
                family
                    .shares
                    .iter()
                    .map(|s| s / SERVICE_FAMILIES.len() as f64),
            );
        }
        all
    }

    /// `n` template indices in which template `i` appears `n × share` times, rounded
    /// by largest remainder, in an order drawn from `shape`.
    fn sequence(&self, n: usize, shape: &mut StdRng) -> Vec<usize> {
        let exact: Vec<f64> = self.shares.iter().map(|share| share * n as f64).collect();
        let mut quota: Vec<usize> = exact.iter().map(|e| *e as usize).collect();
        let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            exact[b]
                .fract()
                .total_cmp(&exact[a].fract())
                .then(a.cmp(&b))
        });
        let short = n.saturating_sub(quota.iter().sum());
        for &i in by_remainder.iter().cycle().take(short) {
            quota[i] += 1;
        }
        let mut sequence: Vec<usize> = quota
            .iter()
            .enumerate()
            .flat_map(|(i, &copies)| std::iter::repeat_n(i, copies))
            .collect();
        sequence.shuffle(shape);
        sequence.truncate(n);
        sequence
    }

    /// One line of template `index`: variables the default masks erase are drawn
    /// from `seeded`, all others from `fixed`.
    fn render(&self, index: usize, seeded: &mut StdRng, fixed: &mut StdRng) -> String {
        use VarKind::{Duration, IpPort, Ipv4, Size, Uuid};
        let mut record = String::with_capacity(96);
        for segment in &self.templates[index].segments {
            match segment {
                Segment::Const(text) => record.push_str(text),
                Segment::Var(kind) => {
                    let masked = matches!(kind, Ipv4 | IpPort | Uuid | Duration | Size);
                    let rng = if masked { &mut *seeded } else { &mut *fixed };
                    record.push_str(&render_value(*kind, rng, &self.pools));
                }
            }
        }
        record
    }
}

/// One LogHub-2.0 family at `n` records (the paper's offline protocol input), with
/// the template count and variable pools of `GeneratorConfig::loghub2`.
pub fn loghub2_family(name: &str, n: usize, seeds: Seeds) -> Corpus {
    let config = GeneratorConfig::loghub2(name, n);
    let pools = VariablePools {
        small_pool: config.small_pool,
        id_pool: config.id_pool,
    };
    let count = config
        .num_templates
        .expect("loghub2 configurations fix the template count");
    let population = Population::family(name, count, pools);
    let mut shape = seeds.shape_rng(name.len() as u64);
    let mut seeded = StdRng::seed_from_u64(seeds.values);
    let mut out = Corpus::default();
    for index in population.sequence(n, &mut shape) {
        out.push(
            population.render(index, &mut seeded, &mut shape),
            population.labels[index],
        );
    }
    out
}

/// The families a service topic's stream is mixed from.
const SERVICE_FAMILIES: [&str; 4] = ["HDFS", "OpenSSH", "Hadoop", "Zookeeper"];
const LABEL_STRIDE: usize = 100_000;

/// Render `sequence` as service log lines: each under a microsecond timestamp
/// header that never repeats.
fn stamped(population: &Population, sequence: &[usize], values: u64, shape: &mut StdRng) -> Corpus {
    let mut seeded = StdRng::seed_from_u64(values);
    let mut clock = Clock::new(&mut seeded);
    let mut out = Corpus::default();
    for &index in sequence {
        let header = clock.next(&mut seeded);
        let line = population.render(index, &mut seeded, shape);
        out.push(format!("{header} {line}"), population.labels[index]);
    }
    out
}

/// `n` distinct service log lines.
pub fn service_lines(n: usize, seeds: Seeds) -> Corpus {
    let population = Population::service();
    let mut shape = seeds.shape_rng(0x11);
    let sequence = population.sequence(n, &mut shape);
    stamped(&population, &sequence, seeds.values, &mut shape)
}

/// Strictly increasing `YYYY-MM-DD hh:mm:ss.uuuuuu` headers.
struct Clock {
    micros: u64,
}

impl Clock {
    fn new(rng: &mut StdRng) -> Self {
        Clock {
            micros: rng.gen_range(0..3_600_000_000u64),
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> String {
        self.micros += rng.gen_range(1..4_000u64);
        let secs = self.micros / 1_000_000;
        format!(
            "2026-03-{:02} {:02}:{:02}:{:02}.{:06}",
            1 + (secs / 86_400) % 28,
            (secs / 3_600) % 24,
            (secs / 60) % 60,
            secs % 60,
            self.micros % 1_000_000
        )
    }
}

/// A stream of `n` lines in which about nine in ten are exact repeats of an
/// earlier line, drawn Zipf-skewed from the most recent distinct lines (a retry
/// storm, a polling loop): the regime a line cache exists for.
pub fn repetitive_stream(n: usize, seeds: Seeds) -> Corpus {
    const RECENT: usize = 4_096;
    let fresh = service_lines(n / 8 + 64, seeds);
    let mut shape = seeds.shape_rng(0x22);
    let hot = Zipf::new(RECENT, 1.1);
    let mut seen: Vec<usize> = Vec::new();
    let mut next_fresh = 0;
    let mut out = Corpus::default();
    for _ in 0..n {
        let idx = if !seen.is_empty() && (next_fresh == fresh.len() || shape.gen_bool(0.9)) {
            let window = &seen[seen.len().saturating_sub(RECENT)..];
            window[hot.sample(&mut shape) % window.len()]
        } else {
            seen.push(next_fresh);
            next_fresh += 1;
            next_fresh - 1
        };
        out.push(fresh.records[idx].clone(), fresh.labels[idx]);
    }
    out
}

/// Share of a drifting phase's lines that come from templates new in that phase.
const DRIFT_NOVEL_SHARE: f64 = 0.15;
/// Templates each phase introduces.
const DRIFT_NOVEL_TEMPLATES: usize = 12;

/// A drifting stream of `phases × per_phase` lines. Most lines of every phase come
/// Zipf-skewed from a stable core of the template population; the rest come from a
/// handful of templates that first appear in that phase — so every phase confronts
/// the model trained on the phases before it with templates it has never seen.
pub fn drifting_stream(phases: usize, per_phase: usize, seeds: Seeds) -> Corpus {
    let population = Population::service();
    let mut shape = seeds.shape_rng(0x33);
    let mut order: Vec<usize> = (0..population.templates.len()).collect();
    order.shuffle(&mut shape);
    let (core, rest) = order.split_at(order.len() / 2);
    let skew = Zipf::new(core.len(), 1.0);
    let mut sequence = Vec::with_capacity(phases * per_phase);
    for phase in 0..phases {
        let first = (phase * DRIFT_NOVEL_TEMPLATES) % rest.len();
        let novel: Vec<usize> = rest
            .iter()
            .cycle()
            .skip(first)
            .take(DRIFT_NOVEL_TEMPLATES)
            .copied()
            .collect();
        for _ in 0..per_phase {
            sequence.push(if shape.gen_bool(DRIFT_NOVEL_SHARE) {
                novel[shape.gen_range(0..novel.len())]
            } else {
                core[skew.sample(&mut shape)]
            });
        }
    }
    stamped(&population, &sequence, seeds.values, &mut shape)
}

/// Share of lines that exactly repeat an earlier line of the stream.
pub fn repeat_share(records: &[String]) -> f64 {
    let mut seen = HashSet::with_capacity(records.len());
    let repeats = records.iter().filter(|r| !seen.insert(r.as_str())).count();
    repeats as f64 / records.len().max(1) as f64
}

/// FNV-1a over every record and a separator: the corpus identity tests and the
/// environment header print.
pub fn byte_hash(records: &[String]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in records.iter().flat_map(|r| r.bytes().chain([b'\n'])) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The JSON body of one ingest POST, encoded ahead of the timed window.
pub fn encode_ingest_body(records: &[String]) -> Vec<u8> {
    serde_json::to_string(&IngestRequest {
        records: records.to_vec(),
    })
    .expect("an ingest body always renders")
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(values: u64, shape: u64) -> Seeds {
        Seeds { values, shape }
    }

    #[test]
    fn same_seeds_same_bytes_other_seed_other_bytes_other_shape_other_labels() {
        for build in [
            (|s| service_lines(3_000, s)) as fn(Seeds) -> Corpus,
            |s| repetitive_stream(3_000, s),
            |s| drifting_stream(3, 1_000, s),
            |s| loghub2_family("HDFS", 2_000, s),
        ] {
            let (a, b) = (build(seeds(11, 1)), build(seeds(11, 1)));
            assert_eq!(byte_hash(&a.records), byte_hash(&b.records));
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.records.len(), a.labels.len());
            // Another `--seed`: other bytes, the same template behind every line.
            let c = build(seeds(12, 1));
            assert_ne!(byte_hash(&a.records), byte_hash(&c.records));
            assert_eq!(a.labels, c.labels);
            // Another shape: another sequence of templates.
            assert_ne!(a.labels, build(seeds(11, 2)).labels);
        }
    }

    #[test]
    fn repeat_shares_sit_on_their_sides_of_the_cache() {
        for (values, shape) in [(1, DEFAULT_SHAPE), (2, DEFAULT_SHAPE), (3, 7)] {
            let rep = repetitive_stream(20_000, seeds(values, shape));
            let div = service_lines(20_000, seeds(values, shape));
            assert!(
                repeat_share(&rep.records) >= 0.80,
                "rep {}",
                repeat_share(&rep.records)
            );
            assert!(
                repeat_share(&div.records) < 0.05,
                "div {}",
                repeat_share(&div.records)
            );
        }
    }

    #[test]
    fn drift_brings_unseen_templates_each_phase() {
        let stream = drifting_stream(4, 2_000, seeds(5, DEFAULT_SHAPE));
        let phase = |p: usize| -> HashSet<usize> {
            stream.labels[p * 2_000..(p + 1) * 2_000]
                .iter()
                .copied()
                .collect()
        };
        for p in 1..4 {
            let (before, now) = (phase(p - 1), phase(p));
            assert!(
                now.difference(&before).count() > 0,
                "phase {p} adds templates"
            );
            assert!(
                now.intersection(&before).count() > 0,
                "phase {p} keeps templates"
            );
        }
    }

    #[test]
    fn ingest_body_decodes_to_the_same_records() {
        let corpus = service_lines(50, seeds(9, DEFAULT_SHAPE));
        let body = encode_ingest_body(&corpus.records);
        let back: IngestRequest =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(back.records, corpus.records);
    }
}
