//! `datasets` — synthetic LogHub / LogHub-2.0 style corpora with exact ground truth.
//!
//! The paper evaluates on the public LogHub and LogHub-2.0 benchmarks (§5.1.1, Table 1).
//! Those corpora are not available offline, so this crate provides, for each of the 16
//! dataset families, a *generator* that produces logs with the same structural
//! characteristics the evaluation depends on:
//!
//! * a family-specific pool of log templates (counts calibrated to Table 1),
//! * realistic variable kinds per slot (block ids, IPs, paths, durations, users, …),
//! * Zipf-distributed template frequencies (a few templates dominate, many are rare),
//! * heavy exact-duplicate rates (the property Fig. 4 measures),
//! * an exact ground-truth template label per generated record.
//!
//! A loader for genuine LogHub `*_structured.csv` files is also provided
//! ([`loader::load_structured_csv`]) so every experiment can be re-run on the real data
//! when it is placed under `data/`.

pub mod catalog;
pub mod generator;
pub mod loader;
pub mod template;
pub mod variables;
pub mod zipf;

pub use catalog::{dataset_names, dataset_spec, loghub2_dataset_names, DatasetSpec};
pub use generator::{GeneratorConfig, LabeledDataset};
pub use template::{Segment, TemplateSpec, VarKind};
pub use zipf::Zipf;
