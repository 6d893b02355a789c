//! `logtok` — preprocessing substrate for the ByteBrain-LogParser reproduction.
//!
//! Implements §4.1 of the paper:
//!
//! * **Tokenization** ([`tokenizer`]): splits a raw log record into tokens using the
//!   paper's default delimiter rules (Listing 1) or a user-supplied delimiter set.
//! * **Common variable replacement** ([`masking`]): optional regex-driven masking of
//!   obvious variables (timestamps, IPs, hex ids, UUIDs, numbers, …) before parsing.
//! * **Deduplication** ([`dedup`]): collapses identical token sequences while keeping
//!   occurrence counts (Fig. 4 motivates this).
//! * **Hash encoding** ([`hashenc`]): deterministic 64-bit token hashing so that offline
//!   training and online matching agree without storing a token dictionary.
//! * **Pipeline** ([`pipeline`]): glues the steps together into the exact preprocessing
//!   sequence used by both the offline trainer and the online matcher.

#![warn(missing_docs)]

pub mod dedup;
pub mod hashenc;
pub mod masking;
pub mod pipeline;
pub mod tokenizer;

pub use dedup::{DedupStats, Deduplicator, UniqueLog};
pub use hashenc::{
    fnv1a, hash_line, hash_token, EncodedLog, FnvHasher, FnvMap, FNV_OFFSET, WILDCARD_HASH,
};
pub use masking::{MaskRule, Masker};
pub use pipeline::{PreprocessConfig, PreprocessedBatch, Preprocessor, TokenScratch, TokenView};
pub use tokenizer::{tokenize, Tokenizer, TokenizerConfig};

/// The wildcard token text used in rendered templates (`*` in the paper's figures).
pub const WILDCARD: &str = "<*>";
