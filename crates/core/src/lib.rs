//! `bytebrain` — the core ByteBrain-LogParser algorithm (§3–§4 of the paper).
//!
//! The parser works in two phases:
//!
//! 1. **Offline training** ([`train`]): raw logs are preprocessed (masking, tokenization,
//!    deduplication, hash encoding — provided by the `logtok` crate), grouped by token
//!    count and prefix ([`grouping`]), and then hierarchically clustered into a tree of
//!    templates ([`cluster`], [`tree`]). Each tree node carries a *saturation score*
//!    ([`saturation`]) that quantifies how precisely the node's logs have been resolved
//!    into constants and variables. After a training no child scores below its
//!    parent; a tree patched by incremental deltas does not guarantee even that, so
//!    [`query`] scans a node's whole ancestor chain.
//! 2. **Online matching** ([`matcher`]): incoming logs are matched position-by-position
//!    against the stored template texts in descending saturation order — one walk of the
//!    automaton compiled from them ([`automaton`]), behind one kernel
//!    ([`matcher::match_compiled`]); unmatched logs become temporary single-log templates,
//!    which the kernel scans after the automaton until the next training cycle absorbs
//!    them and compiles the automaton anew. The linear tree walk ([`matcher::match_view`])
//!    and [`merge::merge_models`] are the oracles the kernel and [`incremental`] are held to.
//!
//! Query-time precision control ([`query`]) walks from the matched (most precise) template
//! up the tree to the coarsest ancestor whose saturation still meets a user threshold, so
//! precision can be changed per query without reparsing any data.
//!
//! # Quick start
//!
//! ```
//! use bytebrain::{ByteBrainParser, TrainConfig};
//!
//! let logs = vec![
//!     "Accepted password for alice from 10.0.0.5 port 22".to_string(),
//!     "Accepted password for bob from 10.0.0.9 port 22".to_string(),
//!     "Connection closed by 10.0.0.5".to_string(),
//! ];
//! let mut parser = ByteBrainParser::new(TrainConfig::default());
//! parser.train(&logs);
//! let result = parser.match_log("Accepted password for carol from 10.0.0.7 port 22");
//! // A match is ids only (`result.node`, `result.saturation`); its text is rendered on
//! // demand. `*` is a position clustering left variable, `<*>` a value masking replaced.
//! let template = parser.template(&result).unwrap();
//! assert_eq!(template, "Accepted password for * from <*> port 22");
//! ```

pub mod automaton;
pub mod cluster;
pub mod config;
pub mod distance;
pub mod grouping;
pub mod incremental;
pub mod matcher;
pub mod merge;
pub mod model;
pub mod parallel;
pub mod parser;
pub mod query;
pub mod saturation;
pub mod train;
pub mod tree;

pub use automaton::{CompiledMatcher, MatchCache};
pub use config::{AblationConfig, TrainConfig};
pub use incremental::{
    apply_delta, train_delta, DeltaParent, DriftConfig, DriftDecision, DriftDetector, ModelDelta,
};
pub use matcher::{BatchMatch, MatchResult, SlotBuffer, SlotRange};
pub use model::ParserModel;
pub use parser::ByteBrainParser;
pub use query::ast::{Aggregate, Predicate, Query};
pub use query::plan::{CompiledPredicate, PlanError, PlanOutput, QueryPlan, RecordView};
pub use query::{
    clamp_threshold, merge_consecutive_wildcards, presentation_template, resolve_with_threshold,
    LadderRung, SaturationLadder, DEFAULT_THRESHOLD,
};
pub use tree::{NodeId, TemplateToken, TreeNode};
