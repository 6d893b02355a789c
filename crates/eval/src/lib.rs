//! `eval` — the evaluation metric (§5.1.3).
//!
//! * [`ga`]: Grouping Accuracy, the strict metric used throughout the paper's accuracy
//!   tables (a log is correct only if its predicted group contains *exactly* the set of
//!   logs sharing its ground-truth template). `tests/accuracy.rs` checks the paper's
//!   Tables 2 and 3 with it, and `lpbench` scores every workload's `grouping_accuracy`
//!   with it.

pub mod ga;

pub use ga::{grouping_accuracy, GroupingReport};
