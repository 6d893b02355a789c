//! `bytebrain-repro` — umbrella crate for the ByteBrain-LogParser reproduction.
//!
//! Re-exports the library crates so examples and integration tests can use a single
//! dependency; the `baselines` the accuracy tests compare against are a dev-dependency.
//! See `README.md` for the project overview and which test checks which of the paper's
//! claims, and `ARCHITECTURE.md` for the system design.

pub use bytebrain;
pub use datasets;
pub use eval;
pub use logregex;
pub use logtok;
pub use service;
