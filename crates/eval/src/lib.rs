//! # owql-eval
//!
//! Evaluation engines for NS–SPARQL graph patterns and CONSTRUCT
//! queries.
//!
//! Two engines are provided:
//!
//! * [`reference::evaluate`] — the *reference evaluator*, a literal
//!   transcription of the paper's recursive semantics `⟦·⟧G`
//!   (Sections 2.1, 5.1). Triple patterns scan the whole graph; every
//!   operator calls the corresponding [`owql_algebra::MappingSet`]
//!   operation. It is deliberately unoptimized: it *is* the spec.
//! * [`engine::Engine`] — the columnar engine: terms are
//!   dictionary-encoded, triple patterns are binary-searched ranges of
//!   id-encoded SPO/POS/OSP runs, `AND`-spines extend dense id rows in
//!   greedy selectivity order, and answers are decoded once at the end.
//!   Its results are cross-validated against the reference evaluator by
//!   randomized differential suites at every pool width (and the
//!   `engine_ablation` benchmark measures the gap).
//!
//! CONSTRUCT evaluation (Section 6.1) lives in [`mod@construct`].
//!
//! The single entry point of the indexed engine is [`Engine::run`]: an
//! [`ExecOpts`] value selects sequential vs pool-parallel scheduling,
//! span tracing (the outcome then carries an [`owql_obs::Profile`]),
//! the static optimizer, and a cooperative deadline enforced by an
//! [`EvalBudget`] (exceeded budgets surface as [`EvalError::Timeout`]).
//! Patterns over more than 64 variables are refused with
//! [`EvalError::TooManyVariables`].
//! [`Engine::explain_analyze`] renders observed row counts and wall
//! times as an [`plan::AnnotatedPlan`].

pub(crate) mod columnar;
pub mod construct;
pub mod engine;
pub mod optimize;
pub mod plan;
pub mod reference;
pub mod run;
pub mod sharded;

pub use construct::construct;
pub use engine::Engine;
pub use optimize::{optimize, optimize_with_stats};
pub use plan::{AnnotatedNode, AnnotatedPlan, Plan};
pub use reference::evaluate;
pub use run::{
    check_admission, EvalBudget, EvalError, ExecMode, ExecOpts, ExecOptsBuilder, RunOutcome,
};
pub use sharded::run_sharded;
