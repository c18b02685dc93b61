//! The evaluation engine.
//!
//! Functionally identical to [`crate::reference::evaluate`] (enforced by
//! randomized differential suites — the tests at the bottom,
//! `tests/integration_properties.rs` and `tests/integration_columnar.rs`),
//! but evaluated over the id-encoded SPO/POS/OSP runs of an
//! [`owql_rdf::IdView`] by the columnar evaluator (`columnar.rs`):
//! every operator works on dense `u64` rows, an `AND`-spine is extended
//! one triple pattern at a time in greedy selectivity order, and terms
//! are decoded once, at the result boundary.
//!
//! The single entry point is [`Engine::run`]: the execution strategy —
//! sequential or pool-parallel scheduling, span tracing, the static
//! optimizer, a cooperative deadline, an admission ceiling — is
//! selected by an [`ExecOpts`] value, not by the method name. Every
//! operator has one algorithm; the pool width only decides how its work
//! is chunked and whether independent subpatterns run concurrently.
//!
//! Every run threads an [`EvalBudget`] and checks it between operators
//! (and every `BUDGET_CHECK_STRIDE` candidate rows inside spine scans),
//! so a run with a deadline unwinds with [`EvalError::Timeout`] instead
//! of hanging.
//!
//! The `engine_ablation` benchmark compares it with the reference
//! evaluator.

use crate::run::{EvalBudget, EvalError, ExecMode, ExecOpts, RunOutcome};
use owql_algebra::pattern::{Pattern, TriplePattern};
use owql_algebra::{MappingSet, Variable};
use owql_exec::Pool;
use owql_obs::{OpKind, PruneObs, Recorder};
use owql_rdf::{Graph, GraphIndex, SnapshotIndex, TripleLookup};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// An engine bound to one graph (or any [`TripleLookup`] backend — see
/// [`Engine::for_snapshot`] for evaluation over the live snapshots of
/// `owql-store`).
///
/// ```
/// use owql_algebra::pattern::Pattern;
/// use owql_eval::{Engine, ExecOpts};
/// use owql_exec::Pool;
/// use owql_rdf::datasets::figure_1;
/// let g = figure_1();
/// let engine = Engine::new(&g);
/// let p = Pattern::t("?p", "founder", "The_Pirate_Bay");
/// let out = engine.run(&p, &ExecOpts::seq(), &Pool::sequential()).unwrap();
/// assert_eq!(out.mappings.len(), 3);
/// ```
#[derive(Debug)]
pub struct Engine<I: TripleLookup = GraphIndex> {
    index: I,
}

impl Engine {
    /// Builds the engine (and its index) for `graph`.
    pub fn new(graph: &Graph) -> Engine {
        Engine {
            index: GraphIndex::build(graph),
        }
    }
}

impl Engine<SnapshotIndex> {
    /// Binds the engine to a store snapshot: the same operators run
    /// over the snapshot's base runs merged with its delta overlay, so
    /// live data is queried without any index rebuild.
    ///
    /// `owql_store::Snapshot` derefs to [`SnapshotIndex`], so this
    /// accepts `&snapshot` directly.
    pub fn for_snapshot(snapshot: &SnapshotIndex) -> Engine<SnapshotIndex> {
        Engine {
            index: snapshot.clone(),
        }
    }
}

impl<I: TripleLookup> Engine<I> {
    /// Wraps an already-built lookup backend.
    pub fn with_index(index: I) -> Engine<I> {
        Engine { index }
    }

    /// Access to the underlying index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Renders the evaluation strategy for `pattern` as a query plan
    /// (see [`crate::plan`]).
    pub fn explain(&self, pattern: &Pattern) -> crate::plan::Plan {
        crate::plan::plan(pattern, &self.index.id_view())
    }
}

/// What every run does before evaluating: the admission check, the
/// deadline budget, the optional certified optimizer pass, and the
/// span recorder.
struct Prepared<'p> {
    pattern: Cow<'p, Pattern>,
    budget: EvalBudget,
    rec: Recorder,
    prunes: PruneObs,
}

impl<'p> Prepared<'p> {
    fn new(pattern: &'p Pattern, opts: &ExecOpts) -> Result<Prepared<'p>, EvalError> {
        crate::run::check_admission(pattern, opts)?;
        let budget = EvalBudget::from_opts(opts);
        let (pattern, prunes) = if opts.optimize {
            let (optimized, prunes) = crate::optimize::optimize_with_stats(pattern);
            (Cow::Owned(optimized), prunes)
        } else {
            (Cow::Borrowed(pattern), PruneObs::default())
        };
        let rec = if opts.trace {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        rec.record_prunes(prunes);
        Ok(Prepared {
            pattern,
            budget,
            rec,
            prunes,
        })
    }

    fn outcome(self, mappings: MappingSet, opts: &ExecOpts) -> RunOutcome {
        RunOutcome {
            mappings,
            profile: opts.trace.then(|| self.rec.profile()),
            prunes: self.prunes,
        }
    }
}

/// The unified entry point — available whenever the lookup backend is
/// shareable across threads (`GraphIndex` and the store's
/// `SnapshotIndex` both are).
///
/// With [`ExecMode::Parallel`] and a pool wider than one thread, three
/// operator shapes fan out, mirroring the independence structure of the
/// semantics:
///
/// * **UNION** — the disjuncts of the syntactic UNION spine are fully
///   independent sub-evaluations (`⟦P₁ UNION P₂⟧G = ⟦P₁⟧G ∪ ⟦P₂⟧G`);
///   each runs on a worker. At every width the disjunct tables are
///   concatenated and sorted once.
/// * **AND-spines** — a spine step whose candidate table is wide
///   enough is split into row chunks, each extended by one worker; the
///   chunks concatenate to exactly the sequential step's rows.
/// * **NS** — the domain-grouped maximality pass builds its per-domain
///   shadow sets across the pool.
///
/// Every width is held to exact agreement with the reference evaluator
/// by differential tests here and in `tests/integration_parallel.rs`.
impl<I: TripleLookup + Sync> Engine<I> {
    /// Evaluates `⟦P⟧G` under `opts` — THE entry point; every other
    /// evaluation method on `Engine`, `Store`, and `Snapshot` is a thin
    /// wrapper over it.
    ///
    /// `pool` is only consulted in [`ExecMode::Parallel`]; pass
    /// [`Pool::sequential`] for sequential runs. The outcome carries a
    /// [`owql_obs::Profile`] iff `opts.trace` is set. A set
    /// `opts.deadline` turns a long evaluation into
    /// [`EvalError::Timeout`] instead of an open-ended hang; a pattern
    /// over more variables than the columnar frame holds is refused with
    /// [`EvalError::TooManyVariables`]. `opts.cache` is ignored here (the
    /// bare engine has no cache — see `Store::query_request`).
    pub fn run(
        &self,
        pattern: &Pattern,
        opts: &ExecOpts,
        pool: &Pool,
    ) -> Result<RunOutcome, EvalError> {
        let prep = Prepared::new(pattern, opts)?;
        let parallel = opts.mode == ExecMode::Parallel && pool.threads() > 1;
        let mappings = crate::columnar::run(
            self.index.id_view(),
            &prep.pattern,
            parallel,
            pool,
            &prep.rec,
            &prep.budget,
        )?;
        Ok(prep.outcome(mappings, opts))
    }

    /// [`Engine::run`]'s scatter-gather sibling: evaluates over
    /// `shard_runs` (disjoint subject-hash partitions of this engine's
    /// snapshot, one [`Pool`] per shard) with the same admission,
    /// optimizer, deadline, and tracing semantics. Returns `None` when
    /// there are no shards — the caller then runs [`Engine::run`].
    pub fn run_sharded(
        &self,
        pattern: &Pattern,
        opts: &ExecOpts,
        shard_runs: &[owql_rdf::IdRuns],
        pools: &[Pool],
        metrics: Option<&owql_obs::ShardMetrics>,
    ) -> Option<Result<RunOutcome, EvalError>> {
        if shard_runs.is_empty() || pools.is_empty() {
            return None;
        }
        let run = || {
            let prep = Prepared::new(pattern, opts)?;
            let mappings = crate::sharded::run_sharded(
                self.index.id_view(),
                &prep.pattern,
                shard_runs,
                pools,
                &prep.rec,
                &prep.budget,
                metrics,
            )?;
            Ok(prep.outcome(mappings, opts))
        };
        Some(run())
    }

    /// Runs the query and returns the plan annotated with the observed
    /// per-node output cardinalities, wall times, and (on scan steps)
    /// the planner-side `estimated_rows` — EXPLAIN ANALYZE. Routed
    /// through [`Engine::run`] with sequential traced options. (See
    /// [`crate::plan::AnnotatedPlan`] for the rendered shape;
    /// [`Engine::explain`] stays the purely static EXPLAIN.)
    ///
    /// Fails only where [`Engine::run`] would without a deadline or
    /// ceiling: with [`EvalError::TooManyVariables`].
    pub fn explain_analyze(
        &self,
        pattern: &Pattern,
    ) -> Result<crate::plan::AnnotatedPlan, EvalError> {
        self.analyze(pattern, &ExecOpts::seq(), &Pool::sequential())
    }

    /// [`Engine::explain_analyze`] with parallel scheduling: the
    /// annotated plan additionally reflects the fanned-out operators.
    pub fn explain_analyze_parallel(
        &self,
        pattern: &Pattern,
        pool: &Pool,
    ) -> Result<crate::plan::AnnotatedPlan, EvalError> {
        self.analyze(pattern, &ExecOpts::parallel(), pool)
    }

    fn analyze(
        &self,
        pattern: &Pattern,
        opts: &ExecOpts,
        pool: &Pool,
    ) -> Result<crate::plan::AnnotatedPlan, EvalError> {
        let outcome = self.run(pattern, &opts.traced(), pool)?;
        let profile = outcome.profile.expect("traced run has a profile");
        Ok(crate::plan::annotate(
            &profile.spans,
            outcome.mappings.len(),
        ))
    }
}

/// Maps an algebra node to its obs taxonomy kind (flattened
/// `AND`-spines — including bare triple patterns — account as `AND`;
/// individual spine steps are recorded separately as `SCAN`).
pub(crate) fn op_kind(p: &Pattern) -> OpKind {
    match p {
        Pattern::Triple(_) | Pattern::And(..) => OpKind::And,
        Pattern::Union(..) => OpKind::Union,
        Pattern::Opt(..) => OpKind::Opt,
        Pattern::Minus(..) => OpKind::Minus,
        Pattern::Filter(..) => OpKind::Filter,
        Pattern::Select(..) => OpKind::Select,
        Pattern::Ns(_) => OpKind::Ns,
    }
}

pub(crate) fn spine_label(scans: usize, subpatterns: usize) -> String {
    if subpatterns == 0 {
        format!("index join: {scans} scans")
    } else {
        format!("index join: {scans} scans + {subpatterns} subpatterns")
    }
}

pub(crate) fn project_label(vars: &BTreeSet<Variable>) -> String {
    let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
    format!("project {{{}}}", names.join(", "))
}

/// Splits an `AND`-spine into its triple-pattern leaves and the other
/// conjunct sub-patterns.
pub(crate) fn spine_parts(p: &Pattern) -> (Vec<TriplePattern>, Vec<&Pattern>) {
    fn flatten<'a>(
        p: &'a Pattern,
        triples: &mut Vec<TriplePattern>,
        others: &mut Vec<&'a Pattern>,
    ) {
        match p {
            Pattern::And(a, b) => {
                flatten(a, triples, others);
                flatten(b, triples, others);
            }
            Pattern::Triple(t) => triples.push(*t),
            other => others.push(other),
        }
    }
    let mut triples = Vec::new();
    let mut others = Vec::new();
    flatten(p, &mut triples, &mut others);
    (triples, others)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::evaluate;
    use owql_algebra::analysis::Operators;
    use owql_algebra::random::{random_pattern, PatternConfig};
    use owql_rdf::datasets::figure_1;
    use owql_rdf::generate;
    use std::time::Duration;

    /// Expect-message for unwrapping runs made with an unlimited budget.
    const NO_BUDGET: &str = "unlimited budget cannot time out";

    /// Sequential `run` shorthand for the tests below.
    fn eval<I: TripleLookup + Sync>(engine: &Engine<I>, p: &Pattern) -> MappingSet {
        engine
            .run(p, &ExecOpts::seq(), &Pool::sequential())
            .expect(NO_BUDGET)
            .mappings
    }

    /// Parallel `run` shorthand.
    fn eval_par<I: TripleLookup + Sync>(
        engine: &Engine<I>,
        p: &Pattern,
        pool: &Pool,
    ) -> MappingSet {
        engine
            .run(p, &ExecOpts::parallel(), pool)
            .expect(NO_BUDGET)
            .mappings
    }

    #[test]
    fn matches_reference_on_figure_1() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let p = Pattern::t("?o", "stands_for", "sharing_rights")
            .and(Pattern::t("?p", "founder", "?o").union(Pattern::t("?p", "supporter", "?o")));
        assert_eq!(eval(&engine, &p), evaluate(&p, &g));
        assert_eq!(eval(&engine, &p).len(), 4);
    }

    #[test]
    fn long_and_spine_with_bound_propagation() {
        let g = generate::chain("next", 30);
        let engine = Engine::new(&g);
        // v0 -> ?a -> ?b -> ?c
        let p = Pattern::t("v0", "next", "?a")
            .and(Pattern::t("?a", "next", "?b"))
            .and(Pattern::t("?b", "next", "?c"));
        let out = eval(&engine, &p);
        assert_eq!(out.len(), 1);
        assert_eq!(out, evaluate(&p, &g));
    }

    #[test]
    fn spine_with_non_triple_conjunct() {
        let g = generate::chain("next", 10);
        let engine = Engine::new(&g);
        let p = Pattern::t("?a", "next", "?b")
            .and(Pattern::t("?b", "next", "?c").union(Pattern::t("?b", "next", "?c")));
        assert_eq!(eval(&engine, &p), evaluate(&p, &g));
    }

    #[test]
    fn cartesian_spine() {
        // Two disconnected triple patterns: a genuine cross product.
        let g = generate::star("hub", "spoke", 4);
        let engine = Engine::new(&g);
        let p = Pattern::t("hub", "spoke", "?x").and(Pattern::t("hub", "spoke", "?y"));
        let out = eval(&engine, &p);
        assert_eq!(out.len(), 16);
        assert_eq!(out, evaluate(&p, &g));
    }

    /// The central differential test: on hundreds of random
    /// (pattern, graph) pairs across the full NS–SPARQL operator set,
    /// the engine and the reference evaluator agree exactly.
    #[test]
    fn differential_random_full_sparql() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        for seed in 0..300u64 {
            let p = random_pattern(&cfg, seed);
            let g =
                generate::uniform(40, 5, 5, 5, seed ^ 0xdead).union(&graph_over_pattern_iris(seed));
            let engine = Engine::new(&g);
            assert_eq!(
                eval(&engine, &p),
                evaluate(&p, &g),
                "seed {seed}, pattern {p}"
            );
        }
    }

    /// A small graph over the generator vocabulary `i0..i4` so random
    /// patterns actually match something.
    fn graph_over_pattern_iris(seed: u64) -> owql_rdf::Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = owql_rdf::Graph::new();
        for _ in 0..25 {
            let t = owql_rdf::Triple::new(
                format!("i{}", rng.gen_range(0..5)).as_str(),
                format!("i{}", rng.gen_range(0..5)).as_str(),
                format!("i{}", rng.gen_range(0..5)).as_str(),
            );
            g.insert(t);
        }
        g
    }

    #[test]
    fn optimized_run_agrees_with_plain() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        let pool = Pool::sequential();
        for seed in 0..60u64 {
            let p = random_pattern(&cfg, seed);
            let g = generate::uniform(30, 5, 5, 5, seed);
            let engine = Engine::new(&g);
            assert_eq!(
                engine
                    .run(&p, &ExecOpts::seq().optimized(), &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                eval(&engine, &p),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let engine = Engine::new(&Graph::new());
        assert!(eval(&engine, &Pattern::t("?x", "?y", "?z")).is_empty());
        assert!(engine.index().is_empty());
    }

    /// The parallel differential test: at widths 1, 2, and 8 the
    /// parallel engine agrees exactly with the sequential one on random
    /// full-NS–SPARQL patterns (the width-1 pool runs sequentially).
    #[test]
    fn parallel_matches_sequential_across_widths() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            for seed in 0..80u64 {
                let p = random_pattern(&cfg, seed);
                let g = generate::uniform(40, 5, 5, 5, seed ^ 0xbeef)
                    .union(&graph_over_pattern_iris(seed));
                let engine = Engine::new(&g);
                assert_eq!(
                    eval_par(&engine, &p, &pool),
                    eval(&engine, &p),
                    "threads {threads}, seed {seed}, pattern {p}"
                );
            }
        }
    }

    /// Shapes that specifically exercise each parallel fan-out: a wide
    /// UNION spine, a long AND-spine with enough candidates to
    /// partition, and NS over a large subsumption-layered answer set.
    #[test]
    fn parallel_fanout_shapes() {
        let pool = Pool::new(4);

        // Wide UNION over a star graph.
        let g = generate::star("hub", "spoke", 40);
        let engine = Engine::new(&g);
        let disjuncts: Vec<Pattern> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    Pattern::t("hub", "spoke", "?x")
                } else {
                    Pattern::t("?c", "spoke", format!("s{i}").as_str())
                }
            })
            .collect();
        let union = Pattern::union_all(disjuncts);
        assert_eq!(eval_par(&engine, &union, &pool), eval(&engine, &union));

        // Partitioned AND-spine: the star fans ?x out to 40 candidates.
        let spine = Pattern::t("hub", "spoke", "?x")
            .and(Pattern::t("hub", "spoke", "?y"))
            .and(Pattern::t("hub", "spoke", "?z"));
        assert_eq!(eval_par(&engine, &spine, &pool), eval(&engine, &spine));
        assert_eq!(eval_par(&engine, &spine, &pool).len(), 40 * 40 * 40);

        // NS over layered optional extensions (large maximality input).
        let chain = generate::chain("next", 400);
        let engine = Engine::new(&chain);
        let ns = Pattern::t("?a", "next", "?b")
            .union(Pattern::t("?a", "next", "?b").and(Pattern::t("?b", "next", "?c")))
            .ns();
        assert_eq!(eval_par(&engine, &ns, &pool), eval(&engine, &ns));
    }

    /// The traced run is answer-identical to the plain one, and its
    /// profile carries a span tree whose root reports the answer count.
    #[test]
    fn traced_matches_plain_and_records_spans() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        let pool = Pool::sequential();
        for seed in 0..40u64 {
            let p = random_pattern(&cfg, seed);
            let g =
                generate::uniform(40, 5, 5, 5, seed ^ 0xfeed).union(&graph_over_pattern_iris(seed));
            let engine = Engine::new(&g);
            let expected = eval(&engine, &p);

            let out = engine
                .run(&p, &ExecOpts::seq().traced(), &pool)
                .expect(NO_BUDGET);
            assert_eq!(out.mappings, expected, "seed {seed}");
            let profile = out.profile.expect("traced run has a profile");
            assert!(!profile.spans.is_empty(), "seed {seed}: no spans recorded");
            let root_out: u64 = profile
                .spans
                .iter()
                .filter(|s| s.parent == owql_obs::SpanId::ROOT)
                .map(|s| s.rows_out)
                .sum();
            assert_eq!(root_out, expected.len() as u64, "seed {seed}");

            // Untraced run: same answers, no profile.
            let plain = engine.run(&p, &ExecOpts::seq(), &pool).expect(NO_BUDGET);
            assert_eq!(plain.mappings, expected, "seed {seed}");
            assert!(plain.profile.is_none());
        }
    }

    #[test]
    fn parallel_traced_matches_plain_across_widths() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            for seed in 0..30u64 {
                let p = random_pattern(&cfg, seed);
                let g = generate::uniform(40, 5, 5, 5, seed ^ 0xf00d)
                    .union(&graph_over_pattern_iris(seed));
                let engine = Engine::new(&g);
                let out = engine
                    .run(&p, &ExecOpts::parallel().traced(), &pool)
                    .expect(NO_BUDGET);
                assert_eq!(
                    out.mappings,
                    eval(&engine, &p),
                    "threads {threads}, seed {seed}, pattern {p}"
                );
                assert!(!out.profile.expect("traced").spans.is_empty());
            }
        }
    }

    /// NS pruning counters: the profile sees the candidate and
    /// survivor counts of the maximality filter.
    #[test]
    fn traced_ns_records_pruning() {
        let chain = generate::chain("next", 50);
        let engine = Engine::new(&chain);
        let ns = Pattern::t("?a", "next", "?b")
            .union(Pattern::t("?a", "next", "?b").and(Pattern::t("?b", "next", "?c")))
            .ns();
        let out = engine
            .run(&ns, &ExecOpts::seq().traced(), &Pool::sequential())
            .expect(NO_BUDGET);
        let profile = out.profile.expect("traced");
        assert_eq!(profile.ns.survivors, out.mappings.len() as u64);
        assert!(profile.ns.candidates > profile.ns.survivors);
    }

    #[test]
    fn parallel_optimized_agrees_with_sequential_optimized() {
        let cfg = PatternConfig {
            allowed: Operators::NS_SPARQL.with(Operators::MINUS),
            ..PatternConfig::standard(4, 5)
        };
        let pool = Pool::new(3);
        for seed in 0..40u64 {
            let p = random_pattern(&cfg, seed);
            let g = generate::uniform(30, 5, 5, 5, seed);
            let engine = Engine::new(&g);
            assert_eq!(
                engine
                    .run(&p, &ExecOpts::parallel().optimized(), &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                engine
                    .run(&p, &ExecOpts::seq().optimized(), &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                "seed {seed}"
            );
        }
    }

    /// The admission ceiling rejects over-class queries before any
    /// evaluation work, on every execution path, and admits queries at
    /// or below the ceiling unchanged.
    #[test]
    fn admission_ceiling_gates_run() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let admitted = Pattern::t("?o", "stands_for", "sharing_rights")
            .and(Pattern::t("?p", "founder", "?o").union(Pattern::t("?p", "supporter", "?o")));
        let expected = eval(&engine, &admitted);
        let denied = Pattern::t("?o", "stands_for", "?r")
            .and(Pattern::t("?p", "founder", "?o").opt(Pattern::t("?p", "supporter", "?r")))
            .ns();
        let pool = Pool::new(2);
        for opts in [
            ExecOpts::seq(),
            ExecOpts::parallel(),
            ExecOpts::seq().traced(),
            ExecOpts::parallel().traced().optimized(),
        ] {
            let capped = opts.with_max_class(owql_lint::ComplexityClass::Np);
            assert_eq!(
                engine
                    .run(&admitted, &capped, &pool)
                    .expect(NO_BUDGET)
                    .mappings,
                expected
            );
            let err = engine.run(&denied, &capped, &pool).unwrap_err();
            assert!(
                matches!(&err, EvalError::AdmissionDenied { ceiling, .. }
                    if *ceiling == owql_lint::ComplexityClass::Np),
                "expected AdmissionDenied, got {err:?}"
            );
        }
    }

    /// A zero deadline times out on every execution path and leaves the
    /// pool reusable afterwards.
    #[test]
    fn zero_deadline_times_out_on_every_path() {
        let g = generate::star("hub", "spoke", 40);
        let engine = Engine::new(&g);
        let spine = Pattern::t("hub", "spoke", "?x")
            .and(Pattern::t("hub", "spoke", "?y"))
            .and(Pattern::t("hub", "spoke", "?z"));
        let pool = Pool::new(4);
        for opts in [
            ExecOpts::seq(),
            ExecOpts::seq().traced(),
            ExecOpts::parallel(),
            ExecOpts::parallel().traced(),
        ] {
            let result = engine.run(&spine, &opts.with_deadline(Duration::ZERO), &pool);
            assert!(
                matches!(result, Err(EvalError::Timeout { .. })),
                "expected timeout for {opts:?}"
            );
        }
        // The pool survives: a run without a deadline still answers.
        assert_eq!(eval_par(&engine, &spine, &pool).len(), 40 * 40 * 40);
    }

    /// A generous deadline changes nothing about the answers.
    #[test]
    fn generous_deadline_is_transparent() {
        let g = figure_1();
        let engine = Engine::new(&g);
        let p = Pattern::t("?p", "founder", "?o");
        let opts = ExecOpts::seq().with_deadline(Duration::from_secs(3600));
        let out = engine
            .run(&p, &opts, &Pool::sequential())
            .expect("in budget");
        assert_eq!(out.mappings, eval(&engine, &p));
    }
}
