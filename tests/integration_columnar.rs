//! Differential tests for the columnar evaluator behind `Engine::run`:
//! on every random pattern and store state, a run at pool widths 1, 2
//! and 8 must produce exactly the answers of the paper-literal
//! reference evaluator (`owql_eval::evaluate`) — over plain graphs,
//! live snapshots with adds and deletes, ground patterns (zero-width
//! frames), `SELECT` of no variables, and dictionary growth over
//! commits. A pattern too wide for one frame is a typed error.

use owql::algebra::analysis::Operators;
use owql::algebra::random::{random_pattern, PatternConfig};
use owql::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: [usize; 3] = [1, 2, 8];

/// `⟦p⟧` through `Engine::run` at pool width `width` (sequential
/// options at width 1, parallel ones above).
fn run_at<I: TripleLookup + Sync>(engine: &Engine<I>, p: &Pattern, width: usize) -> MappingSet {
    let opts = if width == 1 {
        ExecOpts::seq()
    } else {
        ExecOpts::parallel()
    };
    engine
        .run(p, &opts, &Pool::new(width))
        .expect("unlimited budget cannot time out")
        .mappings
}

/// Asserts that `engine` answers `p` like the reference evaluator over
/// `graph` at every width.
fn assert_matches_reference<I: TripleLookup + Sync>(
    engine: &Engine<I>,
    graph: &Graph,
    p: &Pattern,
    context: &str,
) {
    let reference = evaluate(p, graph);
    for width in WIDTHS {
        assert_eq!(
            run_at(engine, p, width),
            reference,
            "{context}: width {width} diverged on {p}"
        );
    }
}

fn universe() -> Vec<Triple> {
    let subjects = ["a", "b", "c", "d"];
    let predicates = ["p", "q", "r"];
    let objects = ["a", "b", "c", "d", "e"];
    let mut triples = Vec::new();
    for s in subjects {
        for p in predicates {
            for o in objects {
                triples.push(Triple::new(s, p, o));
            }
        }
    }
    triples
}

fn pattern_config() -> PatternConfig {
    PatternConfig {
        allowed: Operators::NS_SPARQL.with(Operators::MINUS),
        vars: (0..3).map(|i| Variable::new(&format!("cv{i}"))).collect(),
        iris: ["a", "b", "c", "d", "e", "p", "q", "r", "zzz_absent"]
            .iter()
            .map(|s| Iri::new(s))
            .collect(),
        max_depth: 3,
        var_probability: 0.5,
    }
}

/// Random mutations against the store (inserts and deletes in small
/// transactions), so snapshots carry base runs, add tiers, and delete
/// sets all at once.
fn churn(store: &Store, rng: &mut StdRng, n_ops: usize) {
    let pool = universe();
    let mut remaining = n_ops;
    while remaining > 0 {
        let batch = rng.gen_range(1..=remaining.min(7));
        let mut tx = store.begin();
        for _ in 0..batch {
            let t = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.6) {
                tx.insert(t);
            } else {
                tx.delete(t);
            }
        }
        store.commit(tx);
        remaining -= batch;
    }
}

/// Columnar answers equal reference answers on random
/// NS-SPARQL+MINUS patterns over churned store snapshots — the id view
/// overlays base runs, an add tier, and deletions.
#[test]
fn columnar_matches_reference_on_store_snapshots() {
    let cfg = pattern_config();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_1000 ^ seed);
        let store = Store::with_options(StoreOptions {
            min_compact: 8,
            compact_fraction: 0.3,
            cache_capacity: 0,
        });
        churn(&store, &mut rng, 50);
        let snapshot = store.snapshot();
        let graph = snapshot.to_graph();
        let engine = snapshot.engine();
        for pattern_seed in 0..6u64 {
            let p = random_pattern(&cfg, seed * 977 + pattern_seed);
            assert_matches_reference(&engine, &graph, &p, &format!("seed {seed}"));
        }
    }
}

/// A snapshot whose view has both an add tier and a delete set (no
/// compaction folds them away) answers like the reference, and so do
/// the ground patterns over it.
#[test]
fn columnar_matches_reference_on_snapshot_with_adds_and_deletes() {
    let store = Store::with_options(StoreOptions {
        min_compact: usize::MAX,
        compact_fraction: 1.0,
        cache_capacity: 0,
    });
    let mut tx = store.begin();
    for t in universe().into_iter().step_by(2) {
        tx.insert(t);
    }
    store.commit(tx);
    store.force_compact();
    let mut tx = store.begin();
    tx.insert(Triple::new("a", "p", "b"));
    tx.insert(Triple::new("e", "r", "a"));
    tx.delete(Triple::new("a", "p", "a"));
    tx.delete(Triple::new("b", "q", "d"));
    store.commit(tx);

    let snapshot = store.snapshot();
    let view = snapshot.index().id_view();
    assert!(
        view.adds.is_some() && view.dels.is_some(),
        "overlay present"
    );
    let graph = snapshot.to_graph();
    let engine = snapshot.engine();
    let cfg = pattern_config();
    for seed in 0..40u64 {
        let p = random_pattern(&cfg, 0xAD_DE1 + seed);
        assert_matches_reference(&engine, &graph, &p, &format!("seed {seed}"));
    }
    for ground in [
        Pattern::t("a", "p", "b"), // added
        Pattern::t("e", "r", "a"), // added, new subject
        Pattern::t("a", "p", "a"), // deleted
        Pattern::t("c", "p", "a"), // base
    ] {
        assert_matches_reference(&engine, &graph, &ground, "ground over overlay");
    }
}

/// Parallel evaluation agrees with the reference at every pool width,
/// including widths that trigger chunked spine steps.
#[test]
fn columnar_parallel_matches_reference_across_widths() {
    let cfg = pattern_config();
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_2000 ^ seed);
        let store = Store::with_options(StoreOptions {
            cache_capacity: 0,
            ..StoreOptions::default()
        });
        churn(&store, &mut rng, 60);
        let snapshot = store.snapshot();
        let graph = snapshot.to_graph();
        let engine = snapshot.engine();
        for pattern_seed in 0..4u64 {
            let p = random_pattern(&cfg, seed * 131 + pattern_seed);
            assert_matches_reference(&engine, &graph, &p, &format!("seed {seed}"));
        }
    }
}

/// Plain-graph engines answer like the reference at every width.
#[test]
fn columnar_matches_reference_on_plain_graphs() {
    let cfg = pattern_config();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_3000 ^ seed);
        let pool = universe();
        let graph: Graph = (0..rng.gen_range(0..40))
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let engine = Engine::new(&graph);
        for pattern_seed in 0..6u64 {
            let p = random_pattern(&cfg, seed * 313 + pattern_seed);
            assert_matches_reference(&engine, &graph, &p, &format!("seed {seed}"));
        }
    }
}

/// Ground patterns evaluate over a zero-width frame: `{µ∅}` when the
/// triple is in the graph, `∅` when it is not — alone, inside
/// `AND`/`OPT`/`NS`/`UNION`/`MINUS`/`FILTER`, and under a `SELECT` of no
/// variables.
#[test]
fn ground_patterns_and_empty_select_match_reference() {
    let graph: Graph = universe().into_iter().step_by(3).collect();
    let engine = Engine::new(&graph);
    let hit = Pattern::t("a", "p", "a");
    let miss = Pattern::t("a", "p", "b");
    let absent = Pattern::t("a", "p", "zzz_absent");
    assert!(graph.contains(&Triple::new("a", "p", "a")));
    assert!(!graph.contains(&Triple::new("a", "p", "b")));
    let x = Pattern::t("?x", "q", "?y");
    let cases = vec![
        hit.clone(),
        miss.clone(),
        absent.clone(),
        hit.clone().and(Pattern::t("d", "r", "a")),
        hit.clone().and(miss.clone()),
        hit.clone().and(x.clone()),
        miss.clone().and(x.clone()),
        x.clone().and(hit.clone()),
        hit.clone().opt(miss.clone()),
        miss.clone().opt(hit.clone()),
        x.clone().opt(hit.clone()),
        hit.clone().opt(x.clone()),
        hit.clone().ns(),
        miss.clone().ns(),
        hit.clone().union(miss.clone()).ns(),
        x.clone().union(hit.clone()).ns(),
        hit.clone().union(absent.clone()),
        hit.clone().minus(miss.clone()),
        hit.clone().minus(hit.clone()),
        x.clone().minus(hit.clone()),
        hit.clone().filter(Condition::True),
        hit.clone().filter(Condition::False),
        hit.clone().select(Vec::<&str>::new()),
        miss.clone().select(Vec::<&str>::new()),
        x.clone().select(Vec::<&str>::new()),
        x.clone().opt(hit.clone()).select(Vec::<&str>::new()),
        Pattern::t("?z", "r", "?w").select(Vec::<&str>::new()).ns(),
    ];
    for p in &cases {
        assert_matches_reference(&engine, &graph, p, "ground/empty select");
    }
    // The decoded shapes themselves: `{µ∅}` and `∅`.
    assert_eq!(run_at(&engine, &hit, 1), MappingSet::unit());
    assert!(run_at(&engine, &miss, 8).is_empty());
    assert_eq!(
        run_at(&engine, &x.clone().select(Vec::<&str>::new()), 2),
        MappingSet::unit()
    );
    // Traced ground runs stay answer-identical and record spans.
    let traced = engine
        .run(&hit, &ExecOpts::seq().traced(), &Pool::sequential())
        .expect("in budget");
    assert_eq!(traced.mappings, MappingSet::unit());
    assert!(!traced.profile.expect("traced").spans.is_empty());
}

/// A pattern over more variables than one frame holds is refused with a
/// typed error on every path — never a panic, never a silent fallback —
/// while 64 variables still evaluate.
#[test]
fn too_many_variables_is_a_typed_error() {
    // A path graph and path patterns over it: `path(n)` binds `n`
    // variables and has a handful of answers, so the 64-variable case
    // stays small even for the reference evaluator.
    let graph = owql::rdf::generate::chain("next", 70);
    let engine = Engine::new(&graph);
    let path = |n: usize| {
        Pattern::and_all((1..n).map(|i| {
            Pattern::t(
                format!("?v{}", i - 1).as_str(),
                "next",
                format!("?v{i}").as_str(),
            )
        }))
    };
    let wide = path(65);
    for width in WIDTHS {
        for opts in [
            ExecOpts::seq(),
            ExecOpts::parallel(),
            ExecOpts::parallel().traced(),
        ] {
            let err = engine
                .run(&wide, &opts, &Pool::new(width))
                .expect_err("65 variables do not fit a frame");
            assert_eq!(
                err,
                EvalError::TooManyVariables {
                    vars: 65,
                    limit: 64
                }
            );
        }
    }
    assert!(engine.explain_analyze(&wide).is_err());
    let store = Store::from_graph(&graph);
    let err = store
        .query_request(&QueryRequest::new(wide), &Pool::sequential())
        .expect_err("the store path refuses it too");
    assert!(matches!(err, EvalError::TooManyVariables { vars: 65, .. }));

    let narrow = path(64);
    assert_eq!(run_at(&engine, &narrow, 1).len(), 8);
    assert_matches_reference(&engine, &graph, &narrow, "64 variables");
}

/// Tracing is observation, not behavior: a traced run answers exactly
/// like the untraced one at pool widths 1, 2, and 8, and emits a
/// populated span tree whose columnar scan spans carry
/// `estimated_rows`.
#[test]
fn traced_columnar_matches_untraced_and_stays_columnar() {
    let graph: Graph = universe().into_iter().collect();
    let engine = Engine::new(&graph);
    let x_y = Pattern::t("?x", "p", "?y");
    let workloads = vec![
        x_y.clone().and(Pattern::t("?y", "q", "?z")),
        x_y.clone().union(Pattern::t("?x", "q", "?y")),
        x_y.clone().opt(Pattern::t("?y", "q", "?z")),
        x_y.clone().minus(Pattern::t("?x", "q", "?y")),
        x_y.clone()
            .and(Pattern::t("?y", "q", "?z"))
            .select(["x", "z"]),
        x_y.clone().opt(Pattern::t("?y", "q", "?z")).ns(),
    ];
    for workers in WIDTHS {
        let pool = Pool::new(workers);
        for p in &workloads {
            let base = ExecOpts::parallel();
            let untraced = engine
                .run(p, &base, &pool)
                .expect("unlimited budget cannot time out");
            let traced = engine
                .run(p, &base.traced(), &pool)
                .expect("unlimited budget cannot time out");
            assert_eq!(
                traced.mappings, untraced.mappings,
                "tracing changed answers at {workers} workers, pattern {p}"
            );
            assert!(untraced.profile.is_none());
            let profile = traced.profile.expect("traced run has a profile");
            assert!(
                !profile.spans.is_empty(),
                "traced run must emit spans for {p}"
            );
            assert!(
                profile.spans.iter().all(|s| s.label.contains("columnar")),
                "every span comes from the columnar engine for {p}"
            );
            assert!(
                profile.spans.iter().any(|s| s.estimated_rows.is_some()),
                "scan spans must carry estimated_rows for {p}"
            );
        }
    }
}

/// Dictionary ids assigned at one commit survive later commits
/// untouched: the id of every term visible in an early snapshot's
/// dictionary resolves to the same term after arbitrary further churn.
#[test]
fn dict_ids_stay_stable_across_commits() {
    let mut rng = StdRng::seed_from_u64(0xD1C7);
    let store = Store::with_options(StoreOptions {
        min_compact: 8,
        compact_fraction: 0.3,
        cache_capacity: 0,
    });
    churn(&store, &mut rng, 30);
    let dict = store.dict();
    let before: Vec<(u64, Iri)> = (1..=dict.len() as u64)
        .map(|id| (id, dict.resolve(id).expect("dense ids")))
        .collect();
    assert!(!before.is_empty(), "churn interned nothing");
    churn(&store, &mut rng, 60);
    store.force_compact();
    let dict_after = store.dict();
    for (id, term) in before {
        assert_eq!(
            dict_after.resolve(id),
            Some(term),
            "id {id} was renumbered by a later commit"
        );
        assert_eq!(dict_after.lookup(term), Some(id));
    }
}
