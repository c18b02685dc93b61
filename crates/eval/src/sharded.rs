//! Scatter-gather evaluation across subject-hash shards.
//!
//! [`run_sharded`] is the columnar evaluator's distributed sibling:
//! the caller supplies `N` per-shard [`IdRuns`] (built from the *same*
//! snapshot the engine is bound to, via [`owql_rdf::shard::shard_rows`])
//! and one [`Pool`] per shard, and AND/UNION spines evaluate
//! scatter-gather:
//!
//! * **AND spines** scatter the *seed scan*: the coordinator picks the
//!   first triple pattern with the same greedy heuristic as the
//!   columnar engine, then every shard extends the seed table against
//!   its **shard-local** runs only. Because the shards partition the
//!   live rows disjointly by subject id, the per-shard partial tables
//!   are disjoint; each shard then continues the remaining join chain
//!   against the **global** view on its own pool, and the coordinator
//!   merges by concatenation + sort/dedup. This is what makes the
//!   scatter *correct for joins*: only the first scan is partitioned,
//!   so no cross-shard join pair is ever lost.
//! * **UNION spines** fan their disjuncts out round-robin across the
//!   shard pools (each disjunct evaluated whole against the global
//!   view), merged with set semantics at the coordinator.
//! * **NS** maximality is applied *post-merge* at the coordinator — the
//!   domain-grouped `maximal` pass needs the complete candidate set,
//!   exactly as the single-node engine applies it after its own
//!   sub-evaluation.
//!
//! Everything is pinned to one snapshot epoch by construction: the
//! shard runs, the engine's view, and the deletion mask all derive from
//! the same [`IdView`], so a scatter never mixes epochs.
//!
//! Answer-set equality with the unsharded columnar engine is the
//! contract, held by the `tests/integration_sharded.rs` differential
//! suite at shard counts 1, 2, and 8 over churned snapshots.
//!
//! [`IdRuns`]: owql_rdf::IdRuns

use crate::columnar::{frame_for, Columnar, IdTriple};
use crate::engine::spine_parts;
use crate::run::{EvalBudget, EvalError};
use owql_algebra::id_mapping::{IdMapping, IdMappingSet};
use owql_algebra::normal_form::union_spine;
use owql_algebra::{MappingSet, Pattern, TriplePattern};
use owql_exec::Pool;
use owql_obs::{Recorder, ShardMetrics, SpanId};
use owql_rdf::{FxHashSet, IdRuns, IdView};
use std::sync::atomic::Ordering;

/// Scatter-gather evaluation of `pattern` over `view`, using
/// `shard_runs` (disjoint subject-hash partitions of the view's live
/// rows, at least one) and one pool per shard (at least one).
pub fn run_sharded(
    view: IdView<'_>,
    pattern: &Pattern,
    shard_runs: &[IdRuns],
    pools: &[Pool],
    rec: &Recorder,
    budget: &EvalBudget,
    metrics: Option<&ShardMetrics>,
) -> Result<MappingSet, EvalError> {
    let coordinator = &pools[0];
    let ctx = Columnar {
        dels: view.del_rows(),
        view,
        frame: frame_for(pattern)?,
        pool: coordinator,
        parallel: coordinator.threads() > 1,
        rec,
    };
    let exec = Sharded {
        ctx,
        shard_runs,
        pools,
        metrics,
    };
    if let Some(m) = metrics {
        m.queries_total.fetch_add(1, Ordering::Relaxed);
    }
    let table = exec.eval(pattern, budget)?;
    Ok(exec.ctx.decode(&table))
}

/// The coordinator: one global columnar context plus the shard runs
/// and pools the spines scatter over.
struct Sharded<'a> {
    ctx: Columnar<'a>,
    shard_runs: &'a [IdRuns],
    pools: &'a [Pool],
    metrics: Option<&'a ShardMetrics>,
}

impl Sharded<'_> {
    /// A columnar context over the global view bound to `pool` — the
    /// per-shard continuation context, and the per-disjunct UNION
    /// worker context.
    fn global_ctx<'b>(&'b self, pool: &'b Pool) -> Columnar<'b> {
        Columnar {
            view: IdView {
                dict: self.ctx.view.dict,
                base: self.ctx.view.base,
                adds: self.ctx.view.adds,
                dels: self.ctx.view.dels,
            },
            frame: self.ctx.frame.clone(),
            dels: self.ctx.dels.clone(),
            pool,
            parallel: pool.threads() > 1,
            rec: self.ctx.rec,
        }
    }

    /// One algebra node. Spines scatter; every other operator combines
    /// recursively gathered children at the coordinator.
    fn eval(&self, pattern: &Pattern, budget: &EvalBudget) -> Result<IdMappingSet, EvalError> {
        budget.check()?;
        match pattern {
            Pattern::Triple(_) | Pattern::And(..) => self.scatter_spine(pattern, budget),
            Pattern::Opt(a, b) => {
                let left = self.eval(a, budget)?;
                let right = self.eval(b, budget)?;
                Ok(left.left_outer_join(&right))
            }
            Pattern::Union(..) => {
                let disjuncts = union_spine(pattern);
                let n = self.pools.len();
                let parts: Vec<Result<IdMappingSet, EvalError>> = std::thread::scope(|s| {
                    let handles: Vec<_> = disjuncts
                        .iter()
                        .enumerate()
                        .map(|(i, d)| {
                            s.spawn(move || {
                                let sub = self.global_ctx(&self.pools[i % n]);
                                sub.eval(d, SpanId::ROOT, budget)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("union scatter worker panicked"))
                        .collect()
                });
                let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
                if let Some(m) = self.metrics {
                    m.record_scatter(parts.iter().filter(|p| !p.is_empty()).count());
                }
                Ok(IdMappingSet::union_of(self.ctx.width(), parts))
            }
            Pattern::Select(vars, p) => {
                Ok(self.eval(p, budget)?.project(&self.ctx.keep_mask(vars)))
            }
            Pattern::Filter(p, r) => {
                let cond = self.ctx.compile_cond(r);
                let mut inner = self.eval(p, budget)?;
                inner.retain(|row| cond.satisfied_by(row));
                Ok(inner)
            }
            Pattern::Ns(p) => {
                // Maximality post-merge: the gathered candidate set is
                // complete, so the domain-grouped pass is exactly the
                // single-node one.
                let inner = self.eval(p, budget)?;
                let candidates = inner.len() as u64;
                let out = inner.maximal(self.ctx.parallel.then_some(self.ctx.pool));
                self.ctx.rec.record_ns(candidates, out.len() as u64);
                Ok(out)
            }
            Pattern::Minus(a, b) => {
                let left = self.eval(a, budget)?;
                Ok(left.difference(&self.eval(b, budget)?))
            }
        }
    }

    /// The scattered AND spine. Mirrors `Columnar::eval_spine` exactly,
    /// except the first (seed) scan step runs once per shard against
    /// that shard's local runs.
    fn scatter_spine(
        &self,
        pattern: &Pattern,
        budget: &EvalBudget,
    ) -> Result<IdMappingSet, EvalError> {
        let ctx = &self.ctx;
        let w = ctx.width();
        let (triples, others) = spine_parts(pattern);
        let mut compiled: Vec<(IdTriple, TriplePattern)> = triples
            .iter()
            .map(|&t| (ctx.compile_triple(t), t))
            .collect();
        if compiled.iter().any(|(c, _)| c.unsatisfiable()) {
            return Ok(IdMappingSet::new(w));
        }
        let mut sub: Vec<IdMappingSet> = others
            .iter()
            .map(|p| self.eval(p, budget))
            .collect::<Result<_, _>>()?;
        let seed = if sub.is_empty() {
            IdMappingSet::unit(w)
        } else {
            sub.sort_by_key(IdMappingSet::len);
            let mut acc = sub.remove(0);
            for s in sub {
                acc = acc.join(&s);
            }
            acc
        };
        if compiled.is_empty() {
            return Ok(seed);
        }
        if seed.is_empty() {
            return Ok(IdMappingSet::new(w));
        }
        let bound_mask = IdMapping::new(seed.row(0)).domain_mask();
        let homogeneous = seed
            .rows()
            .all(|r| IdMapping::new(r).domain_mask() == bound_mask);
        let first_idx = ctx.pick_next(&compiled, bound_mask);
        let (first, _) = compiled.swap_remove(first_idx);
        let remaining = compiled;
        let after_mask = bound_mask | first.var_mask();
        let n = self.shard_runs.len();
        let parts: Vec<Result<IdMappingSet, EvalError>> = if n == 1 {
            vec![self.shard_chain(0, &seed, first, &remaining, after_mask, homogeneous, budget)]
        } else {
            std::thread::scope(|s| {
                let seed = &seed;
                let remaining = &remaining;
                let handles: Vec<_> = (0..n)
                    .map(|k| {
                        s.spawn(move || {
                            self.shard_chain(
                                k,
                                seed,
                                first,
                                remaining,
                                after_mask,
                                homogeneous,
                                budget,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("spine scatter worker panicked"))
                    .collect()
            })
        };
        let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
        if let Some(m) = self.metrics {
            for (k, part) in parts.iter().enumerate() {
                m.record_shard_task(k, part.len() as u64);
            }
            m.record_scatter(parts.iter().filter(|p| !p.is_empty()).count());
        }
        Ok(IdMappingSet::union_of(w, parts))
    }

    /// One shard's chain: seed-extend against the shard-local runs,
    /// then complete the remaining joins against the global view on the
    /// shard's own pool.
    #[allow(clippy::too_many_arguments)]
    fn shard_chain(
        &self,
        k: usize,
        seed: &IdMappingSet,
        first: IdTriple,
        remaining: &[(IdTriple, TriplePattern)],
        mut bound_mask: u64,
        homogeneous: bool,
        budget: &EvalBudget,
    ) -> Result<IdMappingSet, EvalError> {
        let pool = &self.pools[k.min(self.pools.len() - 1)];
        // Shard runs hold live rows only (deletions were filtered at
        // partition time), so the local context needs no deletion mask.
        let local = Columnar {
            view: IdView::plain(self.ctx.view.dict, &self.shard_runs[k]),
            frame: self.ctx.frame.clone(),
            dels: FxHashSet::default(),
            pool,
            parallel: pool.threads() > 1,
            rec: self.ctx.rec,
        };
        let mut current = local.extend(seed, first, !homogeneous, budget)?;
        let global = self.global_ctx(pool);
        let mut remaining = remaining.to_vec();
        while !remaining.is_empty() {
            budget.check()?;
            if current.is_empty() {
                return Ok(current);
            }
            let next = global.pick_next(&remaining, bound_mask);
            let (t, _) = remaining.swap_remove(next);
            current = global.extend(&current, t, !homogeneous, budget)?;
            bound_mask |= t.var_mask();
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ExecOpts;
    use crate::Engine;
    use owql_parser::parse_pattern;
    use owql_rdf::{shard_rows, GraphIndex, Triple, TripleLookup};

    fn social() -> GraphIndex {
        let mut triples = Vec::new();
        for i in 0..20u32 {
            triples.push(Triple::new(
                &format!("p{i}"),
                "knows",
                &format!("p{}", (i + 1) % 20),
            ));
            if i % 2 == 0 {
                triples.push(Triple::new(&format!("p{i}"), "age", &format!("{}", 20 + i)));
            }
        }
        GraphIndex::from_triples(triples)
    }

    fn answers_match(pattern: &str, shards: usize) {
        let engine = Engine::with_index(social());
        let pattern = parse_pattern(pattern).expect("pattern parses");
        let opts = ExecOpts::seq();
        let budget = EvalBudget::from_opts(&opts);
        let rec = Recorder::disabled();
        let pool = Pool::sequential();
        let expected = engine
            .run(&pattern, &opts, &pool)
            .expect("unsharded run")
            .mappings;
        let view = engine.index().id_view();
        let runs = shard_rows(&view, shards);
        let pools: Vec<Pool> = (0..shards).map(|_| Pool::sequential()).collect();
        let got =
            run_sharded(view, &pattern, &runs, &pools, &rec, &budget, None).expect("sharded run");
        assert_eq!(got, expected, "sharded answers diverge at {shards} shards");
    }

    #[test]
    fn spine_scatter_matches_unsharded() {
        for shards in [1, 2, 8] {
            answers_match("((?x, knows, ?y) AND (?y, knows, ?z))", shards);
            answers_match("((?x, knows, ?y) AND (?x, age, ?a))", shards);
            // Ground spines: a zero-width frame, matching and not.
            answers_match("(p0, knows, p1)", shards);
            answers_match("((p0, knows, p1) AND (p1, knows, p0))", shards);
        }
    }

    #[test]
    fn union_and_ns_scatter_match_unsharded() {
        for shards in [1, 2, 8] {
            answers_match("((?x, knows, ?y) UNION (?x, age, ?a))", shards);
            answers_match("NS (((?x, knows, ?y) OPT (?y, age, ?a)))", shards);
        }
    }
}
