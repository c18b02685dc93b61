//! The columnar, dictionary-encoded evaluator behind [`crate::Engine::run`].
//!
//! [`run`] evaluates the whole pattern over [`IdMappingSet`] tables keyed
//! by one [`VarFrame`]: binary-searched scans of an [`IdView`]'s sorted
//! id runs, row-extension AND-spine joins, word-compare compatibility for
//! `OPT`/`MINUS`, a flattened UNION sorted once, and bitmask-grouped NS
//! maximality. Terms are decoded exactly once, at the result boundary.
//!
//! Every operator mirrors the paper's mapping-set operation, and the
//! differential suites (`tests/integration_columnar.rs` and friends)
//! hold the results to the reference evaluator over randomized
//! NS-SPARQL patterns and live-churn stores at widths 1, 2 and 8.
//!
//! The evaluator is total up to one limit: a pattern over more than
//! [`WIDTH_LIMIT`] variables does not fit the 64-bit domain masks and is
//! refused with [`EvalError::TooManyVariables`]. A ground pattern
//! evaluates over a zero-width frame, whose tables hold at most the
//! empty mapping.
//!
//! **Native tracing.** The evaluator carries an [`owql_obs::Recorder`]
//! seam: every operator records one span (kind, label, observed
//! input/output rows), every spine step records a `SCAN` span whose
//! `estimated_rows` is [`scan_estimate`] — the constant-only run
//! cardinality that orders the greedy join and that the static
//! EXPLAIN ([`crate::plan`]) prints — and the event counters
//! (galloping-scan hint hits/misses, dict decode rows, homogeneous-domain
//! dedup skips) flow through the recorder's columnar atomics. A
//! *disabled* recorder short-circuits before any label formatting or
//! clock read, so the untraced hot path pays only a predictable branch
//! per operator.

use crate::engine::{op_kind, project_label, spine_label, spine_parts};
use crate::run::{EvalBudget, EvalError, BUDGET_CHECK_STRIDE};
use owql_algebra::analysis::pattern_vars;
use owql_algebra::id_mapping::{IdMappingSet, VarFrame, WIDTH_LIMIT};
use owql_algebra::normal_form::union_spine;
use owql_algebra::{Condition, MappingSet, Pattern, TermPattern, TriplePattern};
use owql_exec::{chunk_ranges, Pool};
use owql_obs::{OpKind, Recorder, SpanId};
use owql_rdf::{FxHashSet, IdView, TermId, NO_TERM};

/// Minimum candidate rows per dealt chunk of a parallel spine step:
/// below it, dealing and per-chunk bookkeeping cost more than the
/// extension they parallelize, so a step splits only once it has at
/// least two full chunks.
const MIN_BINDINGS_PER_CHUNK: usize = 4096;

/// One triple-pattern position, id-compiled against the frame and
/// dictionary.
#[derive(Clone, Copy, Debug)]
enum IdPos {
    /// A constant that is interned — matches exactly this id.
    Const(TermId),
    /// A constant absent from the dictionary — matches nothing.
    Missing,
    /// A variable at this frame column.
    Var(usize),
}

/// An id-compiled triple pattern.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdTriple {
    pos: [IdPos; 3],
}

impl IdTriple {
    /// `true` iff some constant cannot match (the pattern is empty).
    pub(crate) fn unsatisfiable(&self) -> bool {
        self.pos.iter().any(|p| matches!(p, IdPos::Missing))
    }

    /// Bitmask of the frame columns this pattern's variables occupy.
    pub(crate) fn var_mask(&self) -> u64 {
        self.pos.iter().fold(0u64, |m, p| match p {
            IdPos::Var(c) => m | (1 << c),
            _ => m,
        })
    }

    /// The constant-only scan key: the ids of the constants, `None` at
    /// variable positions.
    fn const_key(&self) -> [Option<TermId>; 3] {
        self.pos.map(|p| match p {
            IdPos::Const(id) => Some(id),
            _ => None,
        })
    }
}

/// The planner-side row estimate of one triple pattern: the run
/// cardinality of its constant-only key (an upper bound under
/// deletions; 0 when a constant was never interned). It orders the
/// greedy spine join, labels the `SCAN` spans of traced runs, and is
/// what the static EXPLAIN prints — one estimator for both.
pub(crate) fn scan_estimate(view: &IdView<'_>, t: TriplePattern) -> usize {
    let mut key = [None; 3];
    for (slot, tp) in key.iter_mut().zip([t.s, t.p, t.o]) {
        if let Some(iri) = tp.as_iri() {
            match view.dict.lookup(iri) {
                Some(id) => *slot = Some(id),
                None => return 0,
            }
        }
    }
    view.cardinality_upper(key[0], key[1], key[2])
}

/// A [`Condition`] compiled onto frame columns and term ids.
#[derive(Clone, Debug)]
pub(crate) enum IdCond {
    Always,
    Never,
    Bound(usize),
    EqConst(usize, TermId),
    EqVar(usize, usize),
    Not(Box<IdCond>),
    And(Box<IdCond>, Box<IdCond>),
    Or(Box<IdCond>, Box<IdCond>),
}

impl IdCond {
    pub(crate) fn satisfied_by(&self, row: &[TermId]) -> bool {
        match self {
            IdCond::Always => true,
            IdCond::Never => false,
            IdCond::Bound(c) => row[*c] != NO_TERM,
            // An unbound slot is 0 and real ids start at 1, so the
            // plain compare also encodes "bound and equal".
            IdCond::EqConst(c, id) => row[*c] == *id,
            IdCond::EqVar(a, b) => row[*a] != NO_TERM && row[*a] == row[*b],
            IdCond::Not(r) => !r.satisfied_by(row),
            IdCond::And(a, b) => a.satisfied_by(row) && b.satisfied_by(row),
            IdCond::Or(a, b) => a.satisfied_by(row) || b.satisfied_by(row),
        }
    }
}

/// Per-query columnar evaluation context.
pub(crate) struct Columnar<'a> {
    pub(crate) view: IdView<'a>,
    pub(crate) frame: VarFrame,
    /// The snapshot's deletion set, id-encoded once up front.
    pub(crate) dels: FxHashSet<[TermId; 3]>,
    pub(crate) pool: &'a Pool,
    pub(crate) parallel: bool,
    /// The span/event sink — disabled outside traced runs, in which
    /// case every recording call short-circuits on one branch.
    pub(crate) rec: &'a Recorder,
}

/// The frame of every table `pattern`'s evaluation builds, or
/// [`EvalError::TooManyVariables`] past [`WIDTH_LIMIT`].
pub(crate) fn frame_for(pattern: &Pattern) -> Result<VarFrame, EvalError> {
    let vars = pattern_vars(pattern);
    let count = vars.len();
    VarFrame::new(vars).ok_or(EvalError::TooManyVariables {
        vars: count,
        limit: WIDTH_LIMIT,
    })
}

/// Evaluates `⟦pattern⟧` over `view` and decodes the answers.
pub(crate) fn run(
    view: IdView<'_>,
    pattern: &Pattern,
    parallel: bool,
    pool: &Pool,
    rec: &Recorder,
    budget: &EvalBudget,
) -> Result<MappingSet, EvalError> {
    let ctx = Columnar {
        dels: view.del_rows(),
        view,
        frame: frame_for(pattern)?,
        pool,
        parallel,
        rec,
    };
    let table = ctx.eval(pattern, SpanId::ROOT, budget)?;
    Ok(ctx.decode(&table))
}

impl Columnar<'_> {
    pub(crate) fn width(&self) -> usize {
        self.frame.width()
    }

    /// The result boundary: `table`'s rows as term-level mappings.
    /// `decode` emits provably distinct rows, so the `MappingSet` keeps
    /// its `Repr::Distinct` fast path and never builds a hash set.
    pub(crate) fn decode(&self, table: &IdMappingSet) -> MappingSet {
        self.rec.record_columnar_decode(table.len() as u64, true);
        table.decode(&self.frame, self.view.dict)
    }

    /// The `SELECT` column mask: which frame columns `vars` keeps.
    pub(crate) fn keep_mask(
        &self,
        vars: &std::collections::BTreeSet<owql_algebra::Variable>,
    ) -> Vec<bool> {
        (0..self.width())
            .map(|c| vars.contains(&self.frame.var(c)))
            .collect()
    }

    pub(crate) fn compile_triple(&self, t: TriplePattern) -> IdTriple {
        let compile = |tp: TermPattern| match tp {
            TermPattern::Iri(iri) => match self.view.dict.lookup(iri) {
                Some(id) => IdPos::Const(id),
                None => IdPos::Missing,
            },
            TermPattern::Var(v) => IdPos::Var(
                self.frame
                    .col(v)
                    .expect("frame covers every pattern variable"),
            ),
        };
        IdTriple {
            pos: [compile(t.s), compile(t.p), compile(t.o)],
        }
    }

    pub(crate) fn compile_cond(&self, r: &Condition) -> IdCond {
        match r {
            Condition::True => IdCond::Always,
            Condition::False => IdCond::Never,
            Condition::Bound(v) => IdCond::Bound(self.col(*v)),
            Condition::EqConst(v, c) => match self.view.dict.lookup(*c) {
                // A never-interned constant equals no binding.
                None => IdCond::Never,
                Some(id) => IdCond::EqConst(self.col(*v), id),
            },
            Condition::EqVar(a, b) => IdCond::EqVar(self.col(*a), self.col(*b)),
            Condition::Not(r) => IdCond::Not(Box::new(self.compile_cond(r))),
            Condition::And(a, b) => IdCond::And(
                Box::new(self.compile_cond(a)),
                Box::new(self.compile_cond(b)),
            ),
            Condition::Or(a, b) => IdCond::Or(
                Box::new(self.compile_cond(a)),
                Box::new(self.compile_cond(b)),
            ),
        }
    }

    fn col(&self, v: owql_algebra::Variable) -> usize {
        self.frame
            .col(v)
            .expect("frame covers every condition variable")
    }

    /// One algebra node: evaluates the operator and records its span
    /// under `parent`. With a disabled recorder the `begin`/`timer`
    /// calls return immediately and the label is never formatted.
    pub(crate) fn eval(
        &self,
        pattern: &Pattern,
        parent: SpanId,
        budget: &EvalBudget,
    ) -> Result<IdMappingSet, EvalError> {
        budget.check()?;
        let rec = self.rec;
        let id = rec.begin();
        let timer = rec.timer();
        let (rows_in, out) = match pattern {
            Pattern::Triple(_) | Pattern::And(..) => self.eval_spine(pattern, id, budget)?,
            Pattern::Opt(a, b) => {
                let left = self.eval(a, id, budget)?;
                let right = self.eval(b, id, budget)?;
                (Some(left.len() as u64), left.left_outer_join(&right))
            }
            Pattern::Union(..) => {
                // One algorithm at every width: flatten the UNION spine,
                // evaluate the disjuncts (concurrently when parallel),
                // then concatenate and sort once.
                let disjuncts = union_spine(pattern);
                let eval = |d: &&Pattern| self.eval(d, id, budget);
                let parts: Vec<_> = if self.parallel {
                    self.pool.map_profiled(&disjuncts, rec, eval)
                } else {
                    disjuncts.iter().map(eval).collect()
                };
                let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
                (None, IdMappingSet::union_of(self.width(), parts))
            }
            Pattern::Select(vars, p) => {
                let inner = self.eval(p, id, budget)?;
                (
                    Some(inner.len() as u64),
                    inner.project(&self.keep_mask(vars)),
                )
            }
            Pattern::Filter(p, r) => {
                let cond = self.compile_cond(r);
                let mut inner = self.eval(p, id, budget)?;
                let rows_in = inner.len() as u64;
                inner.retain(|row| cond.satisfied_by(row));
                (Some(rows_in), inner)
            }
            Pattern::Ns(p) => {
                let inner = self.eval(p, id, budget)?;
                let candidates = inner.len() as u64;
                let out = inner.maximal(self.parallel.then_some(self.pool));
                rec.record_ns(candidates, out.len() as u64);
                (Some(candidates), out)
            }
            Pattern::Minus(a, b) => {
                let left = self.eval(a, id, budget)?;
                (
                    Some(left.len() as u64),
                    left.difference(&self.eval(b, id, budget)?),
                )
            }
        };
        if rec.is_enabled() {
            rec.record_span(
                id,
                parent,
                op_kind(pattern),
                &self.op_label(pattern),
                rows_in,
                out.len() as u64,
                &timer,
            );
        }
        Ok(out)
    }

    /// The human-readable span label for one operator node. Only
    /// called when the recorder is enabled, so the formatting cost
    /// stays off the untraced hot path.
    fn op_label(&self, pattern: &Pattern) -> String {
        match pattern {
            Pattern::Triple(_) | Pattern::And(..) => {
                let (triples, others) = spine_parts(pattern);
                format!("columnar {}", spine_label(triples.len(), others.len()))
            }
            Pattern::Union(..) => {
                format!(
                    "union of {} disjuncts (columnar)",
                    union_spine(pattern).len()
                )
            }
            Pattern::Opt(..) => "left outer join (columnar)".to_owned(),
            Pattern::Minus(..) => "difference (columnar)".to_owned(),
            Pattern::Select(vars, _) => format!("{} (columnar)", project_label(vars)),
            Pattern::Filter(_, r) => format!("filter {r} (columnar)"),
            Pattern::Ns(_) => "maximal answers (columnar)".to_owned(),
        }
    }

    /// The `AND`-spine: evaluate the non-triple conjuncts, join them
    /// smallest-first as the seed, then extend with the triple patterns
    /// greedily (fewest-unbound-columns, then scan cardinality) via
    /// binary-searched run scans. `span` is this spine's own span id —
    /// the per-step `SCAN` spans cite it as their parent. Returns the
    /// seeded candidate count (the spine span's `rows_in`) with the
    /// result.
    fn eval_spine(
        &self,
        pattern: &Pattern,
        span: SpanId,
        budget: &EvalBudget,
    ) -> Result<(Option<u64>, IdMappingSet), EvalError> {
        let (triples, others) = spine_parts(pattern);
        let w = self.width();
        let mut compiled: Vec<(IdTriple, TriplePattern)> = triples
            .iter()
            .map(|&t| (self.compile_triple(t), t))
            .collect();
        if compiled.iter().any(|(c, _)| c.unsatisfiable()) {
            // Some constant was never interned: that conjunct — and
            // with it the whole AND — matches nothing.
            return Ok((Some(0), IdMappingSet::new(w)));
        }
        let mut sub: Vec<IdMappingSet> = others
            .iter()
            .map(|p| self.eval(p, span, budget))
            .collect::<Result<_, _>>()?;
        let mut current = if sub.is_empty() {
            IdMappingSet::unit(w)
        } else {
            sub.sort_by_key(IdMappingSet::len);
            let mut acc = sub.remove(0);
            for s in sub {
                acc = acc.join(&s);
            }
            acc
        };
        let seeded = Some(current.len() as u64);
        // The ordering heuristic's bound set: columns bound in the
        // first seed row.
        let mut bound_mask = if current.is_empty() {
            0
        } else {
            owql_algebra::id_mapping::IdMapping::new(current.row(0)).domain_mask()
        };
        // When every seed row has the same domain, extending distinct
        // rows yields distinct rows (the differing bound column
        // persists, and differing scan matches differ in some variable
        // column), and all extensions share a domain again — so the
        // per-step dedup can be skipped. Heterogeneous seeds (an OPT or
        // UNION conjunct) keep the dedup: overwritten-free extension
        // can then collide across rows with different domains.
        let homogeneous = current
            .rows()
            .all(|r| owql_algebra::id_mapping::IdMapping::new(r).domain_mask() == bound_mask);
        if homogeneous && !compiled.is_empty() {
            self.rec.record_columnar_dedup_skip();
        }
        while !compiled.is_empty() {
            budget.check()?;
            if current.is_empty() {
                return Ok((seeded, IdMappingSet::new(w)));
            }
            let next = self.pick_next(&compiled, bound_mask);
            let (t, tp) = compiled.swap_remove(next);
            let rec = self.rec;
            let id = rec.begin();
            let timer = rec.timer();
            let rows_in = current.len() as u64;
            current = self.extend(&current, t, !homogeneous, budget)?;
            if rec.is_enabled() {
                rec.record_span_est(
                    id,
                    span,
                    OpKind::Scan,
                    &format!("{tp} via {} (columnar)", crate::plan::access_path(tp)),
                    Some(rows_in),
                    current.len() as u64,
                    Some(self.estimate(t) as u64),
                    &timer,
                );
            }
            bound_mask |= t.var_mask();
        }
        Ok((seeded, current))
    }

    /// The planner-side output estimate of one compiled scan step —
    /// [`scan_estimate`] over ids already looked up (a compiled triple
    /// reaching a scan has no never-interned constant).
    fn estimate(&self, t: IdTriple) -> usize {
        let [s, p, o] = t.const_key();
        self.view.cardinality_upper(s, p, o)
    }

    /// Greedy choice: fewest variable columns not yet bound, breaking
    /// ties by the constant-only scan cardinality (a pair of binary
    /// searches per run — no rows are touched).
    pub(crate) fn pick_next(
        &self,
        triples: &[(IdTriple, TriplePattern)],
        bound_mask: u64,
    ) -> usize {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, usize::MAX);
        for (i, (t, _)) in triples.iter().enumerate() {
            let unbound = (t.var_mask() & !bound_mask).count_ones() as usize;
            let key = (unbound, self.estimate(*t));
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// One spine step: extend every row of `current` with every run
    /// match of `t` under that row's bindings. Parallel mode chunks the
    /// row range across the pool once it holds two full
    /// [`MIN_BINDINGS_PER_CHUNK`] chunks.
    pub(crate) fn extend(
        &self,
        current: &IdMappingSet,
        t: IdTriple,
        dedup: bool,
        budget: &EvalBudget,
    ) -> Result<IdMappingSet, EvalError> {
        let w = self.width();
        let n = current.len();
        let chunks = if self.parallel && n >= 2 * MIN_BINDINGS_PER_CHUNK {
            (n / MIN_BINDINGS_PER_CHUNK).min(self.pool.threads() * 4)
        } else {
            1
        };
        let mut out = if chunks <= 1 {
            // Matched rows rarely shrink the table: seed the buffer at
            // the input size to skip the early doubling reallocations.
            let mut data = Vec::with_capacity(n * w);
            self.extend_range(current, 0, n, t, budget, &mut data)?;
            IdMappingSet::from_raw(w, data)
        } else {
            let ranges = chunk_ranges(n, chunks);
            let parts = self.pool.map_profiled(&ranges, self.rec, |&(lo, hi)| {
                let mut data = Vec::new();
                self.extend_range(current, lo, hi, t, budget, &mut data)
                    .map(|()| data)
            });
            let mut data = Vec::new();
            for part in parts {
                data.append(&mut part?);
            }
            IdMappingSet::from_raw(w, data)
        };
        if dedup {
            out.sort_dedup();
        }
        Ok(out)
    }

    /// Extends rows `lo..hi` of `current`, appending result rows to
    /// `data`.
    fn extend_range(
        &self,
        current: &IdMappingSet,
        lo: usize,
        hi: usize,
        t: IdTriple,
        budget: &EvalBudget,
        data: &mut Vec<TermId>,
    ) -> Result<(), EvalError> {
        let check_dels = !self.dels.is_empty();
        // Consecutive rows tend toward equal or ascending scan keys
        // (they came out of a sorted run themselves): equal keys reuse
        // the previous slice outright, and fresh keys gallop from the
        // previous match position instead of binary-searching the whole
        // run.
        let mut last_key: Option<(Option<TermId>, Option<TermId>, Option<TermId>)> = None;
        let mut memo_base: &[[TermId; 3]] = &[];
        let mut memo_base_order = owql_rdf::RunOrder::Spo;
        let mut memo_adds: &[[TermId; 3]] = &[];
        let mut memo_adds_order = owql_rdf::RunOrder::Spo;
        let mut hint_base = 0usize;
        let mut hint_adds = 0usize;
        // Hint accounting: a key equal to the previous row's reuses the
        // memoized slice outright (hit); a fresh key pays the hinted
        // gallop (miss). Local counters — one predictable add per row —
        // flushed into the recorder's atomics once per range.
        let mut hint_hits = 0u64;
        let mut hint_misses = 0u64;
        for i in lo..hi {
            if (i - lo) % BUDGET_CHECK_STRIDE == BUDGET_CHECK_STRIDE - 1 {
                budget.check()?;
            }
            let row = current.row(i);
            // Resolve each position under this row's bindings: a bound
            // variable column constrains the scan like a constant.
            let resolve = |p: IdPos| match p {
                IdPos::Const(id) => Some(id),
                IdPos::Missing => unreachable!("unsatisfiable patterns are filtered out"),
                IdPos::Var(c) => match row[c] {
                    NO_TERM => None,
                    id => Some(id),
                },
            };
            let (s, p, o) = (resolve(t.pos[0]), resolve(t.pos[1]), resolve(t.pos[2]));
            if last_key != Some((s, p, o)) {
                last_key = Some((s, p, o));
                hint_misses += 1;
                (memo_base, memo_base_order) = self.view.base.scan_from(s, p, o, &mut hint_base);
                if let Some(adds) = self.view.adds {
                    (memo_adds, memo_adds_order) = adds.scan_from(s, p, o, &mut hint_adds);
                }
            } else {
                hint_hits += 1;
            }
            let mut emit = |matched: [TermId; 3]| {
                if check_dels && self.dels.contains(&matched) {
                    return;
                }
                let start = data.len();
                data.extend_from_slice(row);
                let new = &mut data[start..];
                // Repeated variables: the second occurrence must agree
                // with the binding the first just wrote.
                for (pos, val) in t.pos.iter().zip(matched) {
                    if let IdPos::Var(c) = pos {
                        if new[*c] == NO_TERM {
                            new[*c] = val;
                        } else if new[*c] != val {
                            data.truncate(start);
                            return;
                        }
                    }
                }
            };
            for &r in memo_base {
                emit(memo_base_order.to_spo(r));
            }
            for &r in memo_adds {
                emit(memo_adds_order.to_spo(r));
            }
        }
        self.rec.record_columnar_hints(hint_hits, hint_misses);
        Ok(())
    }
}
