//! Answer checks.
//!
//! Every served response's `count` is compared with an in-process
//! columnar `Engine::run` of the same pattern on the same snapshot.
//! A small-tier self-test first checks every template the workloads
//! send against `owql_eval::evaluate`, the paper-literal reference.

use crate::drive::Sample;
use crate::workload::{
    analytic_shapes, parse_opts, social_graph, Family, ANALYTIC_OPTS, LOOKUP_OPTS,
};
use owql_eval::{check_admission, evaluate, ExecOpts};
use owql_exec::Pool;
use owql_parser::parse_pattern;
use owql_store::{Snapshot, Store};
use std::collections::HashMap;

/// Expected answer counts, memoized by pattern text, for one snapshot.
pub struct Expected {
    snapshot: Snapshot,
    counts: HashMap<String, u64>,
    pool: Pool,
}

impl Expected {
    pub fn new(snapshot: Snapshot) -> Expected {
        Expected {
            snapshot,
            counts: HashMap::new(),
            pool: Pool::sequential(),
        }
    }

    /// Seeds the memo with a count computed elsewhere on this snapshot.
    pub fn record(&mut self, text: &str, count: u64) {
        self.counts.insert(text.to_owned(), count);
    }

    pub fn count(&mut self, text: &str) -> u64 {
        if let Some(&c) = self.counts.get(text) {
            return c;
        }
        let pattern = parse_pattern(text).expect("generated patterns parse");
        let out = self
            .snapshot
            .engine()
            .run(&pattern, &ExecOpts::seq().uncached(), &self.pool)
            .expect("no deadline or ceiling is set");
        let c = out.mappings.len() as u64;
        self.counts.insert(text.to_owned(), c);
        c
    }

    /// Tallies `sample` as failed if it was not served, and as wrong
    /// if it was served at another epoch than `epoch` or with another
    /// count than this snapshot gives. The store must hold this
    /// snapshot's triples at `epoch`.
    pub fn check(&mut self, sample: &Sample, epoch: u64, tally: &mut Tally) {
        if !sample.served() {
            let message = format!(
                "request {} not served: status {:?}",
                sample.req.id, sample.status
            );
            return tally.fail(false, message);
        }
        if sample.epoch != Some(epoch) {
            let message = format!(
                "request {} answered at epoch {:?}, expected {epoch}",
                sample.req.id, sample.epoch,
            );
            return tally.fail(true, message);
        }
        let text = sample.req.text();
        let want = self.count(&text);
        if sample.count != Some(want) {
            let message = format!(
                "request {} `{}`: count {:?}, expected {want}",
                sample.req.id, text, sample.count
            );
            tally.fail(true, message);
        }
    }
}

/// Failed and wrong operations of a run.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations that failed, were refused, timed out or were wrong.
    pub failed: u64,
    /// Of those, the ones that returned a wrong answer.
    pub wrong: u64,
    pub first: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, wrong: bool, message: String) {
        self.failed += 1;
        self.wrong += wrong as u64;
        self.first.get_or_insert(message);
    }

    /// Adds `other`'s failures to these.
    pub fn absorb(&mut self, other: &Tally) {
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first.is_none() {
            self.first = other.first.clone();
        }
    }
}

/// Small-tier self-test: every template and shape agrees with the
/// reference evaluator, and the lookup mix's admission ceiling admits
/// every lookup template.
pub fn self_test(seed: u64) -> Result<usize, String> {
    const PEOPLE: usize = 300;
    let graph = social_graph(PEOPLE, seed);
    let store = Store::from_graph(&graph);
    let engine = store.snapshot().engine();
    let pool = Pool::sequential();
    let mut cases: Vec<(String, &str)> = Vec::new();
    for family in Family::ALL {
        for person in [0, 7, PEOPLE / 2, PEOPLE - 1] {
            cases.push((family.text(person), LOOKUP_OPTS));
        }
    }
    for (_, p) in analytic_shapes() {
        cases.push((p.to_string(), ANALYTIC_OPTS));
    }
    for (text, workload_opts) in &cases {
        let pattern = parse_pattern(text).map_err(|e| format!("`{text}` does not parse: {e}"))?;
        let want = evaluate(&pattern, &graph);
        for opts in [ExecOpts::seq(), parse_opts(workload_opts)] {
            check_admission(&pattern, &opts)
                .map_err(|e| format!("`{text}` refused by the admission ceiling: {e}"))?;
            let got = engine
                .run(&pattern, &opts, &pool)
                .map_err(|e| format!("`{text}` failed: {e}"))?
                .mappings;
            if got != want {
                return Err(format!(
                    "`{text}`: columnar gives {} answers, reference {}",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(cases.len())
}
