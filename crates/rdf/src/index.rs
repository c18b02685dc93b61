//! Triple indexes over a graph.
//!
//! [`GraphIndex`] keeps a graph's triples sorted (for membership tests
//! and materialization) together with their id-encoded form: a
//! [`TermDict`] plus SPO/POS/OSP [`IdRuns`], in which every
//! triple-pattern shape is one binary-searched contiguous range. The
//! columnar evaluation engine scans only the id runs.
//!
//! Two additions serve the live-update store (`owql-store`):
//!
//! * [`TripleLookup`] abstracts the surface the evaluation engine needs
//!   (an [`IdView`], membership, size), so the engine runs unmodified
//!   over a plain index or a store snapshot;
//! * [`SnapshotIndex`] is a *delta-aware* lookup: an immutable
//!   `Arc`-shared base [`GraphIndex`] overlaid with a small index of
//!   added triples and a set of deleted ones. Scans merge base hits with
//!   the overlay, so a mutation costs `O(1)` index work instead of an
//!   `O(|G|)` rebuild, and many reader threads can hold snapshots while
//!   writers proceed.
//!
//! The reference evaluator deliberately does *not* use this module — it
//! scans the graph exactly as the paper's semantics is written — which is
//! what the `engine_ablation` benchmark measures.

use crate::dict::{IdRuns, IdView, TermDict};
use crate::graph::Graph;
use crate::term::Triple;
use std::collections::HashSet;
use std::sync::Arc;

/// The lookup surface the evaluation engine consumes.
///
/// Implementors must answer consistently: the [`IdView`] covers exactly
/// the triples `contains` accepts, `len` counts them, and `to_graph`
/// materializes them.
pub trait TripleLookup {
    /// The id-encoded scan surface: a term dictionary plus sorted id
    /// runs covering exactly the triples visible through this lookup.
    fn id_view(&self) -> IdView<'_>;

    /// Membership test for a fully ground triple.
    fn contains(&self, t: &Triple) -> bool;

    /// Number of triples visible through this lookup.
    fn len(&self) -> usize;

    /// `true` iff no triple is visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the visible triples as a [`Graph`].
    fn to_graph(&self) -> Graph;
}

/// A fully materialized index over a [`Graph`]: the sorted triples plus
/// their id runs, encoded with a dictionary that may be shared with
/// other indexes (the store shares one across base and delta).
///
/// Construction is `O(|G| log |G|)`.
#[derive(Clone, Debug)]
pub struct GraphIndex {
    all: Vec<Triple>,
    dict: Arc<TermDict>,
    runs: IdRuns,
}

impl GraphIndex {
    /// Builds the index for `graph`.
    pub fn build(graph: &Graph) -> Self {
        GraphIndex::from_triples(graph.iter().copied())
    }

    /// Builds the index from an iterator of (not necessarily distinct)
    /// triples, interning every term into a fresh private dictionary
    /// (ids = lexicographic ranks). Use
    /// [`GraphIndex::from_triples_with_dict`] to share a dictionary
    /// across indexes.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        GraphIndex::from_triples_with_dict(triples, Arc::new(TermDict::new()))
    }

    /// Builds the index from an iterator of triples, interning terms
    /// into `dict` (existing ids are reused; new terms are appended in
    /// lexicographic order).
    pub fn from_triples_with_dict(
        triples: impl IntoIterator<Item = Triple>,
        dict: Arc<TermDict>,
    ) -> Self {
        let mut all: Vec<Triple> = triples.into_iter().collect();
        all.sort_unstable();
        all.dedup();
        let runs = IdRuns::build(&all, &dict);
        GraphIndex { all, dict, runs }
    }

    /// An empty index whose future inserts intern into `dict`.
    pub fn empty(dict: Arc<TermDict>) -> Self {
        GraphIndex {
            all: Vec::new(),
            dict,
            runs: IdRuns::default(),
        }
    }

    /// The dictionary this index's id runs are encoded with.
    pub fn dict(&self) -> &Arc<TermDict> {
        &self.dict
    }

    /// Incrementally indexes one triple; returns `true` if it was new.
    ///
    /// Cost is `O(log n)` to find the slot plus the `O(n)` vector
    /// shifts — intended for the *small* delta-overlay indexes
    /// maintained by `owql-store`, where `n` is bounded by the
    /// compaction threshold, not for bulk loads (use
    /// [`GraphIndex::build`]).
    pub fn insert(&mut self, t: Triple) -> bool {
        match self.all.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.all.insert(pos, t);
                let d = &self.dict;
                self.runs
                    .insert([d.intern(t.s), d.intern(t.p), d.intern(t.o)]);
                true
            }
        }
    }

    /// Removes one triple; returns `true` if it was present. Same cost
    /// profile as [`GraphIndex::insert`].
    pub fn remove(&mut self, t: &Triple) -> bool {
        match self.all.binary_search(t) {
            Err(_) => false,
            Ok(pos) => {
                self.all.remove(pos);
                let row = self
                    .dict
                    .encode(t)
                    .expect("a present triple's terms are interned");
                self.runs.remove(row);
                true
            }
        }
    }

    /// Number of indexed triples.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// `true` iff the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// All triples, sorted.
    pub fn all(&self) -> &[Triple] {
        &self.all
    }

    /// Membership test for a fully ground triple: a binary search of
    /// the id-encoded SPO run (word compares, where the sorted triples
    /// would compare term strings).
    pub fn contains(&self, t: &Triple) -> bool {
        self.dict
            .encode(t)
            .is_some_and(|row| self.runs.contains(row))
    }
}

impl TripleLookup for GraphIndex {
    fn id_view(&self) -> IdView<'_> {
        IdView::plain(&self.dict, &self.runs)
    }

    fn contains(&self, t: &Triple) -> bool {
        GraphIndex::contains(self, t)
    }

    fn len(&self) -> usize {
        GraphIndex::len(self)
    }

    fn to_graph(&self) -> Graph {
        self.all.iter().copied().collect()
    }
}

/// A delta-aware lookup: an immutable `Arc`-shared base [`GraphIndex`]
/// plus a small overlay of `adds` (triples not in the base) and `dels`
/// (base triples deleted since the base was built).
///
/// A `SnapshotIndex` is immutable and cheap to clone (three `Arc`
/// clones), so a writer can keep mutating its store while any number of
/// reader threads evaluate against earlier snapshots. Scans merge base
/// hits (minus `dels`) with `adds` hits; both sides are id-run ranges,
/// so cost stays proportional to the number of matches.
///
/// Invariants: `base` and `adds` are encoded with the *same* dictionary
/// (checked by [`SnapshotIndex::new`], so the merged [`IdView`] always
/// exists), `adds ∩ base = ∅`, `dels ⊆ base`, and therefore
/// `adds ∩ dels = ∅` (maintained by `owql-store`, debug-asserted here).
#[derive(Clone, Debug)]
pub struct SnapshotIndex {
    base: Arc<GraphIndex>,
    adds: Arc<GraphIndex>,
    dels: Arc<HashSet<Triple>>,
}

impl SnapshotIndex {
    /// Wraps a base index and its overlay.
    ///
    /// # Panics
    ///
    /// If `base` and `adds` are encoded with different dictionaries:
    /// their ids would not be comparable.
    pub fn new(base: Arc<GraphIndex>, adds: Arc<GraphIndex>, dels: Arc<HashSet<Triple>>) -> Self {
        assert!(
            Arc::ptr_eq(&base.dict, &adds.dict),
            "base and adds must share one dictionary"
        );
        debug_assert!(
            adds.all().iter().all(|t| !base.contains(t)),
            "adds must be disjoint from the base"
        );
        debug_assert!(
            dels.iter().all(|t| base.contains(t)),
            "dels must be a subset of the base"
        );
        SnapshotIndex { base, adds, dels }
    }

    /// A snapshot of a plain graph with an empty overlay.
    pub fn from_graph(graph: &Graph) -> Self {
        let base = GraphIndex::build(graph);
        let adds = GraphIndex::empty(base.dict.clone());
        SnapshotIndex {
            base: Arc::new(base),
            adds: Arc::new(adds),
            dels: Arc::new(HashSet::new()),
        }
    }

    /// The shared base index.
    pub fn base(&self) -> &GraphIndex {
        &self.base
    }

    /// Number of overlay entries (`|adds| + |dels|`).
    pub fn delta_len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// Folds the overlay into a fresh base index on the same dictionary
    /// (the compaction step of `owql-store`): base triples minus `dels`,
    /// plus `adds`. Ids are append-only, so every surviving triple keeps
    /// the ids it already had.
    pub fn compacted(&self) -> GraphIndex {
        GraphIndex::from_triples_with_dict(self.visible(), self.base.dict.clone())
    }

    /// The visible triples: base minus `dels`, then `adds`.
    fn visible(&self) -> impl Iterator<Item = Triple> + '_ {
        self.base
            .all()
            .iter()
            .filter(|t| !self.dels.contains(t))
            .chain(self.adds.all())
            .copied()
    }
}

impl TripleLookup for SnapshotIndex {
    fn id_view(&self) -> IdView<'_> {
        IdView {
            dict: &self.base.dict,
            base: &self.base.runs,
            adds: (!self.adds.is_empty()).then_some(&self.adds.runs),
            dels: (!self.dels.is_empty()).then_some(&self.dels),
        }
    }

    fn contains(&self, t: &Triple) -> bool {
        (self.base.contains(t) && !self.dels.contains(t)) || self.adds.contains(t)
    }

    fn len(&self) -> usize {
        self.base.len() - self.dels.len() + self.adds.len()
    }

    fn to_graph(&self) -> Graph {
        self.visible().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::TermId;
    use crate::graph::graph_from;
    use crate::term::{triple, Iri};

    fn idx() -> GraphIndex {
        GraphIndex::build(&graph_from(&[
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("a", "q", "b"),
            ("d", "p", "b"),
        ]))
    }

    /// The id key of a term-level pattern; `None` if some constant was
    /// never interned (the pattern then matches nothing).
    type Key = [Option<TermId>; 3];
    fn key(view: &IdView<'_>, terms: [Option<&str>; 3]) -> Option<Key> {
        let mut key = [None; 3];
        for (slot, term) in key.iter_mut().zip(terms) {
            if let Some(term) = term {
                *slot = Some(view.dict.lookup(Iri::new(term))?);
            }
        }
        Some(key)
    }

    /// The triples a term-level pattern matches, scanned through the id
    /// view (base runs minus deletions, plus added runs) and decoded.
    fn scan(l: &impl TripleLookup, terms: [Option<&str>; 3]) -> Vec<Triple> {
        let view = l.id_view();
        let Some([s, p, o]) = key(&view, terms) else {
            return Vec::new();
        };
        let decode = |row: [TermId; 3]| {
            let [s, p, o] = row.map(|id| view.dict.resolve(id).expect("assigned id"));
            Triple { s, p, o }
        };
        let mut out = Vec::new();
        for runs in std::iter::once(view.base).chain(view.adds) {
            let (rows, order) = runs.scan(s, p, o);
            out.extend(
                rows.iter()
                    .map(|&r| decode(order.to_spo(r)))
                    .filter(|t| view.dels.is_none_or(|d| !d.contains(t))),
            );
        }
        out.sort();
        out
    }

    const PROBES: [Option<&str>; 5] = [None, Some("a"), Some("p"), Some("b"), Some("zz")];

    #[test]
    fn full_scan() {
        let i = idx();
        assert_eq!(i.len(), 4);
        assert_eq!(scan(&i, [None, None, None]), i.all());
    }

    #[test]
    fn single_position_lookups() {
        let i = idx();
        assert_eq!(scan(&i, [Some("a"), None, None]).len(), 3);
        assert_eq!(scan(&i, [None, Some("p"), None]).len(), 3);
        assert_eq!(scan(&i, [None, None, Some("b")]).len(), 3);
        assert_eq!(scan(&i, [Some("zz"), None, None]).len(), 0);
    }

    #[test]
    fn pair_lookups() {
        let i = idx();
        assert_eq!(scan(&i, [Some("a"), Some("p"), None]).len(), 2);
        assert_eq!(scan(&i, [None, Some("p"), Some("b")]).len(), 2);
        assert_eq!(scan(&i, [Some("a"), None, Some("b")]).len(), 2);
    }

    #[test]
    fn ground_lookup() {
        let i = idx();
        assert!(i.contains(&triple("a", "p", "b")));
        assert!(!i.contains(&triple("a", "p", "zz")));
        assert_eq!(
            scan(&i, [Some("a"), Some("p"), Some("b")]),
            vec![triple("a", "p", "b")]
        );
    }

    /// The planner's estimate (the run cardinality of the constant key)
    /// is exact on an index without deletions.
    #[test]
    fn cardinality_matches_matching_len() {
        let i = idx();
        let view = i.id_view();
        for s in PROBES {
            for p in PROBES {
                for o in PROBES {
                    let want = scan(&i, [s, p, o]).len();
                    let got = key(&view, [s, p, o])
                        .map_or(0, |[s, p, o]| view.cardinality_upper(s, p, o));
                    assert_eq!(got, want, "pattern ({s:?}, {p:?}, {o:?})");
                }
            }
        }
    }

    #[test]
    fn empty_graph_index() {
        let i = GraphIndex::build(&Graph::new());
        assert!(i.is_empty());
        assert!(scan(&i, [None, None, None]).is_empty());
        assert!(i.to_graph().is_empty());
    }

    /// Incremental insert/remove reaches exactly the state a fresh
    /// build would produce, across every access path.
    #[test]
    fn incremental_matches_rebuild() {
        let mut incremental = GraphIndex::empty(Arc::new(TermDict::new()));
        let mut graph = Graph::new();
        let steps = [
            ("a", "p", "b", true),
            ("a", "p", "c", true),
            ("d", "p", "b", true),
            ("a", "p", "b", false), // duplicate insert
        ];
        for (s, p, o, fresh) in steps {
            assert_eq!(incremental.insert(triple(s, p, o)), fresh);
            graph.insert(triple(s, p, o));
        }
        assert!(incremental.remove(&triple("a", "p", "c")));
        assert!(!incremental.remove(&triple("a", "p", "c")));
        assert!(!incremental.remove(&triple("zz", "zz", "zz")));
        graph.remove(&triple("a", "p", "c"));

        let rebuilt = GraphIndex::build(&graph);
        assert_eq!(incremental.all(), rebuilt.all());
        for s in PROBES {
            for p in PROBES {
                for o in PROBES {
                    assert_eq!(scan(&incremental, [s, p, o]), scan(&rebuilt, [s, p, o]));
                }
            }
        }
    }

    /// Removing a triple fully cleans its id runs (no stale rows linger
    /// to distort cardinalities).
    #[test]
    fn remove_cleans_all_paths() {
        let mut idx = GraphIndex::empty(Arc::new(TermDict::new()));
        idx.insert(triple("a", "p", "b"));
        idx.remove(&triple("a", "p", "b"));
        assert!(idx.is_empty());
        assert!(idx.id_view().base.is_empty());
        assert!(scan(&idx, [None, Some("p"), None]).is_empty());
    }

    mod snapshot_overlay {
        use super::*;

        /// A base plus an overlay on the base's dictionary.
        fn overlay(base: &Graph, adds: &[Triple], dels: &[Triple]) -> SnapshotIndex {
            let base = GraphIndex::build(base);
            let adds = GraphIndex::from_triples_with_dict(adds.iter().copied(), base.dict.clone());
            SnapshotIndex::new(
                Arc::new(base),
                Arc::new(adds),
                Arc::new(dels.iter().copied().collect()),
            )
        }

        /// An overlay with adds and dels answers every pattern exactly
        /// like a from-scratch index over the net graph.
        #[test]
        fn overlay_equals_net_graph() {
            let base = graph_from(&[("a", "p", "b"), ("a", "p", "c"), ("d", "q", "b")]);
            let adds = [triple("e", "p", "b"), triple("a", "q", "c")];
            let dels = [triple("a", "p", "c")];
            let snap = overlay(&base, &adds, &dels);

            let mut net = base.clone();
            for t in adds {
                net.insert(t);
            }
            for t in &dels {
                net.remove(t);
            }
            let fresh = GraphIndex::build(&net);

            assert_eq!(TripleLookup::len(&snap), fresh.len());
            assert_eq!(snap.to_graph(), net);
            let terms = [
                None,
                Some("a"),
                Some("p"),
                Some("q"),
                Some("b"),
                Some("c"),
                Some("e"),
            ];
            for s in terms {
                for p in terms {
                    for o in terms {
                        assert_eq!(
                            scan(&snap, [s, p, o]),
                            scan(&fresh, [s, p, o]),
                            "pattern ({s:?}, {p:?}, {o:?})"
                        );
                    }
                }
            }
            for t in net.iter() {
                assert!(TripleLookup::contains(&snap, t));
            }
            assert!(!TripleLookup::contains(&snap, &triple("a", "p", "c")));
        }

        /// Compaction folds the overlay into a fresh base equal to a
        /// from-scratch build, keeping the shared dictionary.
        #[test]
        fn compacted_folds_overlay() {
            let base = graph_from(&[("a", "p", "b"), ("x", "y", "z")]);
            let snap = overlay(&base, &[triple("n", "n", "n")], &[triple("x", "y", "z")]);
            let compacted = snap.compacted();
            assert_eq!(compacted.all(), GraphIndex::build(&snap.to_graph()).all());
            assert_eq!(compacted.len(), 2);
            assert!(Arc::ptr_eq(compacted.dict(), snap.base().dict()));
        }

        /// An empty overlay is transparent.
        #[test]
        fn empty_overlay_is_transparent() {
            let g = graph_from(&[("a", "p", "b")]);
            let snap = SnapshotIndex::from_graph(&g);
            assert_eq!(snap.delta_len(), 0);
            assert_eq!(TripleLookup::len(&snap), 1);
            assert_eq!(snap.to_graph(), g);
        }

        /// Indexes over different dictionaries cannot form a snapshot.
        #[test]
        #[should_panic(expected = "share one dictionary")]
        fn mixed_dictionaries_are_rejected() {
            SnapshotIndex::new(
                Arc::new(GraphIndex::from_triples([triple("a", "p", "b")])),
                Arc::new(GraphIndex::from_triples([triple("c", "p", "d")])),
                Arc::new(HashSet::new()),
            );
        }
    }
}
