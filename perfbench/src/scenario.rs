//! The two workloads. Each sets up its store several times (the
//! median is `setup_s`), serves it with `ServerConfig::default()`,
//! drives `POST /v1/query` over TCP, checks every answer, and reports
//! end-to-end metrics, or with `--trace 1` replays the same requests
//! in process and reports per-layer metrics.

use crate::drive::{median, ms, quantile, run_phase, Mode, Phase, Sample, Source};
use crate::trace::{profile_shapes, Recorder, Replay, ShapeProfile};
use crate::verify::{Expected, Tally};
use crate::workload::{
    analytic_shapes, social_graph, Anchors, Ask, Family, LookupStream, Request, PEOPLE, SHAPES,
};
use crate::{Args, Report};
use owql_algebra::pattern::Pattern;
use owql_exec::Pool;
use owql_rdf::{Graph, Iri, Triple, TripleLookup};
use owql_server::{Server, ServerConfig};
use owql_store::{PersistConfig, Snapshot, Store, StoreOptions, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Every workload runs in this many segments: its reads, then a round
/// of commits. Spread over the run, the rounds see the machine at
/// several times, and every workload's reads see the store change.
const SEGMENTS: usize = 4;
/// Back-to-back commits of each segment's round. `commit_p99_ms` is
/// the median of the rounds' p99s, so one stall of the machine moves
/// one round, not the metric.
const ROUND_COMMITS: usize = 2500;
/// Each commit inserts this many new `follows` edges and deletes one
/// base edge.
const INSERTS_PER_COMMIT: usize = 3;
/// Offered rate of the lookup mix's open-loop phases (two connections).
const LOOKUP_OPEN_RATE: f64 = 1500.0;
/// The lookup mix's unmeasured closed-loop warm-up, at most a tenth of
/// the run.
const WARM_UP_S: f64 = 0.5;
/// Windows per open-loop phase for `p99_ms`.
const WINDOWS_PER_PHASE: u32 = 3;
/// `--seconds` per analytic round: at `--seconds 24`, 3 rounds per
/// segment. The number of
/// rounds is fixed by `--seconds`, not by the machine's speed, so every
/// run does the same work.
const ANALYTIC_ROUND_S: f64 = 2.0;
/// `ns_optional` requests per round of the analytic workload.
const NS_OPTIONAL_REPEATS: usize = 8;
/// The shape whose client latency is a per-layer metric, not an
/// end-to-end one: over three sets of 5 seeds on the 2-vCPU machine
/// this was built on, the spread of `analytic`'s `opt_optional`
/// latency was 0.26–0.40, above any bound an end-to-end metric may
/// have.
const PER_LAYER_SHAPE: &str = "opt_optional";
/// Fsync'd commits of the persistence probe in traced runs.
const PROBE_COMMITS: usize = 200;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0)
}

/// Peak resident memory so far (VmHWM), in MB. Read when serving ends,
/// before the answer checks and the commit burst allocate, so it covers
/// set-up and serving.
fn peak_rss_mb() -> f64 {
    status_bytes("VmHWM:") / (1024.0 * 1024.0)
}

/// The store a workload serves.
struct Served {
    graph: Graph,
    store: Arc<Store>,
    setup_s: f64,
}

/// Generation plus `Store::from_graph`, `SETUP_REPS` times.
fn setup(seed: u64, reps: usize) -> Served {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let started = Instant::now();
        let graph = social_graph(PEOPLE, seed);
        let store = Store::from_graph(&graph);
        times.push(started.elapsed().as_secs_f64());
        kept = Some((graph, store));
    }
    let (graph, store) = kept.expect("at least one set-up");
    println!(
        "setup: {reps} x generate + Store::from_graph, {} triples",
        graph.len()
    );
    Served {
        graph,
        store: Arc::new(store),
        setup_s: median(&mut times),
    }
}

/// The rdf-layer probe: a fresh `Store::from_graph` of `graph`, its
/// build time, and the resident memory it added per triple. Run before
/// anything else large is allocated, so the memory reading is clean.
struct IndexProbe {
    store: Store,
    build_s: f64,
    bytes_per_triple: f64,
}

fn index_probe(graph: &Graph) -> IndexProbe {
    let before = status_bytes("VmRSS:");
    let started = Instant::now();
    let store = Store::from_graph(graph);
    let build_s = started.elapsed().as_secs_f64();
    let bytes_per_triple = (status_bytes("VmRSS:") - before) / graph.len() as f64;
    IndexProbe {
        store,
        build_s,
        bytes_per_triple,
    }
}

/// Seeded write batches: new `follows` edges and deletes of base ones.
struct Churn {
    rng: StdRng,
    base_follows: Vec<Triple>,
}

impl Churn {
    fn new(graph: &Graph, seed: u64) -> Churn {
        let follows = Iri::new("follows");
        Churn {
            rng: StdRng::seed_from_u64(seed ^ 0xC0_44_17),
            base_follows: graph.iter().filter(|t| t.p == follows).copied().collect(),
        }
    }

    /// `n` batches, each inserting `INSERTS_PER_COMMIT` `follows` edges
    /// absent from `store` and deleting one base edge present in it, no
    /// triple twice, so every op changes the store. `store` must hold
    /// the base graph's `follows` edges.
    fn forward(&mut self, store: &Store, n: usize) -> Vec<Batch> {
        let snapshot = store.snapshot();
        let mut touched = HashSet::new();
        let mut batches = Vec::with_capacity(n);
        for _ in 0..n {
            let mut ops = Vec::with_capacity(INSERTS_PER_COMMIT + 1);
            while ops.len() < INSERTS_PER_COMMIT {
                let a = format!("person{}", self.rng.gen_range(0..PEOPLE));
                let b = format!("person{}", self.rng.gen_range(0..PEOPLE));
                let t = Triple::new(a.as_str(), "follows", b.as_str());
                if !snapshot.index().contains(&t) && touched.insert(t) {
                    ops.push((t, true));
                }
            }
            loop {
                let victim = self.base_follows[self.rng.gen_range(0..self.base_follows.len())];
                if touched.insert(victim) {
                    ops.push((victim, false));
                    break;
                }
            }
            batches.push(ops);
        }
        batches
    }
}

/// A commit's ops: a triple and whether to insert (else delete) it.
type Batch = Vec<(Triple, bool)>;

/// The inverse of `batches`: each batch inverted, in reverse order.
/// After `batches` and their inverse the store holds what it held
/// before.
fn inverse(batches: &[Batch]) -> Vec<Batch> {
    batches
        .iter()
        .rev()
        .map(|ops| ops.iter().map(|&(t, insert)| (t, !insert)).collect())
        .collect()
}

/// One round of commits: `ROUND_COMMITS / 2` forward batches, then
/// their inverse, so the delta grows and shrinks back to empty and the
/// reads of every segment see the same triples.
fn round(churn: &mut Churn, store: &Store) -> Vec<Batch> {
    let mut batches = churn.forward(store, ROUND_COMMITS / 2);
    let undo = inverse(&batches);
    batches.extend(undo);
    batches
}

fn transaction(ops: &[(Triple, bool)]) -> Transaction {
    let mut tx = Transaction::new();
    for &(t, insert) in ops {
        if insert {
            tx.insert(t);
        } else {
            tx.delete(t);
        }
    }
    tx
}

/// What a writer saw.
#[derive(Default)]
struct Commits {
    latencies_ms: Vec<f64>,
    /// Every triple an acknowledged commit inserted or deleted.
    touched: HashSet<Triple>,
    tally: Tally,
    /// WAL bytes appended, and the bytes of the triples committed.
    wal_bytes: u64,
    user_bytes: u64,
}

impl Commits {
    fn commit(&mut self, store: &Store, ops: &[(Triple, bool)]) {
        let wal_before = store.persist_metrics().map_or(0, |p| p.wal_bytes);
        let tx = transaction(ops);
        let started = Instant::now();
        let result = store.try_commit(tx);
        self.latencies_ms.push(ms(started.elapsed()));
        match result {
            Ok(_) => {
                let wal_after = store.persist_metrics().map_or(0, |p| p.wal_bytes);
                self.wal_bytes += wal_after.saturating_sub(wal_before);
                self.user_bytes += ops
                    .iter()
                    .map(|(t, _)| {
                        t.components()
                            .iter()
                            .map(|c| c.as_str().len() as u64)
                            .sum::<u64>()
                    })
                    .sum::<u64>();
                self.touched.extend(ops.iter().map(|&(t, _)| t));
            }
            Err(e) => self.tally.fail(false, format!("commit failed: {e}")),
        }
    }
}

/// `n` back-to-back commits.
fn commit_burst(store: &Store, graph: &Graph, seed: u64, n: usize) -> Commits {
    let mut commits = Commits::default();
    for ops in Churn::new(graph, seed).forward(store, n) {
        commits.commit(store, &ops);
    }
    commits
}

/// Median latency over all commits, and the median over the rounds of
/// each round's p99.
fn commit_quantiles(commits: &Commits) -> (f64, f64) {
    let mut all = commits.latencies_ms.clone();
    let mut p99s: Vec<f64> = commits
        .latencies_ms
        .chunks(ROUND_COMMITS)
        .map(|round| quantile(&mut round.to_vec(), 0.99))
        .collect();
    (median(&mut all), median(&mut p99s))
}

fn lookup_sources(anchors: &Arc<Anchors>, seed: u64, streams: std::ops::Range<u64>) -> Vec<Source> {
    streams
        .map(|stream| {
            let mut gen = LookupStream::new(anchors.clone(), seed, stream);
            Box::new(move || gen.next_request()) as Source
        })
        .collect()
}

/// A source cycling through `requests`, with fresh ids per send.
fn cycle(requests: Vec<Request>, stream: u64) -> Source {
    let mut next = 0u64;
    Box::new(move || {
        let mut req = requests[next as usize % requests.len()];
        req.id = stream << 32 | next;
        next += 1;
        req
    })
}

/// The workload's shapes for the columnar profile: the five analytic
/// shapes (anchored on the hottest person unless `unanchored`) plus
/// `anchored_opt`.
fn profile_set(anchors: &Anchors, unanchored: bool) -> Vec<(&'static str, Pattern)> {
    let hot = anchors.person(0);
    let anchored = |f: Family| owql_parser::parse_pattern(&f.text(hot)).expect("template parses");
    let mut shapes = if unanchored {
        analytic_shapes()
    } else {
        Family::ALL
            .into_iter()
            .filter_map(|f| f.shape().map(|name| (name, anchored(f))))
            .collect()
    };
    shapes.push(("anchored_opt", anchored(Family::OptOptional)));
    shapes
}

/// Persistence-layer figures of a traced run.
struct PersistLayer {
    segment_write_s: f64,
    recover_s: f64,
    wal_bytes_per_user_byte: f64,
    checkpoint_s: f64,
    checkpoints: f64,
}

/// The persistence probe of the traced runs: `write_segment` of the
/// served graph, `Store::open` under `PersistConfig::default()`,
/// `PROBE_COMMITS` fsync'd commits, then a reopen that must show every
/// acknowledged commit, and a timed `Store::checkpoint`. A lost or
/// resurrected write is tallied as a wrong answer.
fn persist_probe(graph: &Graph, seed: u64, dir: &Path, tally: &mut Tally) -> PersistLayer {
    std::fs::create_dir_all(dir).expect("probe directory");
    let triples: Vec<Triple> = graph.iter().copied().collect();
    let started = Instant::now();
    owql_persist::write_segment(dir, 1, 0, &triples).expect("segment written");
    let segment_write_s = started.elapsed().as_secs_f64();
    drop(triples);
    let open = || {
        Store::open(dir, StoreOptions::default(), PersistConfig::default()).expect("store recovers")
    };
    let store = open();
    let commits = commit_burst(&store, graph, seed, PROBE_COMMITS);
    tally.absorb(&commits.tally);
    let visible = |store: &Store| {
        let snapshot = store.snapshot();
        let present: HashSet<Triple> = commits
            .touched
            .iter()
            .filter(|t| snapshot.index().contains(t))
            .copied()
            .collect();
        (snapshot.epoch(), present)
    };
    let acknowledged = visible(&store);
    drop(store);

    let started = Instant::now();
    let store = open();
    let recover_s = started.elapsed().as_secs_f64();
    let recovered = visible(&store);
    if recovered != acknowledged {
        tally.fail(
            true,
            format!(
                "reopened store at epoch {} differs from the acknowledged epoch {} \
                 ({} of {} written triples present, expected {})",
                recovered.0,
                acknowledged.0,
                recovered.1.len(),
                commits.touched.len(),
                acknowledged.1.len()
            ),
        );
    }
    let started = Instant::now();
    store.checkpoint().expect("checkpoint written");
    let checkpoint_s = started.elapsed().as_secs_f64();
    let checkpoints = store.persist_metrics().map_or(0, |p| p.checkpoints) as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    println!(
        "persistence probe: {} fsync'd commits acknowledged up to epoch {}; reopened at epoch {}",
        commits.latencies_ms.len(),
        acknowledged.0,
        recovered.0
    );
    PersistLayer {
        segment_write_s,
        recover_s,
        wal_bytes_per_user_byte: commits.wal_bytes as f64 / commits.user_bytes.max(1) as f64,
        checkpoint_s,
        checkpoints,
    }
}

fn latencies(samples: &[&Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.served())
        .map(|s| ms(s.latency))
        .collect()
}

/// One segment of a run: read phases, each with a label, all served at
/// `epoch`, then a round of commits.
struct Segment {
    epoch: u64,
    phases: Vec<(&'static str, Phase)>,
}

/// A workload's segments and the commits between them.
struct Segments {
    store: Arc<Store>,
    /// The store before the first round. Every round leaves the store
    /// with these triples again, which `run` checks.
    base: Snapshot,
    churn: Churn,
    commits: Commits,
    /// The delta's size half way through a round, where it peaks.
    peak_delta: usize,
    list: Vec<Segment>,
}

impl Segments {
    fn new(served: &Served, seed: u64) -> Segments {
        Segments {
            store: served.store.clone(),
            base: served.store.snapshot(),
            churn: Churn::new(&served.graph, seed),
            commits: Commits::default(),
            peak_delta: 0,
            list: Vec::new(),
        }
    }

    /// Runs `reads`, then a round of back-to-back commits.
    fn run(&mut self, reads: impl FnOnce() -> Vec<(&'static str, Phase)>) {
        let epoch = self.store.snapshot().epoch();
        let phases = reads();
        let batches = round(&mut self.churn, &self.store);
        for (i, ops) in batches.iter().enumerate() {
            self.commits.commit(&self.store, ops);
            if i + 1 == batches.len() / 2 {
                self.peak_delta = self.peak_delta.max(self.store.metrics().delta_len);
            }
        }
        // An empty delta and no compaction: the store holds the base's
        // triples, so one set of expected counts serves every segment.
        let metrics = self.store.metrics();
        if metrics.delta_len != 0 || metrics.compactions != 0 {
            let message = format!(
                "a commit round left {} delta triples and {} compactions",
                metrics.delta_len, metrics.compactions
            );
            self.commits.tally.fail(true, message);
        }
        self.list.push(Segment { epoch, phases });
    }

    /// Every phase with one of `labels`, in run order.
    fn phases(&self, labels: &[&str]) -> Vec<&Phase> {
        self.list
            .iter()
            .flat_map(|s| &s.phases)
            .filter(|(label, _)| labels.contains(label))
            .map(|(_, p)| p)
            .collect()
    }
}

/// How `p99_ms` is read from the samples of the tail phases.
#[derive(Clone, Copy)]
enum P99 {
    /// The p99 of the phases' quietest window of this length. On the
    /// 2-vCPU machine this was built on, stalls from other tenants hit
    /// some one-second windows and not others; the quietest window
    /// reads the program's own tail, where the anchored OPT, 5% of the
    /// requests at about 2 ms, sets the p99.
    QuietestWindow(Duration),
    /// The median over the phases of each phase's p99.
    MedianOfPhases,
}

/// The twelve end-to-end metrics, in the order `BENCHMARK.json` lists
/// them.
struct EndToEnd<'a> {
    setup_s: f64,
    rss_mb: f64,
    requests: u64,
    /// Failed, refused, timed-out and wrong requests.
    tally: &'a Tally,
    /// The phases behind `p50_ms` and `p99_ms`.
    tail: Vec<&'a Phase>,
    p99: P99,
    /// The samples behind the per-shape medians.
    shaped: Vec<&'a Sample>,
    capacity_rps: f64,
    commits: &'a Commits,
}

fn end_to_end(report: &mut Report, e: EndToEnd) {
    let tail: Vec<&Sample> = e.tail.iter().flat_map(|p| &p.samples).collect();
    let mut all = latencies(&tail);
    let mut p99s: Vec<f64> = e
        .tail
        .iter()
        .flat_map(|p| match e.p99 {
            P99::QuietestWindow(window) => p.window_p99s(window),
            P99::MedianOfPhases => p.window_p99s(p.elapsed),
        })
        .collect();
    report.add("setup_s", e.setup_s, "s");
    report.add("rss_mb", e.rss_mb, "MB");
    let error_rate = e.tally.failed as f64 / e.requests.max(1) as f64;
    report.add("ok_pct", 100.0 * (1.0 - error_rate), "%");
    println!(
        "requests {}, of them failed {} ({} wrong); commits {}, of them failed {}",
        e.requests,
        e.tally.failed,
        e.tally.wrong,
        e.commits.latencies_ms.len(),
        e.commits.tally.failed,
    );
    println!(
        "p50 over {} samples; p99 of them all {:.4} ms; p99 of each of {} windows: {}",
        all.len(),
        quantile(&mut all, 0.99),
        p99s.len(),
        p99s.iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.add("p50_ms", median(&mut all), "ms");
    let p99 = match e.p99 {
        P99::QuietestWindow(_) => quantile(&mut p99s, 0.0),
        P99::MedianOfPhases => median(&mut p99s),
    };
    report.add("p99_ms", p99, "ms");
    report.add("capacity_rps", e.capacity_rps, "1/s");
    for shape in SHAPES.into_iter().filter(|&s| s != PER_LAYER_SHAPE) {
        let of_shape: Vec<&Sample> = e
            .shaped
            .iter()
            .copied()
            .filter(|s| s.req.shape() == Some(shape))
            .collect();
        let mut values = latencies(&of_shape);
        println!("{shape}_ms over {} samples", values.len());
        report.add(format!("{shape}_ms"), median(&mut values), "ms");
    }
    // Where each round's delta is smallest and where it peaks.
    let tenth = ROUND_COMMITS / 20;
    let at = |from: usize| -> f64 {
        let mut v: Vec<f64> = e
            .commits
            .latencies_ms
            .chunks(ROUND_COMMITS)
            .flat_map(|round| round[from..from + tenth].iter().copied())
            .collect();
        median(&mut v)
    };
    println!(
        "commit p50 {:.4} ms over each round's first {tenth} commits (small delta), {:.4} ms over \
         the {tenth} before its peak",
        at(0),
        at(ROUND_COMMITS / 2 - tenth)
    );
    let (p50, p99) = commit_quantiles(e.commits);
    report.add("commit_p50_ms", p50, "ms");
    report.add("commit_p99_ms", p99, "ms");
}

/// Everything the per-layer report draws on.
struct Layers<'a> {
    /// Median client latency of the `PER_LAYER_SHAPE` requests.
    shape_ms: f64,
    /// The p50 and p99 of the requests of the `open` phases.
    open_p50_ms: f64,
    open_p99_ms: f64,
    replay: &'a Replay,
    cache_hit_ratio: f64,
    compactions: u64,
    delta_triples: u64,
    profiles: &'a [ShapeProfile],
    index_build_s: f64,
    index_bytes_per_triple: f64,
    persist: PersistLayer,
    phases: &'a [&'a Phase],
}

fn per_layer(report: &mut Report, l: Layers) {
    let r = l.replay;
    report.add(format!("e2e.{PER_LAYER_SHAPE}_ms"), l.shape_ms, "ms");
    report.add("e2e.open_p50_ms", l.open_p50_ms, "ms");
    report.add("e2e.open_p99_ms", l.open_p99_ms, "ms");
    report.add("server.http.parse_us", r.mean_us(r.http_parse), "us");
    report.add("server.json.decode_us", r.mean_us(r.json_decode), "us");
    let mut residues = r.residues_ms.clone();
    println!("residue over {} requests", residues.len());
    report.add("server.unattributed_ms", median(&mut residues), "ms");
    report.add("parser.parse_us", r.mean_us(r.parse), "us");
    report.add("lint.classify_us", r.mean_us(r.lint), "us");
    report.add("eval.optimize_us", r.mean_us(r.optimize), "us");
    report.add(
        "eval.prunes",
        r.prunes as f64 / r.requests.max(1) as f64,
        "count/req",
    );
    report.add("store.query_us", r.mean_us(r.store_self), "us");
    report.add("store.cache.hit_ratio", l.cache_hit_ratio, "ratio");
    report.add("store.compactions", l.compactions as f64, "count");
    report.add("store.delta_triples", l.delta_triples as f64, "count");
    let mut overheads = Vec::new();
    for p in l.profiles {
        report.add(format!("eval.run_ms.{}.w1", p.name), p.w1_ms, "ms");
        report.add(format!("eval.run_ms.{}.w2", p.name), p.w2_ms, "ms");
        report.add(
            format!("eval.answers.{}", p.name),
            p.answers as f64,
            "count",
        );
        report.add(
            format!("eval.scan_rows_per_answer.{}", p.name),
            p.scan_rows as f64 / p.answers.max(1) as f64,
            "ratio",
        );
        report.add(
            format!("exec.w2_over_w1.{}", p.name),
            p.w2_ms / p.w1_ms,
            "ratio",
        );
        overheads.push((p.w1_ms, p.traced_ms / p.w1_ms));
    }
    report.add("rdf.index_build_s", l.index_build_s, "s");
    report.add("rdf.index_bytes_per_triple", l.index_bytes_per_triple, "B");
    report.add("persist.segment_write_s", l.persist.segment_write_s, "s");
    report.add("persist.recover_s", l.persist.recover_s, "s");
    report.add(
        "persist.wal_bytes_per_user_byte",
        l.persist.wal_bytes_per_user_byte,
        "ratio",
    );
    report.add("persist.checkpoint_s", l.persist.checkpoint_s, "s");
    report.add("persist.checkpoints", l.persist.checkpoints, "count");
    // As the repository's own trace gate: shapes under 1 ms are
    // dominated by the recorder's fixed cost, and count only when no
    // shape takes longer.
    let mut ratios: Vec<f64> = overheads
        .iter()
        .filter(|&&(w1, _)| w1 >= 1.0)
        .map(|&(_, r)| r)
        .collect();
    if ratios.is_empty() {
        ratios = overheads.iter().map(|&(_, r)| r).collect();
    }
    report.add("obs.trace_overhead", median(&mut ratios), "ratio");
    let mut late: Vec<f64> = l
        .phases
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| ms(s.late)))
        .collect();
    report.add("loadgen.lateness_p99_ms", quantile(&mut late, 0.99), "ms");
    report.add("loadgen.sent", late.len() as f64, "count");
}

fn write_spans(rec: &Recorder, args: &Args) {
    let path = args.out.join(format!("spans-{}.jsonl", args.workload));
    match rec.write(&path) {
        Ok(()) => println!("spans and per-request reconciliation: {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

fn cache_hit_ratio(store: &Store) -> f64 {
    let stats = store.cache_stats();
    stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
}

/// Replays every served request in process on `store`, layer by layer:
/// each segment's requests in send order, then the segment's commits
/// (untimed, from the same seeded batches), so `store` is at the served
/// epoch throughout. A replayed count that differs from the served one
/// is a wrong answer.
fn replay_all(rec: &mut Recorder, store: &Store, run: &Run, tally: &mut Tally) -> Replay {
    let pool = Pool::sequential();
    let mut churn = Churn::new(&run.served.graph, run.args.seed);
    let mut replay = Replay::default();
    for segment in &run.segments.list {
        let mut order: Vec<&Sample> = segment
            .phases
            .iter()
            .flat_map(|(_, p)| &p.samples)
            .filter(|s| s.served())
            .collect();
        order.sort_by_key(|s| s.sent);
        for s in order {
            let count = replay.request(rec, store, &pool, s);
            if Some(count) != s.count {
                tally.fail(
                    true,
                    format!("request {} replays to {count} answers", s.req.id),
                );
            }
        }
        for ops in round(&mut churn, store) {
            if let Err(e) = store.try_commit(transaction(&ops)) {
                tally.fail(false, format!("replay commit failed: {e}"));
            }
        }
    }
    replay
}

/// A workload's run, ready for the answer checks and the report.
struct Run<'a> {
    args: &'a Args,
    served: Served,
    /// Peak resident memory (VmHWM) when serving ended, in MB.
    rss_mb: f64,
    anchors: &'a Anchors,
    probe: Option<IndexProbe>,
    segments: Segments,
    /// Phase labels: `tail` are behind `p50_ms`/`p99_ms`, with p99
    /// read as `p99` says; `shaped` behind the shape medians;
    /// `capacity` behind `capacity_rps`; `open` behind the per-layer
    /// `e2e.open_*` figures.
    tail: &'static [&'static str],
    p99: P99,
    shaped: &'static [&'static str],
    capacity: &'static [&'static str],
    open: &'static [&'static str],
    unanchored: bool,
}

fn finish(run: Run) -> Report {
    let store = &run.served.store;
    let cache_hit_ratio = cache_hit_ratio(store);
    let metrics = store.metrics();
    let commits = &run.segments.commits;
    let all: Vec<&Phase> = run
        .segments
        .list
        .iter()
        .flat_map(|s| s.phases.iter().map(|(_, p)| p))
        .collect();
    let requests: usize = all.iter().map(|p| p.samples.len()).sum();
    for (label, phase) in run.segments.list.iter().flat_map(|s| &s.phases) {
        println!(
            "segment phase {label}: {} sent in {:.3} s",
            phase.samples.len(),
            phase.elapsed.as_secs_f64()
        );
    }

    // Failed requests, and apart from them failed commits and probes.
    let mut tally = Tally::default();
    let mut other = Tally::default();
    other.absorb(&commits.tally);
    let mut rec = Recorder::new();
    let base = &run.segments.base;
    let mut expected = Expected::new(base.clone());
    let shapes = run
        .probe
        .as_ref()
        .map(|_| profile_set(run.anchors, run.unanchored));
    let profiles = shapes.as_ref().map(|shapes| {
        let profiles = profile_shapes(&mut rec, base, shapes);
        for ((_, pattern), p) in shapes.iter().zip(&profiles) {
            expected.record(&pattern.to_string(), p.answers);
        }
        profiles
    });
    for segment in &run.segments.list {
        for (_, phase) in &segment.phases {
            for s in &phase.samples {
                expected.check(s, segment.epoch, &mut tally);
            }
        }
    }

    let mut report = Report {
        attempted: (requests + commits.latencies_ms.len()) as u64,
        ..Report::default()
    };
    let shaped: Vec<&Sample> = run
        .segments
        .phases(run.shaped)
        .into_iter()
        .flat_map(|p| &p.samples)
        .collect();
    match (&run.probe, profiles) {
        (Some(probe), Some(profiles)) => {
            let of_shape: Vec<&Sample> = shaped
                .iter()
                .copied()
                .filter(|s| s.req.shape() == Some(PER_LAYER_SHAPE))
                .collect();
            let mut open = latencies(
                &run.segments
                    .phases(run.open)
                    .into_iter()
                    .flat_map(|p| &p.samples)
                    .collect::<Vec<_>>(),
            );
            let replay = replay_all(&mut rec, &probe.store, &run, &mut tally);
            let dir = run.args.out.join(format!("probe-{}", std::process::id()));
            let persist = persist_probe(&run.served.graph, run.args.seed, &dir, &mut other);
            report.attempted += PROBE_COMMITS as u64;
            write_spans(&rec, run.args);
            per_layer(
                &mut report,
                Layers {
                    shape_ms: median(&mut latencies(&of_shape)),
                    open_p50_ms: median(&mut open),
                    open_p99_ms: quantile(&mut open, 0.99),
                    replay: &replay,
                    cache_hit_ratio,
                    compactions: metrics.compactions,
                    delta_triples: run.segments.peak_delta as u64,
                    profiles: &profiles,
                    index_build_s: probe.build_s,
                    index_bytes_per_triple: probe.bytes_per_triple,
                    persist,
                    phases: &all,
                },
            );
        }
        _ => {
            let capacity = run.segments.phases(run.capacity);
            let served: usize = capacity.iter().map(|p| p.served()).sum();
            let busy: f64 = capacity.iter().map(|p| p.elapsed.as_secs_f64()).sum();
            end_to_end(
                &mut report,
                EndToEnd {
                    setup_s: run.served.setup_s,
                    rss_mb: run.rss_mb,
                    requests: requests as u64,
                    tally: &tally,
                    tail: run.segments.phases(run.tail),
                    p99: run.p99,
                    shaped,
                    capacity_rps: served as f64 / busy,
                    commits,
                },
            );
        }
    }
    other.absorb(&tally);
    if let Some(first) = &other.first {
        println!("first failure: {first}");
    }
    // Any failure, not only a wrong answer, makes the run invalid: the
    // workloads are chosen so that no operation fails.
    report.failed = other.failed;
    report.correct = other.failed == 0;
    report
}

/// `lookup_mix`: two keep-alive connections of anchored lookups. After
/// a short warm-up, each segment runs an open loop at a fixed rate and
/// then a closed loop, each on fresh client threads and connections.
/// The end-to-end latencies come from the closed loops: at the open
/// loop's rate the server idles, every request pays for waking
/// threads, and on a shared machine that cost did not repeat.
pub fn lookup_mix(args: &Args) -> Report {
    let probe = args
        .trace
        .then(|| index_probe(&social_graph(PEOPLE, args.seed)));
    // A traced run does not report `setup_s`: one set-up is enough.
    let served = setup(args.seed, if args.trace { 1 } else { SETUP_REPS });
    let anchors = Arc::new(Anchors::new(PEOPLE, args.seed));
    let server =
        Server::start(served.store.clone(), ServerConfig::default()).expect("server starts");
    let addr = server.addr();
    let warm_up = WARM_UP_S.min(args.seconds / 10.0);
    let phase = secs((args.seconds - warm_up) / (2 * SEGMENTS) as f64);
    let mut segments = Segments::new(&served, args.seed);
    for k in 0..SEGMENTS as u64 {
        segments.run(|| {
            let mut phases = Vec::new();
            let streams = 4 * k + 2;
            if k == 0 {
                let sources = lookup_sources(&anchors, args.seed, 0..2);
                let warm = run_phase(addr, sources, Mode::Closed { round: 1 }, secs(warm_up));
                phases.push(("warm-up", warm));
            }
            let open = Mode::Open {
                rate: LOOKUP_OPEN_RATE,
                seed: args.seed ^ k << 48,
            };
            let sources = lookup_sources(&anchors, args.seed, streams..streams + 2);
            phases.push(("open", run_phase(addr, sources, open, phase)));
            let sources = lookup_sources(&anchors, args.seed, streams + 2..streams + 4);
            let closed = run_phase(addr, sources, Mode::Closed { round: 1 }, phase);
            phases.push(("closed", closed));
            phases
        });
    }
    server.shutdown();
    let rss_mb = peak_rss_mb();
    println!(
        "{SEGMENTS} segments: open loop at {LOOKUP_OPEN_RATE}/s, then closed loop, {:.3} s each \
         over 2 connections, then {ROUND_COMMITS} commits",
        phase.as_secs_f64()
    );
    finish(Run {
        args,
        served,
        rss_mb,
        anchors: &anchors,
        probe,
        segments,
        tail: &["closed"],
        p99: P99::QuietestWindow(phase / WINDOWS_PER_PHASE),
        shaped: &["closed"],
        capacity: &["closed"],
        open: &["open"],
        unanchored: false,
    })
}

/// `analytic`: one connection, closed loop, cache off. After one
/// unmeasured round, each segment runs rounds of the four faster
/// shapes; the last then sends one `opt_optional`.
pub fn analytic(args: &Args) -> Report {
    let probe = args
        .trace
        .then(|| index_probe(&social_graph(PEOPLE, args.seed)));
    // A traced run does not report `setup_s`: one set-up is enough.
    let served = setup(args.seed, if args.trace { 1 } else { SETUP_REPS });
    let anchors = Anchors::new(PEOPLE, args.seed);
    let request = |i: usize| Request {
        id: 0,
        ask: Ask::Analytic(i),
    };
    // One round: each of the three large shapes once, then the cheap
    // `ns_optional` `NS_OPTIONAL_REPEATS` times, so its median rests on
    // as many samples as the others' together.
    let mut round = vec![request(0), request(1), request(2)];
    round.extend(std::iter::repeat_n(request(3), NS_OPTIONAL_REPEATS));
    let server =
        Server::start(served.store.clone(), ServerConfig::default()).expect("server starts");
    let addr = server.addr();
    let per_segment = ((args.seconds / ANALYTIC_ROUND_S / SEGMENTS as f64).round() as usize).max(1);
    let one_round = Mode::Closed { round: round.len() };
    let rounds = Mode::Closed {
        round: round.len() * per_segment,
    };
    let mut segments = Segments::new(&served, args.seed);
    for k in 0..SEGMENTS as u64 {
        segments.run(|| {
            let mut phases = Vec::new();
            if k == 0 {
                // One round, unmeasured, so that no measured request
                // pays for first-touch allocations.
                let source = cycle(round.clone(), 2 * SEGMENTS as u64);
                phases.push((
                    "warm-up",
                    run_phase(addr, vec![source], one_round, Duration::ZERO),
                ));
            }
            let source = cycle(round.clone(), 2 * k);
            let fast = run_phase(addr, vec![source], rounds, Duration::ZERO);
            phases.push(("fast", fast));
            if k + 1 == SEGMENTS as u64 {
                let source = cycle(vec![request(4)], 2 * k + 1);
                let one = Mode::Closed { round: 1 };
                phases.push((
                    "opt_optional",
                    run_phase(addr, vec![source], one, Duration::ZERO),
                ));
            }
            phases
        });
    }
    server.shutdown();
    let rss_mb = peak_rss_mb();
    println!(
        "{SEGMENTS} segments, one connection: {per_segment} rounds of the four faster shapes, \
         one opt_optional in the last, then {ROUND_COMMITS} commits"
    );
    finish(Run {
        args,
        served,
        rss_mb,
        anchors: &anchors,
        probe,
        segments,
        // Too few requests for windows: each segment's p99 is over its
        // whole phase.
        tail: &["fast"],
        p99: P99::MedianOfPhases,
        shaped: &["fast", "opt_optional"],
        // The one slow `opt_optional` request would swamp this.
        capacity: &["fast"],
        // No open loop: the same requests as `p50_ms`/`p99_ms`.
        open: &["fast"],
        unanchored: true,
    })
}
