//! The traced run's instruments, all outside the program: spans
//! recorded around calls into each crate's public functions, kept in
//! memory and written out when the run ends.

use crate::drive::Sample;
use crate::workload::exec_opts;
use owql_eval::{check_admission, optimize_with_stats, ExecOpts};
use owql_exec::Pool;
use owql_obs::recorder::OpKind;
use owql_parser::parse_pattern;
use owql_server::http::parse_request;
use owql_store::{QueryRequest, Snapshot, Store};
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder began.
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store; `write` dumps it as JSON lines.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Per-request reconciliation rows, written after the spans.
    rows: Vec<String>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration.
    fn end(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        Duration::from_nanos(span.end_ns - span.start_ns)
    }

    /// Times `f` as a root span of `request`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, None, request);
        let out = f();
        (out, self.end(id))
    }

    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"kind\": \"span\", \"span\": {id}, \"parent\": {parent}, \"request\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        for row in &self.rows {
            writeln!(out, "{row}")?;
        }
        out.flush()
    }
}

/// Per-request means of each stage's self time over a replay, and the
/// reconciliation against client latency.
#[derive(Default)]
pub struct Replay {
    pub requests: u64,
    pub http_parse: Duration,
    pub json_decode: Duration,
    pub parse: Duration,
    pub lint: Duration,
    pub optimize: Duration,
    pub store_self: Duration,
    pub prunes: u64,
    /// Client latency minus the stage sum, per request.
    pub residues_ms: Vec<f64>,
}

impl Replay {
    pub fn mean_us(&self, total: Duration) -> f64 {
        total.as_secs_f64() * 1e6 / self.requests.max(1) as f64
    }

    /// Replays one served request in process, timing each layer the
    /// server passes it through: HTTP parse, JSON decode (with the
    /// option mapping), pattern parse, then `Store::query_request`.
    /// `Store::query_request` runs admission (once, and again inside
    /// `Engine::run` on a cache miss) and, with `optimize`, the
    /// optimizer on a miss. Both are timed by separate calls on the
    /// same pattern under an `admission_probe` root span after the
    /// request's own, and the calls the request's path makes are taken
    /// out of the store's self time. The optimizer is timed on every
    /// request, so `eval.optimize_us` is its cost on the workload's
    /// patterns whether or not the path runs it. Returns the answer
    /// count.
    pub fn request(
        &mut self,
        rec: &mut Recorder,
        store: &Store,
        pool: &Pool,
        sample: &Sample,
    ) -> u64 {
        let id = sample.req.id;
        let body = sample.req.body();
        let mut buf = format!(
            "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();

        let root = rec.begin("request", None, id);
        let s = rec.begin("server.http.parse", Some(root), id);
        let http = parse_request(&mut buf)
            .expect("generated request is valid HTTP")
            .expect("generated request is complete");
        let http_parse = rec.end(s);

        let s = rec.begin("server.json.decode", Some(root), id);
        let doc = owql_server::json::parse(http.body_utf8().expect("utf-8 body"))
            .expect("generated body is valid JSON");
        let opts = exec_opts(doc.get("opts"));
        let text = doc
            .get("pattern")
            .and_then(|p| p.as_str())
            .expect("body has a pattern");
        let json_decode = rec.end(s);

        let s = rec.begin("parser.parse", Some(root), id);
        let pattern = parse_pattern(text.trim()).expect("generated pattern parses");
        let parse = rec.end(s);

        let query = QueryRequest::with_opts(pattern, opts);
        let s = rec.begin("store.query", Some(root), id);
        let outcome = store
            .query_request(&query, pool)
            .expect("workload requests are admitted and meet their deadline");
        let store_query = rec.end(s);
        rec.end(root);

        // The admission probe: a root of its own, after the request.
        // It makes the `check_admission` calls the request's path made
        // (one on a cache hit; on a miss a second inside `Engine::run`)
        // and one `optimize_with_stats`, each timed.
        let probe = rec.begin("admission_probe", None, id);
        let lint_calls = if outcome.cache_hit { 1 } else { 2 };
        let p = rec.begin("lint.classify", Some(probe), id);
        for _ in 0..lint_calls {
            check_admission(&query.pattern, &query.opts).expect("admitted above");
        }
        let lint = rec.end(p);
        let p = rec.begin("eval.optimize", Some(probe), id);
        let _ = optimize_with_stats(&query.pattern);
        let optimize = rec.end(p);
        rec.end(probe);
        let optimize_on_path = if query.opts.optimize && !outcome.cache_hit {
            optimize
        } else {
            Duration::ZERO
        };
        let store_self = store_query.saturating_sub(lint + optimize_on_path);

        let stage_sum = http_parse + json_decode + parse + store_query;
        let client_ms = sample.service.as_secs_f64() * 1e3;
        let residue_ms = client_ms - stage_sum.as_secs_f64() * 1e3;
        rec.rows.push(format!(
            "{{\"kind\": \"reconcile\", \"request\": {id}, \"client_ms\": {client_ms:.6}, \
             \"stage_sum_ms\": {:.6}, \"residue_ms\": {residue_ms:.6}, \"http_parse_us\": {:.3}, \
             \"json_decode_us\": {:.3}, \"parse_us\": {:.3}, \"lint_us\": {:.3}, \
             \"optimize_us\": {:.3}, \"store_self_us\": {:.3}, \"cache_hit\": {}}}",
            stage_sum.as_secs_f64() * 1e3,
            us(http_parse),
            us(json_decode),
            us(parse),
            us(lint),
            us(optimize),
            us(store_self),
            outcome.cache_hit,
        ));

        self.requests += 1;
        self.http_parse += http_parse;
        self.json_decode += json_decode;
        self.parse += parse;
        self.lint += lint;
        self.optimize += optimize;
        self.store_self += store_self;
        let prunes = outcome.prunes;
        self.prunes += prunes.unsat_filters + prunes.subsumed_branches + prunes.opt_collapses;
        self.residues_ms.push(residue_ms);
        outcome.mappings.len() as u64
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One shape's columnar profile.
pub struct ShapeProfile {
    pub name: &'static str,
    pub w1_ms: f64,
    pub w2_ms: f64,
    pub traced_ms: f64,
    pub answers: u64,
    pub scan_rows: u64,
}

/// Times `Snapshot::engine().run` on each shape: untraced at width 1
/// and width 2, and traced at width 1 for the operator profile.
/// Cheap shapes repeat until 50 ms have passed and report the median.
pub fn profile_shapes(
    rec: &mut Recorder,
    snapshot: &Snapshot,
    shapes: &[(&'static str, owql_algebra::pattern::Pattern)],
) -> Vec<ShapeProfile> {
    let engine = snapshot.engine();
    let seq = Pool::sequential();
    let wide = Pool::new(2);
    let mut out = Vec::new();
    for (i, (name, pattern)) in shapes.iter().enumerate() {
        // Profile spans count their ids down from the top, clear of the
        // replayed requests' ids.
        let request = u64::MAX - i as u64;
        let mut timed = |name: &'static str, opts: &ExecOpts, pool: &Pool| {
            let mut times = Vec::new();
            let started = Instant::now();
            loop {
                let (run, took) = rec.time(name, request, || {
                    engine
                        .run(pattern, opts, pool)
                        .expect("no deadline or ceiling is set")
                });
                times.push(took.as_secs_f64() * 1e3);
                if started.elapsed() >= Duration::from_millis(50) || times.len() >= 500 {
                    return (crate::drive::median(&mut times), run);
                }
            }
        };
        let (w1_ms, _) = timed("eval.run.w1", &ExecOpts::seq(), &seq);
        let (w2_ms, _) = timed("eval.run.w2", &ExecOpts::parallel(), &wide);
        let (traced_ms, run) = timed("eval.run.traced", &ExecOpts::seq().traced(), &seq);
        let profile = run.profile.expect("traced run carries a profile");
        let scan_rows = profile
            .operators
            .iter()
            .filter(|op| op.kind == OpKind::Scan)
            .map(|op| op.rows_out)
            .sum();
        out.push(ShapeProfile {
            name,
            w1_ms,
            w2_ms,
            traced_ms,
            answers: run.mappings.len() as u64,
            scan_rows,
        });
    }
    out
}
