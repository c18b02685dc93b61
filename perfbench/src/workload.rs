//! Seeded inputs: the social graph and the request streams.
//!
//! Everything here is a pure function of `--seed`. The server under
//! test only ever sees the generated graph and request bodies.

use owql_algebra::pattern::Pattern;
use owql_eval::ExecOpts;
use owql_rdf::generate::{social_network, SocialOptions};
use owql_rdf::Graph;
use owql_server::json::JsonValue;
use owql_server::ServerConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// People in the graph: the 100k-person tier (about 630k triples).
pub const PEOPLE: usize = 100_000;

/// Zipf exponent of the anchor-person popularity.
const ZIPF_EXPONENT: f64 = 1.0;

/// The five analytic shapes, in the order every report lists them.
pub const SHAPES: [&str; 5] = [
    "spine",
    "union_ns",
    "wide_union",
    "ns_optional",
    "opt_optional",
];

/// `owql_bench::social`'s graph shape with the seed as a parameter.
pub fn social_graph(people: usize, seed: u64) -> Graph {
    social_network(
        SocialOptions {
            people,
            avg_follows: 4,
            email_probability: 0.5,
            birthplace_probability: 0.8,
        },
        seed,
    )
}

/// Request templates of the lookup mix, each anchored on one person.
/// The first four are 1–3-triple ANDs; the last four are the OPT,
/// UNION and NS tail. `Spine` and the tail are the anchored forms of
/// the five analytic shapes: the spine starts at the person, and in
/// the tail `?p` ranges over the people the person follows. Every
/// answer of every template binds at least one variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    Name,
    FollowsName,
    EmailBorn,
    Spine,
    UnionNs,
    WideUnion,
    NsOptional,
    OptOptional,
}

/// `(family, weight in percent)`: about 80% ANDs, 20% OPT/UNION/NS.
const MIX: [(Family, u32); 8] = [
    (Family::Name, 25),
    (Family::FollowsName, 25),
    (Family::EmailBorn, 15),
    (Family::Spine, 15),
    (Family::UnionNs, 5),
    (Family::WideUnion, 5),
    (Family::NsOptional, 5),
    (Family::OptOptional, 5),
];

impl Family {
    pub const ALL: [Family; 8] = [
        Family::Name,
        Family::FollowsName,
        Family::EmailBorn,
        Family::Spine,
        Family::UnionNs,
        Family::WideUnion,
        Family::NsOptional,
        Family::OptOptional,
    ];

    /// The analytic shape this family is the anchored form of.
    pub fn shape(self) -> Option<&'static str> {
        match self {
            Family::Spine => Some("spine"),
            Family::UnionNs => Some("union_ns"),
            Family::WideUnion => Some("wide_union"),
            Family::NsOptional => Some("ns_optional"),
            Family::OptOptional => Some("opt_optional"),
            _ => None,
        }
    }

    /// The family's pattern text anchored on `person`.
    pub fn text(self, person: usize) -> String {
        let p = format!("person{person}");
        match self {
            Family::Name => format!("({p}, name, ?n)"),
            Family::FollowsName => format!("(({p}, follows, ?b) AND (?b, name, ?n))"),
            Family::EmailBorn => format!("(({p}, email, ?e) AND ({p}, was_born_in, ?c))"),
            Family::Spine => {
                format!("((({p}, follows, ?b) AND (?b, follows, ?c)) AND ({p}, was_born_in, ?x))")
            }
            Family::UnionNs => country_union(&p).ns().to_string(),
            Family::WideUnion => country_union(&p).to_string(),
            Family::NsOptional => {
                format!("NS((({p}, follows, ?p) UNION (({p}, follows, ?p) AND (?p, email, ?e))))")
            }
            Family::OptOptional => format!("(({p}, follows, ?p) OPT (?p, email, ?e))"),
        }
    }
}

/// `owql_bench::par`'s per-country UNION with `?p` ranging over the
/// people `person` follows.
fn country_union(person: &str) -> Pattern {
    let mut disjuncts = Vec::new();
    for country in ["Chile", "Belgium", "Sweden"] {
        let base =
            Pattern::t(person, "follows", "?p").and(Pattern::t("?p", "was_born_in", country));
        disjuncts.push(base.clone());
        disjuncts.push(base.clone().and(Pattern::t("?p", "email", "?e")));
        disjuncts.push(base.clone().and(Pattern::t("?p", "name", "?n")));
        disjuncts.push(
            base.clone()
                .and(Pattern::t("?p", "email", "?e"))
                .and(Pattern::t("?p", "name", "?n")),
        );
    }
    Pattern::union_all(disjuncts)
}

/// The five unanchored analytic shapes, named as in [`SHAPES`].
pub fn analytic_shapes() -> Vec<(&'static str, Pattern)> {
    let (_, opt, ns) = owql_bench::opt_ns_pairs().swap_remove(0);
    vec![
        ("spine", owql_bench::par::spine_query()),
        ("union_ns", owql_bench::par::union_ns_query()),
        ("wide_union", owql_bench::par::wide_union_query()),
        ("ns_optional", ns),
        ("opt_optional", opt),
    ]
}

/// Request options of the lookup mix: optimizer on and an admission
/// ceiling, so lint classification and the optimizer are on the path;
/// the cache stays at its default (on).
pub const LOOKUP_OPTS: &str = r#"{"optimize": true, "max_class": "pnp_par"}"#;
/// Request options of the analytic workload: defaults, cache off.
pub const ANALYTIC_OPTS: &str = r#"{"cache": false}"#;

/// The `ExecOpts` the server derives from a request's `"opts"` object
/// under `ServerConfig::default()`, for the keys the workloads send.
pub fn exec_opts(opts: Option<&JsonValue>) -> ExecOpts {
    let config = ServerConfig::default();
    let mut builder = ExecOpts::builder()
        .deadline(config.default_deadline)
        .max_class(config.admission_ceiling)
        .slow_query(config.slow_query_threshold);
    if let Some(JsonValue::Obj(pairs)) = opts {
        for (key, value) in pairs {
            builder = match key.as_str() {
                "optimize" => builder.optimize(value.as_bool().expect("boolean")),
                "cache" => builder.cache(value.as_bool().expect("boolean")),
                "max_class" => builder.max_class(Some(
                    value
                        .as_str()
                        .and_then(|c| c.parse().ok())
                        .expect("class name"),
                )),
                other => panic!("workload option `{other}` is not mirrored"),
            };
        }
    }
    builder.build()
}

/// [`exec_opts`] of one of the workloads' option strings.
pub fn parse_opts(opts_json: &str) -> ExecOpts {
    let doc = owql_server::json::parse(opts_json).expect("workload opts are valid JSON");
    exec_opts(Some(&doc))
}

/// What one request asks.
#[derive(Clone, Copy, Debug)]
pub enum Ask {
    /// A lookup-mix template anchored on a person.
    Lookup(Family, u32),
    /// One of the unanchored analytic shapes, by its index in [`SHAPES`].
    Analytic(usize),
}

/// One generated request. It holds only its id and what it asks; the
/// pattern text and the body are rebuilt when needed, so the samples a
/// run keeps stay small and the harness adds little to `rss_mb`.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Unique within a run; spans and verification key on it.
    pub id: u64,
    pub ask: Ask,
}

/// The pattern texts of [`analytic_shapes`], built once.
fn analytic_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        analytic_shapes()
            .into_iter()
            .map(|(_, p)| p.to_string())
            .collect()
    })
}

impl Request {
    /// The shape metric this request counts toward, if any.
    pub fn shape(&self) -> Option<&'static str> {
        match self.ask {
            Ask::Lookup(family, _) => family.shape(),
            Ask::Analytic(i) => Some(SHAPES[i]),
        }
    }

    pub fn text(&self) -> String {
        match self.ask {
            Ask::Lookup(family, person) => family.text(person as usize),
            Ask::Analytic(i) => analytic_texts()[i].clone(),
        }
    }

    /// The `POST /v1/query` body.
    pub fn body(&self) -> String {
        let opts = match self.ask {
            Ask::Lookup(..) => LOOKUP_OPTS,
            Ask::Analytic(_) => ANALYTIC_OPTS,
        };
        format!("{{\"pattern\": \"{}\", \"opts\": {opts}}}", self.text())
    }
}

/// Zipf-skewed anchor choice: popularity rank `r` has weight
/// `1 / (r + 1)^s`; ranks map to people through a seeded permutation,
/// so which people are hot depends on the seed.
pub struct Anchors {
    cdf: Vec<f64>,
    person_of_rank: Vec<u32>,
}

impl Anchors {
    pub fn new(people: usize, seed: u64) -> Anchors {
        let mut cdf = Vec::with_capacity(people);
        let mut total = 0.0;
        for r in 0..people {
            total += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut person_of_rank: Vec<u32> = (0..people as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C_E5ED);
        for i in (1..people).rev() {
            let j = rng.gen_range(0..=i);
            person_of_rank.swap(i, j);
        }
        Anchors {
            cdf,
            person_of_rank,
        }
    }

    /// The person at popularity rank `rank`.
    pub fn person(&self, rank: usize) -> usize {
        self.person_of_rank[rank] as usize
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.person(rank)
    }
}

/// Uniform in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// An exponentially distributed gap: the time to the next arrival of a
/// Poisson process with `rate` arrivals per second.
pub fn exponential(rng: &mut StdRng, rate: f64) -> Duration {
    Duration::from_secs_f64(-(1.0 - unit(rng)).ln() / rate)
}

/// An endless, seeded stream of lookup-mix requests for one client
/// stream. Ids are `stream << 32 | sequence`.
pub struct LookupStream {
    anchors: Arc<Anchors>,
    rng: StdRng,
    stream: u64,
    next: u64,
}

impl LookupStream {
    pub fn new(anchors: Arc<Anchors>, seed: u64, stream: u64) -> LookupStream {
        LookupStream {
            anchors,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
            stream,
            next: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let mut pick = self.rng.gen_range(0..100u32);
        let mut family = Family::Name;
        for (f, weight) in MIX {
            if pick < weight {
                family = f;
                break;
            }
            pick -= weight;
        }
        let person = self.anchors.sample(&mut self.rng);
        let id = self.stream << 32 | self.next;
        self.next += 1;
        Request {
            id,
            ask: Ask::Lookup(family, person as u32),
        }
    }
}
