//! The traced run's per-layer measurements, all taken from outside the
//! program: a wrapper `App` times each handler call, an offline replay
//! times the public parse / resolve / engine / serialise steps on the
//! workload's own bodies, and direct calls time retrieval and the publish
//! path's builds.

use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;

use credence_core::{
    CredenceEngine, EngineConfig, FeatureAttributionConfig, QueryAugmentationConfig,
    QueryReductionConfig, RetrievalStats, SentenceRemovalConfig, TermRemovalConfig,
};
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_json::{parse, to_string};
use credence_rank::{rank_corpus_with, Bm25Ranker};
use credence_server::http::{Request, Response};
use credence_server::requests::{
    CorpusRef, CosineSampledRequest, Doc2VecNearestRequest, FeatureAttributionRequest,
    QueryAugmentationRequest, QueryReductionRequest, RankRequest, RerankRequest,
    SentenceRemovalRequest, TermRemovalRequest,
};
use credence_server::{handle_request, App, AppState, Server, ServerHandle};
use credence_text::Analyzer;

use crate::client::Template;
use crate::runner::{send_once, ClientRun, Sample};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::{self_times, Span, SpanLog};
use crate::workload::{Family, Inputs, Kind, Op};

/// Endpoints whose handler spans are reported.
pub const ENDPOINTS: [&str; 10] = [
    "rank",
    "sentence_removal",
    "term_removal",
    "query_reduction",
    "query_augmentation",
    "feature_attribution",
    "doc2vec_nearest",
    "cosine_sampled",
    "rerank",
    "corpora",
];

/// Replays of parse / resolve / engine / serialise per traced run (at
/// least; every selected request is replayed the same number of times).
const MIN_REPLAYS: usize = 200;
/// Distinct requests replayed at most.
const MAX_REPLAY_OPS: usize = 400;
/// Direct retrieval calls per traced run (at least).
const RETRIEVAL_CALLS: usize = 1000;
/// Repetitions of each publish-path build.
const PUBLISH_BUILDS: usize = 5;

/// The endpoint label of a request path, as the server's metrics name it.
fn endpoint_label(path: &str) -> &'static str {
    let path = path.strip_prefix("/api/v1").unwrap_or(path);
    if path.starts_with("/corpora") {
        return "corpora";
    }
    match path {
        "/rank" => "rank",
        "/rerank" => "rerank",
        "/metrics" => "metrics",
        "/health" => "health",
        _ => Family::ALL
            .into_iter()
            .map(|f| f.label())
            .find(|label| {
                path.strip_prefix("/explain/").map(|p| p.replace('-', "_"))
                    == Some(label.to_string())
            })
            .unwrap_or("other"),
    }
}

/// An `App` that times every call into `handle_request` and records it as
/// a child of the client span named by the `x-bench-id` header.
struct TracedApp {
    inner: &'static AppState,
    log: &'static SpanLog,
}

impl App for TracedApp {
    fn handle(&self, request: &Request) -> Response {
        let start_ns = self.log.now_ns();
        let response = handle_request(self.inner, request);
        let end_ns = self.log.now_ns();
        let parent = request
            .headers
            .get("x-bench-id")
            .and_then(|v| v.parse::<u64>().ok());
        self.log.record(Span {
            id: self.log.fresh_id(),
            parent,
            request: parent.unwrap_or(0),
            name: endpoint_label(&request.path),
            start_ns,
            end_ns,
        });
        response
    }

    fn record_rejected(&self, status: u16) {
        self.inner.record_rejected(status);
    }
    // Shutdown hooks stay no-ops: the plain server owns the state's
    // lifecycle and is stopped last.
}

/// Serve `state` a second time through the span-recording wrapper.
pub fn spawn_traced(state: &'static AppState, log: &'static SpanLog) -> io::Result<ServerHandle> {
    let app: &'static TracedApp = Box::leak(Box::new(TracedApp { inner: state, log }));
    Server::bind("127.0.0.1:0", app)?.spawn()
}

/// Counters read before and after the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    explain_hits: u64,
    explain_misses: u64,
    explain_coalesced: u64,
    explain_evictions: u64,
    retrieval: RetrievalStats,
    candidate_evals: f64,
    searches: f64,
    search_s: f64,
    generations: u64,
}

impl Counters {
    /// Read the explanation cache, the registry, and the `/metrics` scrape
    /// served at `addr`.
    pub fn read(state: &AppState, addr: SocketAddr) -> io::Result<Self> {
        let (status, body) = send_once(addr, &Template::new("GET", "/metrics", ""))?;
        if status != 200 {
            return Err(io::Error::other(format!("/metrics answered {status}")));
        }
        let text = String::from_utf8_lossy(&body);
        let sum = |family: &str| -> f64 {
            text.lines()
                .filter(|l| {
                    l.strip_prefix(family)
                        .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
                })
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum()
        };
        let cache = state.explain_cache();
        Ok(Self {
            explain_hits: cache.hits(),
            explain_misses: cache.misses(),
            explain_coalesced: cache.coalesced(),
            explain_evictions: cache.evictions(),
            retrieval: state.registry().total_retrieval_stats(),
            candidate_evals: sum("credence_candidate_evals_total"),
            searches: sum("credence_searches_total"),
            search_s: sum("credence_search_seconds_total"),
            generations: state.registry().list().iter().map(|c| c.generation).sum(),
        })
    }
}

/// Everything the per-layer computation reads.
pub struct LayerInputs<'a> {
    /// The workload's inputs.
    pub inputs: &'a Inputs,
    /// The served state.
    pub state: &'static AppState,
    /// The plain server (for `/metrics` scrapes).
    pub plain: SocketAddr,
    /// The span log (client spans already merged in).
    pub log: &'a SpanLog,
    /// The measured window's client runs.
    pub window: &'a [ClientRun],
    /// Counters before the window.
    pub before: Counters,
    /// Counters after the window.
    pub after: Counters,
    /// Counters after the write probe.
    pub after_probe: Counters,
    /// Replay-memo hits and misses of the live snapshot after the window.
    pub replay_memo: (u64, u64),
}

/// One named metric value with its unit.
pub type Metric = (String, f64, &'static str);

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// p50 and p99 (µs) of `values_ns`, or zeros when nothing was measured
/// (the layer was not exercised by this workload).
fn p50_p99_us(values_ns: &[u64]) -> (f64, f64) {
    if values_ns.is_empty() {
        return (0.0, 0.0);
    }
    let v = sorted(&values_ns.iter().map(|&n| us(n)).collect::<Vec<_>>());
    (percentile(&v, 50.0), percentile(&v, 99.0))
}

/// Compute every per-layer metric (see `PER_LAYER` in `report.rs`).
pub fn per_layer(x: &LayerInputs<'_>) -> io::Result<Vec<Metric>> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
    let spans = x.log.snapshot();
    let selfs = self_times(&spans);
    let traced: Vec<&Sample> = x
        .window
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.traced)
        .collect();

    // Transport: client span minus the handler span inside it.
    let mut handler_of: HashMap<u64, &Span> = HashMap::new();
    let mut by_endpoint: HashMap<&str, Vec<u64>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name != "client" && s.parent.is_some())
    {
        if let Some(p) = s.parent {
            handler_of.insert(p, s);
        }
        by_endpoint.entry(s.name).or_default().push(s.duration_ns());
    }
    let matched: Vec<&Sample> = traced
        .iter()
        .copied()
        .filter(|s| {
            handler_of
                .get(&s.id)
                .is_some_and(|h| h.start_ns >= s.start_ns && h.end_ns <= s.end_ns)
        })
        .collect();
    let transport: Vec<u64> = matched
        .iter()
        .filter_map(|s| selfs.get(&s.id).copied())
        .collect();
    let (p50, p99) = p50_p99_us(&transport);
    put("transport.self_p50_us", p50, "us");
    put("transport.self_p99_us", p99, "us");
    let connects: u64 = x.window.iter().map(|r| r.connects).sum();
    let requests: usize = x.window.iter().map(|r| r.samples.len()).sum();
    put(
        "transport.connections_per_request",
        ratio(connects as f64, requests as f64),
        "conn/req",
    );
    put(
        "trace.matched_share",
        ratio(matched.len() as f64, traced.len() as f64),
        "ratio",
    );

    // Service: handler spans per endpoint; an endpoint the window did not
    // exercise is timed through the same call in-process.
    handler_fallback(x, &mut by_endpoint);
    for endpoint in ENDPOINTS {
        let (p50, p99) = p50_p99_us(by_endpoint.get(endpoint).map_or(&[][..], |v| v));
        put(&format!("service.{endpoint}.handler_p50_us"), p50, "us");
        put(&format!("service.{endpoint}.handler_p99_us"), p99, "us");
    }
    let handler_all: Vec<u64> = matched
        .iter()
        .filter(|s| !x.inputs.ops[s.op as usize].is_write())
        .map(|s| handler_of[&s.id].duration_ns())
        .collect();
    put("service.handler_p50_us", p50_p99_us(&handler_all).0, "us");

    // Replay of the handler's steps on the workload's own bodies.
    let replay = replay(x, &handler_of, &traced);
    put("service.parse_p50_us", replay.p50("parse"), "us");
    put("service.resolve_p50_us", replay.p50("resolve"), "us");
    put("service.engine_p50_us", replay.p50("engine"), "us");
    put("service.serialise_p50_us", replay.p50("serialise"), "us");
    put(
        "service.unattributed_p50_us",
        if replay.unattributed_us.is_empty() {
            0.0
        } else {
            median(&replay.unattributed_us)
        },
        "us",
    );

    // Explanation cache, over the window.
    let (b, a) = (&x.before, &x.after);
    let hits = (a.explain_hits - b.explain_hits) as f64;
    let misses = (a.explain_misses - b.explain_misses) as f64;
    let coalesced = (a.explain_coalesced - b.explain_coalesced) as f64;
    put("explain_cache.hits", hits, "count");
    put("explain_cache.misses", misses, "count");
    put("explain_cache.coalesced", coalesced, "count");
    put(
        "explain_cache.evictions",
        (a.explain_evictions - b.explain_evictions) as f64,
        "count",
    );
    put(
        "explain_cache.hit_ratio",
        ratio(hits, hits + misses + coalesced),
        "ratio",
    );

    // Ranking cache and retrieval counters, over the window.
    let (rb, ra) = (&b.retrieval, &a.retrieval);
    let r_hits = (ra.cache_hits - rb.cache_hits) as f64;
    let r_misses = (ra.cache_misses - rb.cache_misses) as f64;
    put("ranking_cache.hits", r_hits, "count");
    put("ranking_cache.misses", r_misses, "count");
    put(
        "ranking_cache.evictions",
        (ra.cache_evictions - rb.cache_evictions) as f64,
        "count",
    );
    put(
        "ranking_cache.hit_ratio",
        ratio(r_hits, r_hits + r_misses),
        "ratio",
    );
    let retrieval = retrieval_calls(x);
    let (p50, p99) = p50_p99_us(&retrieval);
    put("retrieval.miss_p50_us", p50, "us");
    put("retrieval.miss_p99_us", p99, "us");
    put(
        "retrieval.docs_scored_per_miss",
        ratio((ra.docs_scored - rb.docs_scored) as f64, r_misses),
        "docs/miss",
    );
    put(
        "retrieval.blocks_decoded_per_miss",
        ratio((ra.blocks_decoded - rb.blocks_decoded) as f64, r_misses),
        "blocks/miss",
    );
    put(
        "retrieval.blocks_skipped_per_miss",
        ratio((ra.blocks_skipped - rb.blocks_skipped) as f64, r_misses),
        "blocks/miss",
    );

    // Counterfactual search: direct engine calls per family, and the
    // server's search counters from before the window to after the
    // in-process handler calls (which search only on a workload whose window
    // sends no explain request).
    let engine = engine_calls(x);
    for family in Family::ALL {
        let calls = engine.get(&family).map_or(&[][..], |v| v);
        put(
            &format!("search.{}.engine_p50_us", family.label()),
            p50_p99_us(calls).0,
            "us",
        );
    }
    let searched = Counters::read(x.state, x.plain)?;
    put(
        "search.candidate_evals_per_request",
        ratio(
            searched.candidate_evals - b.candidate_evals,
            searched.searches - b.searches,
        ),
        "evals/req",
    );
    put("search.busy_s", searched.search_s - b.search_s, "s");
    let (memo_hits, memo_misses) = x.replay_memo;
    put(
        "search.replay_memo_hit_ratio",
        ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
        "ratio",
    );

    // Publish path and set-up builds.
    put(
        "publish.generations",
        (x.after_probe.generations - b.generations) as f64,
        "count",
    );
    let mut written = x.inputs.write_docs.clone();
    written.push(x.inputs.offtopic.clone());
    let (index_ms, engine_ms) = build_costs(&written, PUBLISH_BUILDS);
    put("publish.index_build_ms", index_ms * 1e3, "ms");
    put("publish.engine_build_ms", engine_ms * 1e3, "ms");
    let (index_s, engine_s) = build_costs(&x.inputs.docs, 1);
    put("setup.index_build_s", index_s, "s");
    put("setup.engine_build_s", engine_s, "s");

    // Tracing overhead: traced against untraced read p50 in the window.
    let read_p50 = |traced: bool| -> f64 {
        let v: Vec<f64> = x
            .window
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|s| s.traced == traced && s.ok_status())
            .filter(|s| !x.inputs.ops[s.op as usize].is_write())
            .map(Sample::latency_ms)
            .collect();
        median(&v)
    };
    put(
        "trace.overhead_pct",
        (read_p50(true) / read_p50(false) - 1.0) * 100.0,
        "%",
    );
    Ok(out)
}

/// Path and endpoint label of a read request.
fn route(kind: &Kind) -> Option<(&'static str, &'static str)> {
    match kind {
        Kind::Rank { .. } => Some(("/api/v1/rank", "rank")),
        Kind::Explain { family, .. } => Some((family.path(), family.label())),
        Kind::Write { .. } => None,
    }
}

/// Time `handle_request` in-process once per layer-probe request (distinct
/// requests, so the explanation cache misses as on `explain_cold`), for
/// every endpoint the window left without handler spans.
fn handler_fallback(x: &LayerInputs<'_>, by_endpoint: &mut HashMap<&str, Vec<u64>>) {
    let missing: Vec<&str> = ENDPOINTS
        .into_iter()
        .filter(|e| by_endpoint.get(e).is_none_or(Vec::is_empty))
        .collect();
    for &op in &x.inputs.layer_probe {
        let op = &x.inputs.ops[op as usize];
        let Some((path, label)) = route(&op.kind).filter(|(_, l)| missing.contains(l)) else {
            continue;
        };
        let request = Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: HashMap::new(),
            body: op.template.body().to_vec(),
        };
        let t = x.log.now_ns();
        black_box(handle_request(x.state, &request));
        by_endpoint
            .entry(label)
            .or_default()
            .push(x.log.now_ns() - t);
    }
}

/// Direct `CredenceEngine` calls, twice over the layer probe's explain
/// requests, with the configuration the handler builds: the engine cost of
/// each family on this workload's corpus.
fn engine_calls(x: &LayerInputs<'_>) -> HashMap<Family, Vec<u64>> {
    let snap = x.state.default_snapshot();
    let mut out: HashMap<Family, Vec<u64>> = HashMap::new();
    for _ in 0..2 {
        for &op in &x.inputs.layer_probe {
            let op = &x.inputs.ops[op as usize];
            let Kind::Explain { family, .. } = op.kind else {
                continue;
            };
            let body = std::str::from_utf8(op.template.body()).expect("request bodies are UTF-8");
            let Some(typed) = parse_typed(&op.kind, body) else {
                continue;
            };
            let t = x.log.now_ns();
            let ok = typed.run(snap.engine());
            let elapsed = x.log.now_ns() - t;
            if ok {
                out.entry(family).or_default().push(elapsed);
            }
        }
    }
    out
}

/// Median seconds of `InvertedIndex::build` and `CredenceEngine::new` over
/// `docs`, each run `reps` times.
fn build_costs(docs: &[credence_index::Document], reps: usize) -> (f64, f64) {
    let mut index_s = Vec::new();
    let mut engine_s = Vec::new();
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let index = InvertedIndex::build(docs.to_vec(), Analyzer::english());
        index_s.push(t.elapsed().as_secs_f64());
        let ranker = Bm25Ranker::new(&index, Bm25Params::default());
        let t = std::time::Instant::now();
        black_box(CredenceEngine::new(&ranker, EngineConfig::default()));
        engine_s.push(t.elapsed().as_secs_f64());
    }
    (median(&index_s), median(&engine_s))
}

/// Direct `rank_corpus_with` calls on the live default snapshot, cycling
/// through the workload's queries: the cost of one ranking-cache miss.
fn retrieval_calls(x: &LayerInputs<'_>) -> Vec<u64> {
    let snap = x.state.default_snapshot();
    let engine = snap.engine();
    let opts = engine.config().retrieval;
    let rounds = RETRIEVAL_CALLS.div_ceil(x.inputs.queries.len().max(1));
    let mut out = Vec::new();
    for _ in 0..rounds {
        for q in &x.inputs.queries {
            let t = x.log.now_ns();
            black_box(rank_corpus_with(engine.ranker(), q, &opts, 1));
            out.push(x.log.now_ns() - t);
        }
    }
    out
}

/// Step timings from the replay.
#[derive(Default)]
struct Replay {
    steps: HashMap<&'static str, Vec<u64>>,
    unattributed_us: Vec<f64>,
}

impl Replay {
    fn p50(&self, step: &str) -> f64 {
        p50_p99_us(self.steps.get(step).map_or(&[][..], |v| v)).0
    }
}

/// A request body parsed into its typed request.
enum Typed {
    Rank(RankRequest),
    SentenceRemoval(SentenceRemovalRequest),
    TermRemoval(TermRemovalRequest),
    QueryReduction(QueryReductionRequest),
    QueryAugmentation(QueryAugmentationRequest),
    FeatureAttribution(FeatureAttributionRequest),
    Doc2VecNearest(Doc2VecNearestRequest),
    CosineSampled(CosineSampledRequest),
    Rerank(RerankRequest),
}

fn parse_typed(kind: &Kind, body: &str) -> Option<Typed> {
    let v = parse(body).ok()?;
    Some(match kind {
        Kind::Rank { .. } => Typed::Rank(RankRequest::parse(&v).ok()?),
        Kind::Explain { family, .. } => match family {
            Family::SentenceRemoval => {
                Typed::SentenceRemoval(SentenceRemovalRequest::parse(&v).ok()?)
            }
            Family::TermRemoval => Typed::TermRemoval(TermRemovalRequest::parse(&v).ok()?),
            Family::QueryReduction => Typed::QueryReduction(QueryReductionRequest::parse(&v).ok()?),
            Family::QueryAugmentation => {
                Typed::QueryAugmentation(QueryAugmentationRequest::parse(&v).ok()?)
            }
            Family::FeatureAttribution => {
                Typed::FeatureAttribution(FeatureAttributionRequest::parse(&v).ok()?)
            }
            Family::Doc2VecNearest => Typed::Doc2VecNearest(Doc2VecNearestRequest::parse(&v).ok()?),
            Family::CosineSampled => Typed::CosineSampled(CosineSampledRequest::parse(&v).ok()?),
            Family::Rerank => Typed::Rerank(RerankRequest::parse(&v).ok()?),
        },
        Kind::Write { .. } => return None,
    })
}

impl Typed {
    fn corpus(&self) -> &CorpusRef {
        match self {
            Typed::Rank(r) => &r.corpus,
            Typed::SentenceRemoval(r) => &r.corpus,
            Typed::TermRemoval(r) => &r.corpus,
            Typed::QueryReduction(r) => &r.corpus,
            Typed::QueryAugmentation(r) => &r.corpus,
            Typed::FeatureAttribution(r) => &r.corpus,
            Typed::Doc2VecNearest(r) => &r.corpus,
            Typed::CosineSampled(r) => &r.corpus,
            Typed::Rerank(r) => &r.corpus,
        }
    }

    /// The engine call the handler makes for this request, with the same
    /// configuration it builds. Returns whether the call succeeded.
    fn run(&self, engine: &CredenceEngine<'_>) -> bool {
        match self {
            Typed::Rank(r) => !black_box(engine.rank(&r.query, r.k)).is_empty(),
            Typed::SentenceRemoval(r) => {
                let config = SentenceRemovalConfig {
                    n: r.n,
                    budget: r.controls.search,
                    eval: r.controls.eval,
                    lifecycle: r.controls.lifecycle.clone(),
                    ..Default::default()
                };
                black_box(engine.sentence_removal(&r.query, r.k, DocId(r.doc as u32), &config))
                    .is_ok()
            }
            Typed::TermRemoval(r) => {
                let config = TermRemovalConfig {
                    n: r.n,
                    budget: r.controls.search,
                    eval: r.controls.eval,
                    lifecycle: r.controls.lifecycle.clone(),
                    ..Default::default()
                };
                black_box(engine.term_removal(&r.query, r.k, DocId(r.doc as u32), &config)).is_ok()
            }
            Typed::QueryReduction(r) => {
                let config = QueryReductionConfig {
                    n: r.n,
                    budget: r.controls.search,
                    eval: r.controls.eval,
                    lifecycle: r.controls.lifecycle.clone(),
                    ..Default::default()
                };
                black_box(engine.query_reduction(&r.query, r.k, DocId(r.doc as u32), &config))
                    .is_ok()
            }
            Typed::QueryAugmentation(r) => {
                let config = QueryAugmentationConfig {
                    n: r.n,
                    threshold: r.threshold,
                    budget: r.controls.search,
                    eval: r.controls.eval,
                    lifecycle: r.controls.lifecycle.clone(),
                    ..Default::default()
                };
                black_box(engine.query_augmentation(&r.query, r.k, DocId(r.doc as u32), &config))
                    .is_ok()
            }
            Typed::FeatureAttribution(r) => {
                let config = FeatureAttributionConfig {
                    samples: r.samples,
                    seed: r.seed,
                    top_m: r.top_m,
                    lambda: r.lambda,
                    max_features: r.controls.search.max_candidates,
                    eval: r.controls.eval,
                    lifecycle: r.controls.lifecycle.clone(),
                };
                black_box(engine.feature_attribution(&r.query, r.k, DocId(r.doc as u32), &config))
                    .is_ok()
            }
            Typed::Doc2VecNearest(r) => {
                black_box(engine.doc2vec_nearest(&r.query, r.k, DocId(r.doc as u32), r.n)).is_ok()
            }
            Typed::CosineSampled(r) => {
                black_box(engine.cosine_sampled(&r.query, r.k, DocId(r.doc as u32), r.n, r.samples))
                    .is_ok()
            }
            Typed::Rerank(r) => black_box(engine.builder_rerank_budgeted(
                &r.query,
                r.k,
                DocId(r.doc as u32),
                &r.body,
                &r.lifecycle,
            ))
            .is_ok(),
        }
    }
}

/// Replay the handler's four steps for up to [`MAX_REPLAY_OPS`] distinct
/// traced read requests, recording spans, and set each request's median
/// live handler time against the sum of its steps.
fn replay(x: &LayerInputs<'_>, handler_of: &HashMap<u64, &Span>, traced: &[&Sample]) -> Replay {
    let mut live: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut bodies: HashMap<u32, &[u8]> = HashMap::new();
    for s in traced {
        let op = &x.inputs.ops[s.op as usize];
        if op.is_write() || !s.ok_status() {
            continue;
        }
        if let Some(h) = handler_of.get(&s.id) {
            live.entry(s.op).or_default().push(us(h.duration_ns()));
        }
    }
    for run in x.window {
        for (&(op, _, _), body) in &run.bodies {
            bodies.entry(op).or_insert(body);
        }
    }
    let mut ops: Vec<u32> = live
        .keys()
        .copied()
        .filter(|op| bodies.contains_key(op))
        .collect();
    ops.sort_unstable();
    let stride = ops.len().div_ceil(MAX_REPLAY_OPS).max(1);
    let ops: Vec<u32> = ops.into_iter().step_by(stride).collect();
    let rounds = MIN_REPLAYS.div_ceil(ops.len().max(1));

    let mut out = Replay::default();
    let mut spans = Vec::new();
    let mut step_sums: HashMap<u32, Vec<f64>> = HashMap::new();
    for _ in 0..rounds {
        for &op_id in &ops {
            let op: &Op = &x.inputs.ops[op_id as usize];
            let request =
                std::str::from_utf8(op.template.body()).expect("request bodies are UTF-8");
            let Ok(response) = parse(std::str::from_utf8(bodies[&op_id]).unwrap_or_default())
            else {
                continue;
            };
            let root = x.log.fresh_id();
            let t0 = x.log.now_ns();
            let Some(typed) = parse_typed(&op.kind, request) else {
                continue;
            };
            let t1 = x.log.now_ns();
            let corpus = typed.corpus();
            let Ok(snap) = x
                .state
                .registry()
                .snapshot(&corpus.corpus, corpus.generation)
            else {
                continue;
            };
            let t2 = x.log.now_ns();
            let ok = typed.run(snap.engine());
            let t3 = x.log.now_ns();
            black_box(to_string(&response));
            let t4 = x.log.now_ns();
            if !ok {
                continue;
            }
            for (name, start, end) in [
                ("parse", t0, t1),
                ("resolve", t1, t2),
                ("engine", t2, t3),
                ("serialise", t3, t4),
            ] {
                out.steps.entry(name).or_default().push(end - start);
                spans.push(Span {
                    id: x.log.fresh_id(),
                    parent: Some(root),
                    request: root,
                    name,
                    start_ns: start,
                    end_ns: end,
                });
            }
            spans.push(Span {
                id: root,
                parent: None,
                request: root,
                name: "replay",
                start_ns: t0,
                end_ns: t4,
            });
            step_sums.entry(op_id).or_default().push(us(t4 - t0));
        }
    }
    for (op, sums) in &step_sums {
        out.unattributed_us.push(median(&live[op]) - median(sums));
    }
    x.log.extend(spans);
    out
}
