//! The cacheable, job-able explanation families, each declared once.
//!
//! A family is one row of [`FAMILIES`]: its route path, its metrics and
//! cache label, its job name, its request parser and its run function.
//! The route table, the synchronous handler, the explanation-cache front,
//! the job runner, job-submission parsing and the `GET /api/v1` discovery
//! index all iterate this table. Adding a family therefore takes a request
//! struct (with `corpus` and `controls` fields, marked with
//! `family_request!` in [`crate::requests`]), a run function and one row —
//! nothing in the handler, cache, job or discovery code changes.
//!
//! Requests key themselves: the cache key is the family label, the corpus,
//! the *resolved* generation, and every field the request's parser read
//! (with its effective, default-filled value) outside [`UNKEYED_FIELDS`].
//! A payload-determining field therefore cannot be left out of the key.

use std::fmt::Write;
use std::time::Instant;

use credence_core::{
    CorpusSnapshot, FeatureAttributionConfig, FeatureAttributionResult, QueryAugmentationConfig,
    QueryReductionConfig, SearchStatus, SentenceRemovalConfig, TermRemovalConfig,
};
use credence_index::DocId;
use credence_json::{obj, to_string, Value};

use crate::http::{Request, Response};
use crate::requests::{
    FamilyRequest, FeatureAttributionRequest, FieldError, FieldParser, JobRequest,
    QueryAugmentationRequest, QueryReductionRequest, SentenceRemovalRequest, TermRemovalRequest,
};
use crate::service::{explain_error_response, read_request, with_corpus, AppState, Reply};

/// One explanation family: a row of [`FAMILIES`].
pub struct Family {
    /// Unversioned route path (`/explain/sentence-removal`); the canonical
    /// form prepends [`crate::API_PREFIX`].
    pub path: &'static str,
    /// Metrics and cache-key label (`sentence_removal`).
    pub label: &'static str,
    /// Name in a job submission's `endpoint` field (`sentence-removal`).
    pub job: &'static str,
    explain: &'static dyn Explainer,
}

impl Family {
    /// Parse `body` with this family's parser into a request bound to its
    /// run function and keyed by the fields the parser read.
    pub fn parse(&'static self, body: &Value) -> Result<JobRequest, Vec<FieldError>> {
        self.explain.parse(self, body)
    }
}

/// Every cacheable, job-able family, in route-table order.
pub static FAMILIES: &[Family] = &[
    Family {
        path: "/explain/sentence-removal",
        label: "sentence_removal",
        job: "sentence-removal",
        explain: &Explain {
            parse: SentenceRemovalRequest::read,
            run: run_sentence_removal,
        },
    },
    Family {
        path: "/explain/query-augmentation",
        label: "query_augmentation",
        job: "query-augmentation",
        explain: &Explain {
            parse: QueryAugmentationRequest::read,
            run: run_query_augmentation,
        },
    },
    Family {
        path: "/explain/query-reduction",
        label: "query_reduction",
        job: "query-reduction",
        explain: &Explain {
            parse: QueryReductionRequest::read,
            run: run_query_reduction,
        },
    },
    Family {
        path: "/explain/term-removal",
        label: "term_removal",
        job: "term-removal",
        explain: &Explain {
            parse: TermRemovalRequest::read,
            run: run_term_removal,
        },
    },
    Family {
        path: "/explain/feature_attribution",
        label: "feature_attribution",
        job: "feature_attribution",
        explain: &Explain {
            parse: FeatureAttributionRequest::read,
            run: run_feature_attribution,
        },
    },
];

/// Request fields left out of the cache key. The evaluation knobs are
/// proven payload-invariant; `deadline_ms` is wall-clock-relative (deadline
/// partials are never cached, see [`crate::explain_cache`]); the bypass
/// switch only decides whether the cache is consulted; and the corpus
/// selector enters the key resolved, as corpus name and generation.
pub const UNKEYED_FIELDS: &[&str] = &[
    "eval_threads",
    "eval_parallel_threshold",
    "eval_exact",
    "deadline_ms",
    "explain_cache_bypass",
    "corpus",
    "generation",
];

/// A family's typed parser and run function.
struct Explain<R> {
    parse: fn(&mut FieldParser<'_>) -> R,
    run: fn(&AppState, &CorpusSnapshot, &R) -> Response,
}

/// [`Explain`] with its request type erased, so one table holds every
/// family.
trait Explainer: Sync {
    fn parse(&self, family: &'static Family, body: &Value) -> Result<JobRequest, Vec<FieldError>>;
}

impl<R: FamilyRequest> Explainer for Explain<R> {
    fn parse(&self, family: &'static Family, body: &Value) -> Result<JobRequest, Vec<FieldError>> {
        let (request, fields) = FieldParser::parse(body, self.parse)?;
        Ok(JobRequest {
            family,
            fields,
            request: Box::new(Bound {
                run: self.run,
                request,
            }),
        })
    }
}

/// A parsed request together with its family's run function.
struct Bound<R> {
    run: fn(&AppState, &CorpusSnapshot, &R) -> Response,
    request: R,
}

/// [`Bound`] with its request type erased.
pub(crate) trait Runnable: Send + Sync {
    fn run(&self, state: &AppState, snap: &CorpusSnapshot) -> Response;
    fn request(&self) -> &dyn FamilyRequest;
    fn request_mut(&mut self) -> &mut dyn FamilyRequest;
}

impl<R: FamilyRequest> Runnable for Bound<R> {
    fn run(&self, state: &AppState, snap: &CorpusSnapshot) -> Response {
        (self.run)(state, snap, &self.request)
    }
    fn request(&self) -> &dyn FamilyRequest {
        &self.request
    }
    fn request_mut(&mut self) -> &mut dyn FamilyRequest {
        &mut self.request
    }
}

impl JobRequest {
    /// The explanation-cache key against `corpus` at `generation`: the
    /// family label, the corpus and generation, then every field the
    /// parser read outside [`UNKEYED_FIELDS`] with its effective value.
    pub fn cache_key(&self, corpus: &str, generation: u64) -> String {
        let mut key = String::with_capacity(128 + corpus.len() + self.fields.text_len());
        let label = self.family.label;
        let _ = write!(key, "{label}\0{}:{corpus}\0{generation}", corpus.len());
        for (field, value) in self.fields.iter() {
            if !UNKEYED_FIELDS.contains(&field) {
                key.extend(["\0", field, "=", value]);
            }
        }
        key
    }
}

/// Serve a parsed request through the explanation cache: repeated requests
/// hit, concurrent identical requests coalesce, and `explain_cache_bypass`
/// (or a disabled cache) runs the search directly. The synchronous
/// endpoint and the job workers both enter here, so a finished job's
/// stored payload satisfies a matching synchronous request and vice versa.
pub(crate) fn serve(state: &AppState, snap: &CorpusSnapshot, request: &JobRequest) -> Response {
    let run = || request.request.run(state, snap);
    let controls = request.request.request().controls();
    if controls.cache_bypass {
        return run();
    }
    let key = request.cache_key(snap.corpus(), snap.generation());
    state
        .explain_cache()
        .get_or_compute(&key, controls.lifecycle.deadline, run)
}

/// The synchronous endpoint of `family`.
pub(crate) fn handle(state: &AppState, req: &Request, family: &'static Family) -> Reply {
    let (request, snap) = read_request(
        state,
        req,
        |body| family.parse(body),
        JobRequest::corpus_ref,
    )?;
    Ok(serve(state, &snap, &request))
}

/// The payload of the four counterfactual searches: the corpus envelope,
/// how the search ended, and its explanations. Also records the search in
/// the metrics registry.
fn search_response(
    state: &AppState,
    snap: &CorpusSnapshot,
    started: Instant,
    (status, old_rank, evaluated): (SearchStatus, usize, usize),
    explanations: Vec<Value>,
) -> Response {
    state.metrics().record_search(
        status.as_str(),
        evaluated as u64,
        started.elapsed().as_micros() as u64,
    );
    Response::json(
        200,
        to_string(&obj(with_corpus(
            snap,
            vec![
                ("status", Value::from(status.as_str())),
                ("old_rank", Value::from(old_rank)),
                ("candidates_evaluated", Value::from(evaluated)),
                ("explanations", Value::Array(explanations)),
            ],
        ))),
    )
}

/// A JSON array of strings.
fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| Value::from(s.as_str())).collect())
}

fn run_sentence_removal(
    state: &AppState,
    snap: &CorpusSnapshot,
    parsed: &SentenceRemovalRequest,
) -> Response {
    let config = SentenceRemovalConfig {
        n: parsed.n,
        budget: parsed.controls.search,
        eval: parsed.controls.eval,
        lifecycle: parsed.controls.lifecycle.clone(),
        ..Default::default()
    };
    let started = Instant::now();
    match snap
        .engine()
        .sentence_removal(&parsed.query, parsed.k, DocId(parsed.doc as u32), &config)
    {
        Err(e) => explain_error_response(e),
        Ok(result) => {
            let explanations = result
                .explanations
                .iter()
                .map(|e| {
                    obj([
                        (
                            "removed_sentences",
                            Value::Array(e.removed.iter().map(|&i| Value::from(i)).collect()),
                        ),
                        ("removed_text", strings(&e.removed_text)),
                        ("perturbed_body", Value::from(e.perturbed_body.as_str())),
                        ("importance", Value::from(e.importance)),
                        ("old_rank", Value::from(e.old_rank)),
                        ("new_rank", Value::from(e.new_rank)),
                    ])
                })
                .collect();
            let outcome = (result.status, result.old_rank, result.candidates_evaluated);
            search_response(state, snap, started, outcome, explanations)
        }
    }
}

fn run_query_augmentation(
    state: &AppState,
    snap: &CorpusSnapshot,
    parsed: &QueryAugmentationRequest,
) -> Response {
    let config = QueryAugmentationConfig {
        n: parsed.n,
        threshold: parsed.threshold,
        budget: parsed.controls.search,
        eval: parsed.controls.eval,
        lifecycle: parsed.controls.lifecycle.clone(),
        ..Default::default()
    };
    let started = Instant::now();
    match snap.engine().query_augmentation(
        &parsed.query,
        parsed.k,
        DocId(parsed.doc as u32),
        &config,
    ) {
        Err(e) => explain_error_response(e),
        Ok(result) => {
            let explanations = result
                .explanations
                .iter()
                .map(|e| {
                    obj([
                        ("terms", strings(&e.terms)),
                        ("augmented_query", Value::from(e.augmented_query.as_str())),
                        ("tfidf", Value::from(e.tfidf)),
                        ("old_rank", Value::from(e.old_rank)),
                        ("new_rank", Value::from(e.new_rank)),
                    ])
                })
                .collect();
            let outcome = (result.status, result.old_rank, result.candidates_evaluated);
            search_response(state, snap, started, outcome, explanations)
        }
    }
}

fn run_query_reduction(
    state: &AppState,
    snap: &CorpusSnapshot,
    parsed: &QueryReductionRequest,
) -> Response {
    let config = QueryReductionConfig {
        n: parsed.n,
        budget: parsed.controls.search,
        eval: parsed.controls.eval,
        lifecycle: parsed.controls.lifecycle.clone(),
        ..Default::default()
    };
    let started = Instant::now();
    match snap
        .engine()
        .query_reduction(&parsed.query, parsed.k, DocId(parsed.doc as u32), &config)
    {
        Err(e) => explain_error_response(e),
        Ok(result) => {
            let explanations = result
                .explanations
                .iter()
                .map(|e| {
                    obj([
                        ("removed_terms", strings(&e.removed_terms)),
                        ("reduced_query", Value::from(e.reduced_query.as_str())),
                        ("old_rank", Value::from(e.old_rank)),
                        (
                            "new_rank",
                            e.new_rank.map(Value::from).unwrap_or(Value::Null),
                        ),
                    ])
                })
                .collect();
            let outcome = (result.status, result.old_rank, result.candidates_evaluated);
            search_response(state, snap, started, outcome, explanations)
        }
    }
}

fn run_term_removal(
    state: &AppState,
    snap: &CorpusSnapshot,
    parsed: &TermRemovalRequest,
) -> Response {
    let config = TermRemovalConfig {
        n: parsed.n,
        budget: parsed.controls.search,
        eval: parsed.controls.eval,
        lifecycle: parsed.controls.lifecycle.clone(),
        ..Default::default()
    };
    let started = Instant::now();
    match snap
        .engine()
        .term_removal(&parsed.query, parsed.k, DocId(parsed.doc as u32), &config)
    {
        Err(e) => explain_error_response(e),
        Ok(result) => {
            let explanations = result
                .explanations
                .iter()
                .map(|e| {
                    obj([
                        ("removed_terms", strings(&e.removed_terms)),
                        ("perturbed_body", Value::from(e.perturbed_body.as_str())),
                        ("importance", Value::from(e.importance)),
                        ("old_rank", Value::from(e.old_rank)),
                        ("new_rank", Value::from(e.new_rank)),
                    ])
                })
                .collect();
            let outcome = (result.status, result.old_rank, result.candidates_evaluated);
            search_response(state, snap, started, outcome, explanations)
        }
    }
}

/// Serialise a finished feature-attribution run into the REST payload.
/// Public because the CLI prints exactly this body for its local engine —
/// one serialisation point keeps the two surfaces byte-identical.
pub fn feature_attribution_payload(
    corpus: &str,
    generation: u64,
    request: (usize, u64, usize, f64),
    result: &FeatureAttributionResult,
) -> String {
    let (samples, seed, top_m, lambda) = request;
    let attributions: Vec<Value> = result
        .attributions
        .iter()
        .map(|a| {
            obj([
                ("term", Value::from(a.term.as_str())),
                ("weight", Value::from(a.weight)),
            ])
        })
        .collect();
    to_string(&obj([
        ("corpus", Value::from(corpus.to_string())),
        ("generation", Value::from(generation as usize)),
        ("status", Value::from(result.status.as_str())),
        ("old_rank", Value::from(result.old_rank)),
        (
            "candidates_evaluated",
            Value::from(result.samples_evaluated),
        ),
        ("samples", Value::from(samples)),
        ("seed", Value::from(seed as usize)),
        ("top_m", Value::from(top_m)),
        ("lambda", Value::from(lambda)),
        ("features", Value::from(result.features)),
        ("intercept", Value::from(result.intercept)),
        ("fidelity", Value::from(result.fidelity)),
        ("attributions", Value::Array(attributions)),
    ]))
}

/// Safe to cache despite being sampled: the payload is a pure function of
/// the key — the seed pins the mask stream and the generation pins the
/// corpus — so a hit is byte-identical to a recompute.
fn run_feature_attribution(
    state: &AppState,
    snap: &CorpusSnapshot,
    parsed: &FeatureAttributionRequest,
) -> Response {
    let config = FeatureAttributionConfig {
        samples: parsed.samples,
        seed: parsed.seed,
        top_m: parsed.top_m,
        lambda: parsed.lambda,
        max_features: parsed.controls.search.max_candidates,
        eval: parsed.controls.eval,
        lifecycle: parsed.controls.lifecycle.clone(),
    };
    let started = Instant::now();
    match snap.engine().feature_attribution(
        &parsed.query,
        parsed.k,
        DocId(parsed.doc as u32),
        &config,
    ) {
        Err(e) => explain_error_response(e),
        Ok(result) => {
            state.metrics().record_search(
                result.status.as_str(),
                result.samples_evaluated as u64,
                started.elapsed().as_micros() as u64,
            );
            state.lime.record(&result);
            Response::json(
                200,
                feature_attribution_payload(
                    snap.corpus(),
                    snap.generation(),
                    (parsed.samples, parsed.seed, parsed.top_m, parsed.lambda),
                    &result,
                ),
            )
        }
    }
}
