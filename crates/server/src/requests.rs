//! Typed request parsing for the REST surface.
//!
//! Every `POST` endpoint has a request struct (`SentenceRemovalRequest`,
//! `RankRequest`, …) with a `parse` constructor that reads the JSON body in
//! one place. Parsing is *total*: every invalid field is recorded (not just
//! the first), every key the parser never read is rejected by name, and the
//! caller receives either the fully-validated struct or the complete list
//! of [`FieldError`]s to fold into one `invalid_field` error envelope.
//!
//! Parsing is also *self-keying*: [`FieldParser`] records every key it
//! reads together with its effective (default-filled) value, and that
//! record is what the explanation cache keys a request by (see
//! [`crate::families`]).
//!
//! The shared search controls (`eval_*`, `deadline_ms`, `max_evals`,
//! `max_size`, `max_candidates`) parse into [`SearchControls`]; the
//! deadline starts ticking at parse time, i.e. from request arrival.

use std::fmt::{self, Write};

use credence_core::{Budget, EvalOptions, SearchBudget, SearchStrategy};
use credence_index::{Document, PartitionSpec};
use credence_json::Value;

use crate::families::{Family, Runnable, FAMILIES};

/// The corpus served when a request does not name one — the corpus built
/// from the documents the process was started with, preserving the
/// single-tenant behavior of earlier API versions.
pub const DEFAULT_CORPUS: &str = "default";

/// One invalid request field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The offending field name.
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl FieldError {
    fn new(field: &str, message: impl Into<String>) -> Self {
        Self {
            field: field.to_string(),
            message: message.into(),
        }
    }
}

/// Every key a [`FieldParser`] read, in read order, with its effective
/// (default-filled) value in canonical text form: strings length-prefixed,
/// integers in decimal, `f64` by its bits, absent optionals `null`.
#[derive(Debug)]
pub struct Fields {
    /// `(key, end)`: the key's value is `text[previous end..end]`.
    entries: Vec<(&'static str, usize)>,
    text: String,
}

impl Fields {
    /// Each key read, with its canonical value, in read order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, &str)> {
        let mut start = 0;
        self.entries.iter().map(move |&(key, end)| {
            let value = &self.text[start..end];
            start = end;
            (key, value)
        })
    }

    /// Total length of the canonical values.
    pub(crate) fn text_len(&self) -> usize {
        self.text.len()
    }

    fn record(&mut self, key: &'static str, write: impl FnOnce(&mut String)) {
        write(&mut self.text);
        self.entries.push((key, self.text.len()));
    }

    fn contains(&self, key: &str) -> bool {
        self.entries.iter().any(|&(read, _)| read == key)
    }
}

/// Append `n` in decimal: the parser records every integer it reads, so
/// this skips the formatting machinery.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| d as char));
}

/// A JSON field type [`FieldParser`] can read.
pub trait FieldType: Sized {
    /// The noun in the missing-required-field message.
    const KIND: &'static str;
    /// The message for a present value of the wrong type.
    const INVALID: &'static str;
    /// Convert a present JSON value, `None` when it does not fit.
    fn from_json(value: &Value) -> Option<Self>;
    /// Append the canonical text recorded in [`Fields`].
    fn write_canonical(&self, out: &mut String);
}

impl FieldType for String {
    const KIND: &'static str = "string";
    const INVALID: &'static str = "must be a string";
    fn from_json(value: &Value) -> Option<Self> {
        value.as_str().map(str::to_string)
    }
    fn write_canonical(&self, out: &mut String) {
        push_decimal(out, self.len() as u64);
        out.push(':');
        out.push_str(self);
    }
}

impl FieldType for u64 {
    const KIND: &'static str = "integer";
    const INVALID: &'static str = "must be a non-negative integer";
    fn from_json(value: &Value) -> Option<Self> {
        value.as_u64()
    }
    fn write_canonical(&self, out: &mut String) {
        push_decimal(out, *self);
    }
}

impl FieldType for usize {
    const KIND: &'static str = "integer";
    const INVALID: &'static str = "must be a non-negative integer";
    fn from_json(value: &Value) -> Option<Self> {
        value.as_u64().map(|n| n as usize)
    }
    fn write_canonical(&self, out: &mut String) {
        push_decimal(out, *self as u64);
    }
}

impl FieldType for f64 {
    const KIND: &'static str = "number";
    const INVALID: &'static str = "must be a finite non-negative number";
    fn from_json(value: &Value) -> Option<Self> {
        value.as_f64().filter(|n| n.is_finite() && *n >= 0.0)
    }
    fn write_canonical(&self, out: &mut String) {
        let _ = write!(out, "{:#x}", self.to_bits());
    }
}

impl FieldType for bool {
    const KIND: &'static str = "boolean";
    const INVALID: &'static str = "must be a boolean";
    fn from_json(value: &Value) -> Option<Self> {
        value.as_bool()
    }
    fn write_canonical(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// Accumulating field reader over a JSON object body.
///
/// Getter methods record an error and return a placeholder on failure, so a
/// handler can read every field before deciding; each also records the key
/// as read. [`FieldParser::finish`] rejects every key never read and
/// returns the verdict.
pub struct FieldParser<'v> {
    body: &'v Value,
    errors: Vec<FieldError>,
    fields: Fields,
}

impl<'v> FieldParser<'v> {
    /// A parser over `body`, which must be a JSON object (callers validate
    /// that before constructing one).
    pub fn new(body: &'v Value) -> Self {
        Self {
            body,
            errors: Vec::new(),
            fields: Fields {
                entries: Vec::with_capacity(16),
                text: String::with_capacity(64),
            },
        }
    }

    /// Run `read` over `body`, then [`finish`](Self::finish): the value
    /// `read` built and every field it read, or all field errors at once.
    pub fn parse<T>(
        body: &'v Value,
        read: impl FnOnce(&mut Self) -> T,
    ) -> Result<(T, Fields), Vec<FieldError>> {
        let mut p = Self::new(body);
        let out = read(&mut p);
        p.finish().map(|fields| (out, fields))
    }

    /// `key`'s value: `Ok(None)` when absent, `Err(())` (with the error
    /// recorded) when present but not a `T`.
    fn lookup<T: FieldType>(&mut self, key: &str) -> Result<Option<T>, ()> {
        let body = self.body;
        match body.get(key) {
            None => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .ok_or_else(|| self.reject(key, T::INVALID)),
        }
    }

    /// A required field (`T`'s default stands in when missing or invalid).
    pub fn require<T: FieldType + Default>(&mut self, key: &'static str) -> T {
        let value = match self.lookup(key) {
            Ok(Some(v)) => v,
            Ok(None) => {
                self.reject(key, format!("missing required {} field", T::KIND));
                T::default()
            }
            Err(()) => T::default(),
        };
        self.fields.record(key, |out| value.write_canonical(out));
        value
    }

    /// A required document id: a non-negative integer that fits a `u32`
    /// [`DocId`](credence_index::DocId).
    pub fn require_doc(&mut self, key: &'static str) -> usize {
        let doc: usize = self.require(key);
        if doc > u32::MAX as usize {
            self.reject(key, "must be a document id (at most 4294967295)");
        }
        doc
    }

    /// An optional field with a default.
    pub fn optional<T: FieldType>(&mut self, key: &'static str, default: T) -> T {
        let value = self.lookup(key).ok().flatten().unwrap_or(default);
        self.fields.record(key, |out| value.write_canonical(out));
        value
    }

    /// An optional field with no default.
    pub fn maybe<T: FieldType>(&mut self, key: &'static str) -> Option<T> {
        let value: Option<T> = self.lookup(key).ok().flatten();
        self.fields.record(key, |out| match &value {
            Some(v) => v.write_canonical(out),
            None => out.push_str("null"),
        });
        value
    }

    /// The raw value under `key`, for fields the caller interprets itself
    /// (recorded as read, with no canonical value).
    pub fn value(&mut self, key: &'static str) -> Option<&'v Value> {
        self.fields.record(key, |_| {});
        self.body.get(key)
    }

    /// Whether the body carries `key` at all (for both-or-neither checks).
    pub fn has(&mut self, key: &'static str) -> bool {
        let present = self.body.get(key).is_some();
        self.fields.record(key, |out| present.write_canonical(out));
        present
    }

    /// Record an error against `field` from handler-level validation.
    pub fn reject(&mut self, field: &str, message: impl Into<String>) {
        self.errors.push(FieldError::new(field, message));
    }

    /// Reject every key no getter read, then return the record of read
    /// fields, or all accumulated errors. Unknown fields report in key
    /// order — the body is a `BTreeMap`, so the order is deterministic.
    pub fn finish(mut self) -> Result<Fields, Vec<FieldError>> {
        if let Some(object) = self.body.as_object() {
            for key in object.keys() {
                if !self.fields.contains(key) {
                    self.errors
                        .push(FieldError::new(key, "unknown field (check for typos)"));
                }
            }
        }
        if self.errors.is_empty() {
            Ok(self.fields)
        } else {
            Err(self.errors)
        }
    }
}

/// Parsed search controls: evaluation-engine knobs, enumeration limits,
/// and the request-lifecycle [`Budget`].
#[derive(Debug, Clone, Default)]
pub struct SearchControls {
    /// Candidate-evaluation knobs (`eval_threads`,
    /// `eval_parallel_threshold`, `eval_exact`).
    pub eval: EvalOptions,
    /// Candidate-enumeration limits (`max_size`, `max_candidates`), applied
    /// over the explainer defaults.
    pub search: SearchBudget,
    /// The request budget (`deadline_ms`, `max_evals`); unlimited when
    /// neither field is present.
    pub lifecycle: Budget,
    /// Skip the server's explanation cache for this request
    /// (`explain_cache_bypass`): neither read from it nor populate it.
    pub cache_bypass: bool,
}

impl SearchControls {
    /// Read the shared control fields off `p` (absent fields keep their
    /// defaults).
    pub fn parse(p: &mut FieldParser<'_>) -> Self {
        let (eval, search) = (EvalOptions::default(), SearchBudget::default());
        let eval = EvalOptions {
            threads: p.optional("eval_threads", eval.threads),
            parallel_threshold: p.optional("eval_parallel_threshold", eval.parallel_threshold),
            force_exact: p.optional("eval_exact", eval.force_exact),
        };
        let search = SearchBudget {
            max_size: p.optional("max_size", search.max_size),
            max_candidates: p.optional("max_candidates", search.max_candidates),
            ..search
        };
        let mut lifecycle = Budget::unlimited();
        if let Some(ms) = p.maybe("deadline_ms") {
            lifecycle = lifecycle.with_deadline_ms(ms);
        }
        if let Some(evals) = p.maybe("max_evals") {
            lifecycle = lifecycle.with_max_evals(evals);
        }
        Self {
            eval,
            search,
            lifecycle,
            cache_bypass: p.optional("explain_cache_bypass", false),
        }
    }
}

/// Corpus selector carried by every request: which registered corpus to
/// serve from, and optionally which pinned generation. Absent fields mean
/// "the default corpus, at whatever generation is live".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusRef {
    /// Registered corpus name.
    pub corpus: String,
    /// Pinned generation; `None` reads the live snapshot.
    pub generation: Option<u64>,
}

impl Default for CorpusRef {
    fn default() -> Self {
        Self {
            corpus: DEFAULT_CORPUS.to_string(),
            generation: None,
        }
    }
}

impl CorpusRef {
    /// Read the `corpus` and `generation` fields off `p`.
    pub fn parse(p: &mut FieldParser<'_>) -> Self {
        let mut corpus = p.optional("corpus", DEFAULT_CORPUS.to_string());
        if corpus.is_empty() {
            p.reject("corpus", "must be a non-empty string");
            corpus = DEFAULT_CORPUS.to_string();
        }
        let generation = p.maybe("generation");
        Self { corpus, generation }
    }
}

/// `POST /api/v1/rank`.
#[derive(Debug, Clone)]
pub struct RankRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// Per-request retrieval strategy override
    /// (`auto` | `exhaustive` | `pruned` | `bmw` | `sharded`).
    pub search_strategy: Option<SearchStrategy>,
    /// Per-request shard-count override for the sharded path (0 = one per
    /// available core).
    pub search_shards: Option<usize>,
    /// Restrict scoring to one doc-hash partition (`partition_index` +
    /// `partition_count` in the body). The cluster router sets this on each
    /// fanout leg; plain clients normally omit both fields.
    pub partition: Option<PartitionSpec>,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl RankRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let search_strategy = match p.maybe::<String>("search_strategy") {
            None => None,
            Some(s) => match SearchStrategy::parse(&s) {
                Some(strategy) => Some(strategy),
                None => {
                    p.reject(
                        "search_strategy",
                        "must be one of: auto, exhaustive, pruned, bmw, sharded",
                    );
                    None
                }
            },
        };
        let partition = match (
            p.maybe::<u64>("partition_index"),
            p.maybe::<u64>("partition_count"),
        ) {
            (None, None) => None,
            (Some(index), Some(count)) => {
                if count == 0 || count > u32::MAX as u64 {
                    p.reject("partition_count", "must be between 1 and 2^32-1");
                    None
                } else if index >= count {
                    p.reject("partition_index", "must be less than partition_count");
                    None
                } else {
                    PartitionSpec::new(index as u32, count as u32)
                }
            }
            (Some(_), None) => {
                p.reject("partition_count", "required when partition_index is set");
                None
            }
            (None, Some(_)) => {
                p.reject("partition_index", "required when partition_count is set");
                None
            }
        };
        let out = Self {
            query: p.require("query"),
            k: p.require("k"),
            search_strategy,
            search_shards: p.maybe("search_shards"),
            partition,
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// The request of a family in [`FAMILIES`]: what the shared handler, the
/// cache front and the job queue read off any family's parsed request.
pub(crate) trait FamilyRequest: fmt::Debug + Send + Sync + 'static {
    /// The corpus selector.
    fn corpus(&self) -> &CorpusRef;
    /// The shared search controls.
    fn controls(&self) -> &SearchControls;
    /// The shared search controls, for the job queue's cancel flag.
    fn controls_mut(&mut self) -> &mut SearchControls;
}

/// Implement [`FamilyRequest`] for a request struct with `corpus` and
/// `controls` fields, and give it the public `parse` every request has.
macro_rules! family_request {
    ($request:ty) => {
        impl $request {
            /// Parse and fully validate the request body.
            pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
                FieldParser::parse(body, Self::read).map(|(request, _)| request)
            }
        }

        impl FamilyRequest for $request {
            fn corpus(&self) -> &CorpusRef {
                &self.corpus
            }
            fn controls(&self) -> &SearchControls {
                &self.controls
            }
            fn controls_mut(&mut self) -> &mut SearchControls {
                &mut self.controls
            }
        }
    };
}

/// `POST /api/v1/explain/sentence-removal`.
#[derive(Debug, Clone)]
pub struct SentenceRemovalRequest {
    /// The query.
    pub query: String,
    /// Ranking depth (the document must drop past `k`).
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Maximum explanations to return.
    pub n: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
    /// Shared search controls.
    pub controls: SearchControls,
}

family_request!(SentenceRemovalRequest);

impl SentenceRemovalRequest {
    pub(crate) fn read(p: &mut FieldParser<'_>) -> Self {
        Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            n: p.optional("n", 1),
            corpus: CorpusRef::parse(p),
            controls: SearchControls::parse(p),
        }
    }
}

/// `POST /api/v1/explain/query-augmentation`.
#[derive(Debug, Clone)]
pub struct QueryAugmentationRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Maximum explanations to return.
    pub n: usize,
    /// Rank the document must reach (`new_rank <= threshold`).
    pub threshold: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
    /// Shared search controls.
    pub controls: SearchControls,
}

family_request!(QueryAugmentationRequest);

impl QueryAugmentationRequest {
    pub(crate) fn read(p: &mut FieldParser<'_>) -> Self {
        Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            n: p.optional("n", 1),
            threshold: p.optional("threshold", 1),
            corpus: CorpusRef::parse(p),
            controls: SearchControls::parse(p),
        }
    }
}

/// `POST /api/v1/explain/query-reduction`.
#[derive(Debug, Clone)]
pub struct QueryReductionRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Maximum explanations to return.
    pub n: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
    /// Shared search controls.
    pub controls: SearchControls,
}

family_request!(QueryReductionRequest);

impl QueryReductionRequest {
    pub(crate) fn read(p: &mut FieldParser<'_>) -> Self {
        Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            n: p.optional("n", 1),
            corpus: CorpusRef::parse(p),
            controls: SearchControls::parse(p),
        }
    }
}

/// `POST /api/v1/explain/term-removal`.
#[derive(Debug, Clone)]
pub struct TermRemovalRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Maximum explanations to return.
    pub n: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
    /// Shared search controls.
    pub controls: SearchControls,
}

family_request!(TermRemovalRequest);

impl TermRemovalRequest {
    pub(crate) fn read(p: &mut FieldParser<'_>) -> Self {
        Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            n: p.optional("n", 1),
            corpus: CorpusRef::parse(p),
            controls: SearchControls::parse(p),
        }
    }
}

/// `POST /api/v1/explain/feature_attribution`.
#[derive(Debug, Clone)]
pub struct FeatureAttributionRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Perturbed document variants to draw and score.
    pub samples: usize,
    /// Mask-sampler seed; the payload is byte-identical per seed.
    pub seed: u64,
    /// Maximum attributions returned.
    pub top_m: usize,
    /// Ridge regularisation strength for the surrogate fit.
    pub lambda: f64,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
    /// Shared search controls.
    pub controls: SearchControls,
}

family_request!(FeatureAttributionRequest);

impl FeatureAttributionRequest {
    /// Defaults mirror `credence_core::lime::FeatureAttributionConfig::default()`.
    pub(crate) fn read(p: &mut FieldParser<'_>) -> Self {
        Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            samples: p.optional("samples", 256),
            seed: p.optional("seed", 42),
            top_m: p.optional("top_m", 10),
            lambda: p.optional("lambda", 1e-3),
            corpus: CorpusRef::parse(p),
            controls: SearchControls::parse(p),
        }
    }
}

/// `POST /api/v1/explain/doc2vec-nearest`.
#[derive(Debug, Clone)]
pub struct Doc2VecNearestRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Neighbours to return.
    pub n: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl Doc2VecNearestRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            n: p.optional("n", 1),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// `POST /api/v1/explain/cosine-sampled`.
#[derive(Debug, Clone)]
pub struct CosineSampledRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Neighbours to return.
    pub n: usize,
    /// Score-vector sample override.
    pub samples: Option<usize>,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl CosineSampledRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            n: p.optional("n", 1),
            samples: p.maybe("samples"),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// `POST /api/v1/topics`.
#[derive(Debug, Clone)]
pub struct TopicsRequest {
    /// The query.
    pub query: String,
    /// Ranking depth (LDA fits over the top-k).
    pub k: usize,
    /// Topics to fit.
    pub num_topics: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl TopicsRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require("query"),
            k: p.require("k"),
            num_topics: p.optional("num_topics", 3),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// `POST /api/v1/snippet`.
#[derive(Debug, Clone)]
pub struct SnippetRequest {
    /// The query whose terms are highlighted.
    pub query: String,
    /// The document id.
    pub doc: usize,
    /// Snippet window, in tokens.
    pub window: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl SnippetRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require("query"),
            doc: p.require_doc("doc"),
            window: p.optional("window", 24),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// `POST /api/v1/explain/nearest-to-text`.
#[derive(Debug, Clone)]
pub struct NearestToTextRequest {
    /// Free text to embed.
    pub text: String,
    /// Neighbours to return.
    pub n: usize,
    /// Exclude the top-k for this query (both-or-neither with `k`).
    pub exclude: Option<(String, usize)>,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl NearestToTextRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let text = p.require("text");
        let n = p.optional("n", 3);
        let exclude = match (p.has("query"), p.has("k")) {
            (false, false) => None,
            (true, true) => Some((p.require("query"), p.require("k"))),
            (true, false) => {
                p.reject("k", "required whenever 'query' is present");
                None
            }
            (false, true) => {
                p.reject("query", "required whenever 'k' is present");
                None
            }
        };
        let out = Self {
            text,
            n,
            exclude,
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// `POST /api/v1/rerank` (the builder's free-form perturbation test).
#[derive(Debug, Clone)]
pub struct RerankRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// The edited body to re-rank.
    pub body: String,
    /// Request budget (`deadline_ms`; the builder runs exactly one
    /// evaluation, so `max_evals` does not apply here).
    pub lifecycle: Budget,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl RerankRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let mut lifecycle = Budget::unlimited();
        if let Some(ms) = p.maybe("deadline_ms") {
            lifecycle = lifecycle.with_deadline_ms(ms);
        }
        let out = Self {
            query: p.require("query"),
            k: p.require("k"),
            doc: p.require_doc("doc"),
            body: p.require("body"),
            lifecycle,
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish().map(|_| out)
    }
}

/// A parsed request of one of the [`FAMILIES`], as admitted into the async
/// job queue: it wraps the exact request struct the synchronous endpoint
/// parses, together with the record of its fields, so executing it goes
/// through the same cache front and produces the same payload bit-for-bit.
pub struct JobRequest {
    pub(crate) family: &'static Family,
    pub(crate) fields: Fields,
    pub(crate) request: Box<dyn Runnable>,
}

impl JobRequest {
    /// The job-submission name of this request's family.
    pub fn endpoint(&self) -> &'static str {
        self.family.job
    }

    /// The request's lifecycle [`Budget`], for the job queue to install its
    /// cancel flag into.
    pub fn lifecycle_mut(&mut self) -> &mut Budget {
        &mut self.request.request_mut().controls_mut().lifecycle
    }

    /// The corpus this request targets, for snapshot resolution.
    pub fn corpus_ref(&self) -> &CorpusRef {
        self.request.request().corpus()
    }
}

impl fmt::Debug for JobRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobRequest")
            .field("endpoint", &self.family.job)
            .field("request", self.request.request())
            .finish()
    }
}

/// `POST /api/v1/jobs`: an `{endpoint, request}` envelope whose `request`
/// object is parsed by the named family's own parser.
#[derive(Debug)]
pub struct JobSubmitRequest {
    /// The parsed explanation request to enqueue.
    pub request: JobRequest,
}

impl JobSubmitRequest {
    /// Parse and fully validate the submission envelope. Inner request
    /// errors are reported with a `request.`-prefixed field path.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let endpoint: String = p.require("endpoint");
        let family = FAMILIES.iter().find(|f| f.job == endpoint);
        if family.is_none() && body.get("endpoint").and_then(Value::as_str).is_some() {
            let names: Vec<&str> = FAMILIES.iter().map(|f| f.job).collect();
            p.reject("endpoint", format!("must be one of: {}", names.join(", ")));
        }
        let inner = match p.value("request") {
            Some(v) if v.as_object().is_some() => Some(v),
            Some(_) => {
                p.reject("request", "must be a JSON object");
                None
            }
            None => {
                p.reject("request", "missing required object field");
                None
            }
        };
        let request = match (family, inner) {
            (Some(family), Some(inner)) => match family.parse(inner) {
                Ok(request) => Some(request),
                Err(errors) => {
                    for e in errors {
                        p.reject(&format!("request.{}", e.field), e.message);
                    }
                    None
                }
            },
            _ => None,
        };
        p.finish()?;
        request.map(|request| Self { request }).ok_or_else(Vec::new)
    }
}

/// Parse one `{name?, title?, body}` document object; errors are reported
/// against `prefix.<field>`.
fn parse_doc_object(p: &mut FieldParser<'_>, prefix: &str, item: &Value) -> Option<Document> {
    if item.as_object().is_none() {
        p.reject(prefix, "must be a JSON object");
        return None;
    }
    let mut dp = FieldParser::new(item);
    let doc = Document::new(
        dp.optional("name", String::new()),
        dp.optional("title", String::new()),
        dp.require::<String>("body"),
    );
    match dp.finish() {
        Ok(_) => Some(doc),
        Err(errors) => {
            for e in errors {
                p.reject(&format!("{prefix}.{}", e.field), e.message);
            }
            None
        }
    }
}

/// `PUT /api/v1/corpora/{name}`: register or hot-swap a corpus.
#[derive(Debug, Clone)]
pub struct CorpusPutRequest {
    /// The documents to index as generation 0.
    pub docs: Vec<Document>,
}

impl CorpusPutRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let mut docs = Vec::new();
        match p.value("docs") {
            Some(value) => match value.as_array() {
                Some(items) => {
                    if items.is_empty() {
                        p.reject("docs", "must contain at least one document");
                    }
                    for (i, item) in items.iter().enumerate() {
                        if let Some(doc) = parse_doc_object(&mut p, &format!("docs[{i}]"), item) {
                            docs.push(doc);
                        }
                    }
                    let mut seen = std::collections::BTreeSet::new();
                    for (i, doc) in docs.iter().enumerate() {
                        if !doc.name.is_empty() && !seen.insert(doc.name.as_str()) {
                            p.reject(
                                &format!("docs[{i}].name"),
                                "duplicate document name in corpus",
                            );
                        }
                    }
                }
                None => p.reject("docs", "must be an array of documents"),
            },
            None => p.reject("docs", "missing required array field"),
        }
        p.finish().map(|_| Self { docs })
    }
}

/// `POST /api/v1/corpora/{name}/docs`: add a new document (409 when the
/// name already exists).
#[derive(Debug, Clone)]
pub struct DocAddRequest {
    /// The document; `name` is required so the add/exists contract is
    /// well-defined.
    pub doc: Document,
    /// When true, the response waits for the staged op to fold into a
    /// published generation (read-your-write); otherwise it returns 202
    /// with the staging ticket.
    pub refresh: bool,
}

impl DocAddRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let name: String = p.require("name");
        if p.has("name") && name.is_empty() {
            p.reject("name", "must be a non-empty string");
        }
        let out = Self {
            doc: Document::new(
                name,
                p.optional("title", String::new()),
                p.require::<String>("body"),
            ),
            refresh: p.optional("refresh", false),
        };
        p.finish().map(|_| out)
    }
}

/// `PUT /api/v1/corpora/{name}/docs/{id}`: upsert the document named by
/// the path.
#[derive(Debug, Clone)]
pub struct DocPutRequest {
    /// Display title (not scored).
    pub title: String,
    /// The body text.
    pub body: String,
    /// Wait for the fold before answering (see [`DocAddRequest::refresh`]).
    pub refresh: bool,
}

impl DocPutRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            title: p.optional("title", String::new()),
            body: p.require("body"),
            refresh: p.optional("refresh", false),
        };
        p.finish().map(|_| out)
    }
}

/// Optional `{refresh}` body for `DELETE .../docs/{id}` (an absent or
/// empty body means `refresh: false`).
#[derive(Debug, Clone, Default)]
pub struct RefreshRequest {
    /// Wait for the fold before answering.
    pub refresh: bool,
}

impl RefreshRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            refresh: p.optional("refresh", false),
        };
        p.finish().map(|_| out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_json::parse;

    fn value(text: &str) -> Value {
        parse(text).unwrap()
    }

    #[test]
    fn valid_rank_request_parses() {
        let req = RankRequest::parse(&value(r#"{"query": "covid", "k": 3}"#)).unwrap();
        assert_eq!(req.query, "covid");
        assert_eq!(req.k, 3);
    }

    #[test]
    fn rank_request_parses_retrieval_overrides() {
        let req = RankRequest::parse(&value(
            r#"{"query": "q", "k": 3, "search_strategy": "pruned", "search_shards": 4}"#,
        ))
        .unwrap();
        assert_eq!(req.search_strategy, Some(SearchStrategy::Pruned));
        assert_eq!(req.search_shards, Some(4));
        let bmw = RankRequest::parse(&value(
            r#"{"query": "q", "k": 3, "search_strategy": "bmw"}"#,
        ))
        .unwrap();
        assert_eq!(bmw.search_strategy, Some(SearchStrategy::BlockMax));
        let plain = RankRequest::parse(&value(r#"{"query": "q", "k": 3}"#)).unwrap();
        assert_eq!(plain.search_strategy, None);
        assert_eq!(plain.search_shards, None);
        let errs = RankRequest::parse(&value(
            r#"{"query": "q", "k": 3, "search_strategy": "fastest"}"#,
        ))
        .unwrap_err();
        assert_eq!(errs[0].field, "search_strategy");
    }

    #[test]
    fn all_invalid_fields_reported_at_once() {
        let errs = RankRequest::parse(&value(r#"{"query": 7, "k": "three"}"#)).unwrap_err();
        assert_eq!(errs.len(), 2);
        let fields: Vec<&str> = errs.iter().map(|e| e.field.as_str()).collect();
        assert!(fields.contains(&"query"));
        assert!(fields.contains(&"k"));
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        let errs =
            RankRequest::parse(&value(r#"{"query": "q", "k": 3, "kk": 1, "zz": 2}"#)).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].field, "kk");
        assert_eq!(errs[1].field, "zz");
        assert!(errs[0].message.contains("unknown"));
    }

    #[test]
    fn missing_and_unknown_errors_combine() {
        let errs =
            SentenceRemovalRequest::parse(&value(r#"{"query": "q", "bogus": 1}"#)).unwrap_err();
        let fields: Vec<&str> = errs.iter().map(|e| e.field.as_str()).collect();
        assert!(fields.contains(&"k"));
        assert!(fields.contains(&"doc"));
        assert!(fields.contains(&"bogus"));
    }

    #[test]
    fn search_controls_parse_all_knobs() {
        let req = SentenceRemovalRequest::parse(&value(
            r#"{"query": "q", "k": 3, "doc": 2, "n": 2,
                "eval_threads": 4, "eval_parallel_threshold": 8, "eval_exact": true,
                "deadline_ms": 60000, "max_evals": 50, "max_size": 3, "max_candidates": 12}"#,
        ))
        .unwrap();
        assert_eq!(req.controls.eval.threads, 4);
        assert_eq!(req.controls.eval.parallel_threshold, 8);
        assert!(req.controls.eval.force_exact);
        assert_eq!(req.controls.search.max_size, 3);
        assert_eq!(req.controls.search.max_candidates, 12);
        assert_eq!(req.controls.lifecycle.max_evals, Some(50));
        assert!(req.controls.lifecycle.deadline.is_some());
    }

    #[test]
    fn absent_controls_mean_unlimited_budget_and_defaults() {
        let req =
            SentenceRemovalRequest::parse(&value(r#"{"query": "q", "k": 3, "doc": 2}"#)).unwrap();
        assert!(req.controls.lifecycle.is_unlimited());
        assert_eq!(req.controls.eval, EvalOptions::default());
        assert_eq!(req.n, 1);
    }

    #[test]
    fn negative_integers_are_invalid() {
        let errs = RankRequest::parse(&value(r#"{"query": "q", "k": -1}"#)).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].field, "k");
    }

    #[test]
    fn nearest_to_text_requires_query_and_k_together() {
        let ok = NearestToTextRequest::parse(&value(r#"{"text": "t", "n": 2}"#)).unwrap();
        assert!(ok.exclude.is_none());
        let ok = NearestToTextRequest::parse(&value(r#"{"text": "t", "query": "covid", "k": 3}"#))
            .unwrap();
        assert_eq!(ok.exclude, Some(("covid".to_string(), 3)));
        let errs =
            NearestToTextRequest::parse(&value(r#"{"text": "t", "query": "covid"}"#)).unwrap_err();
        assert_eq!(errs[0].field, "k");
    }

    #[test]
    fn rerank_accepts_a_deadline() {
        let req = RerankRequest::parse(&value(
            r#"{"query": "q", "k": 3, "doc": 2, "body": "edited", "deadline_ms": 0}"#,
        ))
        .unwrap();
        assert!(req.lifecycle.deadline.is_some());
        let errs = RerankRequest::parse(&value(r#"{"query": "q", "k": 3, "doc": 2}"#)).unwrap_err();
        assert_eq!(errs[0].field, "body");
    }
}
