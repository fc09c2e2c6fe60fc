//! Output checks, run on recorded responses after the timed window.
//!
//! * `/rank` bodies must equal an exhaustive-strategy BM25 oracle built in
//!   the harness from the same documents.
//! * Removal counterfactuals (sentence, term, query-term) must re-verify as
//!   valid (new rank > k) against that oracle; augmentation counterfactuals
//!   must reach their threshold; re-rank outcomes must match
//!   `rerank_pool`; instance explanations must name non-relevant documents
//!   with their true rank.
//! * Every repeat of a (request, generation) pair must be byte-identical
//!   (checked by the runner through body hashes).

use std::collections::HashMap;

use credence_index::{Bm25Params, DocId, Document, InvertedIndex};
use credence_json::{parse, Value};
use credence_rank::{rerank_pool, Bm25Ranker, RankedList};

use crate::workload::{oracle_index, ranking, Family, Kind, Op, K};

/// An oracle for one corpus state: its own index over the documents and
/// memoised exhaustive rankings of the requested queries.
pub struct Oracle {
    index: InvertedIndex,
    rankings: HashMap<String, RankedList>,
}

impl Oracle {
    /// Build the oracle's own index over `docs`.
    pub fn new(docs: &[Document]) -> Self {
        Self {
            index: oracle_index(docs),
            rankings: HashMap::new(),
        }
    }

    fn ranker(&self) -> Bm25Ranker<'_> {
        Bm25Ranker::new(&self.index, Bm25Params::default())
    }

    /// The exhaustive-strategy ranking of a requested `query` (memoised).
    fn ranking(&mut self, query: &str) -> &RankedList {
        if !self.rankings.contains_key(query) {
            let list = ranking(&self.index, query);
            self.rankings.insert(query.to_string(), list);
        }
        &self.rankings[query]
    }

    /// Rank of `doc` for a perturbed query (not memoised: each is seen
    /// once).
    fn fresh_rank(&self, query: &str, doc: u32) -> Option<usize> {
        ranking(&self.index, query).rank_of(DocId(doc))
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn uint(v: &Value, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn opt_uint(v: &Value, key: &str) -> Result<Option<usize>, String> {
    let f = field(v, key)?;
    if f.is_null() {
        Ok(None)
    } else {
        uint(v, key).map(Some)
    }
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Check one successful response body of `op` against `oracle`, the corpus
/// state of the generation that answered it.
pub fn check_body(op: &Op, body: &[u8], oracle: &mut Oracle) -> Result<(), String> {
    let text_body = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = parse(text_body).map_err(|e| format!("body is not JSON: {e}"))?;
    match &op.kind {
        Kind::Rank { query } => check_rank(&v, query, oracle),
        Kind::Explain {
            family,
            query,
            doc,
            edited,
        } => {
            expect("corpus", text(&v, "corpus")?, "default")?;
            check_explain(&v, *family, query, *doc, edited.as_deref(), oracle)
        }
        Kind::Write { .. } => expect("status", text(&v, "status")?, "applied"),
    }
}

fn check_rank(v: &Value, query: &str, oracle: &mut Oracle) -> Result<(), String> {
    expect("corpus", text(v, "corpus")?, "default")?;
    let rows = array(v, "ranking")?;
    let want: Vec<(DocId, f64)> = oracle
        .ranking(query)
        .entries()
        .iter()
        .take(K)
        .copied()
        .collect();
    expect("ranking length", rows.len(), want.len())?;
    for (i, (row, &(doc, score))) in rows.iter().zip(&want).enumerate() {
        expect("doc", uint(row, "doc")?, doc.0 as usize)?;
        expect("rank", uint(row, "rank")?, i + 1)?;
        expect(
            "score",
            field(row, "score")?.as_f64().map(f64::to_bits),
            Some(score.to_bits()),
        )?;
        let d = oracle.index.document(doc).ok_or("oracle doc missing")?;
        expect("name", text(row, "name")?, d.name.as_str())?;
        expect("title", text(row, "title")?, d.title.as_str())?;
    }
    Ok(())
}

fn check_explain(
    v: &Value,
    family: Family,
    query: &str,
    doc: u32,
    edited: Option<&str>,
    oracle: &mut Oracle,
) -> Result<(), String> {
    let old_rank = oracle
        .ranking(query)
        .rank_of(DocId(doc))
        .ok_or("instance document is unranked")?;
    let pool = oracle.ranking(query).top_k(K + 1);
    let ranker = oracle.ranker();
    // The pool re-rank of `doc` with `body` substituted for its own.
    let pool_rank = |body: &str| -> Result<usize, String> {
        rerank_pool(&ranker, query, &pool, Some((DocId(doc), body)))
            .iter()
            .find(|r| r.substituted)
            .map(|r| r.new_rank)
            .ok_or_else(|| "instance document missing from its pool".to_string())
    };
    match family {
        Family::SentenceRemoval | Family::TermRemoval => {
            expect("status", text(v, "status")?, "complete")?;
            expect("old_rank", uint(v, "old_rank")?, old_rank)?;
            for e in array(v, "explanations")? {
                let new_rank = pool_rank(text(e, "perturbed_body")?)?;
                expect("counterfactual valid (new rank > k)", new_rank > K, true)?;
                expect("new_rank", uint(e, "new_rank")?, new_rank)?;
            }
        }
        Family::QueryReduction => {
            expect("status", text(v, "status")?, "complete")?;
            expect("old_rank", uint(v, "old_rank")?, old_rank)?;
            for e in array(v, "explanations")? {
                let new_rank = oracle.fresh_rank(text(e, "reduced_query")?, doc);
                expect(
                    "counterfactual valid (new rank > k)",
                    new_rank.is_none_or(|r| r > K),
                    true,
                )?;
                expect("new_rank", opt_uint(e, "new_rank")?, new_rank)?;
            }
        }
        Family::QueryAugmentation => {
            expect("status", text(v, "status")?, "complete")?;
            expect("old_rank", uint(v, "old_rank")?, old_rank)?;
            for e in array(v, "explanations")? {
                let new_rank = oracle.fresh_rank(text(e, "augmented_query")?, doc);
                expect(
                    "counterfactual valid (new rank <= k)",
                    new_rank.is_some_and(|r| r <= K),
                    true,
                )?;
                expect("new_rank", opt_uint(e, "new_rank")?, new_rank)?;
            }
        }
        Family::FeatureAttribution => {
            expect("status", text(v, "status")?, "complete")?;
            expect("old_rank", uint(v, "old_rank")?, old_rank)?;
            expect(
                "samples scored",
                uint(v, "candidates_evaluated")?,
                uint(v, "samples")?,
            )?;
            let attributions = array(v, "attributions")?;
            expect(
                "attributions within top_m",
                attributions.len() <= uint(v, "top_m")?,
                true,
            )?;
            for a in attributions {
                text(a, "term")?;
                expect(
                    "finite weight",
                    field(a, "weight")?.as_f64().is_some_and(f64::is_finite),
                    true,
                )?;
            }
        }
        Family::Doc2VecNearest | Family::CosineSampled => {
            let explanations = array(v, "explanations")?;
            expect("neighbours", explanations.len(), 1)?;
            for e in explanations {
                let other = uint(e, "doc")? as u32;
                expect("neighbour is another document", other != doc, true)?;
                let rank = oracle.ranking(query).rank_of(DocId(other));
                expect(
                    "neighbour is non-relevant",
                    rank.is_none_or(|r| r > K),
                    true,
                )?;
                expect("neighbour rank", opt_uint(e, "rank")?, rank)?;
            }
        }
        Family::Rerank => {
            let new_rank = pool_rank(edited.ok_or("re-rank without an edit")?)?;
            expect("old_rank", uint(v, "old_rank")?, old_rank)?;
            expect("new_rank", uint(v, "new_rank")?, new_rank)?;
            expect("valid", field(v, "valid")?.as_bool(), Some(new_rank > K))?;
        }
    }
    Ok(())
}

/// FNV-1a over a response body with the digits of its top-level
/// `generation` left out: two answers that differ only in the generation
/// they report hash alike, so one copy of each is enough for the checks.
/// Cheap enough to run inside the timed window.
pub fn content_hash(body: &[u8]) -> u64 {
    let digits = generation_digits(body).unwrap_or(0..0);
    [&body[..digits.start], &body[digits.end..]]
        .iter()
        .flat_map(|part| part.iter())
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The top-level `generation` a response body reports, or 0 when absent.
pub fn generation_of(body: &[u8]) -> u32 {
    generation_digits(body).map_or(0, |digits| {
        body[digits].iter().fold(0u32, |n, &b| {
            n.saturating_mul(10).saturating_add(u32::from(b - b'0'))
        })
    })
}

/// Where the digits of the top-level `generation` sit in `body`. A quote
/// inside a JSON string is escaped, so the unescaped key can only be the
/// field itself.
fn generation_digits(body: &[u8]) -> Option<std::ops::Range<usize>> {
    const KEY: &[u8] = b"\"generation\":";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let len = body[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    Some(start..start + len)
}
