//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a self-test keeps the two in step.

use std::fmt::Write;

/// One catalogued metric: name, unit, and whether lower or higher is better.
pub type Spec = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p99_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p95_ms", "ms", "lower"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload.
pub const PER_LAYER: &[Spec] = &[
    ("transport.self_p50_us", "us", "lower"),
    ("transport.self_p99_us", "us", "lower"),
    ("transport.connections_per_request", "conn/req", "lower"),
    ("trace.matched_share", "ratio", "higher"),
    ("service.rank.handler_p50_us", "us", "lower"),
    ("service.rank.handler_p99_us", "us", "lower"),
    ("service.sentence_removal.handler_p50_us", "us", "lower"),
    ("service.sentence_removal.handler_p99_us", "us", "lower"),
    ("service.term_removal.handler_p50_us", "us", "lower"),
    ("service.term_removal.handler_p99_us", "us", "lower"),
    ("service.query_reduction.handler_p50_us", "us", "lower"),
    ("service.query_reduction.handler_p99_us", "us", "lower"),
    ("service.query_augmentation.handler_p50_us", "us", "lower"),
    ("service.query_augmentation.handler_p99_us", "us", "lower"),
    ("service.feature_attribution.handler_p50_us", "us", "lower"),
    ("service.feature_attribution.handler_p99_us", "us", "lower"),
    ("service.doc2vec_nearest.handler_p50_us", "us", "lower"),
    ("service.doc2vec_nearest.handler_p99_us", "us", "lower"),
    ("service.cosine_sampled.handler_p50_us", "us", "lower"),
    ("service.cosine_sampled.handler_p99_us", "us", "lower"),
    ("service.rerank.handler_p50_us", "us", "lower"),
    ("service.rerank.handler_p99_us", "us", "lower"),
    ("service.corpora.handler_p50_us", "us", "lower"),
    ("service.corpora.handler_p99_us", "us", "lower"),
    ("service.handler_p50_us", "us", "lower"),
    ("service.parse_p50_us", "us", "lower"),
    ("service.resolve_p50_us", "us", "lower"),
    ("service.engine_p50_us", "us", "lower"),
    ("service.serialise_p50_us", "us", "lower"),
    ("service.unattributed_p50_us", "us", "lower"),
    ("explain_cache.hits", "count", "higher"),
    ("explain_cache.misses", "count", "lower"),
    ("explain_cache.coalesced", "count", "higher"),
    ("explain_cache.evictions", "count", "lower"),
    ("explain_cache.hit_ratio", "ratio", "higher"),
    ("ranking_cache.hits", "count", "higher"),
    ("ranking_cache.misses", "count", "lower"),
    ("ranking_cache.evictions", "count", "lower"),
    ("ranking_cache.hit_ratio", "ratio", "higher"),
    ("retrieval.miss_p50_us", "us", "lower"),
    ("retrieval.miss_p99_us", "us", "lower"),
    ("retrieval.docs_scored_per_miss", "docs/miss", "lower"),
    ("retrieval.blocks_decoded_per_miss", "blocks/miss", "lower"),
    ("retrieval.blocks_skipped_per_miss", "blocks/miss", "higher"),
    ("search.sentence_removal.engine_p50_us", "us", "lower"),
    ("search.term_removal.engine_p50_us", "us", "lower"),
    ("search.query_reduction.engine_p50_us", "us", "lower"),
    ("search.query_augmentation.engine_p50_us", "us", "lower"),
    ("search.feature_attribution.engine_p50_us", "us", "lower"),
    ("search.doc2vec_nearest.engine_p50_us", "us", "lower"),
    ("search.cosine_sampled.engine_p50_us", "us", "lower"),
    ("search.rerank.engine_p50_us", "us", "lower"),
    ("search.candidate_evals_per_request", "evals/req", "lower"),
    ("search.busy_s", "s", "lower"),
    ("search.replay_memo_hit_ratio", "ratio", "higher"),
    ("publish.generations", "count", "higher"),
    ("publish.index_build_ms", "ms", "lower"),
    ("publish.engine_build_ms", "ms", "lower"),
    ("setup.index_build_s", "s", "lower"),
    ("setup.engine_build_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Render the result object: `correct`, `attempted`, `failed`, and
/// `metrics` as `{name: {value, unit}}` in catalogue order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values cannot be written as JSON numbers.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Check that `metrics` names exactly the catalogue `specs`, in order and
/// with the catalogued units.
pub fn matches_catalogue(metrics: &[(String, f64, &str)], specs: &[Spec]) -> Result<(), String> {
    if metrics.len() != specs.len() {
        return Err(format!(
            "{} metrics reported, {} catalogued",
            metrics.len(),
            specs.len()
        ));
    }
    for ((name, _, unit), (spec_name, spec_unit, _)) in metrics.iter().zip(specs) {
        if name != spec_name || unit != spec_unit {
            return Err(format!(
                "reported {name} [{unit}], catalogued {spec_name} [{spec_unit}]"
            ));
        }
    }
    Ok(())
}
