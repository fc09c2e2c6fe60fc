//! Bench: Doc2Vec (PV-DBOW) training and inference — the
//! corpus-level cost behind the Doc2Vec-nearest explainer.

use credence_bench::synth_index;
use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use credence_embed::{Doc2Vec, Doc2VecConfig};

fn sequences(num_docs: usize) -> (Vec<Vec<usize>>, usize) {
    let (_, index) = synth_index(num_docs, 7);
    (index.token_sequences(), index.vocabulary().len())
}

fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("doc2vec/train");
    group.sample_size(10);
    for &n in &[50usize, 150] {
        let (seqs, vocab) = sequences(n);
        let cfg = Doc2VecConfig {
            dim: 32,
            epochs: 5,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &seqs, |b, seqs| {
            b.iter(|| Doc2Vec::train(seqs, vocab, &cfg));
        });
    }
    group.finish();
}

fn bench_infer(c: &mut Criterion) {
    let (seqs, vocab) = sequences(100);
    let model = Doc2Vec::train(
        &seqs,
        vocab,
        &Doc2VecConfig {
            dim: 32,
            epochs: 5,
            ..Default::default()
        },
    );
    c.bench_function("doc2vec/infer", |b| {
        b.iter(|| model.infer(&seqs[0]));
    });
}

criterion_group!(benches, bench_train, bench_infer);
criterion_main!(benches);
