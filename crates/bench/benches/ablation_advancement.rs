//! Experiment S1 (§5 complexity claim): ablation of Algorithm A1's
//! predecessor test.
//!
//! The paper states A1 as `O(n|E|)`, improving the `O(n²|E|)` regular
//! predicate algorithm of Garg–Mittal \[9\]. Three implementations of
//! `EG` over the same regular predicate:
//!
//! * `A1-incremental` — A1 with the `O(log n)` per-candidate clause check
//!   (realizes the paper's per-step assumption for conjunctive `p`);
//! * `A1-naive` — A1 re-evaluating the full conjunction per candidate;
//! * `slice` — the \[9\]-flavored route: build the slice
//!   (`O(n|E|²)` here), then walk with slice membership tests.
//!
//! Expectation: slice-based `EG` trails A1 by a growing factor; both A1
//! variants are dominated by the `O(n)` maximality test per candidate,
//! so their gap is a constant factor (documented honestly in
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hb_detect::{eg_conjunctive, eg_linear};
use hb_predicates::{Conjunctive, LocalExpr};
use hb_sim::protocols::token_ring_mutex;
use hb_slice::eg_regular_via_slice;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("s1/eg-regular");
    for n in [4usize, 8, 16, 32] {
        let t = token_ring_mutex(n, 6, 3);
        let p = Conjunctive::new((0..n).map(|i| (i, LocalExpr::ge(t.try_var, 0))).collect());
        g.bench_with_input(BenchmarkId::new("A1-incremental", n), &n, |b, _| {
            b.iter(|| black_box(eg_conjunctive(&t.comp, &p).holds))
        });
        g.bench_with_input(BenchmarkId::new("A1-naive", n), &n, |b, _| {
            b.iter(|| black_box(eg_linear(&t.comp, &p).holds))
        });
        g.bench_with_input(BenchmarkId::new("slice", n), &n, |b, _| {
            b.iter(|| black_box(eg_regular_via_slice(&t.comp, &p).holds))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_ablation
}
criterion_main!(benches);
