//! The differential battery locking `hb-par` to the sequential
//! detector: on random computations, `ParDetector::ag_linear` must
//! return the report `hb_detect::ag_linear` returns, byte for byte —
//! verdict, counterexample cut and `checked` count — at every thread
//! count.
//!
//! The wide variant (≥ 16 processes) gives the chunked sweep many
//! meet-irreducible cuts per chunk to fan out over.

use hb_computation::{Computation, VarId};
use hb_detect::ag_linear;
use hb_par::ParDetector;
use hb_predicates::{Conjunctive, LocalExpr};
use hb_sim::{random_computation, RandomSpec};
use proptest::prelude::*;

/// `(process, op, threshold)` triples instantiated against `x`.
#[derive(Debug, Clone)]
struct ClauseSpec(Vec<(usize, u8, i64)>);

fn clause_specs(n: usize, value_range: i64) -> impl Strategy<Value = ClauseSpec> {
    prop::collection::vec((0..n, 0u8..3, 0..value_range), 1..=n.max(1)).prop_map(ClauseSpec)
}

fn build_conjunctive(spec: &ClauseSpec, n: usize, x: VarId) -> Conjunctive {
    Conjunctive::new(
        spec.0
            .iter()
            .map(|&(p, op, v)| {
                let expr = match op {
                    0 => LocalExpr::ge(x, v),
                    1 => LocalExpr::le(x, v),
                    _ => LocalExpr::eq(x, v),
                };
                (p % n, expr)
            })
            .collect(),
    )
}

fn random_comp(seed: u64, n: usize, epp: usize, send_percent: u8) -> Computation {
    random_computation(RandomSpec {
        processes: n,
        events_per_process: epp,
        send_percent,
        value_range: 4,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `ParDetector::ag_linear` equals `ag_linear`, `checked`
    /// included, for threads {1, 2, 4, 8}.
    #[test]
    fn ag_linear_matches_oracle(
        seed in any::<u64>(),
        n in 2usize..6,
        epp in 1usize..8,
        send_percent in 0u8..80,
        spec in clause_specs(5, 4),
    ) {
        let comp = random_comp(seed, n, epp, send_percent);
        let x = comp.vars().lookup("x").unwrap();
        let conj = build_conjunctive(&spec, n, x);
        let want = ag_linear(&comp, &conj);
        for threads in [1, 2, 4, 8] {
            let got = ParDetector::new().threads(threads).ag_linear(&comp, &conj);
            prop_assert_eq!(&got, &want, "threads={}", threads);
        }
    }

    /// The same agreement on wide computations, for threads {1, 4}.
    #[test]
    fn ag_linear_matches_oracle_wide(
        seed in any::<u64>(),
        n in 16usize..22,
        epp in 1usize..4,
        send_percent in 0u8..60,
        spec in clause_specs(21, 4),
    ) {
        let comp = random_comp(seed, n, epp, send_percent);
        let x = comp.vars().lookup("x").unwrap();
        let conj = build_conjunctive(&spec, n, x);
        let want = ag_linear(&comp, &conj);
        for threads in [1, 4] {
            let got = ParDetector::new().threads(threads).ag_linear(&comp, &conj);
            prop_assert_eq!(&got, &want, "threads={}", threads);
        }
    }
}
