//! Differential equivalence for the distributed engines: a
//! single-backend [`Session`] (slicing on, the default) and a
//! [`DistWorker`]×K + [`DistAggregator`] partition consume the same
//! scrambled event streams, and every observable outcome — verdicts,
//! error messages, discarded-at-close counts, in order — must match
//! exactly. The service and gateway layers only move these engines'
//! inputs and outputs across sockets, so this test is the core of the
//! end-to-end byte-equivalence guarantee.

use hb_computation::{Computation, EventId};
use hb_detect::online::OnlineVerdict;
use hb_monitor::dist::{AggStep, DistAggregator, DistWorker};
use hb_monitor::session::{Session, SessionLimits};
use hb_monitor::OverflowPolicy;
use hb_sim::{causal_shuffle, random_computation, RandomSpec};
use hb_tracefmt::wire::{owner, SliceUpdateBody, WireClause, WireMode, WirePredicate};
use std::collections::BTreeMap;

const PROCESSES: usize = 4;
const EVENTS_PER_PROCESS: usize = 32;

/// Anything a session makes observable, in emission order.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Verdict(String, OnlineVerdict),
    Error(String),
    Closed(u64),
}

/// The slice-equivalence predicate family: near-miss conjunctions on
/// processes 0/1 plus an impossible all-process one.
fn predicates(n: usize) -> Vec<WirePredicate> {
    let clause = |process: usize, value: i64| WireClause {
        process,
        var: "x".into(),
        op: "=".into(),
        value,
    };
    let mut preds: Vec<WirePredicate> = (0..3)
        .map(|k| WirePredicate {
            id: format!("p{k}"),
            mode: WireMode::Conjunctive,
            clauses: vec![clause(0, k as i64), clause(1, k as i64)],
            pattern: None,
        })
        .collect();
    preds.push(WirePredicate {
        id: "nope".into(),
        mode: WireMode::Conjunctive,
        clauses: (0..n).map(|p| clause(p, -1)).collect(),
        pattern: None,
    });
    preds
}

fn state_map(comp: &Computation, e: EventId) -> BTreeMap<String, i64> {
    let state = comp.local_state(e.process, e.index as u32 + 1);
    comp.vars()
        .iter()
        .map(|(id, name)| (name.to_string(), state.get(id)))
        .collect()
}

/// The distributed half: K workers and an aggregator, with the
/// gateway's sequence stamping emulated inline.
struct Partition {
    workers: Vec<DistWorker>,
    agg: DistAggregator,
    next_seq: u64,
    outcomes: Vec<Outcome>,
}

impl Partition {
    fn open(k: usize, n: usize, preds: &[WirePredicate]) -> Partition {
        let vars = vec!["x".to_string()];
        let workers = (0..k)
            .map(|i| DistWorker::open(i, k, n, &vars, &[], preds).unwrap())
            .collect();
        let mut agg =
            DistAggregator::open(k, n, &vars, &[], preds, 4096, OverflowPolicy::Reject).unwrap();
        let outcomes = agg
            .take_initial_verdicts()
            .into_iter()
            .map(|(id, v)| Outcome::Verdict(id, v))
            .collect();
        Partition {
            workers,
            agg,
            next_seq: 0,
            outcomes,
        }
    }

    fn absorb(&mut self, steps: Vec<AggStep>) {
        self.outcomes.extend(steps.into_iter().map(|s| match s {
            AggStep::Verdict { predicate, verdict } => Outcome::Verdict(predicate, verdict),
            AggStep::Error(e) => Outcome::Error(e.to_string()),
            AggStep::Closed { discarded } => Outcome::Closed(discarded),
        }));
    }

    fn event(&mut self, p: usize, clock: hb_vclock::VectorClock, set: &BTreeMap<String, i64>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let k = self.workers.len();
        let updates = self.workers[owner(p, k)].observe(seq, p, clock, set);
        for (s, body) in updates {
            let steps = self.agg.update(s, body);
            self.absorb(steps);
        }
    }

    fn finish(&mut self, p: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let steps = self.agg.update(seq, SliceUpdateBody::Finish { p });
        self.absorb(steps);
    }

    fn close(&mut self) {
        // The gateway closes workers first (flushing stranded holds),
        // then sends the aggregator its final close update.
        let mut flushed = Vec::new();
        for w in &mut self.workers {
            flushed.extend(w.close());
        }
        for (s, body) in flushed {
            let steps = self.agg.update(s, body);
            self.absorb(steps);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let steps = self.agg.update(seq, SliceUpdateBody::Close);
        self.absorb(steps);
    }
}

/// The single-backend reference, recording the same outcome stream.
struct Reference {
    session: Session,
    outcomes: Vec<Outcome>,
}

impl Reference {
    fn open(n: usize, preds: &[WirePredicate]) -> Reference {
        let mut session = Session::open(
            "ref",
            n,
            &["x".to_string()],
            &[],
            preds,
            SessionLimits::default(),
        )
        .unwrap();
        let outcomes = session
            .take_initial_verdicts()
            .into_iter()
            .map(|v| Outcome::Verdict(v.predicate, v.verdict))
            .collect();
        Reference { session, outcomes }
    }

    fn event(&mut self, p: usize, clock: hb_vclock::VectorClock, set: &BTreeMap<String, i64>) {
        match self.session.event(p, clock, set) {
            Ok(verdicts) => self.outcomes.extend(
                verdicts
                    .into_iter()
                    .map(|v| Outcome::Verdict(v.predicate, v.verdict)),
            ),
            Err(e) => self.outcomes.push(Outcome::Error(e.to_string())),
        }
    }

    fn finish(&mut self, p: usize) {
        match self.session.finish_process(p) {
            Ok(verdicts) => self.outcomes.extend(
                verdicts
                    .into_iter()
                    .map(|v| Outcome::Verdict(v.predicate, v.verdict)),
            ),
            Err(e) => self.outcomes.push(Outcome::Error(e.to_string())),
        }
    }

    fn close(&mut self) {
        let (verdicts, discarded) = self.session.close();
        self.outcomes.extend(
            verdicts
                .into_iter()
                .map(|v| Outcome::Verdict(v.predicate, v.verdict)),
        );
        self.outcomes.push(Outcome::Closed(discarded));
    }
}

/// Runs one scrambled stream through both halves and asserts the
/// outcome streams and final verdict maps agree.
fn run_differential(seed: u64, k: usize, drop_first: bool, duplicate_every: usize) {
    let comp = random_computation(RandomSpec {
        processes: PROCESSES,
        events_per_process: EVENTS_PER_PROCESS,
        send_percent: 30,
        value_range: 6,
        seed,
    });
    let order = causal_shuffle(&comp, seed ^ 0x5eed, 8);
    let preds = predicates(PROCESSES);

    let mut reference = Reference::open(PROCESSES, &preds);
    let mut partition = Partition::open(k, PROCESSES, &preds);

    for (i, &e) in order.iter().enumerate() {
        if drop_first && i == 0 {
            // A lost event strands its causal successors in both
            // pipelines; close must discard identically.
            continue;
        }
        let clock = comp.clock(e).clone();
        let set = state_map(&comp, e);
        reference.event(e.process, clock.clone(), &set);
        partition.event(e.process, clock.clone(), &set);
        if duplicate_every != 0 && i % duplicate_every == 0 {
            // At-least-once transport: replays must error identically.
            reference.event(e.process, clock.clone(), &set);
            partition.event(e.process, clock, &set);
        }
    }
    for p in 0..PROCESSES {
        reference.finish(p);
        partition.finish(p);
    }
    // Post-finish events are refused identically.
    let late = order[order.len() / 2];
    let clock = comp.clock(late).clone();
    let set = state_map(&comp, late);
    reference.event(late.process, clock.clone(), &set);
    partition.event(late.process, clock, &set);

    reference.close();
    partition.close();

    assert_eq!(
        reference.outcomes, partition.outcomes,
        "outcome streams diverge (seed {seed}, k {k})"
    );
    let ref_final: Vec<(String, OnlineVerdict)> = reference
        .session
        .all_verdicts()
        .into_iter()
        .map(|v| (v.predicate, v.verdict))
        .collect();
    assert_eq!(ref_final, partition.agg.all_verdicts());
}

#[test]
fn distributed_outcomes_match_single_backend_k2() {
    for seed in 0..6u64 {
        run_differential(0xd15b_0000 + seed * 7919, 2, false, 0);
    }
}

#[test]
fn distributed_outcomes_match_single_backend_k3() {
    for seed in 0..6u64 {
        run_differential(0xd15b_1000 + seed * 104729, 3, false, 0);
    }
}

#[test]
fn distributed_outcomes_match_with_losses_and_duplicates() {
    for seed in 0..4u64 {
        run_differential(0xd15b_2000 + seed * 31, 2, true, 5);
        run_differential(0xd15b_3000 + seed * 17, 3, true, 7);
    }
}

/// More workers than processes: some workers own nothing and must
/// stay silent without stalling the sequence stream.
#[test]
fn oversized_partitions_are_harmless() {
    run_differential(0xd15b_4000, PROCESSES + 2, false, 0);
}

/// Undeclared variables refuse identically through the worker's
/// `invalid` annotation.
#[test]
fn invalid_variables_refuse_identically() {
    let preds = predicates(2);
    let mut reference = Reference::open(2, &preds);
    let mut partition = Partition::open(2, 2, &preds);
    let bad: BTreeMap<String, i64> = [("ghost".to_string(), 1)].into_iter().collect();
    let clock = hb_vclock::VectorClock::from_components(vec![1, 0]);
    reference.event(0, clock.clone(), &bad);
    partition.event(0, clock, &bad);
    reference.close();
    partition.close();
    assert_eq!(reference.outcomes, partition.outcomes);
}
