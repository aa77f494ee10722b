//! The aggregator side of a distributed session.
//!
//! The aggregator assembles the global slice from the workers' update
//! streams and is the only member of the partition a client ever
//! hears: its session carries the origin name, and the verdict and
//! error frames it produces must be **byte-identical** to a
//! single-backend sliced session fed the same events.
//!
//! It achieves that by running the single-backend session's own
//! detection [`Core`] with the per-event payload swapped: where a
//! session buffers `(process, clock, assignments)` and evaluates
//! clauses on delivery, the aggregator buffers `(process, clock,
//! membership bits)` — the clause truth the owning worker already
//! computed — and admits a delivery to a detector when its bit is set,
//! deferring the skip otherwise. Hold, duplicate, overflow, and discard
//! behavior, every error message and every verdict settle point come
//! from that one core.
//!
//! Around the core sits only a reorder stage. Updates arrive tagged
//! with the gateway's per-session sequence numbers and may interleave
//! arbitrarily across workers; the stage processes them in contiguous
//! sequence order, which *is* the single backend's arrival order.
//! Sequences below the watermark are dropped: after a worker failover
//! the gateway re-derives a partition's stream from its journal, and
//! the replayed prefix must be idempotent.

use crate::buffer::OverflowPolicy;
use crate::session::{
    validate_open, Core, Detector, FrozenCore, SessionError, SessionLimits, VerdictEvent,
};
use hb_detect::online::{DetectorState, OnlineVerdict};
use hb_tracefmt::wire::{SliceUpdateBody, WirePredicate};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;

/// One observable consequence of an update, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum AggStep {
    /// A predicate's verdict settled.
    Verdict {
        /// The predicate's caller-chosen id.
        predicate: String,
        /// The settled verdict.
        verdict: OnlineVerdict,
    },
    /// The update was refused with the single-backend session's error.
    Error(SessionError),
    /// The session closed (a `close` update was processed).
    Closed {
        /// Stranded held updates discarded at close.
        discarded: u64,
    },
}

impl AggStep {
    fn verdicts(verdicts: Vec<VerdictEvent>) -> impl Iterator<Item = AggStep> {
        verdicts.into_iter().map(|v| AggStep::Verdict {
            predicate: v.predicate,
            verdict: v.verdict,
        })
    }
}

/// Persistable state of a [`DistAggregator`], for WAL snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorSnapshot {
    /// The partition width.
    pub k: usize,
    /// Declared variable names, in declaration order.
    pub vars: Vec<String>,
    /// The predicates as registered at open.
    pub predicates: Vec<WirePredicate>,
    /// The causal buffer's delivered frontier.
    pub frontier: Vec<u32>,
    /// Held updates in arrival order: `(process, clock, holds)`.
    pub held: Vec<(usize, Vec<u32>, Vec<usize>)>,
    /// Client-declared stream ends.
    pub finished: Vec<bool>,
    /// Finishes already forwarded to the detectors.
    pub monitor_finished: Vec<bool>,
    /// Updates delivered to the detectors.
    pub delivered: u64,
    /// Per-predicate detector state:
    /// `(id, emitted, state, pending skips)`.
    pub monitors: Vec<(String, bool, DetectorState, Vec<u64>)>,
    /// Next sequence number to process.
    pub next_seq: u64,
    /// Updates waiting for a sequence gap, by sequence number.
    pub reorder: Vec<(u64, SliceUpdateBody)>,
}

/// The aggregator engine: one per distributed session, living on the
/// backend elected by the gateway.
pub struct DistAggregator {
    k: usize,
    /// Buffered payload: the member predicates' indices, ascending.
    /// Detector stage: deferred non-member observations per process.
    core: Core<Vec<usize>, Vec<u64>>,
    next_seq: u64,
    reorder: BTreeMap<u64, SliceUpdateBody>,
}

impl DistAggregator {
    /// Opens an aggregator over the origin session's full open
    /// request, validated exactly as a single-backend session validates
    /// it, because this refusal is the one the client sees.
    pub fn open(
        k: usize,
        processes: usize,
        var_names: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
        buffer_capacity: usize,
        policy: OverflowPolicy,
    ) -> Result<DistAggregator, SessionError> {
        if k == 0 {
            return Err(SessionError::BadOpen("zero workers".into()));
        }
        let req = validate_open(processes, var_names, initial, predicates, true)?;
        let detectors = req
            .predicates
            .iter()
            .zip(predicates)
            .map(|(pred, wire)| Detector::open(pred, wire, &req.states, vec![0; processes]))
            .collect();
        let limits = SessionLimits {
            buffer_capacity,
            policy,
            ..SessionLimits::default()
        };
        Ok(DistAggregator {
            k,
            core: Core::new(req.vars, predicates, detectors, processes, limits),
            next_seq: 0,
            reorder: BTreeMap::new(),
        })
    }

    /// Verdicts that settled at open time (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<(String, OnlineVerdict)> {
        pairs(self.core.take_initial_verdicts())
    }

    /// The partition width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.core.processes()
    }

    /// Updates delivered to the detectors so far.
    pub fn delivered(&self) -> u64 {
        self.core.delivered()
    }

    /// Updates held in the causal buffer.
    pub fn held(&self) -> usize {
        self.core.held()
    }

    /// Updates parked in the sequence-reorder stage.
    pub fn reordering(&self) -> usize {
        self.reorder.len()
    }

    /// Accepts one sequenced update and processes every update that
    /// became contiguous, returning their observable consequences in
    /// order. Sequences already processed (failover replays) are
    /// dropped.
    pub fn update(&mut self, seq: u64, body: SliceUpdateBody) -> Vec<AggStep> {
        if seq < self.next_seq {
            return Vec::new();
        }
        self.reorder.insert(seq, body);
        let mut out = Vec::new();
        while let Some(body) = self.reorder.remove(&self.next_seq) {
            self.next_seq += 1;
            self.step(body, &mut out);
        }
        out
    }

    /// Processes one in-order update through the core, in the order a
    /// single-backend session checks an event: finish-rejection, then
    /// the worker's variable refusal, then ingest.
    fn step(&mut self, body: SliceUpdateBody, out: &mut Vec<AggStep>) {
        let result = match body {
            SliceUpdateBody::Observe {
                p,
                clock,
                holds,
                invalid,
            } => self.core.refuse_finished(p).and_then(|()| {
                if let Some(message) = invalid {
                    return Err(SessionError::BadEvent(message));
                }
                let clock = VectorClock::from_components(clock);
                self.core.ingest(p, clock, holds, |d, detectors| {
                    for (j, det) in detectors.iter_mut().enumerate() {
                        if det.emitted {
                            continue;
                        }
                        if d.payload.binary_search(&j).is_ok() {
                            let skipped = std::mem::take(&mut det.stage[d.process]);
                            det.admit(d.process, skipped, &d.clock);
                        } else {
                            det.stage[d.process] += 1;
                        }
                    }
                })
            }),
            SliceUpdateBody::Finish { p } => self.core.finish_process(p),
            SliceUpdateBody::Close => {
                let (verdicts, discarded) = self.core.close();
                out.extend(AggStep::verdicts(verdicts));
                out.push(AggStep::Closed { discarded });
                return;
            }
        };
        match result {
            Ok(verdicts) => out.extend(AggStep::verdicts(verdicts)),
            Err(e) => out.push(AggStep::Error(e)),
        }
    }

    /// Closes out of band — service shutdown, or a plain `close` frame
    /// reaching the aggregator directly instead of the gateway's
    /// sequenced close update. Updates still parked in the reorder
    /// stage are abandoned (their `observe`s count as discarded events
    /// alongside the buffer's held updates), then the core closes as a
    /// session does: stranded holds discarded, detectors finished,
    /// final verdicts settled. Returns those verdicts and the discarded
    /// count.
    pub fn close(&mut self) -> (Vec<(String, OnlineVerdict)>, u64) {
        let abandoned = self
            .reorder
            .values()
            .filter(|b| matches!(b, SliceUpdateBody::Observe { .. }))
            .count() as u64;
        self.reorder.clear();
        let (verdicts, discarded) = self.core.close();
        (pairs(verdicts), discarded + abandoned)
    }

    /// The final verdict of every predicate (settled or not), for the
    /// close report.
    pub fn all_verdicts(&self) -> Vec<(String, OnlineVerdict)> {
        pairs(self.core.all_verdicts())
    }

    /// Freezes the aggregator for persistence.
    pub fn snapshot(&self) -> AggregatorSnapshot {
        let core = &self.core;
        AggregatorSnapshot {
            k: self.k,
            vars: core.vars.iter().map(|(_, n)| n.to_string()).collect(),
            predicates: core.predicates.clone(),
            frontier: core.buffer.frontier().to_vec(),
            held: core
                .buffer
                .held_events()
                .map(|(p, clock, holds)| (p, clock.components().to_vec(), holds.clone()))
                .collect(),
            finished: core.finished.clone(),
            monitor_finished: core.monitor_finished.clone(),
            delivered: core.delivered(),
            monitors: core
                .detectors
                .iter()
                .map(|d| {
                    let state = d.monitor.export_state();
                    (d.id.clone(), d.emitted, state, d.stage.clone())
                })
                .collect(),
            next_seq: self.next_seq,
            reorder: self
                .reorder
                .iter()
                .map(|(seq, body)| (*seq, body.clone()))
                .collect(),
        }
    }

    /// Rebuilds an aggregator from a snapshot: re-validates through
    /// the normal open path, then overwrites buffer, detectors, and
    /// sequencing state with the frozen values.
    pub fn restore(
        snap: &AggregatorSnapshot,
        processes: usize,
        buffer_capacity: usize,
        policy: OverflowPolicy,
    ) -> Result<DistAggregator, SessionError> {
        let shape =
            |what: &str| SessionError::BadOpen(format!("aggregator snapshot: inconsistent {what}"));
        let mut a = DistAggregator::open(
            snap.k,
            processes,
            &snap.vars,
            &[],
            &snap.predicates,
            buffer_capacity,
            policy,
        )?;
        let limits = SessionLimits {
            buffer_capacity,
            policy,
            ..SessionLimits::default()
        };
        let frozen = FrozenCore {
            frontier: &snap.frontier,
            held: snap.held.clone(),
            finished: &snap.finished,
            monitor_finished: &snap.monitor_finished,
            delivered: snap.delivered,
            monitors: snap
                .monitors
                .iter()
                .map(|(id, emitted, state, _)| (id.as_str(), *emitted, state))
                .collect(),
        };
        a.core.restore(frozen, limits).map_err(shape)?;
        for (det, (_, _, _, pending)) in a.core.detectors.iter_mut().zip(&snap.monitors) {
            if pending.len() != processes {
                return Err(shape("pending skips"));
            }
            det.stage.clone_from(pending);
        }
        a.next_seq = snap.next_seq;
        a.reorder = snap.reorder.iter().cloned().collect();
        Ok(a)
    }
}

fn pairs(verdicts: Vec<VerdictEvent>) -> Vec<(String, OnlineVerdict)> {
    verdicts
        .into_iter()
        .map(|v| (v.predicate, v.verdict))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tracefmt::wire::{WireClause, WireMode};

    fn pred(id: &str, clauses: &[(usize, &str, &str, i64)]) -> WirePredicate {
        WirePredicate {
            id: id.into(),
            mode: WireMode::Conjunctive,
            clauses: clauses
                .iter()
                .map(|&(process, var, op, value)| WireClause {
                    process,
                    var: var.into(),
                    op: op.into(),
                    value,
                })
                .collect(),
            pattern: None,
        }
    }

    fn agg() -> DistAggregator {
        DistAggregator::open(
            2,
            2,
            &["x0".to_string(), "x1".to_string()],
            &[],
            &[pred("ef", &[(0, "x0", "=", 2), (1, "x1", "=", 1)])],
            4096,
            OverflowPolicy::Reject,
        )
        .unwrap()
    }

    fn obs(p: usize, clock: &[u32], holds: &[usize]) -> SliceUpdateBody {
        SliceUpdateBody::Observe {
            p,
            clock: clock.to_vec(),
            holds: holds.to_vec(),
            invalid: None,
        }
    }

    /// The Fig. 2(a) stream as membership bits: detection settles at
    /// the same update a single-backend session would.
    #[test]
    fn detects_from_membership_bits() {
        let mut a = agg();
        assert!(a.update(0, obs(1, &[0, 1], &[0])).is_empty()); // x1=1 holds
        assert!(a.update(1, obs(0, &[1, 0], &[])).is_empty()); // x0=1: no
        let steps = a.update(2, obs(0, &[2, 0], &[0])); // x0=2 → detect
        assert_eq!(steps.len(), 1);
        match &steps[0] {
            AggStep::Verdict { predicate, verdict } => {
                assert_eq!(predicate, "ef");
                match verdict {
                    OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    /// Updates arrive with scrambled sequence numbers: nothing happens
    /// until the gap fills, then everything processes in seq order.
    #[test]
    fn reorders_by_sequence_number() {
        let mut a = agg();
        assert!(a.update(2, obs(0, &[2, 0], &[0])).is_empty());
        assert!(a.update(1, obs(0, &[1, 0], &[])).is_empty());
        assert_eq!(a.reordering(), 2);
        let steps = a.update(0, obs(1, &[0, 1], &[0]));
        assert_eq!(a.reordering(), 0);
        assert!(steps.iter().any(|s| matches!(s, AggStep::Verdict { .. })));
        // Stale failover replays are dropped.
        assert!(a.update(1, obs(0, &[1, 0], &[])).is_empty());
        assert_eq!(a.reordering(), 0);
    }

    #[test]
    fn errors_mirror_the_single_backend_session() {
        let mut a = agg();
        a.update(0, obs(0, &[1, 0], &[]));
        // Duplicate clock: re-derived by the causal buffer.
        let steps = a.update(1, obs(0, &[1, 0], &[]));
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::Ingest(
                crate::IngestError::Duplicate { process: 0, seq: 1 }
            ))]
        );
        // Worker-side variable refusal is forwarded verbatim.
        let steps = a.update(
            2,
            SliceUpdateBody::Observe {
                p: 0,
                clock: vec![2, 0],
                holds: vec![],
                invalid: Some("undeclared variable 'nope'".into()),
            },
        );
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::BadEvent(
                "undeclared variable 'nope'".into()
            ))]
        );
        // Out-of-range process in an update.
        let steps = a.update(3, obs(9, &[1, 0], &[]));
        assert!(matches!(
            &steps[0],
            AggStep::Error(SessionError::Ingest(crate::IngestError::BadProcess { .. }))
        ));
        // Finish, then an event for the finished process.
        a.update(4, SliceUpdateBody::Finish { p: 0 });
        let steps = a.update(5, obs(0, &[2, 0], &[0]));
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::AlreadyFinished(0))]
        );
        // Finish out of range.
        let steps = a.update(6, SliceUpdateBody::Finish { p: 9 });
        assert_eq!(
            steps,
            vec![AggStep::Error(SessionError::BadEvent(
                "process 9 out of range".into()
            ))]
        );
    }

    #[test]
    fn finishes_settle_impossible_and_close_discards() {
        let mut a = agg();
        a.update(0, obs(0, &[1, 0], &[]));
        let steps = a.update(1, SliceUpdateBody::Finish { p: 0 });
        assert!(matches!(
            &steps[0],
            AggStep::Verdict {
                verdict: OnlineVerdict::Impossible,
                ..
            }
        ));

        // A fresh aggregator with a stranded held update: close
        // discards it and settles.
        let mut a = agg();
        a.update(0, obs(1, &[1, 1], &[0])); // held: needs [1,*]
        assert_eq!(a.held(), 1);
        let steps = a.update(1, SliceUpdateBody::Close);
        assert_eq!(
            steps,
            vec![
                AggStep::Verdict {
                    predicate: "ef".into(),
                    verdict: OnlineVerdict::Impossible,
                },
                AggStep::Closed { discarded: 1 },
            ]
        );
    }

    #[test]
    fn initially_true_predicates_settle_at_open() {
        let mut a = DistAggregator::open(
            2,
            2,
            &["x".to_string()],
            &[
                [("x".to_string(), 1)].into_iter().collect(),
                [("x".to_string(), 1)].into_iter().collect(),
            ],
            &[pred("now", &[(0, "x", "=", 1), (1, "x", "=", 1)])],
            4096,
            OverflowPolicy::Reject,
        )
        .unwrap();
        let v = a.take_initial_verdicts();
        assert_eq!(v.len(), 1);
        match &v[0].1 {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[0, 0]),
            other => panic!("{other:?}"),
        }
        assert!(a.take_initial_verdicts().is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut a = agg();
        a.update(0, obs(1, &[0, 1], &[0]));
        a.update(2, obs(0, &[2, 0], &[0])); // parked in reorder
        a.update(3, obs(1, &[2, 2], &[0])); // will be held once seq 2 lands
        let snap = a.snapshot();
        let mut r = DistAggregator::restore(&snap, 2, 4096, OverflowPolicy::Reject).unwrap();
        assert_eq!(r.snapshot(), snap, "snapshot is stable");
        for x in [&mut a, &mut r] {
            let steps = x.update(1, obs(0, &[1, 0], &[]));
            assert!(steps.iter().any(|s| matches!(s, AggStep::Verdict { .. })));
        }
        assert_eq!(a.snapshot(), r.snapshot());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let a = agg();
        let good = a.snapshot();
        let mut bad = good.clone();
        bad.frontier = vec![0];
        assert!(DistAggregator::restore(&bad, 2, 4096, OverflowPolicy::Reject).is_err());
        let mut bad = good.clone();
        bad.monitors.clear();
        assert!(DistAggregator::restore(&bad, 2, 4096, OverflowPolicy::Reject).is_err());
        let mut bad = good;
        bad.held.push((7, vec![1, 1], vec![]));
        assert!(DistAggregator::restore(&bad, 2, 4096, OverflowPolicy::Reject).is_err());
    }
}
