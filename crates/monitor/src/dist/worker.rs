//! The worker side of a distributed session.
//!
//! A worker owns the processes `p` with
//! [`owner`](hb_tracefmt::wire::owner)`(p, k) == i` and turns each of
//! their events into one compact slice update for the aggregator. It is
//! a single-backend session's *ingest filter* stage on its own: the
//! shared open validation, full-width local states, and one
//! [`SliceFilter`] per predicate, but **no causal buffer and no
//! detectors** — clause truth of process `p`'s events depends only on
//! `p`'s own state sequence, so per-process position order suffices
//! and cross-process causality is left entirely to the aggregator.
//!
//! Three refusal paths mirror the single-backend session's precedence
//! (finish-rejection lives at the aggregator, which owns finishes):
//!
//! 1. An undeclared variable refuses the event *before* any state
//!    change; the update carries the exact message in `invalid`.
//! 2. A process/clock-width mismatch emits an empty-holds update and
//!    leaves the event to the aggregator's causal buffer, which
//!    reproduces the single-backend error.
//! 3. A position replay (`clock[p] <= applied count`) emits an
//!    empty-holds update: the aggregator classifies it — duplicate if
//!    the original was delivered, stranded-held otherwise — and the
//!    payload is provably never used (the original's update, scanned
//!    first in arrival order, wins delivery).
//!
//! Events ahead of their position (`clock[p] > count + 1`) are held
//! and drained when the gap fills; whatever is still held at close is
//! flushed with empty holds — at that point every held event sits at
//! least two positions past anything the aggregator can deliver, so
//! the payload is again unreachable. This is what keeps the
//! one-update-per-sequence invariant: every sequence number the
//! gateway routed here is answered by exactly one update by the time
//! the worker closes.

use crate::session::{validate_open, CompiledPredicate, SessionError};
use hb_computation::{LocalState, VarId, VarTable};
use hb_slice::{SliceFilter, SliceState};
use hb_tracefmt::wire::{SliceUpdateBody, WirePredicate};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;

/// An event ahead of its per-process position, waiting for the gap.
struct HeldEvent {
    seq: u64,
    p: usize,
    clock: VectorClock,
    set: BTreeMap<String, i64>,
}

/// Persistable state of a [`DistWorker`], for WAL snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// This worker's index in the partition.
    pub worker: usize,
    /// The partition width.
    pub k: usize,
    /// Declared variable names, in declaration order.
    pub vars: Vec<String>,
    /// The predicates as registered at open.
    pub predicates: Vec<WirePredicate>,
    /// Local state values per process.
    pub states: Vec<Vec<i64>>,
    /// Applied events per process.
    pub counts: Vec<u32>,
    /// Cached clause truth per predicate (registration order), per
    /// process.
    pub holds: Vec<Vec<bool>>,
    /// Filter counters per predicate: `(events_in, events_filtered)`.
    pub filtered: Vec<(u64, u64)>,
    /// Held (ahead-of-position) events in arrival order.
    pub held: Vec<HeldRecord>,
}

/// A held event as persisted in snapshots: `(seq, p, clock, set)`.
pub type HeldRecord = (u64, usize, Vec<u32>, BTreeMap<String, i64>);

/// The worker engine: one per `(origin session, worker index)`.
pub struct DistWorker {
    worker: usize,
    k: usize,
    vars: VarTable,
    predicates: Vec<WirePredicate>,
    states: Vec<LocalState>,
    /// Events applied per process (per-process position frontier).
    counts: Vec<u32>,
    /// Each predicate's clauses and the membership filter over them.
    filters: Vec<(CompiledPredicate, SliceFilter)>,
    held: Vec<HeldEvent>,
}

impl DistWorker {
    /// Opens a worker over the origin session's full open request.
    ///
    /// Validation is the single-backend session's, so a malformed open
    /// is refused by every member of the partition, not just the one
    /// the client hears from.
    pub fn open(
        worker: usize,
        k: usize,
        processes: usize,
        var_names: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
    ) -> Result<DistWorker, SessionError> {
        if k == 0 || worker >= k {
            return Err(SessionError::BadOpen(format!(
                "worker {worker} out of range for k={k}"
            )));
        }
        let req = validate_open(processes, var_names, initial, predicates, true)?;
        let filters = req
            .predicates
            .into_iter()
            .map(|pred| {
                let filter = SliceFilter::from_clauses(&pred.clauses, &req.states);
                (pred, filter)
            })
            .collect();
        Ok(DistWorker {
            worker,
            k,
            vars: req.vars,
            predicates: predicates.to_vec(),
            states: req.states,
            counts: vec![0; processes],
            filters,
            held: Vec::new(),
        })
    }

    /// The number of processes in the computation (full width).
    pub fn processes(&self) -> usize {
        self.states.len()
    }

    /// Events currently held for a per-process position gap.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Ingests one routed event and returns the updates to ship, in
    /// emission order. Always at least one update for `seq` unless the
    /// event was held; held sequences are answered on drain or close.
    pub fn observe(
        &mut self,
        seq: u64,
        p: usize,
        clock: VectorClock,
        set: &BTreeMap<String, i64>,
    ) -> Vec<(u64, SliceUpdateBody)> {
        // Variable validation first, mirroring the single-backend
        // session (which resolves variables before ingesting).
        if let Some(vname) = set.keys().find(|v| self.vars.lookup(v).is_none()) {
            let message = format!("undeclared variable '{vname}'");
            return vec![(seq, refusal(p, &clock, Some(message)))];
        }
        let n = self.states.len();
        if p >= n || clock.width() != n {
            // The aggregator's causal buffer re-derives the exact
            // BadProcess/BadClockWidth refusal from the same fields.
            return vec![(seq, refusal(p, &clock, None))];
        }
        let pos = clock.get(p);
        if pos <= self.counts[p] {
            // Position replay: the original update (earlier sequence)
            // already carries the real membership bits.
            return vec![(seq, refusal(p, &clock, None))];
        }
        let mut out = Vec::new();
        if pos == self.counts[p] + 1 {
            let update = self.apply(p, &clock, set);
            out.push((seq, update));
            self.drain(&mut out);
        } else {
            self.held.push(HeldEvent {
                seq,
                p,
                clock,
                set: set.clone(),
            });
        }
        out
    }

    /// Applies the next-in-position event of `p` and computes its
    /// slice-membership bits.
    fn apply(
        &mut self,
        p: usize,
        clock: &VectorClock,
        set: &BTreeMap<String, i64>,
    ) -> SliceUpdateBody {
        self.counts[p] += 1;
        let touched: Vec<VarId> = set
            .keys()
            .map(|v| self.vars.lookup(v).expect("validated above"))
            .collect();
        for (&var, (_, &value)) in touched.iter().zip(set) {
            self.states[p].set(var, value);
        }
        let state = &self.states[p];
        let mut holds = Vec::new();
        for (j, (pred, filter)) in self.filters.iter_mut().enumerate() {
            let clause = pred.clauses[p].as_ref();
            let delta = filter.advance(p, touched.iter().copied(), || {
                clause.is_some_and(|c| c.eval(state))
            });
            if delta.is_member() {
                holds.push(j);
            }
            // Skips are deferred at the aggregator, not here.
            filter.take_pending(p);
        }
        SliceUpdateBody::Observe {
            p,
            clock: clock.components().to_vec(),
            holds,
            invalid: None,
        }
    }

    /// Releases held events until no more are at or behind the
    /// position frontier. Scanning in arrival order matches the causal
    /// buffer's drain, so replay copies are classified after their
    /// originals.
    fn drain(&mut self, out: &mut Vec<(u64, SliceUpdateBody)>) {
        loop {
            let idx = self
                .held
                .iter()
                .position(|h| h.clock.get(h.p) <= self.counts[h.p] + 1);
            let Some(idx) = idx else { return };
            let h = self.held.remove(idx);
            if h.clock.get(h.p) == self.counts[h.p] + 1 {
                let update = self.apply(h.p, &h.clock, &h.set);
                out.push((h.seq, update));
            } else {
                out.push((h.seq, refusal(h.p, &h.clock, None)));
            }
        }
    }

    /// Flushes every held event (arrival order) with empty membership:
    /// their per-process predecessors never arrived, so the aggregator
    /// can never deliver them — it will strand and discard them
    /// exactly as a single backend would.
    pub fn close(&mut self) -> Vec<(u64, SliceUpdateBody)> {
        self.held
            .drain(..)
            .map(|h| (h.seq, refusal(h.p, &h.clock, None)))
            .collect()
    }

    /// Per-predicate filter counters not yet reported:
    /// `(predicate id, Δevents_in, Δevents_filtered)`, exactly like a
    /// session's [`take_slice_stats`](crate::Session::take_slice_stats).
    pub fn take_slice_stats(&mut self) -> Vec<(String, u64, u64)> {
        self.filters
            .iter_mut()
            .filter_map(|(pred, filter)| {
                let (events_in, events_filtered) = filter.take_counts()?;
                Some((pred.id.clone(), events_in, events_filtered))
            })
            .collect()
    }

    /// Freezes the worker for persistence.
    pub fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            worker: self.worker,
            k: self.k,
            vars: self.vars.iter().map(|(_, n)| n.to_string()).collect(),
            predicates: self.predicates.clone(),
            states: self.states.iter().map(|s| s.values().to_vec()).collect(),
            counts: self.counts.clone(),
            holds: self.filters.iter().map(|(_, f)| f.export().holds).collect(),
            filtered: self
                .filters
                .iter()
                .map(|(_, f)| (f.events_in(), f.events_filtered()))
                .collect(),
            held: self
                .held
                .iter()
                .map(|h| (h.seq, h.p, h.clock.components().to_vec(), h.set.clone()))
                .collect(),
        }
    }

    /// Rebuilds a worker from a snapshot. The report watermark
    /// restarts at zero, like a session's slice stats: the first flush
    /// resyncs fresh metrics with the recovered totals.
    pub fn restore(snap: &WorkerSnapshot, processes: usize) -> Result<DistWorker, SessionError> {
        let shape =
            |what: &str| SessionError::BadOpen(format!("worker snapshot: inconsistent {what}"));
        let mut w = DistWorker::open(
            snap.worker,
            snap.k,
            processes,
            &snap.vars,
            &[],
            &snap.predicates,
        )?;
        if snap.states.len() != processes
            || snap.counts.len() != processes
            || snap.holds.len() != w.filters.len()
            || snap.filtered.len() != w.filters.len()
        {
            return Err(shape("per-process vectors"));
        }
        w.states = snap
            .states
            .iter()
            .map(|v| LocalState::from_values(v.clone()))
            .collect();
        w.counts = snap.counts.clone();
        for (((_, filter), holds), &(events_in, events_filtered)) in
            w.filters.iter_mut().zip(&snap.holds).zip(&snap.filtered)
        {
            let state = SliceState {
                holds: holds.clone(),
                pending: vec![0; processes],
                events_in,
                events_filtered,
            };
            filter.restore(&state).map_err(|_| shape("holds cache"))?;
        }
        for (seq, p, clock, set) in &snap.held {
            if *p >= processes || clock.len() != processes {
                return Err(shape("held event"));
            }
            if set.keys().any(|v| w.vars.lookup(v).is_none()) {
                return Err(shape("held variable"));
            }
            w.held.push(HeldEvent {
                seq: *seq,
                p: *p,
                clock: VectorClock::from_components(clock.clone()),
                set: set.clone(),
            });
        }
        Ok(w)
    }
}

/// An empty-membership update: either an explicit refusal (`invalid`)
/// or a payload the aggregator is guaranteed to classify away.
fn refusal(p: usize, clock: &VectorClock, invalid: Option<String>) -> SliceUpdateBody {
    SliceUpdateBody::Observe {
        p,
        clock: clock.components().to_vec(),
        holds: Vec::new(),
        invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tracefmt::wire::{WireClause, WireMode};

    fn vc(c: &[u32]) -> VectorClock {
        VectorClock::from_components(c.to_vec())
    }

    fn set(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

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

    /// Two processes, worker 0 of k=2 owns process 0; predicate wants
    /// `x0=2 ∧ x1=1`.
    fn worker() -> DistWorker {
        DistWorker::open(
            0,
            2,
            2,
            &["x0".to_string(), "x1".to_string()],
            &[],
            &[pred("ef", &[(0, "x0", "=", 2), (1, "x1", "=", 1)])],
        )
        .unwrap()
    }

    fn holds_of(u: &SliceUpdateBody) -> &[usize] {
        match u {
            SliceUpdateBody::Observe { holds, .. } => holds,
            other => panic!("expected observe, got {other:?}"),
        }
    }

    #[test]
    fn membership_follows_the_local_clause() {
        let mut w = worker();
        let u = w.observe(0, 0, vc(&[1, 0]), &set(&[("x0", 1)]));
        assert_eq!(u.len(), 1);
        assert_eq!(holds_of(&u[0].1), &[] as &[usize]); // x0=1: clause false
        let u = w.observe(1, 0, vc(&[2, 0]), &set(&[("x0", 2)]));
        assert_eq!(holds_of(&u[0].1), &[0]); // x0=2: member
                                             // Untouched event reuses the cached truth (still a member).
        let u = w.observe(2, 0, vc(&[3, 0]), &set(&[]));
        assert_eq!(holds_of(&u[0].1), &[0]);
    }

    #[test]
    fn position_gaps_hold_and_drain_in_order() {
        let mut w = worker();
        // Position 2 before position 1: held, no update yet.
        assert!(w.observe(5, 0, vc(&[2, 0]), &set(&[("x0", 2)])).is_empty());
        assert_eq!(w.held(), 1);
        // The gap fills: position 1 applies, then the held position 2
        // drains — sequence numbers preserved per event.
        let u = w.observe(9, 0, vc(&[1, 0]), &set(&[("x0", 1)]));
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].0, 9);
        assert_eq!(holds_of(&u[0].1), &[] as &[usize]);
        assert_eq!(u[1].0, 5);
        assert_eq!(holds_of(&u[1].1), &[0]);
        assert_eq!(w.held(), 0);
    }

    #[test]
    fn replays_and_invalid_events_are_refused_without_state_change() {
        let mut w = worker();
        w.observe(0, 0, vc(&[1, 0]), &set(&[("x0", 2)]));
        // Same position again: empty holds, no double-apply.
        let u = w.observe(1, 0, vc(&[1, 0]), &set(&[("x0", 7)]));
        assert_eq!(holds_of(&u[0].1), &[] as &[usize]);
        // Undeclared variable: refused with the exact session message.
        let u = w.observe(2, 0, vc(&[2, 0]), &set(&[("nope", 1)]));
        match &u[0].1 {
            SliceUpdateBody::Observe { invalid, holds, .. } => {
                assert_eq!(invalid.as_deref(), Some("undeclared variable 'nope'"));
                assert!(holds.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // Out-of-range process / bad clock width: deferred to the
        // aggregator's causal buffer.
        let u = w.observe(3, 9, vc(&[1, 0]), &set(&[]));
        assert!(matches!(
            &u[0].1,
            SliceUpdateBody::Observe { invalid: None, holds, .. } if holds.is_empty()
        ));
        // The next in-position event still evaluates correctly.
        let u = w.observe(4, 0, vc(&[2, 0]), &set(&[("x0", 2)]));
        assert_eq!(holds_of(&u[0].1), &[0]);
    }

    #[test]
    fn close_flushes_stranded_holds() {
        let mut w = worker();
        assert!(w.observe(3, 0, vc(&[4, 0]), &set(&[("x0", 2)])).is_empty());
        assert!(w.observe(4, 0, vc(&[3, 0]), &set(&[("x0", 2)])).is_empty());
        let u = w.close();
        assert_eq!(u.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![3, 4]);
        assert!(u.iter().all(|(_, b)| holds_of(b).is_empty()));
        assert_eq!(w.held(), 0);
    }

    #[test]
    fn slice_stats_are_watermarked() {
        let mut w = worker();
        assert!(w.take_slice_stats().is_empty());
        w.observe(0, 0, vc(&[1, 0]), &set(&[("x0", 1)])); // filtered
        w.observe(1, 0, vc(&[2, 0]), &set(&[("x0", 2)])); // member
        assert_eq!(w.take_slice_stats(), vec![("ef".to_string(), 2, 1)]);
        assert!(w.take_slice_stats().is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut w = worker();
        w.observe(0, 0, vc(&[1, 0]), &set(&[("x0", 2)]));
        w.observe(1, 0, vc(&[3, 0]), &set(&[("x0", 5)])); // held
        let snap = w.snapshot();
        let mut r = DistWorker::restore(&snap, 2).unwrap();
        assert_eq!(r.snapshot(), snap, "snapshot is stable");
        // Both continue identically: the gap fills, the held event
        // drains with the same bits.
        let a = w.observe(2, 0, vc(&[2, 0]), &set(&[]));
        let b = r.observe(2, 0, vc(&[2, 0]), &set(&[]));
        assert_eq!(a.len(), 2);
        for ((sa, ua), (sb, ub)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert_eq!(ua, ub);
        }
        assert_eq!(w.snapshot(), r.snapshot());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let w = worker();
        let good = w.snapshot();
        let mut bad = good.clone();
        bad.counts = vec![0];
        assert!(DistWorker::restore(&bad, 2).is_err());
        let mut bad = good;
        bad.held.push((9, 7, vec![1, 1], BTreeMap::new()));
        assert!(DistWorker::restore(&bad, 2).is_err());
    }
}
