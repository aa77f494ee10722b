//! The O(1)-per-event membership filter fronting a conjunctive
//! detector inside a monitor session.

use crate::{clause_vars, SkipReason, SliceDelta};
use hb_computation::{LocalState, VarId};
use hb_predicates::LocalExpr;

/// Decides, per delivered event, whether the event is a slice member
/// that must reach the detector, and accumulates the per-process
/// counts of skipped observations the detector still has to absorb as
/// state-counter advances (see the crate docs for why that preserves
/// verdicts byte-for-byte).
///
/// The filter holds no clocks and computes no cuts: membership of an
/// event for a conjunctive predicate depends only on whether its
/// process participates and whether the clause holds on the
/// post-state, which the filter tracks with a cached truth value per
/// process and the clause's variable footprint (events that assign
/// none of the clause's variables cannot change it).
#[derive(Debug, Clone)]
pub struct SliceFilter {
    /// Per-process clause variable footprint; `None` = non-participating.
    deps: Vec<Option<Vec<VarId>>>,
    /// Cached clause truth of each process's current state.
    holds: Vec<bool>,
    /// Skipped observations not yet flushed into the detector.
    pending: Vec<u64>,
    events_in: u64,
    events_filtered: u64,
    /// `(events_in, events_filtered)` as of the last
    /// [`SliceFilter::take_counts`].
    reported: (u64, u64),
}

/// Exportable dynamic state of a [`SliceFilter`], persisted through
/// WAL snapshots next to the detector state it fronts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SliceState {
    /// Cached clause truth per process.
    pub holds: Vec<bool>,
    /// Unflushed skip counts per process.
    pub pending: Vec<u64>,
    /// Total events offered to the filter.
    pub events_in: u64,
    /// Events the filter proved irrelevant.
    pub events_filtered: u64,
}

impl SliceFilter {
    /// Builds a filter for a per-process clause table (the session's
    /// folded conjunctive clauses) and the processes' initial states.
    pub fn from_clauses(clauses: &[Option<LocalExpr>], initial: &[LocalState]) -> SliceFilter {
        assert_eq!(clauses.len(), initial.len());
        let deps: Vec<Option<Vec<VarId>>> = clauses
            .iter()
            .map(|c| c.as_ref().map(clause_vars))
            .collect();
        let holds = clauses
            .iter()
            .zip(initial)
            .map(|(c, s)| c.as_ref().is_none_or(|e| e.eval(s)))
            .collect();
        SliceFilter {
            deps,
            holds,
            pending: vec![0; clauses.len()],
            events_in: 0,
            events_filtered: 0,
            reported: (0, 0),
        }
    }

    /// Classifies the next delivered event of process `p`.
    ///
    /// `touched` iterates the variables the event assigns; `eval` is
    /// called at most once, only when the clause truth can have
    /// changed, and must evaluate the clause on the **post**-state
    /// (the session applies the payload before filtering).
    pub fn advance(
        &mut self,
        p: usize,
        touched: impl IntoIterator<Item = VarId>,
        eval: impl FnOnce() -> bool,
    ) -> SliceDelta {
        self.events_in += 1;
        let Some(dep) = &self.deps[p] else {
            return self.skip(p, SkipReason::NonParticipating);
        };
        let relevant = touched.into_iter().any(|v| dep.contains(&v));
        if relevant {
            self.holds[p] = eval();
        } else if !self.holds[p] {
            return self.skip(p, SkipReason::Untouched);
        }
        if self.holds[p] {
            SliceDelta::Enter { j_cut: None }
        } else {
            self.skip(p, SkipReason::ClauseFalse)
        }
    }

    fn skip(&mut self, p: usize, reason: SkipReason) -> SliceDelta {
        self.events_filtered += 1;
        self.pending[p] += 1;
        SliceDelta::Skip { reason }
    }

    /// Takes (and resets) the skip count the detector must absorb
    /// before observing the next admitted event of `p`.
    pub fn take_pending(&mut self, p: usize) -> u64 {
        std::mem::take(&mut self.pending[p])
    }

    /// Total events offered to the filter.
    pub fn events_in(&self) -> u64 {
        self.events_in
    }

    /// Events the filter proved irrelevant.
    pub fn events_filtered(&self) -> u64 {
        self.events_filtered
    }

    /// Counter growth since the previous call, as `(Δevents_in,
    /// Δevents_filtered)`, or `None` when there is none — so a metrics
    /// sink sees every offered event exactly once. A restored filter
    /// starts from zero: its first call reports the restored totals,
    /// resyncing metrics that restarted with the process.
    pub fn take_counts(&mut self) -> Option<(u64, u64)> {
        let total = (self.events_in, self.events_filtered);
        let delta = (total.0 - self.reported.0, total.1 - self.reported.1);
        self.reported = total;
        (delta != (0, 0)).then_some(delta)
    }

    /// Exports the dynamic state for a snapshot.
    pub fn export(&self) -> SliceState {
        SliceState {
            holds: self.holds.clone(),
            pending: self.pending.clone(),
            events_in: self.events_in,
            events_filtered: self.events_filtered,
        }
    }

    /// Restores dynamic state exported by [`SliceFilter::export`] from
    /// a filter built over the same predicate.
    pub fn restore(&mut self, state: &SliceState) -> Result<(), &'static str> {
        if state.holds.len() != self.holds.len() || state.pending.len() != self.pending.len() {
            return Err("slice state shape does not match predicate");
        }
        self.holds.clone_from(&state.holds);
        self.pending.clone_from(&state.pending);
        self.events_in = state.events_in;
        self.events_filtered = state.events_filtered;
        self.reported = (0, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::VarTable;

    fn setup() -> (SliceFilter, VarId, VarId) {
        let mut vars = VarTable::new();
        let x = vars.declare("x");
        let y = vars.declare("y");
        // Process 0: x >= 1; process 1: non-participating.
        let clauses = vec![Some(LocalExpr::ge(x, 1)), None];
        let initial = vec![LocalState::zeroed(2), LocalState::zeroed(2)];
        (SliceFilter::from_clauses(&clauses, &initial), x, y)
    }

    #[test]
    fn participating_true_states_are_members() {
        let (mut f, x, _) = setup();
        let d = f.advance(0, [x], || true);
        assert_eq!(d, SliceDelta::Enter { j_cut: None });
        assert_eq!(f.take_pending(0), 0);
        assert_eq!((f.events_in(), f.events_filtered()), (1, 0));
    }

    #[test]
    fn false_states_accumulate_pending_skips() {
        let (mut f, x, _) = setup();
        assert!(!f.advance(0, [x], || false).is_member());
        assert!(!f.advance(0, [x], || false).is_member());
        assert!(f.advance(0, [x], || true).is_member());
        assert_eq!(f.take_pending(0), 2);
        assert_eq!(f.take_pending(0), 0);
        assert_eq!((f.events_in(), f.events_filtered()), (3, 2));
    }

    #[test]
    fn untouched_events_reuse_the_cached_truth() {
        let (mut f, x, y) = setup();
        // Cached truth is false (zeroed initial state): an event that
        // only assigns `y` cannot flip it, so `eval` must not run.
        let d = f.advance(0, [y], || panic!("eval on untouched clause"));
        assert_eq!(
            d,
            SliceDelta::Skip {
                reason: SkipReason::Untouched
            }
        );
        // Flip the cache to true; untouched events are now members —
        // the unsliced detector would push candidates for them.
        assert!(f.advance(0, [x], || true).is_member());
        assert!(f
            .advance(0, [y], || panic!("eval on untouched clause"))
            .is_member());
    }

    #[test]
    fn non_participating_processes_are_filtered() {
        let (mut f, x, _) = setup();
        let d = f.advance(1, [x], || panic!("eval on vacuous clause"));
        assert_eq!(
            d,
            SliceDelta::Skip {
                reason: SkipReason::NonParticipating
            }
        );
        assert_eq!(f.take_pending(1), 1);
    }

    #[test]
    fn counts_are_reported_once() {
        let (mut f, x, _) = setup();
        assert_eq!(f.take_counts(), None);
        f.advance(0, [x], || false);
        f.advance(0, [x], || true);
        assert_eq!(f.take_counts(), Some((2, 1)));
        assert_eq!(f.take_counts(), None);
        let state = f.export();
        let (mut fresh, _, _) = setup();
        fresh.restore(&state).unwrap();
        assert_eq!(fresh.take_counts(), Some((2, 1)), "restores report totals");
    }

    #[test]
    fn export_restore_round_trips() {
        let (mut f, x, _) = setup();
        f.advance(0, [x], || false);
        f.advance(1, std::iter::empty::<VarId>(), || true);
        f.advance(0, [x], || true);
        let state = f.export();

        let (mut fresh, _, _) = setup();
        fresh.restore(&state).unwrap();
        assert_eq!(fresh.export(), state);
        // The restored filter continues exactly where the original
        // left off: same cache, same pending counts.
        assert_eq!(fresh.take_pending(0), f.take_pending(0));
        assert_eq!(fresh.take_pending(1), f.take_pending(1));

        let bad = SliceState {
            holds: vec![true],
            ..SliceState::default()
        };
        assert!(fresh.restore(&bad).is_err());
    }
}
