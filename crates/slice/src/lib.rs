//! Computation slicing for regular predicates, offline and online.
//!
//! The *slice* of a computation with respect to a predicate `p`
//! (Mittal–Garg, *Techniques and Applications of Computation Slicing*)
//! is the smallest sublattice of the cut lattice containing every
//! consistent cut that satisfies `p`. For **regular** predicates —
//! closed under both meet and join, e.g. conjunctions of local clauses
//! — the slice is itself a distributive lattice and, by Birkhoff's
//! theorem, is fully described by `O(|E|)` join-irreducible cuts:
//!
//! - `I_p`, the least satisfying cut;
//! - `F_p`, the greatest satisfying cut;
//! - `J_p(e)` for each event `e`, the least satisfying cut containing
//!   `e` (absent when no satisfying cut contains `e`).
//!
//! A cut `G` is in the slice iff `I_p ⊆ G ⊆ F_p` and `J_p(e) ⊆ G` for
//! every frontier event `e` of `G`. The [`offline`] module computes
//! this data from a complete [`hb_computation::Computation`] ([`Slice`],
//! plus the slice-based `EF`/`EG` comparators the benchmarks pit
//! against the paper's algorithms); the rest of this crate maintains it
//! **online**, event by event, in the style of Chauhan–Garg's
//! distributed abstraction algorithm:
//!
//! - [`OnlineSlicer`] is the reference implementation. Its
//!   [`OnlineSlicer::advance`] consumes one wire
//!   [`EventFrame`](hb_tracefmt::wire::EventFrame) (delivered in any
//!   order consistent with causality) and reports a [`SliceDelta`]:
//!   whether the event enters the slice as a new join-irreducible node
//!   — and, when already determined, the induced closure edge, i.e.
//!   its `J_p` cut — or is provably irrelevant (it collapses forward
//!   onto the process's next slice member: `J_p(e) = J_p(succ)`).
//!   `I_p`/`F_p`/`J_p` walks run on demand over the observed prefix.
//! - [`SliceFilter`] is the O(1)-per-event production distillation
//!   used by the monitor's ingest path: it decides only *membership*
//!   and counts the states a fronted detector may skip.
//!
//! # Why filtering preserves verdicts exactly
//!
//! The conjunctive detector (Garg–Waldecker queues) does two things
//! per observation: it advances the per-process state counter, and —
//! only for participating, clause-true states — pushes a candidate
//! `(state, clock)` and rechecks the queue heads. A skipped
//! observation therefore influences the detector *only* through the
//! counter. [`SliceFilter`] accumulates skipped counts per process and
//! the session flushes them with
//! `OnlineMonitor::skip_states` immediately before the next admitted
//! event of that process, so every candidate is pushed with exactly
//! the `(state, clock)` pair the unsliced run would have used, every
//! recheck fires at the same event, and the emitted verdict frames are
//! byte-identical.
//!
//! Membership here is deliberately *detector-level*: events of
//! non-participating processes are genuine slice nodes in the Birkhoff
//! sense (their vacuous clause holds everywhere) but carry no
//! information for the detector, so the filter skips them too, tagged
//! [`SkipReason::NonParticipating`] to keep the two notions separate.

mod filter;
pub mod offline;
mod online;

pub use filter::{SliceFilter, SliceState};
pub use offline::{ef_regular_via_slice, eg_regular_via_slice, Slice};
pub use online::OnlineSlicer;

use hb_computation::VarId;
use hb_predicates::LocalExpr;
use hb_tracefmt::wire::WireMode;

/// What one delivered event does to the slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceDelta {
    /// The event enters the slice as a join-irreducible node.
    ///
    /// `j_cut` is the closure edge it induces — the least satisfying
    /// cut containing the event, as counters — when that cut is
    /// already determined by the observed prefix. `None` means the
    /// walk ran past the observed frontier ([`OnlineSlicer`]) or the
    /// producer does not compute cuts at all ([`SliceFilter`]).
    Enter {
        /// `J_p(e)` if already determined, else `None`.
        j_cut: Option<Vec<u32>>,
    },
    /// The event is provably irrelevant to detection: it is never a
    /// slice node of its own (`J_p(e)` equals the `J_p` of the
    /// process's next admitted event), or it belongs to a process the
    /// predicate ignores.
    Skip {
        /// Why the event was skipped.
        reason: SkipReason,
    },
}

impl SliceDelta {
    /// True iff the event must reach the underlying detector.
    pub fn is_member(&self) -> bool {
        matches!(self, SliceDelta::Enter { .. })
    }
}

/// Why a [`SliceDelta::Skip`] skipped its event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The predicate has no clause on the event's process.
    NonParticipating,
    /// The event assigns none of the clause's variables and the cached
    /// clause value is false, so the post-state clause is false too.
    Untouched,
    /// The clause was evaluated on the post-state and is false.
    ClauseFalse,
}

/// True iff the monitor may front this predicate mode with a
/// [`SliceFilter`].
///
/// This is the structural counterpart of the semantic test
/// `hb_predicates::classify::is_regular_on`: conjunctions of local
/// clauses are regular by construction (Mittal–Garg), which the
/// proptests in this crate audit against the lattice oracle on random
/// computations. Disjunctive and pattern predicates are not meet- and
/// join-closed in general, so sessions fall back to unsliced ingest.
pub fn sliceable(mode: WireMode) -> bool {
    matches!(mode, WireMode::Conjunctive)
}

/// Collects the variables a clause depends on, sorted and deduplicated.
pub fn clause_vars(expr: &LocalExpr) -> Vec<VarId> {
    fn walk(e: &LocalExpr, out: &mut Vec<VarId>) {
        match e {
            LocalExpr::Const(_) => {}
            LocalExpr::Cmp(var, _, _) => out.push(*var),
            LocalExpr::Not(a) => walk(a, out),
            LocalExpr::And(a, b) | LocalExpr::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out.sort_unstable_by_key(|v| v.index());
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_computation::VarId;

    #[test]
    fn clause_vars_sorted_and_deduped() {
        let x = VarId::from_index(1);
        let y = VarId::from_index(0);
        let e = LocalExpr::ge(x, 1)
            .and(LocalExpr::le(y, 3))
            .and(LocalExpr::eq(x, 2).or(LocalExpr::Const(true)));
        assert_eq!(clause_vars(&e), vec![y, x]);
    }

    #[test]
    fn only_conjunctive_is_sliceable() {
        assert!(sliceable(WireMode::Conjunctive));
        assert!(!sliceable(WireMode::Disjunctive));
        assert!(!sliceable(WireMode::Pattern));
    }
}
