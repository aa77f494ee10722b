//! Distributed online slice detection: the engines that let one
//! monitored computation be detected by **several** monitor backends
//! cooperating, in the style of Chauhan–Garg distributed slicing.
//!
//! A distributed session partitions the computation's processes across
//! `k` *workers* — process `p` belongs to worker
//! [`owner`](hb_tracefmt::wire::owner)`(p, k)` — plus one *aggregator*.
//! Each worker runs the slicing membership filter of `hb-slice` over its
//! own processes only and emits one compact [`SliceUpdateBody`] per
//! event carrying the slice-membership bits (which predicates' clauses
//! hold). The aggregator consumes updates in gateway-assigned sequence
//! order and feeds those bits to the very detection core a plain
//! [`Session`](crate::Session) runs — same causal buffer, same
//! deferred-skip flush, same verdict settle points — so the frames a
//! client sees are **byte-identical** to a single-backend sliced
//! session by construction. All three roles validate their open through
//! the same check sequence and report [`SessionError`]s.
//!
//! The split mirrors the paper's observation that conjunctive
//! predicates decompose into independent local clauses: clause truth
//! is computed where the state lives (the worker owning the process),
//! and only booleans cross the monitor-to-monitor wire. See
//! `DESIGN.md` §15 for the protocol, the failover semantics, and the
//! deliberate divergences from Chauhan–Garg.
//!
//! Three invariants carry the equivalence proof:
//!
//! 1. **One update per sequence number.** Every gateway-stamped frame
//!    eventually produces exactly one update (a held process-order gap
//!    is flushed on drain or at close), so the aggregator's contiguous
//!    sequence processing never deadlocks.
//! 2. **Position-order evaluation.** A worker applies events of one
//!    process strictly in vector-clock position order, which is the
//!    order any causal delivery presents them; local clause truth
//!    depends on nothing else.
//! 3. **Replica classification.** The aggregator never trusts a
//!    worker's refusal beyond variable validation: duplicates, range
//!    errors, and clock-width errors are re-derived from its own causal
//!    buffer, reproducing the single-backend error frames.
//!
//! [`SliceUpdateBody`]: hb_tracefmt::wire::SliceUpdateBody
//! [`SessionError`]: crate::SessionError

mod aggregator;
mod worker;

pub use aggregator::{AggStep, AggregatorSnapshot, DistAggregator};
pub use worker::{DistWorker, HeldRecord, WorkerSnapshot};
