//! Pins the `ServiceSnapshot` JSON format independently of the Rust
//! types behind it. `data/golden_snapshot.json` holds one snapshot with
//! every slot kind mid-stream: a plain session (sliced, disjunctive and
//! pattern predicates, a held event, pending skips), a worker partition
//! with a held event, and an aggregator with a parked reorder entry and
//! a held update. The fixture must parse, restore into live engines,
//! and re-serialize from those engines byte for byte — so a data
//! directory written by an older build still recovers, and a snapshot
//! written now reads the same way tomorrow.

use hb_monitor::dist::{DistAggregator, DistWorker};
use hb_monitor::{
    AggregatorSlotSnapshot, OverflowPolicy, ServiceSnapshot, Session, SessionLimits,
    WorkerSlotSnapshot,
};

const GOLDEN: &str = include_str!("data/golden_snapshot.json");

#[test]
fn golden_snapshot_parses_restores_and_reserializes_byte_for_byte() {
    let snap = ServiceSnapshot::from_json(GOLDEN.trim_end().as_bytes()).unwrap();
    assert_eq!(snap.sessions.len(), 1);
    assert_eq!(snap.workers.len(), 1);
    assert_eq!(snap.aggregators.len(), 1);
    assert!(
        !snap.sessions[0].held.is_empty(),
        "the session holds an event"
    );
    assert!(
        !snap.workers[0].snap.held.is_empty(),
        "the worker holds an event"
    );
    assert!(
        !snap.aggregators[0].snap.reorder.is_empty(),
        "the aggregator reorders"
    );

    let limits = SessionLimits::default();
    let sessions = snap
        .sessions
        .iter()
        .map(|s| Session::restore(s, limits).unwrap().snapshot())
        .collect();
    let workers = snap
        .workers
        .iter()
        .map(|w| WorkerSlotSnapshot {
            name: w.name.clone(),
            origin: w.origin.clone(),
            snap: DistWorker::restore(&w.snap, w.snap.states.len())
                .unwrap()
                .snapshot(),
        })
        .collect();
    let aggregators = snap
        .aggregators
        .iter()
        .map(|a| AggregatorSlotSnapshot {
            name: a.name.clone(),
            processes: a.processes,
            snap: DistAggregator::restore(
                &a.snap,
                a.processes,
                limits.buffer_capacity,
                OverflowPolicy::Reject,
            )
            .unwrap()
            .snapshot(),
        })
        .collect();
    let rebuilt = ServiceSnapshot {
        sessions,
        workers,
        aggregators,
    };
    assert_eq!(rebuilt, snap);
    assert_eq!(rebuilt.to_json(), GOLDEN.trim_end());
}
