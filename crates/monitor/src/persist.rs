//! Durable state: what the monitor writes into snapshots.
//!
//! The WAL records are plain wire-protocol [`ClientMsg`] frames — the
//! monitor's input, logged before it is acknowledged — so replay is
//! just re-submitting the input. Snapshots bound the replay: a
//! [`ServiceSnapshot`] serializes every open session completely (local
//! states, causal-buffer frontier and held events, each detector's
//! exported state and emitted flags), and the store only replays
//! records appended after it.
//!
//! Everything here is plain data serialized as JSON: no vector-clock or
//! detector types cross the persistence boundary, only integers,
//! strings, and booleans, mirroring [`hb_detect::online::DetectorState`].
//!
//! [`ClientMsg`]: hb_tracefmt::wire::ClientMsg

use crate::dist::{AggregatorSnapshot, WorkerSnapshot};
use hb_detect::online::{
    CandidateState, ConjunctiveState, DetectorState, DisjunctiveState, PatternChainState,
    PatternState, VerdictState,
};
use hb_slice::SliceState;
use hb_store::SyncPolicy;
use hb_tracefmt::wire::WirePredicate;
use serde::{help, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Durability configuration for a monitor service.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The store directory (created if missing).
    pub dir: PathBuf,
    /// When appended records reach the disk.
    pub sync: SyncPolicy,
    /// Write a snapshot (and compact) every this many WAL records.
    pub snapshot_every: u64,
    /// WAL segment rotation size.
    pub segment_bytes: u64,
}

impl PersistConfig {
    /// Sensible defaults for a data directory.
    pub fn new(dir: PathBuf) -> Self {
        PersistConfig {
            dir,
            sync: SyncPolicy::Interval(std::time::Duration::from_millis(5)),
            snapshot_every: 10_000,
            segment_bytes: 8 << 20,
        }
    }
}

/// One held (not yet causally deliverable) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldEventSnapshot {
    /// The producing process.
    pub process: usize,
    /// The event's vector clock components.
    pub clock: Vec<u32>,
    /// The event's variable updates, by name.
    pub set: BTreeMap<String, i64>,
}

/// One registered predicate's detector, frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// The predicate's caller-chosen id.
    pub id: String,
    /// Whether the settled verdict was already reported.
    pub emitted: bool,
    /// The detector's exported state.
    pub state: DetectorState,
    /// The slicing ingest filter's state, when the predicate was
    /// sliced. Absent in pre-slicing snapshots and for unsliceable
    /// predicates.
    pub slice: Option<SliceState>,
}

/// One open session, frozen mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Session name.
    pub name: String,
    /// Process count.
    pub processes: usize,
    /// Variable names, in declaration (id) order.
    pub vars: Vec<String>,
    /// The predicates registered at open.
    pub predicates: Vec<WirePredicate>,
    /// Per-process local variable values, in id order.
    pub states: Vec<Vec<i64>>,
    /// The causal buffer's delivered frontier.
    pub frontier: Vec<u32>,
    /// Held events, in arrival order.
    pub held: Vec<HeldEventSnapshot>,
    /// Client-declared stream ends.
    pub finished: Vec<bool>,
    /// Finishes already forwarded to the detectors.
    pub monitor_finished: Vec<bool>,
    /// Events delivered so far.
    pub delivered: u64,
    /// Each predicate's detector, in registration order.
    pub monitors: Vec<MonitorSnapshot>,
}

/// One distributed-session worker partition hosted by this backend,
/// frozen mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSlotSnapshot {
    /// The decorated session name the partition is registered under
    /// (`origin#w<i>`).
    pub name: String,
    /// The origin session the worker's slice updates name.
    pub origin: String,
    /// The worker engine's state.
    pub snap: WorkerSnapshot,
}

/// One distributed-session aggregator hosted by this backend, frozen
/// mid-run. It is registered under the **origin** session name — the
/// aggregator is the member of the partition the client hears.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorSlotSnapshot {
    /// The origin session name.
    pub name: String,
    /// The computation's process count (the engine snapshot stores
    /// only per-process vectors, whose width this pins down).
    pub processes: usize,
    /// The aggregator engine's state.
    pub snap: AggregatorSnapshot,
}

/// Every open session of a service, frozen at one WAL position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSnapshot {
    /// The open sessions.
    pub sessions: Vec<SessionSnapshot>,
    /// Distributed-session worker partitions on this backend. Absent
    /// from (and defaulted empty for) pre-v5 snapshots.
    pub workers: Vec<WorkerSlotSnapshot>,
    /// Distributed-session aggregators on this backend. Absent from
    /// (and defaulted empty for) pre-v5 snapshots.
    pub aggregators: Vec<AggregatorSlotSnapshot>,
}

impl ServiceSnapshot {
    /// Serializes to the snapshot payload format (JSON).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("snapshot serializes")
    }

    /// Parses a snapshot payload.
    pub fn from_json(payload: &[u8]) -> Result<ServiceSnapshot, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("snapshot not UTF-8: {e}"))?;
        let value = serde_json::parse_value(text).map_err(|e| format!("snapshot JSON: {e}"))?;
        ServiceSnapshot::from_value(&value).map_err(|e| format!("snapshot shape: {e}"))
    }
}

// ---- serde ---------------------------------------------------------------

fn required<'a>(v: &'a Value, name: &str) -> Result<&'a Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::msg(format!("missing field '{name}'")))
}

/// Decodes an array element by element.
fn items<T>(value: &Value, item: impl Fn(&Value) -> Result<T, DeError>) -> Result<Vec<T>, DeError> {
    let Value::Array(values) = value else {
        return Err(DeError::expected("array", value));
    };
    values.iter().map(item).collect()
}

/// Decodes the required array field `name` element by element.
fn array<T>(
    v: &Value,
    name: &str,
    item: impl Fn(&Value) -> Result<T, DeError>,
) -> Result<Vec<T>, DeError> {
    items(required(v, name)?, item)
}

fn verdict_to_value(v: &VerdictState) -> Value {
    match v {
        VerdictState::Detected(cut) => Value::Object(vec![
            ("kind".into(), "detected".to_string().to_value()),
            ("cut".into(), cut.to_value()),
        ]),
        VerdictState::Impossible => {
            Value::Object(vec![("kind".into(), "impossible".to_string().to_value())])
        }
        VerdictState::Pending => {
            Value::Object(vec![("kind".into(), "pending".to_string().to_value())])
        }
    }
}

fn verdict_from_value(v: &Value) -> Result<VerdictState, DeError> {
    let kind: String = help::field(v, "kind")?;
    match kind.as_str() {
        "detected" => Ok(VerdictState::Detected(help::field(v, "cut")?)),
        "impossible" => Ok(VerdictState::Impossible),
        "pending" => Ok(VerdictState::Pending),
        other => Err(DeError::msg(format!("unknown verdict kind '{other}'"))),
    }
}

fn candidate_to_value(c: &CandidateState) -> Value {
    Value::Object(vec![
        ("state".into(), c.state.to_value()),
        ("clock".into(), c.clock.to_value()),
    ])
}

fn candidate_from_value(v: &Value) -> Result<CandidateState, DeError> {
    Ok(CandidateState {
        state: help::field(v, "state")?,
        clock: help::field(v, "clock")?,
    })
}

fn chain_to_value(c: &PatternChainState) -> Value {
    Value::Object(vec![
        ("join".into(), c.join.to_value()),
        ("last".into(), c.last.to_value()),
    ])
}

fn chain_from_value(v: &Value) -> Result<PatternChainState, DeError> {
    Ok(PatternChainState {
        join: help::field(v, "join")?,
        last: help::field(v, "last")?,
    })
}

fn detector_to_value(d: &DetectorState) -> Value {
    match d {
        DetectorState::Conjunctive(s) => Value::Object(vec![
            ("kind".into(), "conjunctive".to_string().to_value()),
            ("n".into(), s.n.to_value()),
            (
                "queues".into(),
                Value::Array(
                    s.queues
                        .iter()
                        .map(|q| Value::Array(q.iter().map(candidate_to_value).collect()))
                        .collect(),
                ),
            ),
            ("participating".into(), s.participating.to_value()),
            ("seen".into(), s.seen.to_value()),
            ("finished".into(), s.finished.to_value()),
            ("verdict".into(), verdict_to_value(&s.verdict)),
        ]),
        DetectorState::Disjunctive(s) => Value::Object(vec![
            ("kind".into(), "disjunctive".to_string().to_value()),
            ("seen".into(), s.seen.to_value()),
            ("live".into(), s.live.to_value()),
            ("verdict".into(), verdict_to_value(&s.verdict)),
        ]),
        DetectorState::Pattern(s) => Value::Object(vec![
            ("kind".into(), "pattern".to_string().to_value()),
            ("n".into(), s.n.to_value()),
            ("causal".into(), s.causal.to_value()),
            (
                "frontiers".into(),
                Value::Array(
                    s.frontiers
                        .iter()
                        .map(|f| Value::Array(f.iter().map(chain_to_value).collect()))
                        .collect(),
                ),
            ),
            ("candidates".into(), s.candidates.to_value()),
            ("finished".into(), s.finished.to_value()),
            ("seen".into(), s.seen.to_value()),
            ("verdict".into(), verdict_to_value(&s.verdict)),
        ]),
    }
}

fn detector_from_value(v: &Value) -> Result<DetectorState, DeError> {
    let kind: String = help::field(v, "kind")?;
    match kind.as_str() {
        "conjunctive" => Ok(DetectorState::Conjunctive(ConjunctiveState {
            n: help::field(v, "n")?,
            queues: array(v, "queues", |q| items(q, candidate_from_value))?,
            participating: help::field(v, "participating")?,
            seen: help::field(v, "seen")?,
            finished: help::field(v, "finished")?,
            verdict: verdict_from_value(required(v, "verdict")?)?,
        })),
        "disjunctive" => Ok(DetectorState::Disjunctive(DisjunctiveState {
            seen: help::field(v, "seen")?,
            live: help::field(v, "live")?,
            verdict: verdict_from_value(required(v, "verdict")?)?,
        })),
        "pattern" => Ok(DetectorState::Pattern(PatternState {
            n: help::field(v, "n")?,
            causal: help::field(v, "causal")?,
            frontiers: array(v, "frontiers", |f| items(f, chain_from_value))?,
            candidates: help::field(v, "candidates")?,
            finished: help::field(v, "finished")?,
            seen: help::field(v, "seen")?,
            verdict: verdict_from_value(required(v, "verdict")?)?,
        })),
        other => Err(DeError::msg(format!("unknown detector kind '{other}'"))),
    }
}

impl Serialize for HeldEventSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("process".into(), self.process.to_value()),
            ("clock".into(), self.clock.to_value()),
            ("set".into(), self.set.to_value()),
        ])
    }
}

impl Deserialize for HeldEventSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(HeldEventSnapshot {
            process: help::field(v, "process")?,
            clock: help::field(v, "clock")?,
            set: help::field_or_default(v, "set")?,
        })
    }
}

fn slice_to_value(s: &SliceState) -> Value {
    Value::Object(vec![
        ("holds".into(), s.holds.to_value()),
        ("pending".into(), s.pending.to_value()),
        ("events_in".into(), s.events_in.to_value()),
        ("events_filtered".into(), s.events_filtered.to_value()),
    ])
}

fn slice_from_value(v: &Value) -> Result<SliceState, DeError> {
    help::object(v)?;
    Ok(SliceState {
        holds: help::field(v, "holds")?,
        pending: help::field(v, "pending")?,
        events_in: help::field_or_default(v, "events_in")?,
        events_filtered: help::field_or_default(v, "events_filtered")?,
    })
}

impl Serialize for MonitorSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".into(), self.id.to_value()),
            ("emitted".into(), self.emitted.to_value()),
            ("state".into(), detector_to_value(&self.state)),
        ];
        if let Some(slice) = &self.slice {
            fields.push(("slice".into(), slice_to_value(slice)));
        }
        Value::Object(fields)
    }
}

impl Deserialize for MonitorSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(MonitorSnapshot {
            id: help::field(v, "id")?,
            emitted: help::field(v, "emitted")?,
            state: detector_from_value(required(v, "state")?)?,
            slice: v.get("slice").map(slice_from_value).transpose()?,
        })
    }
}

impl Serialize for SessionSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("processes".into(), self.processes.to_value()),
            ("vars".into(), self.vars.to_value()),
            ("predicates".into(), self.predicates.to_value()),
            ("states".into(), self.states.to_value()),
            ("frontier".into(), self.frontier.to_value()),
            ("held".into(), self.held.to_value()),
            ("finished".into(), self.finished.to_value()),
            ("monitor_finished".into(), self.monitor_finished.to_value()),
            ("delivered".into(), self.delivered.to_value()),
            ("monitors".into(), self.monitors.to_value()),
        ])
    }
}

impl Deserialize for SessionSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(SessionSnapshot {
            name: help::field(v, "name")?,
            processes: help::field(v, "processes")?,
            vars: help::field_or_default(v, "vars")?,
            predicates: help::field_or_default(v, "predicates")?,
            states: help::field_or_default(v, "states")?,
            frontier: help::field_or_default(v, "frontier")?,
            held: help::field_or_default(v, "held")?,
            finished: help::field_or_default(v, "finished")?,
            monitor_finished: help::field_or_default(v, "monitor_finished")?,
            delivered: help::field_or_default(v, "delivered")?,
            monitors: help::field_or_default(v, "monitors")?,
        })
    }
}

impl Serialize for WorkerSlotSnapshot {
    fn to_value(&self) -> Value {
        let s = &self.snap;
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("origin".into(), self.origin.to_value()),
            ("worker".into(), s.worker.to_value()),
            ("k".into(), s.k.to_value()),
            ("vars".into(), s.vars.to_value()),
            ("predicates".into(), s.predicates.to_value()),
            ("states".into(), s.states.to_value()),
            ("counts".into(), s.counts.to_value()),
            ("holds".into(), s.holds.to_value()),
            (
                "filtered".into(),
                Value::Array(
                    s.filtered
                        .iter()
                        .map(|&(events_in, events_filtered)| {
                            Value::Object(vec![
                                ("events_in".into(), events_in.to_value()),
                                ("events_filtered".into(), events_filtered.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "held".into(),
                Value::Array(
                    s.held
                        .iter()
                        .map(|(seq, process, clock, set)| {
                            Value::Object(vec![
                                ("seq".into(), seq.to_value()),
                                ("process".into(), process.to_value()),
                                ("clock".into(), clock.to_value()),
                                ("set".into(), set.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for WorkerSlotSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(WorkerSlotSnapshot {
            name: help::field(v, "name")?,
            origin: help::field(v, "origin")?,
            snap: WorkerSnapshot {
                worker: help::field(v, "worker")?,
                k: help::field(v, "k")?,
                vars: help::field_or_default(v, "vars")?,
                predicates: help::field_or_default(v, "predicates")?,
                states: help::field_or_default(v, "states")?,
                counts: help::field_or_default(v, "counts")?,
                holds: help::field_or_default(v, "holds")?,
                filtered: array(v, "filtered", |f| {
                    help::object(f)?;
                    Ok((
                        help::field(f, "events_in")?,
                        help::field(f, "events_filtered")?,
                    ))
                })?,
                held: array(v, "held", |h| {
                    help::object(h)?;
                    Ok((
                        help::field(h, "seq")?,
                        help::field(h, "process")?,
                        help::field(h, "clock")?,
                        help::field_or_default(h, "set")?,
                    ))
                })?,
            },
        })
    }
}

impl Serialize for AggregatorSlotSnapshot {
    fn to_value(&self) -> Value {
        let s = &self.snap;
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("processes".into(), self.processes.to_value()),
            ("k".into(), s.k.to_value()),
            ("vars".into(), s.vars.to_value()),
            ("predicates".into(), s.predicates.to_value()),
            ("frontier".into(), s.frontier.to_value()),
            (
                "held".into(),
                Value::Array(
                    s.held
                        .iter()
                        .map(|(process, clock, holds)| {
                            Value::Object(vec![
                                ("process".into(), process.to_value()),
                                ("clock".into(), clock.to_value()),
                                ("holds".into(), holds.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("finished".into(), s.finished.to_value()),
            ("monitor_finished".into(), s.monitor_finished.to_value()),
            ("delivered".into(), s.delivered.to_value()),
            (
                "monitors".into(),
                Value::Array(
                    s.monitors
                        .iter()
                        .map(|(id, emitted, state, pending)| {
                            Value::Object(vec![
                                ("id".into(), id.to_value()),
                                ("emitted".into(), emitted.to_value()),
                                ("state".into(), detector_to_value(state)),
                                ("pending".into(), pending.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("next_seq".into(), s.next_seq.to_value()),
            (
                "reorder".into(),
                Value::Array(
                    s.reorder
                        .iter()
                        .map(|(seq, update)| {
                            Value::Object(vec![
                                ("seq".into(), seq.to_value()),
                                ("update".into(), update.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for AggregatorSlotSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(AggregatorSlotSnapshot {
            name: help::field(v, "name")?,
            processes: help::field(v, "processes")?,
            snap: AggregatorSnapshot {
                k: help::field(v, "k")?,
                vars: help::field_or_default(v, "vars")?,
                predicates: help::field_or_default(v, "predicates")?,
                frontier: help::field_or_default(v, "frontier")?,
                held: array(v, "held", |h| {
                    help::object(h)?;
                    Ok((
                        help::field(h, "process")?,
                        help::field(h, "clock")?,
                        help::field_or_default(h, "holds")?,
                    ))
                })?,
                finished: help::field_or_default(v, "finished")?,
                monitor_finished: help::field_or_default(v, "monitor_finished")?,
                delivered: help::field_or_default(v, "delivered")?,
                monitors: array(v, "monitors", |m| {
                    help::object(m)?;
                    Ok((
                        help::field(m, "id")?,
                        help::field(m, "emitted")?,
                        detector_from_value(required(m, "state")?)?,
                        help::field_or_default(m, "pending")?,
                    ))
                })?,
                next_seq: help::field_or_default(v, "next_seq")?,
                reorder: array(v, "reorder", |r| {
                    help::object(r)?;
                    Ok((help::field(r, "seq")?, help::field(r, "update")?))
                })?,
            },
        })
    }
}

impl Serialize for ServiceSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".into(), 1u32.to_value()),
            ("sessions".into(), self.sessions.to_value()),
        ];
        // Written only when present, so a backend with no distributed
        // sessions produces byte-identical snapshots to a pre-v5 build.
        if !self.workers.is_empty() {
            fields.push(("workers".into(), self.workers.to_value()));
        }
        if !self.aggregators.is_empty() {
            fields.push(("aggregators".into(), self.aggregators.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for ServiceSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let version: u32 = help::field(v, "version")?;
        if version != 1 {
            return Err(DeError::msg(format!(
                "unsupported snapshot version {version}"
            )));
        }
        Ok(ServiceSnapshot {
            sessions: help::field_or_default(v, "sessions")?,
            workers: help::field_or_default(v, "workers")?,
            aggregators: help::field_or_default(v, "aggregators")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tracefmt::wire::{WireClause, WireMode};

    fn sample() -> ServiceSnapshot {
        ServiceSnapshot {
            sessions: vec![SessionSnapshot {
                name: "s".into(),
                processes: 2,
                vars: vec!["x0".into(), "x1".into()],
                predicates: vec![WirePredicate {
                    id: "ef".into(),
                    mode: WireMode::Conjunctive,
                    clauses: vec![WireClause {
                        process: 0,
                        var: "x0".into(),
                        op: "=".into(),
                        value: 2,
                    }],
                    pattern: None,
                }],
                states: vec![vec![1, 0], vec![0, 1]],
                frontier: vec![2, 1],
                held: vec![HeldEventSnapshot {
                    process: 1,
                    clock: vec![2, 3],
                    set: [("x1".to_string(), 7i64)].into_iter().collect(),
                }],
                finished: vec![true, false],
                monitor_finished: vec![false, false],
                delivered: 3,
                monitors: vec![
                    MonitorSnapshot {
                        id: "ef".into(),
                        emitted: false,
                        state: DetectorState::Conjunctive(ConjunctiveState {
                            n: 2,
                            queues: vec![
                                vec![CandidateState {
                                    state: 2,
                                    clock: vec![2, 0],
                                }],
                                vec![],
                            ],
                            participating: vec![true, false],
                            seen: vec![2, 1],
                            finished: vec![false, false],
                            verdict: VerdictState::Pending,
                        }),
                        slice: Some(SliceState {
                            holds: vec![true, false],
                            pending: vec![0, 3],
                            events_in: 5,
                            events_filtered: 3,
                        }),
                    },
                    MonitorSnapshot {
                        id: "any".into(),
                        emitted: true,
                        state: DetectorState::Disjunctive(DisjunctiveState {
                            seen: vec![2, 1],
                            live: 2,
                            verdict: VerdictState::Detected(vec![2, 0]),
                        }),
                        slice: None,
                    },
                    MonitorSnapshot {
                        id: "inv".into(),
                        emitted: false,
                        state: DetectorState::Pattern(PatternState {
                            n: 2,
                            causal: vec![false, true],
                            frontiers: vec![
                                vec![PatternChainState {
                                    join: vec![0, 0],
                                    last: vec![0, 0],
                                }],
                                vec![PatternChainState {
                                    join: vec![2, 0],
                                    last: vec![2, 0],
                                }],
                                vec![],
                            ],
                            candidates: vec![
                                vec![vec![vec![2, 0]], vec![]],
                                vec![vec![], vec![vec![1, 3]]],
                            ],
                            finished: vec![false, true],
                            seen: vec![2, 1],
                            verdict: VerdictState::Pending,
                        }),
                        slice: None,
                    },
                ],
            }],
            workers: Vec::new(),
            aggregators: Vec::new(),
        }
    }

    #[test]
    fn service_snapshot_round_trips_through_json() {
        let snap = sample();
        let json = snap.to_json();
        let back = ServiceSnapshot::from_json(json.as_bytes()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshots_without_distributed_slots_stay_byte_identical() {
        // The dist fields must not appear in the payload when empty, so
        // plain-session snapshots round-trip with pre-v5 readers.
        let json = sample().to_json();
        assert!(!json.contains("\"workers\""));
        assert!(!json.contains("\"aggregators\""));
    }

    #[test]
    fn distributed_slots_round_trip_through_json() {
        use crate::dist::{DistAggregator, DistWorker};
        use crate::OverflowPolicy;
        use hb_tracefmt::wire::SliceUpdateBody;

        let preds = vec![WirePredicate {
            id: "ef".into(),
            mode: WireMode::Conjunctive,
            clauses: vec![
                WireClause {
                    process: 0,
                    var: "x".into(),
                    op: "=".into(),
                    value: 2,
                },
                WireClause {
                    process: 1,
                    var: "x".into(),
                    op: "=".into(),
                    value: 1,
                },
            ],
            pattern: None,
        }];
        let vars = vec!["x".to_string()];
        let mut worker = DistWorker::open(0, 2, 2, &vars, &[], &preds).unwrap();
        let set: BTreeMap<String, i64> = [("x".to_string(), 2i64)].into_iter().collect();
        // One applied event and one held (position gap) event.
        worker.observe(
            0,
            0,
            hb_vclock::VectorClock::from_components(vec![1, 0]),
            &set,
        );
        worker.observe(
            3,
            0,
            hb_vclock::VectorClock::from_components(vec![3, 0]),
            &set,
        );
        let mut agg =
            DistAggregator::open(2, 2, &vars, &[], &preds, 64, OverflowPolicy::Reject).unwrap();
        agg.update(
            0,
            SliceUpdateBody::Observe {
                p: 0,
                clock: vec![1, 0],
                holds: vec![0],
                invalid: None,
            },
        );
        agg.update(2, SliceUpdateBody::Finish { p: 1 }); // parked in reorder

        let snap = ServiceSnapshot {
            sessions: Vec::new(),
            workers: vec![WorkerSlotSnapshot {
                name: "s#w0".into(),
                origin: "s".into(),
                snap: worker.snapshot(),
            }],
            aggregators: vec![AggregatorSlotSnapshot {
                name: "s".into(),
                processes: 2,
                snap: agg.snapshot(),
            }],
        };
        let back = ServiceSnapshot::from_json(snap.to_json().as_bytes()).unwrap();
        assert_eq!(back, snap);
        // And the engines rebuild from the decoded state.
        let w = DistWorker::restore(&back.workers[0].snap, 2).unwrap();
        assert_eq!(w.snapshot(), snap.workers[0].snap);
        let a = DistAggregator::restore(
            &back.aggregators[0].snap,
            back.aggregators[0].processes,
            64,
            OverflowPolicy::Reject,
        )
        .unwrap();
        assert_eq!(a.snapshot(), snap.aggregators[0].snap);
    }

    #[test]
    fn bad_payloads_are_rejected_with_messages() {
        assert!(ServiceSnapshot::from_json(b"\xFF\xFE").is_err());
        assert!(ServiceSnapshot::from_json(b"not json").is_err());
        assert!(ServiceSnapshot::from_json(b"{\"version\":9}").is_err());
        let bad_kind = r#"{"version":1,"sessions":[{"name":"s","processes":1,
            "monitors":[{"id":"p","emitted":false,"state":{"kind":"quantum"}}]}]}"#;
        assert!(ServiceSnapshot::from_json(bad_kind.as_bytes()).is_err());
    }
}
