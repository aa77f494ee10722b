//! The monitoring wire protocol.
//!
//! `hb-monitor` speaks a line-friendly framed protocol over any byte
//! stream (TCP socket, pipe, in-memory buffer). Each frame is
//!
//! ```text
//! <decimal byte length> <json>\n
//! ```
//!
//! — the JSON document's byte length, one space, the document itself,
//! and a terminating newline (not counted by the length). The length
//! prefix lets readers allocate exactly, reject oversized frames before
//! reading them, and resynchronize on protocol errors; the trailing
//! newline keeps a captured stream greppable.
//!
//! Client-to-server messages are [`ClientMsg`]; server-to-client are
//! [`ServerMsg`]. All messages carry a `type` tag. Vector clocks travel
//! as plain arrays of per-process event counts, predicates as lists of
//! `{process, var, op, value}` clauses under a `conjunctive` /
//! `disjunctive` mode — the structured form keeps the protocol
//! independent of any expression syntax.

use crate::TraceError;
use serde::{help, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Frames larger than this are rejected without being read (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// The protocol version this build speaks.
///
/// Version history:
/// * **1** — the original `hb-monitor` protocol: no handshake; the
///   first client frame is `open`/`event`/`stats`/….
/// * **2** — adds the optional [`ClientMsg::Hello`] / [`ServerMsg::Welcome`]
///   handshake and the gateway admin frames ([`ClientMsg::Drain`],
///   [`ServerMsg::Drained`]).
/// * **3** — adds the batched [`ClientMsg::Events`] frame. Batching is
///   negotiated: a server echoes the client's version in `welcome`
///   (capped at its own), and a client only sends `events` frames to a
///   peer that welcomed version 3 or newer.
/// * **4** — adds pattern predicates: [`WirePredicate`] grows a
///   `pattern` mode carrying a [`WirePattern`] (a regular event pattern
///   for predictive monitoring). A pre-v4 server answers an `open`
///   carrying one with an error of kind
///   [`error_kind::UNSUPPORTED_PREDICATE`], so clients degrade cleanly
///   without parsing the message text.
/// * **5** — adds distributed sessions: `open` grows an optional
///   `dist` field carrying a [`WireDistRole`], and the inter-monitor
///   [`ClientMsg::DistEvent`] / `slice-update` frames let a gateway
///   fan one session's stream out over worker backends and relay
///   their observations to an aggregator. The `dist` field is *not*
///   self-guarding — a genuine v4 decoder ignores unknown object keys
///   and would open a plain session — so distribution is gated on the
///   `hello`/`welcome` handshake: a peer that negotiated below 5 is
///   refused with an error of kind
///   [`error_kind::UNSUPPORTED_DISTRIBUTION`].
pub const WIRE_VERSION: u32 = 5;

/// The oldest peer version still accepted. A client that never sends
/// `Hello` is treated as this version — version-1 peers predate the
/// handshake entirely, so their absence of one must stay legal.
pub const MIN_WIRE_VERSION: u32 = 1;

/// Validates a peer's announced protocol version; the `Err` carries the
/// exact message a server should answer with before ignoring the peer.
pub fn check_version(version: u32) -> Result<(), String> {
    negotiate_version(version, WIRE_VERSION).map(|_| ())
}

/// Server-side handshake: validates a client's announced version
/// against the highest version this server speaks (`max`, normally
/// [`WIRE_VERSION`]) and returns the version to echo in
/// [`ServerMsg::Welcome`] — the client's own, so an older client is
/// never welcomed with a number it would refuse. The `Err` carries the
/// exact message to answer with before ignoring the peer; a client
/// seeing it retries the handshake with its next-lower version.
pub fn negotiate_version(version: u32, max: u32) -> Result<u32, String> {
    if (MIN_WIRE_VERSION..=max).contains(&version) {
        Ok(version)
    } else {
        Err(format!(
            "unsupported protocol version {version} (this peer speaks \
             {MIN_WIRE_VERSION} through {max})"
        ))
    }
}

/// How a wire predicate combines its clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// All clauses must hold (one per participating process).
    Conjunctive,
    /// Any clause may hold.
    Disjunctive,
    /// A regular event pattern over the predicate's [`WirePattern`];
    /// clauses are unused. Wire version 4.
    Pattern,
}

impl WireMode {
    fn as_str(self) -> &'static str {
        match self {
            WireMode::Conjunctive => "conjunctive",
            WireMode::Disjunctive => "disjunctive",
            WireMode::Pattern => "pattern",
        }
    }
}

/// One local clause: `var ⊙ value` on `process`.
///
/// `op` is one of `=`, `!=`, `<`, `<=`, `>`, `>=` (matching the
/// `hb_predicates`-crate display syntax); validation happens when the
/// session is opened, not at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireClause {
    /// The process whose state is inspected.
    pub process: usize,
    /// Variable name (must be declared in the session's `vars`).
    pub var: String,
    /// Comparison operator.
    pub op: String,
    /// Literal to compare against.
    pub value: i64,
}

/// One atom of a [`WirePattern`]: an event label plus the ordering
/// constraint linking it to the previous atom.
///
/// An event **matches** the atom when its `set` map assigns `var` a
/// value for which `var ⊙ value` holds (the atom inspects the event's
/// own assignments — what happened at the event — not the accumulated
/// process state) and, when `process` is given, the event executed on
/// that process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAtom {
    /// Restrict matches to this process; `None` matches any process.
    pub process: Option<usize>,
    /// Variable name (must be declared in the session's `vars`).
    pub var: String,
    /// Comparison operator, as in [`WireClause`].
    pub op: String,
    /// Literal to compare against.
    pub value: i64,
    /// `true` when this atom must be *causally* after the previous one
    /// (happened-before, written `~>`), not merely after it in some
    /// linearization (written `->`). Must be `false` on the first atom.
    pub causal: bool,
}

/// A pattern predicate body: the regular language `Σ* a₁ Σ* a₂ … Σ* a_d
/// Σ*` over labeled events. The monitor detects the pattern when **some
/// linearization** of the observed computation contains events matching
/// `a₁ … a_d` in order (predictive monitoring: the match need not occur
/// in the delivered order, only in a causally-consistent reordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePattern {
    /// The atoms, in matching order. Never empty; at most 64.
    pub atoms: Vec<WireAtom>,
}

/// A predicate registered at session open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePredicate {
    /// Caller-chosen identifier, echoed in verdicts.
    pub id: String,
    /// Clause combination mode.
    pub mode: WireMode,
    /// The clauses (state predicates; empty for pattern predicates).
    pub clauses: Vec<WireClause>,
    /// The event pattern (`Some` iff `mode` is [`WireMode::Pattern`]).
    pub pattern: Option<WirePattern>,
}

/// A final or intermediate detection verdict on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireVerdict {
    /// `EF(p)` detected; the least satisfying cut over the delivered
    /// prefix, as per-process event counts.
    Detected(Vec<u32>),
    /// The predicate can no longer hold.
    Impossible,
    /// Still undetermined (only reported at session close).
    Pending,
}

/// One event inside a [`ClientMsg::Events`] batch: the per-event
/// fields of [`ClientMsg::Event`] minus the session name, which the
/// batch carries once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventFrame {
    /// Executing process.
    pub p: usize,
    /// Vector clock of the event (length = session's `processes`).
    pub clock: Vec<u32>,
    /// Variable assignments taking effect at the event.
    pub set: BTreeMap<String, i64>,
}

impl EventFrame {
    /// Rewraps this frame as the single-event message it abbreviates —
    /// how a relay downgrades a batch for a pre-v3 backend, and how a
    /// receiver feeds batch members through its per-event path.
    pub fn into_event(self, session: &str) -> ClientMsg {
        ClientMsg::Event {
            session: session.to_string(),
            p: self.p,
            clock: self.clock,
            set: self.set,
        }
    }
}

/// The distribution role of a session on the wire (v5), carried in the
/// optional `dist` field of [`ClientMsg::Open`].
///
/// A *client* opens a session with [`WireDistRole::Distribute`]
/// against a gateway; the gateway turns that into K worker opens
/// ([`WireDistRole::Worker`], one per partition, on decorated session
/// names) plus one aggregator open ([`WireDistRole::Aggregator`], on
/// the original name) spread over its backends. Workers run the local
/// slicing engine over the processes `p` with `p % k == worker` and
/// report one [`ClientMsg::SliceUpdate`] observation per forwarded
/// event; the aggregator feeds those observations to the
/// single-backend session's detection core and emits the verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDistRole {
    /// Client-facing opt-in: detect this session cooperatively across
    /// `k` monitor backends. Only a gateway honors this role; a plain
    /// monitor refuses it with [`error_kind::UNSUPPORTED_DISTRIBUTION`].
    Distribute {
        /// Number of worker partitions.
        k: usize,
    },
    /// Gateway-assigned worker role: run local slice evaluation for
    /// the processes `p` with `p % k == worker` of session `origin`.
    Worker {
        /// The client-visible session this worker serves.
        origin: String,
        /// This worker's partition index, `0 <= worker < k`.
        worker: usize,
        /// Total number of worker partitions.
        k: usize,
    },
    /// Gateway-assigned aggregator role: assemble the workers'
    /// [`ClientMsg::SliceUpdate`] observations into global verdicts.
    Aggregator {
        /// Total number of worker partitions feeding this aggregator.
        k: usize,
    },
}

/// The worker partition owning process `p` in a `k`-way distributed
/// session: `p % k`.
///
/// Round-robin by process id is cheap, deterministic and independent of
/// event content, so the gateway routes without any session state
/// beyond `k`. (Chauhan–Garg shard by slice responsibility instead;
/// `DESIGN.md` §15 explains the divergence.)
pub fn owner(p: usize, k: usize) -> usize {
    p % k
}

/// The decorated session name worker partition `worker` of session
/// `origin` opens on its backend: `origin#w<worker>`.
///
/// Worker partitions share the per-backend namespace with plain
/// sessions; the suffix keeps them from colliding with the origin name,
/// which the aggregator's session carries, while staying readable in
/// stats output.
pub fn worker_session(origin: &str, worker: usize) -> String {
    format!("{origin}#w{worker}")
}

/// One observation inside a `slice-update` frame (wire v5): what a
/// worker learned from the event the gateway stamped with `seq`, or a
/// gateway-originated lifecycle marker taking that seq's slot.
///
/// The aggregator consumes updates in contiguous `seq` order, so every
/// event the gateway forwards must eventually produce **exactly one**
/// update — the liveness invariant of the protocol. Events a worker
/// holds for process order are flushed (with empty `holds`) when its
/// session closes; such events are provably undeliverable at the
/// aggregator, so the empty bits are never read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceUpdateBody {
    /// A worker observed (or refused) one event.
    Observe {
        /// Executing process, as forwarded.
        p: usize,
        /// Vector clock of the event, as forwarded.
        clock: Vec<u32>,
        /// Indices (into the open's predicate list, ascending) of the
        /// conjunctive predicates whose local clause holds on the
        /// worker's post-event state — the slice-membership bits.
        holds: Vec<usize>,
        /// `Some` when the worker refused the event before touching
        /// its state (an undeclared variable); carries the exact
        /// message the single-backend session would have produced.
        invalid: Option<String>,
    },
    /// The client declared the process finished (gateway-originated).
    Finish {
        /// The finished process.
        p: usize,
    },
    /// The client closed the session (gateway-originated, final).
    Close,
}

/// Messages a client sends to the monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Version handshake: announces the client's protocol version.
    ///
    /// Optional — a peer whose first frame is anything else is assumed
    /// to speak [`MIN_WIRE_VERSION`]. A server answers with
    /// [`ServerMsg::Welcome`] on a supported version and
    /// [`ServerMsg::Error`] (`unsupported protocol version …`) otherwise.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
    },
    /// Asks a gateway to drain one backend: stop placing new sessions
    /// on it, wait for its live sessions to close, then remove it.
    /// Answered with [`ServerMsg::Drained`] when complete. A plain
    /// monitor answers with an error — draining is a routing-layer
    /// concept.
    Drain {
        /// The backend's address, exactly as registered at serve time.
        backend: String,
    },
    /// Opens a monitoring session.
    Open {
        /// Session name; must be unused.
        session: String,
        /// Number of processes in the monitored computation.
        processes: usize,
        /// Declared variable names.
        vars: Vec<String>,
        /// Initial valuations, one map per process (missing = zeros).
        initial: Vec<BTreeMap<String, i64>>,
        /// Predicates to detect online.
        predicates: Vec<WirePredicate>,
        /// Distribution role (wire v5; absent = a plain session).
        dist: Option<WireDistRole>,
    },
    /// One observed event: process `p` moved to a new local state.
    Event {
        /// Target session.
        session: String,
        /// Executing process.
        p: usize,
        /// Vector clock of the event (length = session's `processes`).
        clock: Vec<u32>,
        /// Variable assignments taking effect at the event.
        set: BTreeMap<String, i64>,
    },
    /// A batch of observed events for one session, in send order.
    ///
    /// Wire version 3. Semantically identical to sending each member as
    /// a [`ClientMsg::Event`] in sequence — batching is purely a
    /// transport optimization and must never change verdicts. A batch
    /// is never empty; receivers reject zero-length batches so a
    /// corrupted length field cannot smuggle a no-op frame.
    Events {
        /// Target session.
        session: String,
        /// The events, oldest first. Never empty.
        events: Vec<EventFrame>,
    },
    /// One event of a distributed session, forwarded by the gateway to
    /// the worker owning the event's process (wire v5).
    ///
    /// `seq` is the gateway-assigned position of the event in the
    /// session's total client-frame order; the worker echoes it in the
    /// [`ClientMsg::SliceUpdate`] its observation travels in, and the
    /// aggregator uses it to restore that order.
    DistEvent {
        /// Target worker session (the gateway-decorated name).
        session: String,
        /// Gateway-assigned sequence number of this event.
        seq: u64,
        /// The event itself.
        event: EventFrame,
    },
    /// One slice observation for a distributed session's aggregator
    /// (wire v5): relayed by the gateway from a worker's
    /// [`ServerMsg::SliceUpdate`], or gateway-originated for the
    /// finish/close lifecycle markers.
    SliceUpdate {
        /// Target aggregator session (the client-visible name).
        session: String,
        /// The seq of the client frame this update settles.
        seq: u64,
        /// The observation.
        update: SliceUpdateBody,
    },
    /// Declares that process `p` will send no further events.
    FinishProcess {
        /// Target session.
        session: String,
        /// The finished process.
        p: usize,
    },
    /// Closes a session, flushing its buffer and settling verdicts.
    Close {
        /// Target session.
        session: String,
    },
    /// Requests a metrics snapshot.
    Stats,
    /// Asks the whole service to shut down gracefully.
    Shutdown,
}

/// Messages the monitor sends to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake acknowledgement: the server's protocol version (which
    /// may be lower than the client announced — the client decides
    /// whether to continue).
    Welcome {
        /// The server's [`WIRE_VERSION`].
        version: u32,
    },
    /// A [`ClientMsg::Drain`] completed: the backend held no more live
    /// sessions and was removed from the routing set.
    Drained {
        /// The drained backend's address.
        backend: String,
        /// Sessions that were still live when the drain started.
        sessions: u64,
    },
    /// The session is open and accepting events.
    Opened {
        /// The session name.
        session: String,
    },
    /// A predicate's verdict settled (or was force-settled at close).
    Verdict {
        /// The session name.
        session: String,
        /// The predicate id from [`ClientMsg::Open`].
        predicate: String,
        /// The verdict.
        verdict: WireVerdict,
    },
    /// The session closed; one `Verdict` per predicate precedes this.
    Closed {
        /// The session name.
        session: String,
        /// Events still undeliverable (dropped) at close.
        discarded: u64,
    },
    /// A worker's slice observation for one forwarded event (wire v5).
    ///
    /// Sent on the worker's connection back to the gateway, addressed
    /// to the *origin* session name; the gateway relays it to the
    /// aggregator as a [`ClientMsg::SliceUpdate`] with the same seq
    /// and body.
    SliceUpdate {
        /// The client-visible (origin) session name.
        session: String,
        /// The seq of the [`ClientMsg::DistEvent`] this answers.
        seq: u64,
        /// The observation.
        update: SliceUpdateBody,
    },
    /// A metrics snapshot: counter name → value.
    Stats {
        /// The counters.
        counters: BTreeMap<String, u64>,
    },
    /// A request failed; the session (if any) is unchanged.
    Error {
        /// The session the error concerns, when applicable.
        session: Option<String>,
        /// Machine-readable classification — one of the [`error_kind`]
        /// constants — when the server recognized the cause. Absent
        /// from unclassified errors and from peers predating the
        /// field; clients must not parse `message` when a kind is
        /// available.
        kind: Option<String>,
        /// Human-readable cause.
        message: String,
    },
    /// Graceful-shutdown acknowledgement; the connection closes next.
    Bye,
}

/// Machine-readable values for the `kind` field of [`ServerMsg::Error`].
///
/// Clients that replay frames for at-least-once delivery (the SDK
/// flusher, the gateway's failover journal) must tell expected replay
/// artifacts apart from real failures. Matching these constants is
/// stable; the human-readable `message` is free to be reworded.
pub mod error_kind {
    /// `Open` named a session that is already open. On a re-attach
    /// replay this is the proof the session survived the restart.
    pub const ALREADY_OPEN: &str = "already_open";
    /// An event the causal buffer has already delivered (expected when
    /// the unacked tail is replayed).
    pub const DUPLICATE_EVENT: &str = "duplicate_event";
    /// An event or finish for a process already declared finished
    /// (expected when a close window is replayed).
    pub const ALREADY_FINISHED: &str = "already_finished";
    /// `Open` registered a predicate kind this peer does not support
    /// (a pattern predicate on a pre-v4 monitor). NOT a replay
    /// artifact: the client must drop the predicate or fail the open,
    /// never retry it verbatim.
    pub const UNSUPPORTED_PREDICATE: &str = "unsupported_predicate";
    /// `Open` asked for a distribution role this peer cannot honor: a
    /// `distribute` role on a plain monitor (distribution needs a
    /// gateway), any role on a pre-v5 peer, or a distributed session
    /// whose predicates the workers cannot evaluate locally. NOT a
    /// replay artifact: the client must fall back to a plain session
    /// or fail the open, never retry it verbatim.
    pub const UNSUPPORTED_DISTRIBUTION: &str = "unsupported_distribution";

    /// `true` for kinds that are expected artifacts of at-least-once
    /// replay and re-attach rather than failures.
    pub fn is_benign_replay(kind: &str) -> bool {
        matches!(kind, ALREADY_OPEN | DUPLICATE_EVENT | ALREADY_FINISHED)
    }
}

// ---- serialization --------------------------------------------------------

impl Serialize for WireClause {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("process".into(), self.process.to_value()),
            ("var".into(), self.var.to_value()),
            ("op".into(), self.op.to_value()),
            ("value".into(), self.value.to_value()),
        ])
    }
}

impl Deserialize for WireClause {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(WireClause {
            process: help::field(v, "process")?,
            var: help::field(v, "var")?,
            op: help::field(v, "op")?,
            value: help::field(v, "value")?,
        })
    }
}

impl Serialize for WireAtom {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(p) = self.process {
            fields.push(("process".into(), p.to_value()));
        }
        fields.push(("var".into(), self.var.to_value()));
        fields.push(("op".into(), self.op.to_value()));
        fields.push(("value".into(), self.value.to_value()));
        if self.causal {
            fields.push(("causal".into(), self.causal.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for WireAtom {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(WireAtom {
            process: help::field_opt(v, "process")?,
            var: help::field(v, "var")?,
            op: help::field(v, "op")?,
            value: help::field(v, "value")?,
            causal: help::field_or_default(v, "causal")?,
        })
    }
}

impl Serialize for WirePattern {
    fn to_value(&self) -> Value {
        Value::Object(vec![("atoms".into(), self.atoms.to_value())])
    }
}

impl Deserialize for WirePattern {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let atoms: Vec<WireAtom> = help::field(v, "atoms")?;
        if atoms.is_empty() {
            return Err(DeError::msg("empty pattern"));
        }
        Ok(WirePattern { atoms })
    }
}

impl Serialize for WirePredicate {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".into(), self.id.to_value()),
            ("mode".into(), self.mode.as_str().to_value()),
            ("clauses".into(), self.clauses.to_value()),
        ];
        if let Some(p) = &self.pattern {
            fields.push(("pattern".into(), p.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for WirePredicate {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        let mode = match help::field::<String>(v, "mode")?.as_str() {
            "conjunctive" => WireMode::Conjunctive,
            "disjunctive" => WireMode::Disjunctive,
            // A v3-era decoder fails right here on a pattern predicate —
            // the natural wire-level guard for genuinely old builds.
            "pattern" => WireMode::Pattern,
            other => {
                return Err(DeError::msg(format!(
                    "unknown predicate mode '{other}' (expected conjunctive, \
                     disjunctive, or pattern)"
                )))
            }
        };
        let pattern: Option<WirePattern> = help::field_opt(v, "pattern")?;
        if matches!(mode, WireMode::Pattern) && pattern.is_none() {
            return Err(DeError::msg("pattern predicate without a pattern body"));
        }
        Ok(WirePredicate {
            id: help::field(v, "id")?,
            mode,
            clauses: help::field_or_default(v, "clauses")?,
            pattern,
        })
    }
}

impl Serialize for WireVerdict {
    fn to_value(&self) -> Value {
        match self {
            WireVerdict::Detected(cut) => Value::Object(vec![
                ("status".into(), "detected".to_value()),
                ("cut".into(), cut.to_value()),
            ]),
            WireVerdict::Impossible => {
                Value::Object(vec![("status".into(), "impossible".to_value())])
            }
            WireVerdict::Pending => Value::Object(vec![("status".into(), "pending".to_value())]),
        }
    }
}

impl Deserialize for WireVerdict {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match help::field::<String>(v, "status")?.as_str() {
            "detected" => Ok(WireVerdict::Detected(help::field(v, "cut")?)),
            "impossible" => Ok(WireVerdict::Impossible),
            "pending" => Ok(WireVerdict::Pending),
            other => Err(DeError::msg(format!("unknown verdict status '{other}'"))),
        }
    }
}

impl Serialize for EventFrame {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("p".into(), self.p.to_value()),
            ("clock".into(), self.clock.to_value()),
        ];
        if !self.set.is_empty() {
            fields.push(("set".into(), self.set.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for EventFrame {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        Ok(EventFrame {
            p: help::field(v, "p")?,
            clock: help::field(v, "clock")?,
            set: help::field_or_default(v, "set")?,
        })
    }
}

impl Serialize for WireDistRole {
    fn to_value(&self) -> Value {
        match self {
            WireDistRole::Distribute { k } => Value::Object(vec![
                ("role".into(), "distribute".to_value()),
                ("k".into(), k.to_value()),
            ]),
            WireDistRole::Worker { origin, worker, k } => Value::Object(vec![
                ("role".into(), "worker".to_value()),
                ("origin".into(), origin.to_value()),
                ("worker".into(), worker.to_value()),
                ("k".into(), k.to_value()),
            ]),
            WireDistRole::Aggregator { k } => Value::Object(vec![
                ("role".into(), "aggregator".to_value()),
                ("k".into(), k.to_value()),
            ]),
        }
    }
}

impl Deserialize for WireDistRole {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        match help::field::<String>(v, "role")?.as_str() {
            "distribute" => Ok(WireDistRole::Distribute {
                k: help::field(v, "k")?,
            }),
            "worker" => Ok(WireDistRole::Worker {
                origin: help::field(v, "origin")?,
                worker: help::field(v, "worker")?,
                k: help::field(v, "k")?,
            }),
            "aggregator" => Ok(WireDistRole::Aggregator {
                k: help::field(v, "k")?,
            }),
            other => Err(DeError::msg(format!(
                "unknown distribution role '{other}' (expected distribute, \
                 worker, or aggregator)"
            ))),
        }
    }
}

impl Serialize for SliceUpdateBody {
    fn to_value(&self) -> Value {
        match self {
            SliceUpdateBody::Observe {
                p,
                clock,
                holds,
                invalid,
            } => {
                let mut fields = vec![
                    ("op".into(), "observe".to_value()),
                    ("p".into(), p.to_value()),
                    ("clock".into(), clock.to_value()),
                ];
                if !holds.is_empty() {
                    fields.push(("holds".into(), holds.to_value()));
                }
                if let Some(msg) = invalid {
                    fields.push(("invalid".into(), msg.to_value()));
                }
                Value::Object(fields)
            }
            SliceUpdateBody::Finish { p } => Value::Object(vec![
                ("op".into(), "finish".to_value()),
                ("p".into(), p.to_value()),
            ]),
            SliceUpdateBody::Close => Value::Object(vec![("op".into(), "close".to_value())]),
        }
    }
}

impl Deserialize for SliceUpdateBody {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        help::object(v)?;
        match help::field::<String>(v, "op")?.as_str() {
            "observe" => Ok(SliceUpdateBody::Observe {
                p: help::field(v, "p")?,
                clock: help::field(v, "clock")?,
                holds: help::field_or_default(v, "holds")?,
                invalid: help::field_opt(v, "invalid")?,
            }),
            "finish" => Ok(SliceUpdateBody::Finish {
                p: help::field(v, "p")?,
            }),
            "close" => Ok(SliceUpdateBody::Close),
            other => Err(DeError::msg(format!("unknown slice-update op '{other}'"))),
        }
    }
}

impl Serialize for ClientMsg {
    fn to_value(&self) -> Value {
        match self {
            ClientMsg::Hello { version } => Value::Object(vec![
                ("type".into(), "hello".to_value()),
                ("version".into(), version.to_value()),
            ]),
            ClientMsg::Drain { backend } => Value::Object(vec![
                ("type".into(), "drain".to_value()),
                ("backend".into(), backend.to_value()),
            ]),
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                dist,
            } => {
                let mut fields = vec![
                    ("type".into(), "open".to_value()),
                    ("session".into(), session.to_value()),
                    ("processes".into(), processes.to_value()),
                    ("vars".into(), vars.to_value()),
                    ("initial".into(), initial.to_value()),
                    ("predicates".into(), predicates.to_value()),
                ];
                if let Some(role) = dist {
                    fields.push(("dist".into(), role.to_value()));
                }
                Value::Object(fields)
            }
            ClientMsg::Event {
                session,
                p,
                clock,
                set,
            } => {
                let mut fields = vec![
                    ("type".into(), "event".to_value()),
                    ("session".into(), session.to_value()),
                    ("p".into(), p.to_value()),
                    ("clock".into(), clock.to_value()),
                ];
                if !set.is_empty() {
                    fields.push(("set".into(), set.to_value()));
                }
                Value::Object(fields)
            }
            ClientMsg::Events { session, events } => Value::Object(vec![
                ("type".into(), "events".to_value()),
                ("session".into(), session.to_value()),
                ("events".into(), events.to_value()),
            ]),
            ClientMsg::DistEvent {
                session,
                seq,
                event,
            } => Value::Object(vec![
                ("type".into(), "dist-event".to_value()),
                ("session".into(), session.to_value()),
                ("seq".into(), seq.to_value()),
                ("event".into(), event.to_value()),
            ]),
            ClientMsg::SliceUpdate {
                session,
                seq,
                update,
            } => Value::Object(vec![
                ("type".into(), "slice-update".to_value()),
                ("session".into(), session.to_value()),
                ("seq".into(), seq.to_value()),
                ("update".into(), update.to_value()),
            ]),
            ClientMsg::FinishProcess { session, p } => Value::Object(vec![
                ("type".into(), "finish".to_value()),
                ("session".into(), session.to_value()),
                ("p".into(), p.to_value()),
            ]),
            ClientMsg::Close { session } => Value::Object(vec![
                ("type".into(), "close".to_value()),
                ("session".into(), session.to_value()),
            ]),
            ClientMsg::Stats => Value::Object(vec![("type".into(), "stats".to_value())]),
            ClientMsg::Shutdown => Value::Object(vec![("type".into(), "shutdown".to_value())]),
        }
    }
}

impl Deserialize for ClientMsg {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match help::field::<String>(v, "type")?.as_str() {
            "hello" => Ok(ClientMsg::Hello {
                version: help::field(v, "version")?,
            }),
            "drain" => Ok(ClientMsg::Drain {
                backend: help::field(v, "backend")?,
            }),
            "open" => Ok(ClientMsg::Open {
                session: help::field(v, "session")?,
                processes: help::field(v, "processes")?,
                vars: help::field_or_default(v, "vars")?,
                initial: help::field_or_default(v, "initial")?,
                predicates: help::field_or_default(v, "predicates")?,
                dist: help::field_opt(v, "dist")?,
            }),
            "event" => Ok(ClientMsg::Event {
                session: help::field(v, "session")?,
                p: help::field(v, "p")?,
                clock: help::field(v, "clock")?,
                set: help::field_or_default(v, "set")?,
            }),
            "events" => {
                let events: Vec<EventFrame> = help::field(v, "events")?;
                if events.is_empty() {
                    return Err(DeError::msg("empty event batch"));
                }
                Ok(ClientMsg::Events {
                    session: help::field(v, "session")?,
                    events,
                })
            }
            "dist-event" => Ok(ClientMsg::DistEvent {
                session: help::field(v, "session")?,
                seq: help::field(v, "seq")?,
                event: help::field(v, "event")?,
            }),
            "slice-update" => Ok(ClientMsg::SliceUpdate {
                session: help::field(v, "session")?,
                seq: help::field(v, "seq")?,
                update: help::field(v, "update")?,
            }),
            "finish" => Ok(ClientMsg::FinishProcess {
                session: help::field(v, "session")?,
                p: help::field(v, "p")?,
            }),
            "close" => Ok(ClientMsg::Close {
                session: help::field(v, "session")?,
            }),
            "stats" => Ok(ClientMsg::Stats),
            "shutdown" => Ok(ClientMsg::Shutdown),
            other => Err(DeError::msg(format!("unknown client message '{other}'"))),
        }
    }
}

impl Serialize for ServerMsg {
    fn to_value(&self) -> Value {
        match self {
            ServerMsg::Welcome { version } => Value::Object(vec![
                ("type".into(), "welcome".to_value()),
                ("version".into(), version.to_value()),
            ]),
            ServerMsg::Drained { backend, sessions } => Value::Object(vec![
                ("type".into(), "drained".to_value()),
                ("backend".into(), backend.to_value()),
                ("sessions".into(), sessions.to_value()),
            ]),
            ServerMsg::Opened { session } => Value::Object(vec![
                ("type".into(), "opened".to_value()),
                ("session".into(), session.to_value()),
            ]),
            ServerMsg::Verdict {
                session,
                predicate,
                verdict,
            } => Value::Object(vec![
                ("type".into(), "verdict".to_value()),
                ("session".into(), session.to_value()),
                ("predicate".into(), predicate.to_value()),
                ("verdict".into(), verdict.to_value()),
            ]),
            ServerMsg::Closed { session, discarded } => Value::Object(vec![
                ("type".into(), "closed".to_value()),
                ("session".into(), session.to_value()),
                ("discarded".into(), discarded.to_value()),
            ]),
            ServerMsg::SliceUpdate {
                session,
                seq,
                update,
            } => Value::Object(vec![
                ("type".into(), "slice-update".to_value()),
                ("session".into(), session.to_value()),
                ("seq".into(), seq.to_value()),
                ("update".into(), update.to_value()),
            ]),
            ServerMsg::Stats { counters } => Value::Object(vec![
                ("type".into(), "stats".to_value()),
                ("counters".into(), counters.to_value()),
            ]),
            ServerMsg::Error {
                session,
                kind,
                message,
            } => {
                let mut fields = vec![("type".into(), "error".to_value())];
                if let Some(s) = session {
                    fields.push(("session".into(), s.to_value()));
                }
                if let Some(k) = kind {
                    fields.push(("kind".into(), k.to_value()));
                }
                fields.push(("message".into(), message.to_value()));
                Value::Object(fields)
            }
            ServerMsg::Bye => Value::Object(vec![("type".into(), "bye".to_value())]),
        }
    }
}

impl Deserialize for ServerMsg {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match help::field::<String>(v, "type")?.as_str() {
            "welcome" => Ok(ServerMsg::Welcome {
                version: help::field(v, "version")?,
            }),
            "drained" => Ok(ServerMsg::Drained {
                backend: help::field(v, "backend")?,
                sessions: help::field_or_default(v, "sessions")?,
            }),
            "opened" => Ok(ServerMsg::Opened {
                session: help::field(v, "session")?,
            }),
            "verdict" => Ok(ServerMsg::Verdict {
                session: help::field(v, "session")?,
                predicate: help::field(v, "predicate")?,
                verdict: help::field(v, "verdict")?,
            }),
            "closed" => Ok(ServerMsg::Closed {
                session: help::field(v, "session")?,
                discarded: help::field_or_default(v, "discarded")?,
            }),
            "slice-update" => Ok(ServerMsg::SliceUpdate {
                session: help::field(v, "session")?,
                seq: help::field(v, "seq")?,
                update: help::field(v, "update")?,
            }),
            "stats" => Ok(ServerMsg::Stats {
                counters: help::field(v, "counters")?,
            }),
            "error" => Ok(ServerMsg::Error {
                session: help::field_opt(v, "session")?,
                kind: help::field_opt(v, "kind")?,
                message: help::field(v, "message")?,
            }),
            "bye" => Ok(ServerMsg::Bye),
            other => Err(DeError::msg(format!("unknown server message '{other}'"))),
        }
    }
}

// ---- framing --------------------------------------------------------------

/// Writes one frame: `<len> <json>\n`.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let body = serde_json::to_string(&msg.to_value()).expect("wire values serialize");
    writeln!(w, "{} {}", body.len(), body)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` signals a clean end of stream.
///
/// Returns a [`TraceError::Invalid`] on malformed framing and
/// [`TraceError::Json`] on malformed JSON inside a well-formed frame.
pub fn read_frame<R: BufRead, T: Deserialize>(r: &mut R) -> Result<Option<T>, TraceError> {
    // Length prefix: ASCII digits up to the first space.
    let mut prefix = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if prefix.is_empty() {
                    Ok(None)
                } else {
                    Err(TraceError::Invalid("truncated frame header".into()))
                };
            }
            Ok(_) => {}
            Err(e) => return Err(TraceError::Invalid(format!("read error: {e}"))),
        }
        match byte[0] {
            b' ' => break,
            b'0'..=b'9' if prefix.len() < 12 => prefix.push(byte[0]),
            other => {
                return Err(TraceError::Invalid(format!(
                    "bad frame header byte 0x{other:02x}"
                )))
            }
        }
    }
    let len: usize = std::str::from_utf8(&prefix)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TraceError::Invalid("bad frame length".into()))?;
    if len > MAX_FRAME_BYTES {
        return Err(TraceError::Invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    // Read through `take` instead of pre-allocating `len` bytes: the
    // length prefix is attacker-controlled, and a frame that *claims*
    // 16 MiB but delivers 10 bytes must cost 10 bytes, not 16 MiB.
    use std::io::Read as _;
    let mut body = Vec::new();
    let got = r
        .by_ref()
        .take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| TraceError::Invalid(format!("truncated frame body: {e}")))?;
    if got < len {
        return Err(TraceError::Invalid(format!(
            "truncated frame body: got {got} of {len} bytes"
        )));
    }
    // The newline terminator.
    let mut nl = [0u8; 1];
    std::io::Read::read_exact(r, &mut nl)
        .map_err(|e| TraceError::Invalid(format!("truncated frame terminator: {e}")))?;
    if nl[0] != b'\n' {
        return Err(TraceError::Invalid("frame not newline-terminated".into()));
    }
    let text = String::from_utf8(body)
        .map_err(|_| TraceError::Invalid("frame body is not UTF-8".into()))?;
    let value = serde_json::parse_value(&text)?;
    let msg = T::from_value(&value).map_err(serde_json::Error::from)?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: T) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut r = Cursor::new(buf);
        let back: T = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(back, msg);
        assert!(read_frame::<_, T>(&mut r).unwrap().is_none(), "stream ends");
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip(ClientMsg::Open {
            session: "s1".into(),
            processes: 3,
            vars: vec!["x".into(), "y".into()],
            initial: vec![[("x".to_string(), 5i64)].into_iter().collect()],
            predicates: vec![
                WirePredicate {
                    id: "mutex".into(),
                    mode: WireMode::Conjunctive,
                    clauses: vec![
                        WireClause {
                            process: 0,
                            var: "x".into(),
                            op: "=".into(),
                            value: 2,
                        },
                        WireClause {
                            process: 2,
                            var: "x".into(),
                            op: ">=".into(),
                            value: 1,
                        },
                    ],
                    pattern: None,
                },
                WirePredicate {
                    id: "inversion".into(),
                    mode: WireMode::Pattern,
                    clauses: vec![],
                    pattern: Some(WirePattern {
                        atoms: vec![
                            WireAtom {
                                process: Some(1),
                                var: "x".into(),
                                op: "=".into(),
                                value: 0,
                                causal: false,
                            },
                            WireAtom {
                                process: None,
                                var: "y".into(),
                                op: ">=".into(),
                                value: 2,
                                causal: true,
                            },
                        ],
                    }),
                },
            ],
            dist: None,
        });
        round_trip(ClientMsg::Event {
            session: "s1".into(),
            p: 1,
            clock: vec![0, 2, 1],
            set: [("x".to_string(), -3i64)].into_iter().collect(),
        });
        round_trip(ClientMsg::FinishProcess {
            session: "s1".into(),
            p: 2,
        });
        round_trip(ClientMsg::Close {
            session: "s1".into(),
        });
        round_trip(ClientMsg::Stats);
        round_trip(ClientMsg::Shutdown);
        round_trip(ClientMsg::Hello {
            version: WIRE_VERSION,
        });
        round_trip(ClientMsg::Drain {
            backend: "127.0.0.1:7575".into(),
        });
    }

    #[test]
    fn server_messages_round_trip() {
        round_trip(ServerMsg::Opened {
            session: "s1".into(),
        });
        round_trip(ServerMsg::Verdict {
            session: "s1".into(),
            predicate: "mutex".into(),
            verdict: WireVerdict::Detected(vec![2, 1, 1]),
        });
        round_trip(ServerMsg::Verdict {
            session: "s1".into(),
            predicate: "mutex".into(),
            verdict: WireVerdict::Impossible,
        });
        round_trip(ServerMsg::Closed {
            session: "s1".into(),
            discarded: 4,
        });
        round_trip(ServerMsg::Stats {
            counters: [("events_ingested".to_string(), 17u64)]
                .into_iter()
                .collect(),
        });
        round_trip(ServerMsg::Error {
            session: None,
            kind: None,
            message: "no such session".into(),
        });
        round_trip(ServerMsg::Error {
            session: Some("s1".into()),
            kind: Some(error_kind::DUPLICATE_EVENT.into()),
            message: "duplicate event 3 of process 1".into(),
        });
        round_trip(ServerMsg::Bye);
        round_trip(ServerMsg::Welcome {
            version: WIRE_VERSION,
        });
        round_trip(ServerMsg::Drained {
            backend: "127.0.0.1:7575".into(),
            sessions: 3,
        });
    }

    #[test]
    fn event_batches_round_trip() {
        round_trip(ClientMsg::Events {
            session: "s1".into(),
            events: vec![
                EventFrame {
                    p: 0,
                    clock: vec![1, 0, 0],
                    set: [("x".to_string(), 7i64)].into_iter().collect(),
                },
                EventFrame {
                    p: 2,
                    clock: vec![1, 0, 1],
                    set: BTreeMap::new(),
                },
            ],
        });
    }

    #[test]
    fn dist_roles_round_trip() {
        for role in [
            WireDistRole::Distribute { k: 3 },
            WireDistRole::Worker {
                origin: "s1".into(),
                worker: 1,
                k: 3,
            },
            WireDistRole::Aggregator { k: 3 },
        ] {
            round_trip(ClientMsg::Open {
                session: "s1#w1".into(),
                processes: 4,
                vars: vec!["x".into()],
                initial: vec![],
                predicates: vec![],
                dist: Some(role),
            });
        }
    }

    #[test]
    fn dist_events_and_slice_updates_round_trip() {
        round_trip(ClientMsg::DistEvent {
            session: "s1#w0".into(),
            seq: 17,
            event: EventFrame {
                p: 2,
                clock: vec![0, 1, 3],
                set: [("x".to_string(), 9i64)].into_iter().collect(),
            },
        });
        for update in [
            SliceUpdateBody::Observe {
                p: 2,
                clock: vec![0, 1, 3],
                holds: vec![0, 2],
                invalid: None,
            },
            SliceUpdateBody::Observe {
                p: 2,
                clock: vec![0, 1, 3],
                holds: vec![],
                invalid: Some("undeclared variable 'z'".into()),
            },
            SliceUpdateBody::Finish { p: 1 },
            SliceUpdateBody::Close,
        ] {
            round_trip(ClientMsg::SliceUpdate {
                session: "s1".into(),
                seq: 18,
                update: update.clone(),
            });
            round_trip(ServerMsg::SliceUpdate {
                session: "s1".into(),
                seq: 18,
                update,
            });
        }
    }

    #[test]
    fn plain_opens_serialize_without_a_dist_key() {
        // Byte-compatibility with v4 captures: a session that never
        // asked for distribution must serialize exactly as before.
        let open = ClientMsg::Open {
            session: "s".into(),
            processes: 1,
            vars: vec![],
            initial: vec![],
            predicates: vec![],
            dist: None,
        };
        let json = serde_json::to_string(&open.to_value()).unwrap();
        assert!(!json.contains("dist"), "{json}");
        let distributed = ClientMsg::Open {
            session: "s".into(),
            processes: 1,
            vars: vec![],
            initial: vec![],
            predicates: vec![],
            dist: Some(WireDistRole::Distribute { k: 2 }),
        };
        let json = serde_json::to_string(&distributed.to_value()).unwrap();
        assert!(
            json.ends_with(r#""dist":{"role":"distribute","k":2}}"#),
            "{json}"
        );
    }

    #[test]
    fn unknown_dist_roles_are_rejected_by_name() {
        let mut buf = Vec::new();
        let body = r#"{"type":"open","session":"s","processes":1,"dist":{"role":"observer"}}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(
            err.to_string().contains("unknown distribution role"),
            "{err}"
        );
    }

    #[test]
    fn unknown_slice_update_ops_are_rejected_by_name() {
        let mut buf = Vec::new();
        let body = r#"{"type":"slice-update","session":"s","seq":1,"update":{"op":"merge"}}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("unknown slice-update op"), "{err}");
    }

    #[test]
    fn zero_length_batch_is_rejected() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Value::Object(vec![
                ("type".into(), "events".to_value()),
                ("session".into(), "s1".to_value()),
                ("events".into(), Vec::<EventFrame>::new().to_value()),
            ]),
        )
        .unwrap();
        let err = read_frame::<_, ClientMsg>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("empty event batch"), "{err}");
    }

    #[test]
    fn batch_members_match_their_single_frame_form() {
        let frame = EventFrame {
            p: 1,
            clock: vec![0, 3],
            set: [("y".to_string(), -1i64)].into_iter().collect(),
        };
        let single = frame.clone().into_event("s");
        // A batch member serializes exactly like the event body it
        // abbreviates: same fields, same empty-`set` omission.
        let member = serde_json::to_string(&frame.to_value()).unwrap();
        assert_eq!(member, r#"{"p":1,"clock":[0,3],"set":{"y":-1}}"#);
        assert_eq!(
            single,
            ClientMsg::Event {
                session: "s".into(),
                p: 1,
                clock: vec![0, 3],
                set: [("y".to_string(), -1i64)].into_iter().collect(),
            }
        );
        let bare = EventFrame {
            p: 0,
            clock: vec![1],
            set: BTreeMap::new(),
        };
        assert_eq!(
            serde_json::to_string(&bare.to_value()).unwrap(),
            r#"{"p":0,"clock":[1]}"#
        );
    }

    #[test]
    fn negotiation_echoes_the_client_version() {
        assert_eq!(negotiate_version(MIN_WIRE_VERSION, WIRE_VERSION), Ok(1));
        assert_eq!(negotiate_version(2, WIRE_VERSION), Ok(2));
        assert_eq!(
            negotiate_version(WIRE_VERSION, WIRE_VERSION),
            Ok(WIRE_VERSION)
        );
        // A v2-era server refuses a v3 hello; the client downgrades.
        let err = negotiate_version(3, 2).unwrap_err();
        assert!(err.contains("1 through 2"), "{err}");
        assert!(negotiate_version(0, WIRE_VERSION).is_err());
        assert!(negotiate_version(WIRE_VERSION + 1, WIRE_VERSION).is_err());
    }

    #[test]
    fn only_replay_artifact_kinds_are_benign() {
        assert!(error_kind::is_benign_replay(error_kind::ALREADY_OPEN));
        assert!(error_kind::is_benign_replay(error_kind::DUPLICATE_EVENT));
        assert!(error_kind::is_benign_replay(error_kind::ALREADY_FINISHED));
        assert!(!error_kind::is_benign_replay("wal_append_failed"));
        assert!(!error_kind::is_benign_replay(""));
        // Refused predicates are real failures — retrying the same open
        // against the same peer can never succeed.
        assert!(!error_kind::is_benign_replay(
            error_kind::UNSUPPORTED_PREDICATE
        ));
        // Likewise refused distribution roles.
        assert!(!error_kind::is_benign_replay(
            error_kind::UNSUPPORTED_DISTRIBUTION
        ));
    }

    #[test]
    fn pattern_predicates_round_trip_and_omit_default_fields() {
        let pred = WirePredicate {
            id: "inv".into(),
            mode: WireMode::Pattern,
            clauses: vec![],
            pattern: Some(WirePattern {
                atoms: vec![
                    WireAtom {
                        process: None,
                        var: "unlock".into(),
                        op: "=".into(),
                        value: 1,
                        causal: false,
                    },
                    WireAtom {
                        process: Some(0),
                        var: "lock".into(),
                        op: "=".into(),
                        value: 1,
                        causal: false,
                    },
                ],
            }),
        };
        round_trip(pred.clone());
        // A wildcard, non-causal atom serializes without `process` or
        // `causal` keys — old captures stay greppable and minimal.
        let json = serde_json::to_string(&pred.to_value()).unwrap();
        assert_eq!(
            json,
            r#"{"id":"inv","mode":"pattern","clauses":[],"pattern":{"atoms":[{"var":"unlock","op":"=","value":1},{"process":0,"var":"lock","op":"=","value":1}]}}"#
        );
    }

    #[test]
    fn pattern_mode_requires_a_pattern_body() {
        let mut buf = Vec::new();
        let body = r#"{"id":"p","mode":"pattern","clauses":[]}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, WirePredicate>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("without a pattern body"), "{err}");
    }

    #[test]
    fn empty_patterns_are_rejected() {
        let mut buf = Vec::new();
        let body = r#"{"id":"p","mode":"pattern","clauses":[],"pattern":{"atoms":[]}}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, WirePredicate>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("empty pattern"), "{err}");
    }

    #[test]
    fn v3_decoders_would_refuse_pattern_mode_by_name() {
        // The guard a genuinely old build relies on: an unknown mode
        // string fails the predicate decode with a named-mode error.
        let mut buf = Vec::new();
        let body = r#"{"id":"p","mode":"regex","clauses":[]}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let err = read_frame::<_, WirePredicate>(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("unknown predicate mode"), "{err}");
    }

    #[test]
    fn v1_error_frames_without_kind_still_parse() {
        let mut buf = Vec::new();
        let body = r#"{"type":"error","session":"s1","message":"no such session 's1'"}"#;
        buf.extend_from_slice(format!("{} {}\n", body.len(), body).as_bytes());
        let msg: ServerMsg = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(
            msg,
            ServerMsg::Error {
                session: Some("s1".into()),
                kind: None,
                message: "no such session 's1'".into(),
            }
        );
    }

    #[test]
    fn version_window_is_enforced() {
        assert!(check_version(MIN_WIRE_VERSION).is_ok());
        assert!(check_version(WIRE_VERSION).is_ok());
        let err = check_version(WIRE_VERSION + 1).unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");
        assert!(check_version(0).is_err());
    }

    #[test]
    fn frames_are_length_prefixed_json_lines() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Stats).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "16 {\"type\":\"stats\"}\n");
    }

    #[test]
    fn multiple_frames_stream() {
        let mut buf = Vec::new();
        for p in 0..5usize {
            write_frame(
                &mut buf,
                &ClientMsg::FinishProcess {
                    session: "s".into(),
                    p,
                },
            )
            .unwrap();
        }
        let mut r = Cursor::new(buf);
        for p in 0..5usize {
            let msg: ClientMsg = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(
                msg,
                ClientMsg::FinishProcess {
                    session: "s".into(),
                    p
                }
            );
        }
        assert!(read_frame::<_, ClientMsg>(&mut r).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_framing() {
        let cases: &[&[u8]] = &[
            b"abc {\"type\":\"stats\"}\n", // non-numeric length
            b"999 {\"type\":\"stats\"}\n", // truncated body
            b"16 {\"type\":\"stats\"}X",   // missing newline
            b"3 {}\n",                     // length mismatch eats newline
        ];
        for case in cases {
            let mut r = Cursor::new(case.to_vec());
            assert!(
                read_frame::<_, ClientMsg>(&mut r).is_err(),
                "{:?}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn rejects_oversized_frame_without_reading_it() {
        let header = format!("{} ", MAX_FRAME_BYTES + 1);
        let mut r = Cursor::new(header.into_bytes());
        let err = read_frame::<_, ClientMsg>(&mut r).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_unknown_message_type() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Value::Object(vec![("type".into(), "warp".to_value())]),
        )
        .unwrap();
        let mut r = Cursor::new(buf);
        assert!(read_frame::<_, ClientMsg>(&mut r).is_err());
    }

    #[test]
    fn owner_partitions_round_robin() {
        assert_eq!(owner(0, 3), 0);
        assert_eq!(owner(4, 3), 1);
        assert_eq!(owner(5, 1), 0);
    }

    #[test]
    fn worker_sessions_are_decorated() {
        assert_eq!(worker_session("app", 2), "app#w2");
    }
}
