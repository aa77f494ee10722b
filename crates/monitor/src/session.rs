//! Monitoring sessions.
//!
//! A session is one monitored computation: a fixed process count, a
//! variable namespace, and the set of predicates registered when the
//! session opened. Events flow through the session's [`CausalBuffer`];
//! each delivered event advances the per-process local state and is
//! observed by every registered on-line detector. The session — not the
//! detector — evaluates local clauses, so detectors see only
//! `(process, holds, clock)` triples, mirroring what a distributed
//! checker would ship over the network.
//!
//! Verdicts are emitted exactly once per predicate, the moment they
//! settle. [`Session::close`] force-settles everything: stranded held
//! events are discarded (their causal past can never complete), every
//! process is declared finished, and any predicate still pending
//! becomes `Impossible`.
//!
//! Everything behind the causal buffer — delivery into the detectors,
//! the deferred-skip flush before an admitted observation, finish
//! forwarding, settle-once verdict collection, close, and the detector
//! half of snapshots — lives in one detection core, generic over the
//! buffered payload. A session feeds it variable assignments; a
//! distributed aggregator ([`crate::dist`]) feeds it the workers'
//! slice-membership bits, which is what makes its frames byte-identical
//! to a session's. Both roles, and the distributed workers, validate
//! their open request through the same check sequence.

use crate::buffer::{CausalBuffer, Delivered, IngestError, OverflowPolicy};
use crate::persist::{HeldEventSnapshot, MonitorSnapshot, SessionSnapshot};
use hb_computation::{LocalState, VarId, VarTable};
use hb_detect::online::{
    DetectorState, OnlineEfConjunctive, OnlineEfDisjunctive, OnlineMonitor, OnlineVerdict,
};
use hb_pattern::PredictiveMatcher;
use hb_predicates::{CmpOp, LocalExpr};
use hb_slice::SliceFilter;
use hb_tracefmt::wire::{WireClause, WireMode, WirePredicate, MAX_FRAME_BYTES};
use hb_vclock::VectorClock;
use std::collections::BTreeMap;
use std::fmt;

/// Why a session could not be opened or driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The open request was malformed (bad predicate, var, process…).
    BadOpen(String),
    /// An event referenced something undeclared or was otherwise
    /// malformed.
    BadEvent(String),
    /// An event arrived for a process already declared finished — a
    /// distinct variant (not a `BadEvent` string) so the service can
    /// tag it with a machine-readable error kind: an at-least-once
    /// client replaying a close window triggers it benignly.
    AlreadyFinished(usize),
    /// The causal buffer refused the event.
    Ingest(IngestError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BadOpen(m) => write!(f, "bad open: {m}"),
            SessionError::BadEvent(m) => write!(f, "bad event: {m}"),
            SessionError::AlreadyFinished(p) => {
                write!(f, "bad event: process {p} already finished")
            }
            SessionError::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<IngestError> for SessionError {
    fn from(e: IngestError) -> Self {
        SessionError::Ingest(e)
    }
}

/// A settled (or force-settled) verdict for one predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictEvent {
    /// The predicate's caller-chosen id.
    pub predicate: String,
    /// Whether the predicate is a pattern predicate (drives the
    /// per-predicate stats keys, which distinguish the two families).
    pub pattern: bool,
    /// The verdict.
    pub verdict: OnlineVerdict,
}

/// Limits and policy for a session's causal buffer.
#[derive(Debug, Clone, Copy)]
pub struct SessionLimits {
    /// Maximum held-back events.
    pub buffer_capacity: usize,
    /// What to do at capacity.
    pub policy: OverflowPolicy,
    /// Front regular predicates with a slicing ingest filter. On by
    /// default; the differential tests turn it off for the unsliced
    /// leg. Filtering is monitor-local and verdict-invariant, so the
    /// setting never shows on the wire.
    pub slice: bool,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            buffer_capacity: 4096,
            policy: OverflowPolicy::Reject,
            slice: true,
        }
    }
}

// ---- open validation ------------------------------------------------------

/// One atom of a pattern predicate, resolved against the session's
/// variable table at open time.
#[derive(Clone)]
pub(crate) struct CompiledAtom {
    /// `None` = the atom matches on any process.
    process: Option<usize>,
    var: VarId,
    op: CmpOp,
    value: i64,
}

/// One validated predicate: per-process local clauses for the clause
/// modes, resolved atoms for a pattern.
pub(crate) struct CompiledPredicate {
    pub(crate) id: String,
    /// Per-process local clause (`None` = the process has no clause).
    /// Empty for pattern predicates.
    pub(crate) clauses: Vec<Option<LocalExpr>>,
    /// Pattern atoms (`Some` iff the predicate's mode is `Pattern`).
    atoms: Option<Vec<CompiledAtom>>,
}

/// A validated open request.
pub(crate) struct OpenRequest {
    /// The session's variable namespace.
    pub(crate) vars: VarTable,
    /// Initial local state per process.
    pub(crate) states: Vec<LocalState>,
    /// The predicates, in registration order.
    pub(crate) predicates: Vec<CompiledPredicate>,
}

fn parse_op(op: &str) -> Option<CmpOp> {
    Some(match op {
        "=" | "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

/// Validates an open request — the one check sequence plain sessions,
/// distributed workers and aggregators share, so a malformed open is
/// refused by every member of a partition with the message a plain
/// session would send. `distributed` adds the conjunctive-only rule:
/// disjunctive and pattern detection carry cross-process state that
/// does not decompose into worker-local clause streams.
pub(crate) fn validate_open(
    processes: usize,
    var_names: &[String],
    initial: &[BTreeMap<String, i64>],
    predicates: &[WirePredicate],
    distributed: bool,
) -> Result<OpenRequest, SessionError> {
    let bad = SessionError::BadOpen;
    if processes == 0 {
        return Err(bad("zero processes".into()));
    }
    // Every clock entry takes at least two bytes on the wire, so no
    // event frame can reach a wider session; and every predicate keeps
    // per-process tables. Refusing here keeps one hostile open (which
    // the WAL would replay on every restart) from aborting the monitor
    // on allocation.
    if processes > MAX_FRAME_BYTES / 2 {
        return Err(bad(format!(
            "{processes} processes; no {MAX_FRAME_BYTES}-byte frame can carry a clock that wide"
        )));
    }
    if processes.saturating_mul(predicates.len()) > MAX_FRAME_BYTES {
        return Err(bad(format!(
            "{processes} processes × {} predicates exceeds the {MAX_FRAME_BYTES}-entry table limit",
            predicates.len()
        )));
    }
    if initial.len() > processes {
        return Err(bad(format!(
            "{} initial maps for {processes} processes",
            initial.len()
        )));
    }
    let mut vars = VarTable::new();
    for v in var_names {
        vars.declare(v);
    }
    let mut states = vec![LocalState::zeroed(vars.len()); processes];
    for (i, init) in initial.iter().enumerate() {
        for (vname, &value) in init {
            let id = vars
                .lookup(vname)
                .ok_or_else(|| bad(format!("undeclared variable '{vname}' in initial")))?;
            states[i].set(id, value);
        }
    }

    let mut compiled = Vec::with_capacity(predicates.len());
    let mut seen_ids = std::collections::BTreeSet::new();
    for pred in predicates {
        let bad_pred = |m: String| bad(format!("predicate '{}'{m}", pred.id));
        if !seen_ids.insert(&pred.id) {
            return Err(bad(format!("duplicate predicate id '{}'", pred.id)));
        }
        if distributed && pred.mode != WireMode::Conjunctive {
            return Err(bad_pred(
                ": distributed sessions support conjunctive predicates only".into(),
            ));
        }
        if pred.mode == WireMode::Pattern {
            compiled.push(validate_pattern(pred, processes, &vars)?);
            continue;
        }
        if pred.pattern.is_some() {
            return Err(bad_pred(": a pattern body requires mode 'pattern'".into()));
        }
        if pred.clauses.is_empty() {
            return Err(bad_pred(" has no clauses".into()));
        }
        let mut clauses: Vec<Option<LocalExpr>> = vec![None; processes];
        for WireClause {
            process,
            var,
            op,
            value,
        } in &pred.clauses
        {
            if *process >= processes {
                return Err(bad_pred(format!(": process {process} out of range")));
            }
            let id = vars
                .lookup(var)
                .ok_or_else(|| bad_pred(format!(": undeclared variable '{var}'")))?;
            let cmp = parse_op(op).ok_or_else(|| bad_pred(format!(": unknown operator '{op}'")))?;
            let expr = LocalExpr::Cmp(id, cmp, *value);
            // Several clauses on one process fold with the mode's
            // connective.
            clauses[*process] = Some(match (clauses[*process].take(), pred.mode) {
                (None, _) => expr,
                (Some(prev), WireMode::Conjunctive) => prev.and(expr),
                (Some(prev), WireMode::Disjunctive) => prev.or(expr),
                (Some(_), WireMode::Pattern) => unreachable!("handled above"),
            });
        }
        compiled.push(CompiledPredicate {
            id: pred.id.clone(),
            clauses,
            atoms: None,
        });
    }
    Ok(OpenRequest {
        vars,
        states,
        predicates: compiled,
    })
}

/// Validates a pattern predicate's body.
fn validate_pattern(
    pred: &WirePredicate,
    processes: usize,
    vars: &VarTable,
) -> Result<CompiledPredicate, SessionError> {
    let bad = |m: String| SessionError::BadOpen(format!("predicate '{}': {m}", pred.id));
    if !pred.clauses.is_empty() {
        return Err(bad("pattern predicates take no clauses".into()));
    }
    let pattern = pred
        .pattern
        .as_ref()
        .ok_or_else(|| bad("mode 'pattern' without a pattern body".into()))?;
    if pattern.atoms.is_empty() {
        return Err(bad("empty pattern".into()));
    }
    if pattern.atoms.len() > 64 {
        return Err(bad(format!(
            "{} atoms; the label mask caps patterns at 64",
            pattern.atoms.len()
        )));
    }
    if pattern.atoms[0].causal {
        return Err(bad(
            "the first atom has no predecessor to be causally after".into(),
        ));
    }
    let mut atoms = Vec::with_capacity(pattern.atoms.len());
    for a in &pattern.atoms {
        if let Some(p) = a.process {
            if p >= processes {
                return Err(bad(format!("process {p} out of range")));
            }
        }
        let var = vars
            .lookup(&a.var)
            .ok_or_else(|| bad(format!("undeclared variable '{}'", a.var)))?;
        let op = parse_op(&a.op).ok_or_else(|| bad(format!("unknown operator '{}'", a.op)))?;
        atoms.push(CompiledAtom {
            process: a.process,
            var,
            op,
            value: a.value,
        });
    }
    Ok(CompiledPredicate {
        id: pred.id.clone(),
        clauses: Vec::new(),
        atoms: Some(atoms),
    })
}

// ---- the detection core ---------------------------------------------------

/// One registered predicate's detector inside a [`Core`], plus the
/// role-specific stage `S` that turns a delivered payload into
/// observations.
pub(crate) struct Detector<S> {
    pub(crate) id: String,
    /// Pattern predicate (drives the per-predicate stats keys).
    pattern: bool,
    pub(crate) monitor: Box<dyn OnlineMonitor + Send>,
    /// Set once the verdict has been reported.
    pub(crate) emitted: bool,
    pub(crate) stage: S,
}

impl<S> Detector<S> {
    /// The on-line detector for a validated predicate, primed with the
    /// processes' initial states.
    pub(crate) fn open(
        pred: &CompiledPredicate,
        wire: &WirePredicate,
        states: &[LocalState],
        stage: S,
    ) -> Detector<S> {
        let n = states.len();
        let monitor: Box<dyn OnlineMonitor + Send> = match (&pred.atoms, &wire.pattern) {
            (Some(_), Some(pattern)) => Box::new(PredictiveMatcher::from_wire(n, pattern)),
            _ => {
                let initially: Vec<bool> = (0..n)
                    .map(|i| pred.clauses[i].as_ref().is_some_and(|c| c.eval(&states[i])))
                    .collect();
                if wire.mode == WireMode::Disjunctive {
                    Box::new(OnlineEfDisjunctive::new(n, initially))
                } else {
                    let participating = pred.clauses.iter().map(Option::is_some).collect();
                    Box::new(OnlineEfConjunctive::new(n, participating, initially))
                }
            }
        };
        Detector {
            id: pred.id.clone(),
            pattern: pred.atoms.is_some(),
            monitor,
            emitted: false,
            stage,
        }
    }

    /// Observes a slice-member state of `p`, first flushing the
    /// `skipped` non-member observations deferred before it — so the
    /// detector numbers this state exactly as an unfiltered run would.
    pub(crate) fn admit(&mut self, p: usize, skipped: u64, clock: &VectorClock) {
        if skipped > 0 {
            self.monitor.skip_states(p, skipped);
        }
        self.monitor.observe(p, true, clock);
    }

    fn verdict(&self) -> VerdictEvent {
        VerdictEvent {
            predicate: self.id.clone(),
            pattern: self.pattern,
            verdict: self.monitor.verdict().clone(),
        }
    }
}

/// The detection pipeline behind an open request, shared by plain
/// sessions (payload: variable assignments) and distributed
/// aggregators (payload: slice-membership bits). It owns the causal
/// buffer and the detectors; the caller says only how one delivered
/// payload feeds the detectors.
pub(crate) struct Core<P, S> {
    /// The session's variable namespace.
    pub(crate) vars: VarTable,
    /// The predicates as registered at open (retained for snapshots).
    pub(crate) predicates: Vec<WirePredicate>,
    pub(crate) buffer: CausalBuffer<P>,
    pub(crate) detectors: Vec<Detector<S>>,
    /// Client-declared stream ends.
    pub(crate) finished: Vec<bool>,
    /// Processes whose finish has been forwarded to the detectors.
    pub(crate) monitor_finished: Vec<bool>,
    /// Delivered events (for stats and the e2e assertions).
    delivered: u64,
    /// Verdicts that settled already at open (initial-cut detections),
    /// waiting to be collected by the service.
    pending_initial: Vec<VerdictEvent>,
}

impl<P, S> Core<P, S> {
    /// Wraps validated detectors; a predicate that already holds in the
    /// initial cut settles here, for [`Core::take_initial_verdicts`].
    pub(crate) fn new(
        vars: VarTable,
        predicates: &[WirePredicate],
        detectors: Vec<Detector<S>>,
        processes: usize,
        limits: SessionLimits,
    ) -> Self {
        let mut core = Core {
            vars,
            predicates: predicates.to_vec(),
            buffer: CausalBuffer::new(processes, limits.buffer_capacity, limits.policy),
            detectors,
            finished: vec![false; processes],
            monitor_finished: vec![false; processes],
            delivered: 0,
            pending_initial: Vec::new(),
        };
        let mut initial = Vec::new();
        core.collect_settled(&mut initial);
        core.pending_initial = initial;
        core
    }

    pub(crate) fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        std::mem::take(&mut self.pending_initial)
    }

    pub(crate) fn processes(&self) -> usize {
        self.finished.len()
    }

    pub(crate) fn held(&self) -> usize {
        self.buffer.held()
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Refuses events of `p` once its finish reached the detectors. A
    /// declared-finished process may still owe held events their causal
    /// predecessors (reordering can let the finish overtake earlier
    /// events in transit), so the finish alone refuses nothing.
    pub(crate) fn refuse_finished(&self, p: usize) -> Result<(), SessionError> {
        if p < self.finished.len() && self.monitor_finished[p] {
            return Err(SessionError::AlreadyFinished(p));
        }
        Ok(())
    }

    /// Ingests one event; `feed` hands every delivery the buffer
    /// releases to the detectors. Returns the verdicts that settled.
    pub(crate) fn ingest(
        &mut self,
        p: usize,
        clock: VectorClock,
        payload: P,
        mut feed: impl FnMut(&Delivered<P>, &mut [Detector<S>]),
    ) -> Result<Vec<VerdictEvent>, SessionError> {
        let released = self.buffer.ingest(p, clock, payload)?;
        for d in released {
            self.delivered += 1;
            feed(&d, &mut self.detectors);
        }
        let mut verdicts = Vec::new();
        self.collect_settled(&mut verdicts);
        // A delivery may have drained the last held event of an
        // already-finished process.
        self.forward_finishes(&mut verdicts);
        Ok(verdicts)
    }

    /// Declares that process `p` will produce no further events.
    pub(crate) fn finish_process(&mut self, p: usize) -> Result<Vec<VerdictEvent>, SessionError> {
        if p >= self.finished.len() {
            return Err(SessionError::BadEvent(format!("process {p} out of range")));
        }
        self.finished[p] = true;
        let mut verdicts = Vec::new();
        self.forward_finishes(&mut verdicts);
        Ok(verdicts)
    }

    /// Discards stranded held events, declares every process finished,
    /// and force-settles all remaining predicates. Returns the settled
    /// verdicts plus the number of discarded events.
    pub(crate) fn close(&mut self) -> (Vec<VerdictEvent>, u64) {
        let discarded = self.buffer.discard_held().len() as u64;
        for p in 0..self.finished.len() {
            self.finish_detectors(p);
        }
        let mut verdicts = Vec::new();
        self.collect_settled(&mut verdicts);
        (verdicts, discarded)
    }

    /// The current verdict of every predicate (settled or not).
    pub(crate) fn all_verdicts(&self) -> Vec<VerdictEvent> {
        self.detectors.iter().map(Detector::verdict).collect()
    }

    /// Forwards client-declared finishes to the detectors once the
    /// buffer holds nothing more from the process (a held event may
    /// still be observed later, and detectors reject post-finish
    /// observations).
    fn forward_finishes(&mut self, out: &mut Vec<VerdictEvent>) {
        for p in 0..self.finished.len() {
            if self.finished[p] && self.buffer.held_from(p) == 0 {
                self.finish_detectors(p);
            }
        }
        self.collect_settled(out);
    }

    fn finish_detectors(&mut self, p: usize) {
        if !self.monitor_finished[p] {
            self.monitor_finished[p] = true;
            for det in &mut self.detectors {
                if !det.emitted {
                    det.monitor.finish_process(p);
                }
            }
        }
    }

    /// Emits newly settled verdicts, once each.
    fn collect_settled(&mut self, out: &mut Vec<VerdictEvent>) {
        for det in &mut self.detectors {
            if !det.emitted && det.monitor.is_settled() {
                det.emitted = true;
                out.push(det.verdict());
            }
        }
    }

    /// Overwrites buffer, finish state and detectors with frozen
    /// values. Errors name the inconsistent part of the snapshot.
    pub(crate) fn restore(
        &mut self,
        frozen: FrozenCore<'_, P>,
        limits: SessionLimits,
    ) -> Result<(), &'static str> {
        let n = self.processes();
        if frozen.frontier.len() != n
            || frozen.finished.len() != n
            || frozen.monitor_finished.len() != n
        {
            return Err("per-process vectors");
        }
        if frozen.monitors.len() != self.detectors.len() {
            return Err("monitor count");
        }
        let mut held = Vec::with_capacity(frozen.held.len());
        for (p, clock, payload) in frozen.held {
            if p >= n || clock.len() != n {
                return Err("held event");
            }
            held.push((p, VectorClock::from_components(clock), payload));
        }
        self.buffer = CausalBuffer::restore(
            frozen.frontier.to_vec(),
            held,
            limits.buffer_capacity,
            limits.policy,
        );
        for (det, (id, emitted, state)) in self.detectors.iter_mut().zip(frozen.monitors) {
            if det.id != id {
                return Err("monitor order");
            }
            det.monitor = hb_pattern::restore_any(state);
            det.emitted = emitted;
        }
        self.finished = frozen.finished.to_vec();
        self.monitor_finished = frozen.monitor_finished.to_vec();
        self.delivered = frozen.delivered;
        self.pending_initial.clear();
        Ok(())
    }
}

/// A [`Core`]'s state as read back from a snapshot.
pub(crate) struct FrozenCore<'a, P> {
    /// The causal buffer's delivered frontier.
    pub(crate) frontier: &'a [u32],
    /// Held events in arrival order: `(process, clock, payload)`.
    pub(crate) held: Vec<(usize, Vec<u32>, P)>,
    pub(crate) finished: &'a [bool],
    pub(crate) monitor_finished: &'a [bool],
    pub(crate) delivered: u64,
    /// `(id, emitted, detector state)` per predicate, in registration
    /// order.
    pub(crate) monitors: Vec<(&'a str, bool, &'a DetectorState)>,
}

// ---- plain sessions -------------------------------------------------------

/// How a plain session turns a delivered event into one predicate's
/// observation.
pub(crate) enum Stage {
    /// Local clauses evaluated on the post-state. Regular predicates
    /// are detected on the slice: a filter drops slice-irrelevant
    /// events before the detector, deferring their observations as
    /// batched `skip_states` counter bumps.
    Clauses {
        /// Per-process local clause (`None` = the process has no clause).
        clauses: Vec<Option<LocalExpr>>,
        slice: Option<SliceFilter>,
    },
    /// Pattern atoms, matched against the event's **assignments**, not
    /// the accumulated local state: a pattern names things that
    /// *happen*.
    Pattern(Vec<CompiledAtom>),
}

impl Detector<Stage> {
    /// Feeds one delivered event, whose assignments `state` already
    /// reflects.
    fn observe(&mut self, d: &Delivered<Vec<(VarId, i64)>>, state: &LocalState) {
        let skipped = match &mut self.stage {
            Stage::Pattern(atoms) => {
                let mut mask = 0u64;
                for (k, a) in atoms.iter().enumerate() {
                    if a.process.is_some_and(|p| p != d.process) {
                        continue;
                    }
                    if d.payload
                        .iter()
                        .any(|&(var, value)| var == a.var && a.op.apply(value, a.value))
                    {
                        mask |= 1 << k;
                    }
                }
                self.monitor.observe_atoms(d.process, mask, &d.clock);
                return;
            }
            Stage::Clauses {
                clauses,
                slice: None,
                ..
            } => {
                let holds = clauses[d.process].as_ref().is_some_and(|c| c.eval(state));
                self.monitor.observe(d.process, holds, &d.clock);
                return;
            }
            Stage::Clauses {
                clauses,
                slice: Some(filter),
                ..
            } => {
                let clause = clauses[d.process].as_ref();
                let delta =
                    filter.advance(d.process, d.payload.iter().map(|&(var, _)| var), || {
                        clause.is_some_and(|c| c.eval(state))
                    });
                if !delta.is_member() {
                    return;
                }
                filter.take_pending(d.process)
            }
        };
        self.admit(d.process, skipped, &d.clock);
    }
}

/// One monitored computation with its registered detectors.
pub struct Session {
    name: String,
    /// Current local state per process (advanced on delivery).
    states: Vec<LocalState>,
    core: Core<Vec<(VarId, i64)>, Stage>,
}

impl Session {
    /// Opens a session: validates the predicates against the declared
    /// variables and process count, builds initial states, and
    /// instantiates one on-line detector per predicate.
    pub fn open(
        name: &str,
        processes: usize,
        var_names: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
        limits: SessionLimits,
    ) -> Result<Session, SessionError> {
        let req = validate_open(processes, var_names, initial, predicates, false)?;
        let detectors = req
            .predicates
            .iter()
            .zip(predicates)
            .map(|(pred, wire)| {
                let stage = match &pred.atoms {
                    Some(atoms) => Stage::Pattern(atoms.clone()),
                    None => Stage::Clauses {
                        slice: (limits.slice && hb_slice::sliceable(wire.mode))
                            .then(|| SliceFilter::from_clauses(&pred.clauses, &req.states)),
                        clauses: pred.clauses.clone(),
                    },
                };
                Detector::open(pred, wire, &req.states, stage)
            })
            .collect();
        Ok(Session {
            name: name.to_string(),
            core: Core::new(req.vars, predicates, detectors, processes, limits),
            states: req.states,
        })
    }

    /// Verdicts that settled at open time (initial-cut detections).
    pub fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        self.core.take_initial_verdicts()
    }

    /// Freezes the session's full state for persistence.
    pub fn snapshot(&self) -> SessionSnapshot {
        let core = &self.core;
        SessionSnapshot {
            name: self.name.clone(),
            processes: self.states.len(),
            vars: core.vars.iter().map(|(_, n)| n.to_string()).collect(),
            predicates: core.predicates.clone(),
            states: self.states.iter().map(|s| s.values().to_vec()).collect(),
            frontier: core.buffer.frontier().to_vec(),
            held: core
                .buffer
                .held_events()
                .map(|(process, clock, set)| HeldEventSnapshot {
                    process,
                    clock: clock.components().to_vec(),
                    set: set
                        .iter()
                        .map(|(id, v)| (core.vars.name(*id).to_string(), *v))
                        .collect(),
                })
                .collect(),
            finished: core.finished.clone(),
            monitor_finished: core.monitor_finished.clone(),
            delivered: core.delivered(),
            monitors: core
                .detectors
                .iter()
                .map(|d| MonitorSnapshot {
                    id: d.id.clone(),
                    emitted: d.emitted,
                    state: d.monitor.export_state(),
                    slice: match &d.stage {
                        Stage::Clauses { slice: Some(f), .. } => Some(f.export()),
                        _ => None,
                    },
                })
                .collect(),
        }
    }

    /// Rebuilds a session from a snapshot: re-validates the predicates
    /// through the normal open path, then overwrites states, buffer,
    /// and detector internals with the frozen values.
    pub fn restore(snap: &SessionSnapshot, limits: SessionLimits) -> Result<Session, SessionError> {
        let shape = |what: &str| {
            SessionError::BadOpen(format!(
                "snapshot of session '{}': inconsistent {what}",
                snap.name
            ))
        };
        let mut s = Session::open(
            &snap.name,
            snap.processes,
            &snap.vars,
            &[],
            &snap.predicates,
            limits,
        )?;
        if snap.states.len() != snap.processes {
            return Err(shape("per-process vectors"));
        }
        s.states = snap
            .states
            .iter()
            .map(|v| LocalState::from_values(v.clone()))
            .collect();
        let mut held = Vec::with_capacity(snap.held.len());
        for h in &snap.held {
            let mut set = Vec::with_capacity(h.set.len());
            for (vname, &value) in &h.set {
                let id = s
                    .core
                    .vars
                    .lookup(vname)
                    .ok_or_else(|| shape("held variable"))?;
                set.push((id, value));
            }
            held.push((h.process, h.clock.clone(), set));
        }
        let frozen = FrozenCore {
            frontier: &snap.frontier,
            held,
            finished: &snap.finished,
            monitor_finished: &snap.monitor_finished,
            delivered: snap.delivered,
            monitors: snap
                .monitors
                .iter()
                .map(|m| (m.id.as_str(), m.emitted, &m.state))
                .collect(),
        };
        s.core.restore(frozen, limits).map_err(shape)?;
        for (det, m) in s.core.detectors.iter_mut().zip(&snap.monitors) {
            let filter = match &mut det.stage {
                Stage::Clauses {
                    clauses,
                    slice: Some(f),
                    ..
                } => Some((f, clauses)),
                _ => None,
            };
            match (filter, &m.slice) {
                (Some((f, _)), Some(state)) => {
                    f.restore(state).map_err(|_| shape("slice state"))?;
                }
                (Some((f, clauses)), None) => {
                    // Pre-slicing snapshot: start the filter from the
                    // restored states with fresh counters.
                    *f = SliceFilter::from_clauses(clauses, &s.states);
                }
                (None, Some(_)) => {
                    // The snapshot was taken with slicing on: the
                    // detector's state counters owe the filter its
                    // pending skips, so it cannot run unfiltered.
                    return Err(shape("slice state without a slicing filter"));
                }
                (None, None) => {}
            }
        }
        Ok(s)
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.states.len()
    }

    /// Events currently held in the causal buffer.
    pub fn held(&self) -> usize {
        self.core.held()
    }

    /// Events delivered to the detectors so far.
    pub fn delivered(&self) -> u64 {
        self.core.delivered()
    }

    /// Per-predicate slice-filter counters not yet pushed to the
    /// service metrics: `(predicate id, Δevents_in, Δevents_filtered)`
    /// since the previous call. After a crash-recovery restore the
    /// watermark restarts at zero: the first flush resyncs the fresh
    /// metrics with the recovered totals.
    pub fn take_slice_stats(&mut self) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        for det in &mut self.core.detectors {
            if let Stage::Clauses { slice: Some(f), .. } = &mut det.stage {
                if let Some((events_in, events_filtered)) = f.take_counts() {
                    out.push((det.id.clone(), events_in, events_filtered));
                }
            }
        }
        out
    }

    /// Ingests one event. On success, returns the verdicts that settled
    /// as a consequence (usually none).
    pub fn event(
        &mut self,
        p: usize,
        clock: VectorClock,
        set: &BTreeMap<String, i64>,
    ) -> Result<Vec<VerdictEvent>, SessionError> {
        self.core.refuse_finished(p)?;
        let mut updates = Vec::with_capacity(set.len());
        for (vname, &value) in set {
            let id =
                self.core.vars.lookup(vname).ok_or_else(|| {
                    SessionError::BadEvent(format!("undeclared variable '{vname}'"))
                })?;
            updates.push((id, value));
        }
        let states = &mut self.states;
        self.core.ingest(p, clock, updates, |d, detectors| {
            let state = &mut states[d.process];
            for &(var, value) in &d.payload {
                state.set(var, value);
            }
            for det in detectors {
                if !det.emitted {
                    det.observe(d, state);
                }
            }
        })
    }

    /// Declares that process `p` will produce no further events.
    pub fn finish_process(&mut self, p: usize) -> Result<Vec<VerdictEvent>, SessionError> {
        self.core.finish_process(p)
    }

    /// Closes the session: discards stranded held events, declares every
    /// process finished, and force-settles all remaining predicates.
    /// Returns the settled verdicts plus the number of discarded events.
    pub fn close(&mut self) -> (Vec<VerdictEvent>, u64) {
        self.core.close()
    }

    /// The final verdict of every predicate (settled or not), for the
    /// close report.
    pub fn all_verdicts(&self) -> Vec<VerdictEvent> {
        self.core.all_verdicts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(c: &[u32]) -> VectorClock {
        VectorClock::from_components(c.to_vec())
    }

    fn pred(id: &str, mode: WireMode, clauses: &[(usize, &str, &str, i64)]) -> WirePredicate {
        WirePredicate {
            id: id.into(),
            mode,
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

    /// An anonymous-process two-atom pattern `a=1 -> b=1` (optionally
    /// with a causal second edge).
    fn pattern_pred(id: &str, atoms: &[(Option<usize>, &str, i64, bool)]) -> WirePredicate {
        use hb_tracefmt::wire::{WireAtom, WirePattern};
        WirePredicate {
            id: id.into(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: Some(WirePattern {
                atoms: atoms
                    .iter()
                    .map(|&(process, var, value, causal)| WireAtom {
                        process,
                        var: var.into(),
                        op: "=".into(),
                        value,
                        causal,
                    })
                    .collect(),
            }),
        }
    }

    fn set(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// The paper's Fig. 2(a) shape: P0 runs e1 e2 e3 (e2 a send), P1
    /// runs f1 f2 f3 (f2 the receive). Conjunction `x0=2 ∧ x1=1` holds
    /// first at the cut (e2, f1) — `I_p = [2, 1]`.
    fn fig2_session() -> Session {
        Session::open(
            "fig2",
            2,
            &["x0".to_string(), "x1".to_string()],
            &[],
            &[pred(
                "ef",
                WireMode::Conjunctive,
                &[(0, "x0", "=", 2), (1, "x1", "=", 1)],
            )],
            SessionLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn in_order_detection_finds_least_cut() {
        let mut s = fig2_session();
        // P1: f1 sets x1=1.
        assert!(s
            .event(1, vc(&[0, 1]), &set(&[("x1", 1)]))
            .unwrap()
            .is_empty());
        // P0: e1 sets x0=1.
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("x0", 1)]))
            .unwrap()
            .is_empty());
        // P0: e2 (send) sets x0=2 → detection at [2, 1].
        let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].predicate, "ef");
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_arrival_same_verdict() {
        let mut s = fig2_session();
        // f2 (the receive, clock [2,2]) arrives before everything else.
        assert!(s
            .event(1, vc(&[2, 2]), &set(&[("x1", 2)]))
            .unwrap()
            .is_empty());
        assert_eq!(s.held(), 1);
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("x0", 1)]))
            .unwrap()
            .is_empty());
        assert!(s
            .event(1, vc(&[0, 1]), &set(&[("x1", 1)]))
            .unwrap()
            .is_empty());
        // e2 completes the causal past: cascade delivers e2 then f2, and
        // the detection fires with the same least cut as in order.
        let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(s.held(), 0);
        assert_eq!(s.delivered(), 4);
    }

    #[test]
    fn finish_without_detection_is_impossible() {
        let mut s = fig2_session();
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        // P0 finished without ever satisfying x0=2, so the conjunction
        // settles Impossible immediately.
        let v = s.finish_process(0).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict, OnlineVerdict::Impossible);
        // Later finishes emit nothing further.
        assert!(s.finish_process(1).unwrap().is_empty());
    }

    #[test]
    fn finish_is_deferred_while_events_are_held() {
        let mut s = fig2_session();
        // P1's second event held (its first never arrived)…
        s.event(1, vc(&[0, 2]), &set(&[("x1", 1)])).unwrap();
        // …so finishing P1 must not reach the detector yet (the held
        // event may still be delivered and observed).
        assert!(s.finish_process(1).unwrap().is_empty());
        // The missing first event arrives; both deliver; then the
        // deferred finish lands.
        s.event(1, vc(&[0, 1]), &set(&[])).unwrap();
        let v = s.finish_process(0).unwrap();
        // x1=1 (after f2) but P0 finished without x0=2: impossible.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn close_discards_stranded_events_and_settles() {
        let mut s = fig2_session();
        s.event(1, vc(&[1, 1]), &set(&[("x1", 1)])).unwrap(); // needs e1, never sent
        assert_eq!(s.held(), 1);
        let (verdicts, discarded) = s.close();
        assert_eq!(discarded, 1);
        assert_eq!(s.held(), 0);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn event_after_finish_is_rejected() {
        let mut s = fig2_session();
        s.finish_process(0).unwrap();
        let err = s.event(0, vc(&[1, 0]), &set(&[])).unwrap_err();
        assert!(matches!(err, SessionError::AlreadyFinished(0)));
    }

    #[test]
    fn duplicate_event_is_rejected() {
        let mut s = fig2_session();
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        assert!(matches!(
            s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])),
            Err(SessionError::Ingest(IngestError::Duplicate { .. }))
        ));
    }

    #[test]
    fn disjunctive_predicate_fires_on_first_hit() {
        let mut s = Session::open(
            "d",
            2,
            &["x".to_string()],
            &[],
            &[pred(
                "any",
                WireMode::Disjunctive,
                &[(0, "x", ">=", 5), (1, "x", ">=", 5)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("x", 3)]))
            .unwrap()
            .is_empty());
        let v = s.event(1, vc(&[0, 1]), &set(&[("x", 7)])).unwrap();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[0, 1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn initially_true_predicate_settles_at_open() {
        let mut s = Session::open(
            "init",
            2,
            &["x".to_string()],
            &[set(&[("x", 1)]), set(&[("x", 1)])],
            &[pred(
                "now",
                WireMode::Conjunctive,
                &[(0, "x", "=", 1), (1, "x", "=", 1)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        let v = s.take_initial_verdicts();
        assert_eq!(v.len(), 1);
        match &v[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[0, 0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn open_validates_predicates() {
        let bad = |preds: &[WirePredicate]| {
            Session::open(
                "b",
                2,
                &["x".to_string()],
                &[],
                preds,
                SessionLimits::default(),
            )
            .err()
            .unwrap()
        };
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[(9, "x", "=", 1)])]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[(0, "y", "=", 1)])]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[(0, "x", "~", 1)])]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[
                pred("p", WireMode::Conjunctive, &[(0, "x", "=", 1)]),
                pred("p", WireMode::Disjunctive, &[(1, "x", "=", 1)]),
            ]),
            SessionError::BadOpen(_)
        ));
        assert!(matches!(
            bad(&[pred("p", WireMode::Conjunctive, &[])]),
            SessionError::BadOpen(_)
        ));
        // The exact messages, which every role sends alike.
        let message = |processes: usize, initial: &[BTreeMap<String, i64>], p: &[WirePredicate]| {
            let x = ["x".to_string()];
            Session::open("b", processes, &x, initial, p, SessionLimits::default())
                .err()
                .unwrap()
                .to_string()
        };
        let conj = |clauses: &[(usize, &str, &str, i64)]| pred("p", WireMode::Conjunctive, clauses);
        assert_eq!(message(0, &[], &[]), "bad open: zero processes");
        assert_eq!(
            message(1, &[set(&[]), set(&[])], &[]),
            "bad open: 2 initial maps for 1 processes"
        );
        assert_eq!(
            message(2, &[set(&[("y", 1)])], &[]),
            "bad open: undeclared variable 'y' in initial"
        );
        assert_eq!(
            message(2, &[], &[conj(&[(9, "x", "=", 1)])]),
            "bad open: predicate 'p': process 9 out of range"
        );
        assert_eq!(
            message(2, &[], &[conj(&[(0, "y", "=", 1)])]),
            "bad open: predicate 'p': undeclared variable 'y'"
        );
        assert_eq!(
            message(2, &[], &[conj(&[(0, "x", "~", 1)])]),
            "bad open: predicate 'p': unknown operator '~'"
        );
        assert_eq!(
            message(2, &[], &[conj(&[])]),
            "bad open: predicate 'p' has no clauses"
        );
        assert_eq!(
            message(
                2,
                &[],
                &[conj(&[(0, "x", "=", 1)]), conj(&[(1, "x", "=", 1)])]
            ),
            "bad open: duplicate predicate id 'p'"
        );
    }

    #[test]
    fn distributed_opens_accept_conjunctive_predicates_only() {
        let x = ["x".to_string()];
        let disjunctive = pred("d", WireMode::Disjunctive, &[(0, "x", "=", 1)]);
        let pattern = pattern_pred("pat", &[(None, "x", 1, false)]);
        for p in [disjunctive, pattern] {
            let refused = validate_open(2, &x, &[], std::slice::from_ref(&p), true);
            assert_eq!(
                refused.err().unwrap().to_string(),
                format!(
                    "bad open: predicate '{}': distributed sessions support conjunctive predicates only",
                    p.id
                )
            );
            assert!(validate_open(2, &x, &[], &[p], false).is_ok());
        }
    }

    /// Per-process tables for a width no frame could ever address would
    /// abort the monitor on allocation — and the WAL would replay the
    /// open on every restart.
    #[test]
    fn oversized_opens_are_refused_before_allocating() {
        let err = Session::open("s", 1 << 40, &[], &[], &[], SessionLimits::default());
        let message = err.err().unwrap().to_string();
        assert!(message.starts_with("bad open: "), "{message}");
        // Wide enough to address, but three predicates' tables exceed
        // the frame budget.
        let x = ["x".to_string()];
        let preds: Vec<WirePredicate> = (0..3)
            .map(|i| pred(&format!("p{i}"), WireMode::Conjunctive, &[(0, "x", "=", 1)]))
            .collect();
        let err = Session::open(
            "s",
            MAX_FRAME_BYTES / 2,
            &x,
            &[],
            &preds,
            SessionLimits::default(),
        );
        let message = err.err().unwrap().to_string();
        assert!(
            message.starts_with("bad open: ") && message.contains("3 predicates"),
            "{message}"
        );
    }

    /// Two processes sharing `unlock`/`lock` flags: the session must
    /// flag the unlock/lock inversion even though the delivered order
    /// (lock before unlock) never exhibits it — the two are concurrent.
    fn inversion_session() -> Session {
        Session::open(
            "inv",
            2,
            &["unlock".to_string(), "lock".to_string()],
            &[],
            &[pattern_pred(
                "inversion",
                &[(Some(1), "unlock", 1, false), (Some(0), "lock", 1, false)],
            )],
            SessionLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn pattern_predicts_a_reordering_the_delivered_order_never_shows() {
        let mut s = inversion_session();
        // P0 locks first (delivered order: lock, then unlock)…
        assert!(s
            .event(0, vc(&[1, 0]), &set(&[("lock", 1)]))
            .unwrap()
            .is_empty());
        // …but P1's unlock is *concurrent*, so some linearization puts
        // it first: the inversion fires the moment the unlock arrives.
        let v = s.event(1, vc(&[0, 1]), &set(&[("unlock", 1)])).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].predicate, "inversion");
        assert!(matches!(v[0].verdict, OnlineVerdict::Detected(_)));
    }

    #[test]
    fn pattern_respects_happened_before() {
        let mut s = inversion_session();
        // P1 unlocks…
        s.event(1, vc(&[0, 1]), &set(&[("unlock", 0)])).unwrap();
        // …and P0's lock causally *follows* a plain P1 event, while the
        // unlock=1 event causally follows the lock: no linearization
        // has unlock=1 before lock=1.
        s.event(0, vc(&[1, 1]), &set(&[("lock", 1)])).unwrap();
        s.event(1, vc(&[1, 2]), &set(&[("unlock", 1)])).unwrap();
        let mut verdicts = s.finish_process(0).unwrap();
        verdicts.extend(s.finish_process(1).unwrap());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn pattern_atoms_match_deltas_not_state() {
        // P0 sets x=1 once; a later event leaves x alone. The pattern
        // x=1 -> x=1 needs *two events* assigning x=1, so carrying the
        // value in the state must not fire it.
        let mut s = Session::open(
            "deltas",
            1,
            &["x".to_string(), "y".to_string()],
            &[],
            &[pattern_pred(
                "twice",
                &[(None, "x", 1, false), (None, "x", 1, false)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        s.event(0, vc(&[1]), &set(&[("x", 1)])).unwrap();
        s.event(0, vc(&[2]), &set(&[("y", 5)])).unwrap();
        let v = s.finish_process(0).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict, OnlineVerdict::Impossible);
    }

    #[test]
    fn pattern_open_validation() {
        let bad = |preds: &[WirePredicate]| {
            Session::open(
                "b",
                2,
                &["x".to_string()],
                &[],
                preds,
                SessionLimits::default(),
            )
            .err()
            .unwrap()
        };
        // Undeclared variable.
        assert!(matches!(
            bad(&[pattern_pred("p", &[(None, "y", 1, false)])]),
            SessionError::BadOpen(_)
        ));
        // Process out of range.
        assert!(matches!(
            bad(&[pattern_pred("p", &[(Some(9), "x", 1, false)])]),
            SessionError::BadOpen(_)
        ));
        // Leading causal edge.
        assert!(matches!(
            bad(&[pattern_pred("p", &[(None, "x", 1, true)])]),
            SessionError::BadOpen(_)
        ));
        // Pattern mode without a body.
        let headless = WirePredicate {
            id: "p".into(),
            mode: WireMode::Pattern,
            clauses: Vec::new(),
            pattern: None,
        };
        assert!(matches!(bad(&[headless]), SessionError::BadOpen(_)));
        // A pattern body on a clause mode.
        let mut mixed = pattern_pred("p", &[(None, "x", 1, false)]);
        mixed.mode = WireMode::Conjunctive;
        mixed.clauses = vec![WireClause {
            process: 0,
            var: "x".into(),
            op: "=".into(),
            value: 1,
        }];
        assert!(matches!(bad(&[mixed]), SessionError::BadOpen(_)));
    }

    #[test]
    fn pattern_snapshot_restore_mid_run_resumes_to_the_same_verdict() {
        let mut original = inversion_session();
        original
            .event(0, vc(&[1, 0]), &set(&[("lock", 1)]))
            .unwrap();

        let snap = original.snapshot();
        let mut restored = Session::restore(&snap, SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot is stable");

        for s in [&mut original, &mut restored] {
            let v = s.event(1, vc(&[0, 1]), &set(&[("unlock", 1)])).unwrap();
            assert_eq!(v.len(), 1);
            assert!(matches!(v[0].verdict, OnlineVerdict::Detected(_)));
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_restore_mid_run_resumes_to_the_same_verdict() {
        // Freeze mid-run with a held event and a pending predicate, then
        // finish both the original and the restored copy identically.
        let mut original = fig2_session();
        original.event(1, vc(&[0, 1]), &set(&[("x1", 1)])).unwrap();
        original.event(1, vc(&[2, 2]), &set(&[("x1", 2)])).unwrap(); // held
        assert_eq!(original.held(), 1);

        let snap = original.snapshot();
        let mut restored = Session::restore(&snap, SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot is stable");
        assert_eq!(restored.held(), 1);
        assert_eq!(restored.delivered(), 1);

        for s in [&mut original, &mut restored] {
            assert!(s
                .event(0, vc(&[1, 0]), &set(&[("x0", 1)]))
                .unwrap()
                .is_empty());
            let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
            assert_eq!(v.len(), 1);
            match &v[0].verdict {
                OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 1]),
                other => panic!("expected detection, got {other:?}"),
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn restore_preserves_emitted_flags_and_settled_verdicts() {
        let mut s = fig2_session();
        s.event(1, vc(&[0, 1]), &set(&[("x1", 1)])).unwrap();
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
        assert_eq!(v.len(), 1);

        let restored = Session::restore(&s.snapshot(), SessionLimits::default()).unwrap();
        // The settled verdict is still visible…
        let all = restored.all_verdicts();
        assert!(matches!(all[0].verdict, OnlineVerdict::Detected(_)));
        // …but was already emitted, so closing emits nothing new.
        let mut restored = restored;
        let (verdicts, discarded) = restored.close();
        assert!(verdicts.is_empty());
        assert_eq!(discarded, 0);
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let s = fig2_session();
        let good = s.snapshot();
        let mut bad = good.clone();
        bad.frontier = vec![0];
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
        let mut bad = good.clone();
        bad.monitors.clear();
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
        let mut bad = good;
        bad.held.push(crate::persist::HeldEventSnapshot {
            process: 7,
            clock: vec![1, 1],
            set: Default::default(),
        });
        assert!(Session::restore(&bad, SessionLimits::default()).is_err());
    }

    fn fig2_session_with(limits: SessionLimits) -> Session {
        Session::open(
            "fig2",
            2,
            &["x0".to_string(), "x1".to_string()],
            &[],
            &[pred(
                "ef",
                WireMode::Conjunctive,
                &[(0, "x0", "=", 2), (1, "x1", "=", 1)],
            )],
            limits,
        )
        .unwrap()
    }

    /// Fig. 2(a) with extra clause-false noise events: the slicing
    /// filter drops them before the detector, yet every step's verdicts
    /// match the unsliced session exactly, and so do the detector
    /// snapshots — the states are interchangeable.
    #[test]
    fn sliced_and_unsliced_sessions_emit_identical_verdicts() {
        let mut sliced = fig2_session_with(SessionLimits::default());
        let mut plain = fig2_session_with(SessionLimits {
            slice: false,
            ..SessionLimits::default()
        });
        type Step<'a> = (usize, &'a [u32], &'a [(&'a str, i64)]);
        let stream: &[Step] = &[
            (1, &[0, 1], &[("x1", 3)]), // clause false: filtered
            (1, &[0, 2], &[("x1", 1)]), // true
            (0, &[1, 0], &[("x0", 1)]), // clause false: filtered
            (0, &[2, 0], &[]),          // untouched, still false: filtered
            (0, &[3, 0], &[("x0", 2)]), // true → detection
        ];
        for &(p, clock, updates) in stream {
            let a = sliced.event(p, vc(clock), &set(updates)).unwrap();
            let b = plain.event(p, vc(clock), &set(updates)).unwrap();
            assert_eq!(a.len(), b.len());
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.predicate, vb.predicate);
                assert_eq!(va.verdict, vb.verdict);
            }
        }
        let all = sliced.all_verdicts();
        match &all[0].verdict {
            OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[3, 2]),
            other => panic!("expected detection, got {other:?}"),
        }
        // Identical detector states: only the slice record differs.
        let (snap_a, snap_b) = (sliced.snapshot(), plain.snapshot());
        assert_eq!(snap_a.monitors[0].state, snap_b.monitors[0].state);
        assert!(snap_a.monitors[0].slice.is_some());
        assert!(snap_b.monitors[0].slice.is_none());
    }

    #[test]
    fn slice_stats_are_watermarked_deltas() {
        let mut s = fig2_session_with(SessionLimits::default());
        assert!(s.take_slice_stats().is_empty(), "nothing observed yet");
        s.event(1, vc(&[0, 1]), &set(&[("x1", 3)])).unwrap(); // filtered
        s.event(1, vc(&[0, 2]), &set(&[("x1", 1)])).unwrap(); // member
        assert_eq!(s.take_slice_stats(), vec![("ef".to_string(), 2, 1)]);
        assert!(s.take_slice_stats().is_empty(), "watermark advanced");
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap(); // filtered
        assert_eq!(s.take_slice_stats(), vec![("ef".to_string(), 1, 1)]);
    }

    #[test]
    fn sliced_snapshot_round_trips_with_pending_skips() {
        let mut original = fig2_session_with(SessionLimits::default());
        // Two filtered events leave pending skip counts owed to the
        // detector; freeze in exactly that state.
        original.event(1, vc(&[0, 1]), &set(&[("x1", 3)])).unwrap();
        original.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap();
        let snap = original.snapshot();
        assert!(snap.monitors[0].slice.is_some());

        let mut restored = Session::restore(&snap, SessionLimits::default()).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot is stable");

        for s in [&mut original, &mut restored] {
            assert!(s
                .event(1, vc(&[0, 2]), &set(&[("x1", 1)]))
                .unwrap()
                .is_empty());
            let v = s.event(0, vc(&[2, 0]), &set(&[("x0", 2)])).unwrap();
            assert_eq!(v.len(), 1);
            match &v[0].verdict {
                OnlineVerdict::Detected(cut) => assert_eq!(cut.counters(), &[2, 2]),
                other => panic!("expected detection, got {other:?}"),
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn sliced_snapshot_requires_a_slicing_filter_to_restore() {
        let mut s = fig2_session_with(SessionLimits::default());
        s.event(0, vc(&[1, 0]), &set(&[("x0", 1)])).unwrap(); // filtered: skip pending
        let snap = s.snapshot();
        // The detector's counters owe the pending skip to the filter —
        // restoring without one would diverge from the unsliced stream.
        let err = Session::restore(
            &snap,
            SessionLimits {
                slice: false,
                ..SessionLimits::default()
            },
        );
        assert!(err.is_err());
        // A pre-slicing snapshot (no slice record) restores fine into a
        // slicing session: the filter is rebuilt from the states.
        let mut old = snap;
        old.monitors[0].slice = None;
        let restored = Session::restore(&old, SessionLimits::default());
        assert!(restored.is_ok());
    }

    #[test]
    fn multiple_clauses_on_one_process_fold_with_the_mode() {
        // Conjunctive: x>=1 ∧ x<=3 on P0.
        let mut s = Session::open(
            "fold",
            1,
            &["x".to_string()],
            &[],
            &[pred(
                "band",
                WireMode::Conjunctive,
                &[(0, "x", ">=", 1), (0, "x", "<=", 3)],
            )],
            SessionLimits::default(),
        )
        .unwrap();
        assert!(s.event(0, vc(&[1]), &set(&[("x", 9)])).unwrap().is_empty());
        let v = s.event(0, vc(&[2]), &set(&[("x", 2)])).unwrap();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].verdict, OnlineVerdict::Detected(_)));
    }
}
