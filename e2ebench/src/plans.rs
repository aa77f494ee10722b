//! Seeded session plans for the streaming workloads and the ladder,
//! each with the ground truth its verdicts are checked against.

use crate::Rng;
use hb_computation::{Computation, ComputationBuilder, EventId};
use hb_ctl::{compile_state_formula, evaluate, parse, Evidence, Formula};
use hb_pattern::{chain_oracle, PatternEvent};
use hb_predicates::Predicate;
use hb_sim::{causal_shuffle, random_computation, RandomSpec};
use hb_tracefmt::wire::{
    ClientMsg, EventFrame, WireAtom, WireClause, WireDistRole, WireMode, WirePattern,
    WirePredicate, WireVerdict,
};
use std::collections::BTreeMap;

/// What a predicate's final verdict must be.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Detected at exactly this cut (the least satisfying cut).
    Cut(Vec<u32>),
    /// Detected at a consistent cut satisfying the plan's formula for
    /// this predicate (disjunctive predicates: any satisfying cut).
    Satisfying,
    /// Detected (pattern predicates: the cut is the matcher's choice).
    Detected,
    Impossible,
}

/// One session: its open parameters, the events in send order, and
/// the expected verdict of every predicate.
pub struct Plan {
    pub processes: usize,
    pub vars: Vec<String>,
    pub predicates: Vec<WirePredicate>,
    /// `EF(...)` per state predicate, `None` for patterns.
    pub formulas: Vec<Option<String>>,
    pub comp: Computation,
    pub frames: Vec<EventFrame>,
    pub expect: Vec<Expect>,
    /// Worker partitions of a distributed session; 0 = plain.
    pub dist: usize,
    /// Frame index of the event that completes the planted witness.
    pub completes: Option<usize>,
}

fn clause(process: usize, var: &str, op: &str, value: i64) -> WireClause {
    WireClause {
        process,
        var: var.into(),
        op: op.into(),
        value,
    }
}

fn state_pred(id: &str, mode: WireMode, clauses: Vec<WireClause>) -> WirePredicate {
    WirePredicate {
        id: id.into(),
        mode,
        clauses,
        pattern: None,
    }
}

fn pattern_pred(id: &str, atoms: &[(usize, &str, i64)]) -> WirePredicate {
    WirePredicate {
        id: id.into(),
        mode: WireMode::Pattern,
        clauses: Vec::new(),
        pattern: Some(WirePattern {
            atoms: atoms
                .iter()
                .map(|&(p, var, value)| WireAtom {
                    process: Some(p),
                    var: var.into(),
                    op: "=".into(),
                    value,
                    causal: false,
                })
                .collect(),
        }),
    }
}

/// `EF(...)` text of a state predicate, in the `hb_ctl` grammar.
fn ef_formula(p: &WirePredicate) -> Option<String> {
    let sep = match p.mode {
        WireMode::Conjunctive => " & ",
        WireMode::Disjunctive => " | ",
        WireMode::Pattern => return None,
    };
    let body: Vec<String> = p
        .clauses
        .iter()
        .map(|c| format!("{}@{} {} {}", c.var, c.process, c.op, c.value))
        .collect();
    Some(format!("EF({})", body.join(sep)))
}

pub fn op_holds(op: &str, lhs: i64, rhs: i64) -> bool {
    match op {
        "=" | "==" => lhs == rhs,
        "!=" => lhs != rhs,
        "<" => lhs < rhs,
        "<=" => lhs <= rhs,
        ">" => lhs > rhs,
        ">=" => lhs >= rhs,
        _ => false,
    }
}

/// Bit `k` set when the event's assignments match pattern atom `k`.
pub fn atom_mask(p: &WirePredicate, process: usize, set: &BTreeMap<String, i64>) -> u64 {
    let Some(pattern) = &p.pattern else { return 0 };
    let mut mask = 0;
    for (k, a) in pattern.atoms.iter().enumerate() {
        if a.process.is_some_and(|ap| ap != process) {
            continue;
        }
        if set
            .get(&a.var)
            .is_some_and(|&v| op_holds(&a.op, v, a.value))
        {
            mask |= 1 << k;
        }
    }
    mask
}

/// Ground truth for every predicate: `hb_ctl::evaluate` on the
/// computation for state predicates, the `hb_pattern` chain oracle for
/// patterns.
fn expectations(
    comp: &Computation,
    predicates: &[WirePredicate],
    frames: &[EventFrame],
) -> Result<(Vec<Option<String>>, Vec<Expect>), String> {
    let mut formulas = Vec::new();
    let mut expect = Vec::new();
    for p in predicates {
        let f = ef_formula(p);
        let e = match &f {
            Some(text) => {
                let formula = parse(text).map_err(|e| format!("{text}: {e}"))?;
                let eval = evaluate(comp, &formula).map_err(|e| format!("{text}: {e}"))?;
                match (eval.verdict, p.mode, eval.evidence) {
                    (false, _, _) => Expect::Impossible,
                    (true, WireMode::Conjunctive, Some(Evidence::Cut(c))) => {
                        Expect::Cut(c.counters().to_vec())
                    }
                    (true, WireMode::Conjunctive, other) => {
                        return Err(format!("{text}: conjunctive EF without a cut: {other:?}"))
                    }
                    (true, _, _) => Expect::Satisfying,
                }
            }
            None => {
                let events: Vec<PatternEvent> = frames
                    .iter()
                    .map(|fr| PatternEvent {
                        process: fr.p,
                        clock: fr.clock.clone(),
                        mask: atom_mask(p, fr.p, &fr.set),
                    })
                    .collect();
                let causal: Vec<bool> = p
                    .pattern
                    .as_ref()
                    .map(|pt| pt.atoms.iter().map(|a| a.causal).collect())
                    .unwrap_or_default();
                if chain_oracle(&causal, &events) {
                    Expect::Detected
                } else {
                    Expect::Impossible
                }
            }
        };
        formulas.push(f);
        expect.push(e);
    }
    Ok((formulas, expect))
}

impl Plan {
    /// Checks a session's final verdicts against the plan.
    pub fn check(&self, verdicts: &BTreeMap<String, WireVerdict>) -> Result<(), String> {
        if verdicts.len() != self.predicates.len() {
            return Err(format!(
                "{} verdicts for {} predicates",
                verdicts.len(),
                self.predicates.len()
            ));
        }
        for (i, p) in self.predicates.iter().enumerate() {
            let got = verdicts
                .get(&p.id)
                .ok_or_else(|| format!("no verdict for '{}'", p.id))?;
            self.check_one(i, got)
                .map_err(|e| format!("predicate '{}': {e}", p.id))?;
        }
        Ok(())
    }

    /// Checks one predicate's verdict.
    pub fn check_one(&self, i: usize, got: &WireVerdict) -> Result<(), String> {
        let ok = match (&self.expect[i], got) {
            (Expect::Cut(c), WireVerdict::Detected(g)) => c == g,
            (Expect::Detected, WireVerdict::Detected(_)) => true,
            (Expect::Impossible, WireVerdict::Impossible) => true,
            (Expect::Satisfying, WireVerdict::Detected(g)) => {
                let text = self.formulas[i].as_deref().ok_or("no formula")?;
                let Ok(Formula::Ef(inner)) = parse(text) else {
                    return Err(format!("{text} is not an EF formula"));
                };
                let pred = compile_state_formula(&self.comp, &inner).map_err(|e| e.to_string())?;
                let cut = hb_computation::Cut::from_counters(g.clone());
                self.comp.in_bounds(&cut)
                    && self.comp.is_consistent(&cut)
                    && pred.eval(&self.comp, &cut)
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("verdict {got:?}, expected {:?}", self.expect[i]))
        }
    }

    pub fn open_msg(&self, session: &str) -> ClientMsg {
        ClientMsg::Open {
            session: session.to_string(),
            processes: self.processes,
            vars: self.vars.clone(),
            initial: Vec::new(),
            predicates: self.predicates.clone(),
            dist: (self.dist > 0).then_some(WireDistRole::Distribute { k: self.dist }),
        }
    }

    /// The event frames as wire messages: singles when `batch == 1`,
    /// otherwise `events` frames of up to `batch` events.
    pub fn event_msgs(&self, session: &str, batch: usize) -> Vec<ClientMsg> {
        if batch <= 1 {
            self.frames
                .iter()
                .map(|f| f.clone().into_event(session))
                .collect()
        } else {
            self.frames
                .chunks(batch)
                .map(|c| ClientMsg::Events {
                    session: session.to_string(),
                    events: c.to_vec(),
                })
                .collect()
        }
    }
}

fn frame(comp: &Computation, e: EventId, set: BTreeMap<String, i64>) -> EventFrame {
    EventFrame {
        p: e.process,
        clock: comp.clock(e).components().to_vec(),
        set,
    }
}

/// Processes of a `stream-durable` session.
pub const STREAM_PROCESSES: usize = 8;

/// A `stream-durable` session: an 8-process random computation over
/// values `0..32`, sent as a causal shuffle (window 8, so the causal
/// buffer holds events), with eight predicates: sparse conjunctive
/// ones the slice filter can thin, disjunctive ones, and a pattern.
pub fn stream_plan(seed: u64, events_per_process: usize) -> Result<Plan, String> {
    let n = STREAM_PROCESSES;
    let comp = random_computation(RandomSpec {
        processes: n,
        events_per_process,
        send_percent: 30,
        value_range: 32,
        seed,
    });
    let x = comp
        .vars()
        .lookup("x")
        .ok_or("random computation without x")?;
    let frames: Vec<EventFrame> = causal_shuffle(&comp, seed ^ 0x5eed_cafe, 8)
        .into_iter()
        .map(|e| {
            let v = comp.local_state(e.process, e.index as u32 + 1).get(x);
            frame(&comp, e, [("x".to_string(), v)].into_iter().collect())
        })
        .collect();
    use WireMode::{Conjunctive as C, Disjunctive as D};
    let predicates = vec![
        state_pred(
            "pair",
            C,
            vec![clause(0, "x", "=", 31), clause(1, "x", "=", 31)],
        ),
        state_pred(
            "triple",
            C,
            vec![
                clause(2, "x", "=", 30),
                clause(3, "x", "=", 30),
                clause(4, "x", "=", 30),
            ],
        ),
        state_pred("all", C, (0..n).map(|p| clause(p, "x", "=", 31)).collect()),
        state_pred(
            "range",
            C,
            vec![clause(5, "x", "<", 2), clause(6, "x", ">", 29)],
        ),
        state_pred(
            "never",
            C,
            vec![clause(3, "x", "=", -1), clause(7, "x", "=", 31)],
        ),
        state_pred(
            "either",
            D,
            vec![clause(0, "x", "=", 31), clause(7, "x", "=", 30)],
        ),
        state_pred(
            "neither",
            D,
            vec![clause(1, "x", "<", 0), clause(2, "x", ">", 31)],
        ),
        pattern_pred("order", &[(0, "x", 31), (1, "x", 30)]),
    ];
    let (formulas, expect) = expectations(&comp, &predicates, &frames)?;
    Ok(Plan {
        processes: n,
        vars: vec!["x".into()],
        predicates,
        formulas,
        comp,
        frames,
        expect,
        dist: 0,
        completes: None,
    })
}

/// The kinds of planted `gateway-lag` session, in the mix's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LagKind {
    /// Every process plants `hit = 1` once; the last hit sent completes
    /// the conjunctive witness.
    ConjDetected,
    /// One process never hits: Impossible once the session closes.
    ConjImpossible,
    /// `a = 1` on p0 and `b = 1` on p1, concurrent: the pattern
    /// `0:a=1 -> 1:b=1` matches once both arrive.
    PatternDetected,
    /// `b` happens before `a` (a message from p1 to p0): no
    /// linearization puts `a` first.
    PatternImpossible,
}

/// Picks a kind: 45% conjunctive detected, 20% conjunctive impossible,
/// 25% pattern detected, 10% pattern impossible.
pub fn lag_kind(rng: &mut Rng) -> LagKind {
    match rng.below(20) {
        0..=8 => LagKind::ConjDetected,
        9..=12 => LagKind::ConjImpossible,
        13..=17 => LagKind::PatternDetected,
        _ => LagKind::PatternImpossible,
    }
}

/// A short planted `gateway-lag` session: 2–4 processes, 4–7 events
/// each, sent in a random interleaving that respects causality (so the
/// completing event is known). A share of conjunctive sessions opens
/// distributed over `k = 2` workers.
pub fn lag_plan(rng: &mut Rng, kind: LagKind) -> Plan {
    let n = 2 + rng.below(3);
    let m = 4 + rng.below(4);
    let pattern = matches!(kind, LagKind::PatternDetected | LagKind::PatternImpossible);
    // Planted positions (1-based event index per process).
    let hits: Vec<Option<usize>> = (0..n)
        .map(|p| {
            let skip = kind == LagKind::ConjImpossible && p == n - 1;
            (!pattern && !skip).then(|| 1 + rng.below(m))
        })
        .collect();
    let (a_at, b_at) = (1 + rng.below(m), 1 + rng.below(m));
    let mut b = ComputationBuilder::new(n);
    let xv = b.var("x");
    let hv = b.var("hit");
    let av = b.var("a");
    let bv = b.var("b");
    // Per-process event assignments, in process order.
    let mut sets: Vec<Vec<BTreeMap<String, i64>>> = vec![Vec::new(); n];
    for (p, events) in sets.iter_mut().enumerate() {
        for k in 1..=m {
            let mut set: BTreeMap<String, i64> = BTreeMap::new();
            set.insert("x".into(), k as i64);
            if !pattern {
                set.insert("hit".into(), i64::from(hits[p] == Some(k)));
            }
            if pattern && p == 0 && k == a_at {
                set.insert("a".into(), 1);
            }
            if pattern && p == 1 && k == b_at {
                set.insert("b".into(), 1);
            }
            events.push(set);
        }
    }
    // Random causal interleaving; for PatternImpossible, p1's b event
    // sends a message that p0's a event receives.
    let mut next = vec![0usize; n];
    let mut token = None;
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(n * m);
    while order.len() < n * m {
        let p = rng.below(n);
        let k = next[p];
        if k >= m {
            continue;
        }
        let is_recv = kind == LagKind::PatternImpossible && p == 0 && k + 1 == a_at;
        if is_recv && token.is_none() {
            continue; // the message is not sent yet
        }
        let set = &sets[p][k];
        let ids = [("x", xv), ("hit", hv), ("a", av), ("b", bv)];
        let apply = |d| assign(d, set, &ids);
        if is_recv {
            apply(b.receive(0, token.take().expect("checked above"))).done();
        } else if kind == LagKind::PatternImpossible && p == 1 && k + 1 == b_at {
            token = Some(apply(b.send(1)).done_send());
        } else {
            apply(b.internal(p)).done();
        }
        order.push((p, k));
        next[p] += 1;
    }
    let comp = b
        .finish()
        .expect("planted lag session is a valid computation");
    let frames: Vec<EventFrame> = order
        .iter()
        .map(|&(p, k)| frame(&comp, EventId::new(p, k), sets[p][k].clone()))
        .collect();
    let (predicates, expect, completes) = if pattern {
        let pred = pattern_pred("order", &[(0, "a", 1), (1, "b", 1)]);
        let last = order
            .iter()
            .rposition(|&(p, k)| (p == 0 && k + 1 == a_at) || (p == 1 && k + 1 == b_at))
            .expect("both pattern events are planted");
        if kind == LagKind::PatternDetected {
            (vec![pred], vec![Expect::Detected], Some(last))
        } else {
            (vec![pred], vec![Expect::Impossible], None)
        }
    } else {
        let pred = state_pred(
            "hits",
            WireMode::Conjunctive,
            (0..n).map(|p| clause(p, "hit", "=", 1)).collect(),
        );
        if kind == LagKind::ConjDetected {
            let last = order
                .iter()
                .rposition(|&(p, k)| hits[p] == Some(k + 1))
                .expect("every process hits");
            let cut: Vec<u32> = hits.iter().map(|h| h.expect("planted") as u32).collect();
            (vec![pred], vec![Expect::Cut(cut)], Some(last))
        } else {
            (vec![pred], vec![Expect::Impossible], None)
        }
    };
    let formulas = predicates.iter().map(ef_formula).collect();
    // Three in ten conjunctive sessions run distributed (k = 2).
    let dist = if !pattern && rng.below(10) < 3 { 2 } else { 0 };
    Plan {
        processes: n,
        vars: vec!["x".into(), "hit".into(), "a".into(), "b".into()],
        predicates,
        formulas,
        comp,
        frames,
        expect,
        dist,
        completes,
    }
}

fn assign<'b>(
    mut d: hb_computation::EventDraft<'b>,
    set: &BTreeMap<String, i64>,
    ids: &[(&str, hb_computation::VarId)],
) -> hb_computation::EventDraft<'b> {
    for (var, &v) in set {
        if let Some(&(_, id)) = ids.iter().find(|(name, _)| name == var) {
            d = d.set(id, v);
        }
    }
    d
}

/// Cross-checks a planted plan against `hb_ctl::evaluate` and the
/// pattern oracle, so a planting mistake cannot pass as a system bug.
pub fn verify_planted(plan: &Plan) -> Result<(), String> {
    let (_, expect) = expectations(&plan.comp, &plan.predicates, &plan.frames)?;
    for (i, (planted, derived)) in plan.expect.iter().zip(&expect).enumerate() {
        let same = match (planted, derived) {
            (Expect::Cut(a), Expect::Cut(b)) => a == b,
            (Expect::Detected, Expect::Detected) | (Expect::Impossible, Expect::Impossible) => true,
            _ => false,
        };
        if !same {
            return Err(format!(
                "planted {:?} for '{}' but the oracle says {derived:?}",
                planted, plan.predicates[i].id
            ));
        }
    }
    Ok(())
}
