//! `offline-check`: the `hbtl check` path on a seeded corpus of JSON
//! trace texts. One request loads a trace (`from_json`), parses one
//! formula and runs `evaluate`; nothing of the service stack runs.

use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::{self, span};
use crate::Rng;
use hb_computation::Computation;
use hb_ctl::{compile_state_formula, evaluate, evaluate_nested, parse, Engine, Evidence, Formula};
use hb_detect::witness::{verify_af_counterexample, verify_eg_witness, verify_eu_witness};
use hb_predicates::Predicate;
use hb_sim::{random_computation, RandomSpec};
use hb_tracefmt::TraceFile;
use std::collections::HashMap;
use std::time::Instant;

/// Process counts, total-event sizes, message densities and value
/// ranges the corpus is stratified over: every seed gets the same mix
/// of shapes, and the seed varies only their contents.
const PROCESSES: [usize; 5] = [4, 6, 8, 12, 16];
const TOTAL_EVENTS: [usize; 3] = [600, 1200, 2400];
const SEND_PERCENT: [u8; 3] = [10, 30, 50];
const VALUE_RANGE: [i64; 3] = [4, 8, 16];
/// Large traces (all shape combinations above, crossed partially).
const LARGE_TRACES: usize = 30;
/// Small traces whose verdicts are cross-checked against the explicit
/// lattice model checker built in set-up.
const SMALL_TRACES: usize = 10;

/// One formula of the suite and the polynomial engine it must reach.
struct Query {
    text: String,
    formula: Formula,
    engine: Engine,
    /// The baseline model checker's verdict (small traces only).
    baseline: Option<bool>,
}

struct TraceText {
    text: String,
    events: usize,
    queries: Vec<Query>,
}

pub struct Corpus {
    traces: Vec<TraceText>,
    /// (trace, query) pairs in the seeded order requests cycle through.
    order: Vec<(usize, usize)>,
}

/// The formula suite for an `n`-process trace with values in
/// `0..range`: one formula per polynomial engine, all inside the
/// paper's fragment (e.g. `E[disj U conj]` would fall to the baseline).
fn suite(range: i64) -> Vec<(String, Engine)> {
    let top = range - 1;
    vec![
        (
            format!("EF(x@0 = {top} & x@1 = {top} & x@2 = {top} & x@3 = {top})"),
            Engine::ChaseGargEf,
        ),
        (
            format!("EG(x@0 != {top} & x@1 != {top})"),
            Engine::A1Incremental,
        ),
        (
            format!("AG(x@0 >= 0 & x@1 >= 0 & x@2 < {range})"),
            Engine::A2,
        ),
        (
            format!("E[x@0 != {top} U x@1 = {top} & x@2 = {top}]"),
            Engine::A3,
        ),
        (
            format!("A[x@0 != {top} | x@1 != {top} U x@2 = {top} | x@3 = {top}]"),
            Engine::AuIdentity,
        ),
        (
            format!("AF(x@0 = {top} & x@1 = {top})"),
            Engine::TokenInterval,
        ),
    ]
}

fn trace_text(spec: RandomSpec) -> (String, Computation) {
    let comp = random_computation(spec);
    (hb_tracefmt::to_json(&comp), comp)
}

/// Builds the corpus: JSON texts, formulas, and the baseline verdicts
/// of the small traces.
pub fn build(seed: u64) -> Result<Corpus, String> {
    let mut traces = Vec::new();
    for k in 0..LARGE_TRACES + SMALL_TRACES {
        let small = k >= LARGE_TRACES;
        let spec = if small {
            RandomSpec {
                processes: 4,
                events_per_process: 3,
                send_percent: 30,
                value_range: 3,
                seed: seed.wrapping_mul(1_000_003).wrapping_add(k as u64),
            }
        } else {
            let processes = PROCESSES[k % PROCESSES.len()];
            RandomSpec {
                processes,
                events_per_process: TOTAL_EVENTS[(k / PROCESSES.len()) % TOTAL_EVENTS.len()]
                    / processes,
                send_percent: SEND_PERCENT[(k + k / 5) % SEND_PERCENT.len()],
                value_range: VALUE_RANGE[(k / 3) % VALUE_RANGE.len()],
                seed: seed.wrapping_mul(1_000_003).wrapping_add(k as u64),
            }
        };
        let (text, comp) = trace_text(spec);
        let mut queries = Vec::new();
        for (f, engine) in suite(spec.value_range) {
            let formula = parse(&f).map_err(|e| format!("suite formula {f}: {e}"))?;
            let baseline = if small {
                Some(
                    evaluate_nested(&comp, &formula)
                        .map_err(|e| format!("baseline on {f}: {e}"))?
                        .verdict,
                )
            } else {
                None
            };
            queries.push(Query {
                text: f,
                formula,
                engine,
                baseline,
            });
        }
        traces.push(TraceText {
            text,
            events: comp.num_events(),
            queries,
        });
    }
    let mut order: Vec<(usize, usize)> = traces
        .iter()
        .enumerate()
        .flat_map(|(t, tr)| (0..tr.queries.len()).map(move |q| (t, q)))
        .collect();
    Rng::new(seed ^ 0x0ff1_c0de).shuffle(&mut order);
    Ok(Corpus { traces, order })
}

/// Checks an evaluation: the expected engine, the baseline verdict on
/// small traces, and the evidence against raw CTL semantics.
fn validate(
    comp: &Computation,
    q: &Query,
    verdict: bool,
    engine: Engine,
    ev: Option<&Evidence>,
) -> Result<(), String> {
    if engine != q.engine {
        return Err(format!("engine {engine}, expected {}", q.engine));
    }
    if let Some(b) = q.baseline {
        if b != verdict {
            return Err(format!(
                "verdict {verdict}, baseline model checker says {b}"
            ));
        }
    }
    let compile = |f: &Formula| compile_state_formula(comp, f).map_err(|e| e.to_string());
    let cut = |ev: Option<&Evidence>| match ev {
        Some(Evidence::Cut(c)) => Ok(c.clone()),
        other => Err(format!("expected a cut as evidence, got {other:?}")),
    };
    let path = |ev: Option<&Evidence>| match ev {
        Some(Evidence::Path(p)) => Ok(p.clone()),
        other => Err(format!("expected a path as evidence, got {other:?}")),
    };
    match &q.formula {
        Formula::Ef(p) if verdict => {
            let (p, g) = (compile(p)?, cut(ev)?);
            if !comp.is_consistent(&g) || !p.eval(comp, &g) {
                return Err(format!("EF witness {g} is not a satisfying consistent cut"));
            }
        }
        Formula::Ag(p) if !verdict => {
            let (p, g) = (compile(p)?, cut(ev)?);
            if !comp.is_consistent(&g) || p.eval(comp, &g) {
                return Err(format!(
                    "AG counterexample {g} does not violate the invariant"
                ));
            }
        }
        Formula::Eg(p) if verdict => {
            verify_eg_witness(comp, &compile(p)?, &path(ev)?).map_err(|e| e.to_string())?
        }
        Formula::Af(p) if !verdict => {
            verify_af_counterexample(comp, &compile(p)?, &path(ev)?).map_err(|e| e.to_string())?
        }
        Formula::Eu(p, q) if verdict => {
            verify_eu_witness(comp, &compile(p)?, &compile(q)?, &path(ev)?)
                .map_err(|e| e.to_string())?
        }
        Formula::Au(p, q) if !verdict => {
            // A path that avoids q and either is maximal or ends where
            // p fails too: either way A[p U q] is refuted.
            let (p, q, path) = (compile(p)?, compile(q)?, path(ev)?);
            let last = path.last().cloned().ok_or("empty AU counterexample")?;
            hb_detect::witness::verify_step_path(comp, &comp.initial_cut(), &last, &path)
                .map_err(|e| e.to_string())?;
            if path.iter().any(|g| q.eval(comp, g)) {
                return Err("AU counterexample meets q".into());
            }
            if last != comp.final_cut() && p.eval(comp, &last) {
                return Err("AU counterexample ends where p still holds".into());
            }
        }
        _ => {}
    }
    Ok(())
}

/// One request, untraced: the `hbtl check` path.
fn check(text: &str, formula: &str) -> Result<(Computation, hb_ctl::Evaluation), String> {
    let comp = hb_tracefmt::from_json(text).map_err(|e| e.to_string())?;
    let f = parse(formula).map_err(|e| e.to_string())?;
    let eval = evaluate(&comp, &f).map_err(|e| e.to_string())?;
    Ok((comp, eval))
}

/// One request with a span around each layer call.
fn check_traced(
    text: &str,
    formula: &str,
    engine: Engine,
    request: u64,
) -> Result<(Computation, hb_ctl::Evaluation), String> {
    let _root = span("offline.check", request);
    let file: TraceFile = {
        let _s = span("tracefmt.json_parse", request);
        serde_json::from_str(text).map_err(|e| e.to_string())?
    };
    let comp = {
        let _s = span("computation.build", request);
        file.to_computation().map_err(|e| e.to_string())?
    };
    let f = {
        let _s = span("ctl.parse", request);
        parse(formula).map_err(|e| e.to_string())?
    };
    let eval = {
        let _s = span(engine_span(engine), request);
        evaluate(&comp, &f).map_err(|e| e.to_string())?
    };
    Ok((comp, eval))
}

fn engine_span(engine: Engine) -> &'static str {
    match engine {
        Engine::ChaseGargEf => "detect.chase_garg_ef",
        Engine::A1Incremental => "detect.a1",
        Engine::A2 => "detect.a2",
        Engine::A3 => "detect.a3",
        Engine::AuIdentity => "detect.au_identity",
        Engine::TokenInterval => "detect.token_interval",
        _ => "detect.other",
    }
}

/// One pass over the whole request order: every cycle does identical
/// work, so cycles differ only by interference.
#[derive(Default)]
pub struct Cycle {
    pub reference_secs: f64,
    /// Peak resident-set growth over the inputs during the cycle, MiB.
    pub rss_mb: Option<f64>,
    pub events: u64,
    pub secs: f64,
    pub check_ms: Samples,
}

/// What the request loop measured.
pub struct Outcome {
    pub check_ms: Samples,
    /// Complete cycles first; the last entry may be partial.
    pub cycles: Vec<Cycle>,
    /// Trace events per request, keyed by request id (for traced runs).
    pub events_by_request: Vec<(u64, usize)>,
}

/// Requests of the warm-up pass.
const WARM_UP_REQUESTS: usize = 200;

/// Set-up's warm-up: a fixed number of requests, so set-up time still
/// moves with their speed.
pub fn warm_up(corpus: &Corpus, report: &mut Report) {
    run_requests(corpus, None, WARM_UP_REQUESTS, false, report);
}

/// Cycles through the corpus for `seconds`, validating every answer.
pub fn run(corpus: &Corpus, seconds: f64, traced: bool, report: &mut Report) -> Outcome {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    run_requests(corpus, Some(deadline), usize::MAX, traced, report)
}

fn run_requests(
    corpus: &Corpus,
    deadline: Option<Instant>,
    max_requests: usize,
    traced: bool,
    report: &mut Report,
) -> Outcome {
    let mut out = Outcome {
        check_ms: Samples::new(),
        cycles: Vec::new(),
        events_by_request: Vec::new(),
    };
    // First answer per (trace, query), validated in full; later
    // answers must repeat it exactly.
    let mut seen: HashMap<(usize, usize), (bool, Option<Evidence>)> = HashMap::new();
    let probe = crate::Probe::start();
    let mut request = 0u64;
    while (request as usize) < max_requests && deadline.is_none_or(|d| Instant::now() < d) {
        let (t, qi) = corpus.order[request as usize % corpus.order.len()];
        let tr = &corpus.traces[t];
        let q = &tr.queries[qi];
        let t0 = Instant::now();
        let result = if traced {
            check_traced(&tr.text, &q.text, q.engine, request)
        } else {
            check(&tr.text, &q.text)
        };
        let secs = t0.elapsed().as_secs_f64();
        let id = format!("request {request} (trace {t}, {})", q.text);
        match result {
            Err(e) => report.check(Err(format!("{id}: {e}"))),
            Ok((comp, eval)) => {
                out.check_ms.push(secs * 1e3);
                let cycle = request as usize / corpus.order.len();
                if out.cycles.len() <= cycle {
                    // Each cycle is a memory window of its own.
                    if let Some(prev) = out.cycles.last_mut() {
                        prev.rss_mb = crate::rss_growth_mb().ok();
                    }
                    if let Err(e) = crate::rss_restart() {
                        report.fail(format!("{id}: {e}"));
                    }
                    out.cycles.push(Cycle::default());
                }
                let c = &mut out.cycles[cycle];
                c.events += tr.events as u64;
                c.secs += secs;
                c.check_ms.push(secs * 1e3);
                c.reference_secs += probe.slice();
                out.events_by_request.push((request, tr.events));
                let verdict = match seen.get(&(t, qi)) {
                    Some((v, ev)) => {
                        if *v == eval.verdict && ev == &eval.evidence {
                            Ok(())
                        } else {
                            Err("answer differs from the first answer to this request".into())
                        }
                    }
                    None => {
                        let r =
                            validate(&comp, q, eval.verdict, eval.engine, eval.evidence.as_ref());
                        seen.insert((t, qi), (eval.verdict, eval.evidence));
                        r
                    }
                };
                report.check(verdict.map_err(|e| format!("{id}: {e}")));
            }
        }
        request += 1;
    }
    out
}

/// The untraced end-to-end figures.
pub fn report_end_to_end(out: &mut Outcome, report: &mut Report) {
    // Medians over complete cycles (a run too short for one falls
    // back to its partial cycle), each normalised to nominal host
    // speed by the reference slices interleaved with its requests.
    let complete = out
        .cycles
        .len()
        .saturating_sub(1)
        .max(1)
        .min(out.cycles.len());
    let mut rates = (Vec::new(), Vec::new());
    let mut p50 = (Vec::new(), Vec::new());
    let mut p90 = (Vec::new(), Vec::new());
    let mut slowness = Vec::new();
    let mut rss = Vec::new();
    for c in &mut out.cycles[..complete] {
        rss.extend(c.rss_mb);
        let s = c.reference_secs / c.check_ms.len().max(1) as f64 / crate::NOMINAL_SLICE_SECS;
        slowness.push(s);
        let rate = c.events as f64 / c.secs.max(1e-9);
        rates.0.push(rate * s);
        rates.1.push(rate);
        if let (Some(a), Some(b)) = (c.check_ms.percentile(50.0), c.check_ms.percentile(90.0)) {
            p50.0.push(a / s);
            p50.1.push(a);
            p90.0.push(b / s);
            p90.1.push(b);
        }
    }
    let n = rates.0.len();
    for (name, (norm, raw), unit) in [
        ("events_per_s", rates, "1/s"),
        ("check_ms_p50", p50, "ms"),
        ("check_ms_p90", p90, "ms"),
    ] {
        if let (Some(v), Some(r)) = (median(&norm), median(&raw)) {
            report.put_n(name, v, unit, norm.len());
            report.put_n(format!("{name}.raw"), r, unit, raw.len());
        }
    }
    report.put_n(
        "host.slowness",
        median(&slowness).unwrap_or(0.0),
        "ratio",
        n,
    );
    if let Some(v) = median(&rss) {
        report.put_n("rss_peak_mb", v, "MB", rss.len());
    }
    report.notes.push(format!(
        "events_per_s, check_ms_p50/p90 and rss_peak_mb are medians over {n} complete passes of \
         the request mix; the timings are normalised to nominal host speed (.raw: as measured)"
    ));
    report.put_percentile("check_ms_p99", &mut out.check_ms, 99.0, "ms");
}

/// Per-layer figures from a traced pass, plus the parallel-AG speedup.
pub fn report_layers(corpus: &Corpus, out: &Outcome, spans: &[trace::Span], report: &mut Report) {
    let events: HashMap<u64, usize> = out.events_by_request.iter().copied().collect();
    let mut events_per_name: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        if let Some(&ev) = events.get(&s.request) {
            *events_per_name.entry(s.name).or_default() += ev as u64;
        }
    }
    // Self time: a span's duration minus its children's.
    let totals = trace::totals(spans);
    let ns_per_event = |name: &str| {
        let ns = totals.get(name).map_or(0, |t| t.self_ns);
        ns as f64 / events_per_name.get(name).copied().unwrap_or(0).max(1) as f64
    };
    report.put(
        "tracefmt.json_parse_ns_per_event",
        ns_per_event("tracefmt.json_parse"),
        "ns",
    );
    report.put(
        "computation.build_ns_per_event",
        ns_per_event("computation.build"),
        "ns",
    );
    for (metric, name) in [
        ("detect.chase_garg_ef.ns_per_event", "detect.chase_garg_ef"),
        ("detect.a1.ns_per_event", "detect.a1"),
        ("detect.a2.ns_per_event", "detect.a2"),
        ("detect.a3.ns_per_event", "detect.a3"),
        ("detect.au_identity.ns_per_event", "detect.au_identity"),
        (
            "detect.token_interval.ns_per_event",
            "detect.token_interval",
        ),
    ] {
        report.put(metric, ns_per_event(name), "ns");
    }
    let (speedup, agree) = a2_speedup(corpus);
    report.check(agree);
    report.put("par.a2_speedup", speedup, "x");
}

/// `hb_par` AG at 2 threads against the sequential `ag_linear` (the
/// best sequential code) on the corpus's largest traces, each the
/// median of five rounds.
fn a2_speedup(corpus: &Corpus) -> (f64, Result<(), String>) {
    let par = hb_par::ParDetector::new().threads(2);
    let (mut seq_total, mut par_total) = (0.0, 0.0);
    let biggest = corpus.traces.iter().map(|t| t.events).max().unwrap_or(0);
    for (t, tr) in corpus
        .traces
        .iter()
        .enumerate()
        .filter(|(_, t)| t.events == biggest)
    {
        let Ok(comp) = hb_tracefmt::from_json(&tr.text) else {
            return (0.0, Err(format!("trace {t} no longer parses")));
        };
        let q = tr
            .queries
            .iter()
            .find(|q| q.engine == Engine::A2)
            .expect("suite has an AG query");
        let Formula::Ag(inner) = &q.formula else {
            unreachable!("A2 query is an AG")
        };
        let Ok(hb_ctl::CompiledPredicate::Conjunctive(p)) = compile_state_formula(&comp, inner)
        else {
            return (
                0.0,
                Err(format!("trace {t}: AG invariant is not conjunctive")),
            );
        };
        let (mut s, mut pl) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let t0 = Instant::now();
            let a = std::hint::black_box(hb_detect::ag_linear(&comp, &p));
            s.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let b = std::hint::black_box(par.ag_linear(&comp, &p));
            pl.push(t0.elapsed().as_secs_f64());
            if a != b {
                return (
                    0.0,
                    Err(format!("trace {t}: parallel AG disagrees with ag_linear")),
                );
            }
        }
        seq_total += crate::stats::median(&s).unwrap_or(0.0);
        par_total += crate::stats::median(&pl).unwrap_or(0.0);
    }
    (seq_total / par_total.max(1e-12), Ok(()))
}
