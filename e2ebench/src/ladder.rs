//! The traced layer suite and the layer ladder.
//!
//! The ladder streams the same sessions through nested prefixes of the
//! stack. Each rung adds one layer on top of the one below:
//!
//! 1. offline EF (`hb_ctl::evaluate` on each state predicate) — the
//!    reference the online path is compared with, not a prefix of it;
//! 2. `OnlineMonitor::observe` on the causally delivered stream;
//! 3. `Session::event` (var-name resolution, causal buffer, slice
//!    filter), with `slice = false` and with the default;
//! 4. `+ Store::append` of each frame (sync `os`);
//! 5. `+ write_frame`/`read_frame` in memory, requests and replies;
//! 6. `+` a loopback `MonitorService` (WAL on, sync `os`);
//! 7. `+` a `GatewayService` in front of that monitor;
//! 8. `+` the SDK (`SessionBuilder`, `emit`, `close_reclaim`).
//!
//! Rungs 6–8 run across threads, so their cost is process CPU time per
//! event (every thread of the stack lives in this process): wall time
//! would let pipelining across the two CPUs hide a layer's work. The
//! difference between adjacent rungs is that layer's cost, so the
//! layer costs add up to the top rung by construction; a rung cheaper
//! than the one below by more than [`NOISE_BOUND`] means two rungs did
//! not stream the same events, and fails the run. The top rung also
//! runs with tracing on; a traced top rung outside 1 ± [`NOISE_BOUND`]
//! times the untraced one fails the run too.

use crate::lag::{self, host_gateway};
use crate::plans::Plan;
use crate::report::Report;
use crate::stream::{self, host_monitor, sdk_session};
use crate::{offline, remove_dir, scratch_dir, Args};
use hb_ctl::{evaluate, parse, Formula};
use hb_detect::online::{OnlineEfConjunctive, OnlineEfDisjunctive, OnlineMonitor, OnlineVerdict};
use hb_monitor::{CausalBuffer, OverflowPolicy, Session, SessionLimits};
use hb_pattern::PredictiveMatcher;
use hb_sdk::transport::TcpTransport;
use hb_sdk::{RetryPolicy, Transport};
use hb_store::{Store, StoreOptions, SyncPolicy};
use hb_tracefmt::wire::{
    read_frame, write_frame, ClientMsg, ServerMsg, WireMode, WireVerdict, WIRE_VERSION,
};
use hb_vclock::VectorClock;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Instant;

/// How much cheaper than the rung below a rung may read before the
/// ladder is declared inconsistent (the widest end-to-end bound).
pub const NOISE_BOUND: f64 = 0.25;
/// Interleaved measurement rounds per rung; each rung reports the median.
const ROUNDS: usize = 5;

/// Process CPU time (all threads) in nanoseconds.
pub fn cpu_ns() -> u64 {
    clock_ns(2)
}

fn clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for),
    // and the caller passes CLOCK_PROCESS_CPUTIME_ID (2), a valid
    // clock id there.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn to_wire(v: &OnlineVerdict) -> WireVerdict {
    match v {
        OnlineVerdict::Detected(c) => WireVerdict::Detected(c.counters().to_vec()),
        OnlineVerdict::Impossible => WireVerdict::Impossible,
        OnlineVerdict::Pending => WireVerdict::Pending,
    }
}

/// One delivered event as the online detectors see it: the process,
/// its clock, and per predicate the clause value or the atom mask.
struct Step {
    process: usize,
    clock: VectorClock,
    obs: Vec<u64>,
}

/// A plan prepared for every rung: the formulas parsed, the stream
/// delivered through a causal buffer and reduced to observations.
struct Prepared<'a> {
    plan: &'a Plan,
    formulas: Vec<Formula>,
    steps: Vec<Step>,
    initially: Vec<Vec<bool>>,
}

fn clause_value(
    plan: &Plan,
    pred: usize,
    process: usize,
    state: &HashMap<String, i64>,
) -> Option<bool> {
    let p = &plan.predicates[pred];
    let mut clauses = p.clauses.iter().filter(|c| c.process == process).peekable();
    clauses.peek()?;
    let mut vals = clauses
        .map(|c| crate::plans::op_holds(&c.op, state.get(&c.var).copied().unwrap_or(0), c.value));
    Some(match p.mode {
        WireMode::Disjunctive => vals.any(|v| v),
        _ => vals.all(|v| v),
    })
}

fn prepare(plan: &Plan) -> Result<Prepared<'_>, String> {
    let formulas = plan
        .formulas
        .iter()
        .flatten()
        .map(|f| parse(f).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let n = plan.processes;
    let mut buffer: CausalBuffer<usize> = CausalBuffer::new(n, 1 << 20, OverflowPolicy::Reject);
    let mut states: Vec<HashMap<String, i64>> = vec![HashMap::new(); n];
    let mut steps = Vec::with_capacity(plan.frames.len());
    for (i, f) in plan.frames.iter().enumerate() {
        let delivered = buffer
            .ingest(f.p, VectorClock::from_components(f.clock.clone()), i)
            .map_err(|e| format!("causal buffer: {e}"))?;
        for d in delivered {
            let fr = &plan.frames[d.payload];
            for (k, v) in &fr.set {
                states[fr.p].insert(k.clone(), *v);
            }
            let obs = (0..plan.predicates.len())
                .map(|k| match plan.predicates[k].mode {
                    WireMode::Pattern => {
                        crate::plans::atom_mask(&plan.predicates[k], fr.p, &fr.set)
                    }
                    _ => u64::from(clause_value(plan, k, fr.p, &states[fr.p]) == Some(true)),
                })
                .collect();
            steps.push(Step {
                process: fr.p,
                clock: d.clock,
                obs,
            });
        }
    }
    if steps.len() != plan.frames.len() {
        return Err(format!(
            "{} of {} events delivered",
            steps.len(),
            plan.frames.len()
        ));
    }
    let zero = HashMap::new();
    let initially = (0..plan.predicates.len())
        .map(|k| {
            (0..n)
                .map(|p| clause_value(plan, k, p, &zero) == Some(true))
                .collect()
        })
        .collect();
    Ok(Prepared {
        plan,
        formulas,
        steps,
        initially,
    })
}

/// The online detectors of a plan, as a session would build them.
fn monitors(p: &Prepared) -> Vec<Box<dyn OnlineMonitor>> {
    let n = p.plan.processes;
    p.plan
        .predicates
        .iter()
        .enumerate()
        .map(|(k, pred)| -> Box<dyn OnlineMonitor> {
            match pred.mode {
                WireMode::Conjunctive => {
                    let participating = (0..n)
                        .map(|q| pred.clauses.iter().any(|c| c.process == q))
                        .collect();
                    Box::new(OnlineEfConjunctive::new(
                        n,
                        participating,
                        p.initially[k].clone(),
                    ))
                }
                WireMode::Disjunctive => {
                    Box::new(OnlineEfDisjunctive::new(n, p.initially[k].clone()))
                }
                WireMode::Pattern => Box::new(PredictiveMatcher::from_wire(
                    n,
                    pred.pattern.as_ref().expect("pattern predicate has a body"),
                )),
            }
        })
        .collect()
}

type Verdicts = BTreeMap<String, WireVerdict>;

fn rung_offline(p: &Prepared) -> Result<Verdicts, String> {
    for f in &p.formulas {
        std::hint::black_box(evaluate(&p.plan.comp, f).map_err(|e| e.to_string())?);
    }
    // The offline rung checks no online verdicts; its answers are the
    // plans' expectations.
    Ok(BTreeMap::new())
}

fn rung_online(p: &Prepared) -> Result<Verdicts, String> {
    let mut ms = monitors(p);
    for s in &p.steps {
        for (k, m) in ms.iter_mut().enumerate() {
            if m.is_settled() {
                continue;
            }
            if p.plan.predicates[k].mode == WireMode::Pattern {
                m.observe_atoms(s.process, s.obs[k], &s.clock);
            } else {
                m.observe(s.process, s.obs[k] != 0, &s.clock);
            }
        }
    }
    let mut out = BTreeMap::new();
    for (k, m) in ms.iter_mut().enumerate() {
        for q in 0..p.plan.processes {
            if !m.is_settled() {
                m.finish_process(q);
            }
        }
        out.insert(p.plan.predicates[k].id.clone(), to_wire(m.verdict()));
    }
    Ok(out)
}

fn final_verdicts(s: &Session) -> Verdicts {
    s.all_verdicts()
        .into_iter()
        .map(|v| (v.predicate, to_wire(&v.verdict)))
        .collect()
}

fn limits(slice: bool) -> SessionLimits {
    SessionLimits {
        slice,
        ..SessionLimits::default()
    }
}

fn rung_session(p: &Prepared, slice: bool) -> Result<Verdicts, String> {
    let plan = p.plan;
    let mut s = Session::open(
        "ladder",
        plan.processes,
        &plan.vars,
        &[],
        &plan.predicates,
        limits(slice),
    )
    .map_err(|e| e.to_string())?;
    for f in &plan.frames {
        s.event(f.p, VectorClock::from_components(f.clock.clone()), &f.set)
            .map_err(|e| e.to_string())?;
    }
    s.close();
    Ok(final_verdicts(&s))
}

/// Applies one decoded client message to the in-process session, as a
/// shard would; returns the verdicts it settled.
fn apply(
    msg: &ClientMsg,
    session: &mut Option<Session>,
) -> Result<Vec<hb_monitor::VerdictEvent>, String> {
    Ok(match msg {
        ClientMsg::Open {
            session: name,
            processes,
            vars,
            initial,
            predicates,
            ..
        } => {
            *session = Some(
                Session::open(name, *processes, vars, initial, predicates, limits(true))
                    .map_err(|e| e.to_string())?,
            );
            Vec::new()
        }
        ClientMsg::Event { p, clock, set, .. } => session
            .as_mut()
            .ok_or("event before open")?
            .event(*p, VectorClock::from_components(clock.clone()), set)
            .map_err(|e| e.to_string())?,
        ClientMsg::Events { events, .. } => {
            let s = session.as_mut().ok_or("events before open")?;
            let mut out = Vec::new();
            for e in events {
                out.extend(
                    s.event(e.p, VectorClock::from_components(e.clock.clone()), &e.set)
                        .map_err(|e| e.to_string())?,
                );
            }
            out
        }
        ClientMsg::Close { .. } => session.as_mut().ok_or("close before open")?.close().0,
        other => return Err(format!("unexpected message {other:?}")),
    })
}

/// Rungs 4 and 5: WAL append of every frame, and with `wire` the frame
/// encoded and decoded in memory (replies too) around it.
fn rung_durable(msgs: &[ClientMsg], store: &mut Store, wire: bool) -> Result<Verdicts, String> {
    use serde::Serialize as _;
    let mut session = None;
    let mut buf = Vec::new();
    for msg in msgs {
        let decoded;
        let msg = if wire {
            buf.clear();
            write_frame(&mut buf, msg).map_err(|e| e.to_string())?;
            decoded = read_frame::<_, ClientMsg>(&mut buf.as_slice())
                .map_err(|e| e.to_string())?
                .ok_or("empty frame")?;
            &decoded
        } else {
            msg
        };
        let payload = serde_json::to_string(&msg.to_value()).map_err(|e| e.to_string())?;
        store
            .append(payload.as_bytes())
            .map_err(|e| e.to_string())?;
        let settled = apply(msg, &mut session)?;
        if wire {
            for v in settled {
                buf.clear();
                let reply = ServerMsg::Verdict {
                    session: "ladder".into(),
                    predicate: v.predicate,
                    verdict: to_wire(&v.verdict),
                };
                write_frame(&mut buf, &reply).map_err(|e| e.to_string())?;
                std::hint::black_box(
                    read_frame::<_, ServerMsg>(&mut buf.as_slice()).map_err(|e| e.to_string())?,
                );
            }
        }
    }
    Ok(final_verdicts(session.as_ref().ok_or("no open")?))
}

/// A raw wire client on one connection (rungs 6 and 7).
struct RawClient {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: &str) -> Result<Self, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut c = RawClient {
            w: BufWriter::new(s.try_clone().map_err(|e| e.to_string())?),
            r: BufReader::new(s),
        };
        write_frame(
            &mut c.w,
            &ClientMsg::Hello {
                version: WIRE_VERSION,
            },
        )
        .map_err(|e| e.to_string())?;
        match read_frame::<_, ServerMsg>(&mut c.r) {
            Ok(Some(ServerMsg::Welcome { .. })) => Ok(c),
            other => Err(format!("handshake: {other:?}")),
        }
    }

    /// Open (waiting for `opened`, as the SDK does), the event frames,
    /// close, and every reply up to `closed`.
    fn session(
        &mut self,
        open: &ClientMsg,
        msgs: &[ClientMsg],
        name: &str,
    ) -> Result<Verdicts, String> {
        let io = |e: std::io::Error| e.to_string();
        write_frame(&mut self.w, open).map_err(io)?;
        let mut verdicts = BTreeMap::new();
        let mut opened = false;
        while !opened {
            match read_frame::<_, ServerMsg>(&mut self.r).map_err(|e| e.to_string())? {
                Some(ServerMsg::Opened { .. }) => opened = true,
                Some(ServerMsg::Verdict {
                    predicate, verdict, ..
                }) => {
                    verdicts.insert(predicate, verdict);
                }
                other => return Err(format!("{name}: expected opened, got {other:?}")),
            }
        }
        for m in msgs {
            write_frame(&mut self.w, m).map_err(io)?;
        }
        write_frame(
            &mut self.w,
            &ClientMsg::Close {
                session: name.to_string(),
            },
        )
        .map_err(io)?;
        loop {
            match read_frame::<_, ServerMsg>(&mut self.r).map_err(|e| e.to_string())? {
                Some(ServerMsg::Verdict {
                    predicate, verdict, ..
                }) => {
                    verdicts.entry(predicate).or_insert(verdict);
                }
                Some(ServerMsg::Closed { .. }) => return Ok(verdicts),
                other => return Err(format!("{name}: unexpected reply {other:?}")),
            }
        }
    }
}

/// One ladder: the sessions, their batching, and the results per rung.
struct Ladder<'a> {
    label: &'static str,
    batch: usize,
    prepared: Vec<Prepared<'a>>,
    events: u64,
}

const RUNGS: [&str; 9] = [
    "offline_ef",
    "online",
    "session_unsliced",
    "session",
    "wal",
    "wire",
    "monitor_tcp",
    "gateway",
    "sdk",
];

/// Measures every rung `ROUNDS` times, interleaved; returns the median
/// CPU ns/event and wall ns/event per rung, plus the traced top rung.
fn measure(
    l: &Ladder,
    report: &mut Report,
    seq: &mut u64,
) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let store_dir = scratch_dir("ladder-wal")?;
    let mut store = Store::open(
        &store_dir,
        StoreOptions {
            sync: SyncPolicy::Os,
            ..StoreOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let stack = host_gateway(vec![host_monitor(true)?])?;
    let monitor_addr = stack.backends[0].addr.clone();
    let mut direct = RawClient::connect(&monitor_addr)?;
    let mut via_gw = RawClient::connect(&stack.addr)?;
    let mut sdk: Option<Box<dyn Transport>> = Some(Box::new(
        TcpTransport::dial(&stack.addr, RetryPolicy::with_retries(3)).map_err(|e| e.to_string())?,
    ));

    let mut cpu: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut traced_top = Vec::new();
    for round in 0..=ROUNDS {
        // Round 0 warms every rung up and is not counted; the last
        // extra pass runs the top rung with tracing on.
        for (r, rung) in RUNGS.iter().enumerate() {
            let (c0, w0) = (cpu_ns(), Instant::now());
            for p in &l.prepared {
                *seq += 1;
                let name = format!("ladder-{}-{seq}", l.label);
                let verdicts = match r {
                    0 => rung_offline(p)?,
                    1 => rung_online(p)?,
                    2 => rung_session(p, false)?,
                    3 => rung_session(p, true)?,
                    4 | 5 => {
                        let mut msgs = vec![p.plan.open_msg("ladder")];
                        msgs.extend(p.plan.event_msgs("ladder", l.batch));
                        msgs.push(ClientMsg::Close {
                            session: "ladder".into(),
                        });
                        rung_durable(&msgs, &mut store, r == 5)?
                    }
                    6 | 7 => {
                        let client = if r == 6 { &mut direct } else { &mut via_gw };
                        client.session(
                            &p.plan.open_msg(&name),
                            &p.plan.event_msgs(&name, l.batch),
                            &name,
                        )?
                    }
                    _ => {
                        let tr = sdk.take().ok_or("SDK transport lost")?;
                        match sdk_session(tr, p.plan, &name, l.batch, *seq, None) {
                            Ok((tr, _)) => {
                                sdk = Some(tr);
                                BTreeMap::new()
                            }
                            Err((_, e)) => {
                                return Err(format!("ladder {} rung {rung}: {e}", l.label))
                            }
                        }
                    }
                };
                if r > 0 && r < 8 {
                    report.check(
                        p.plan
                            .check(&verdicts)
                            .map_err(|e| format!("ladder {} rung {rung} {name}: {e}", l.label)),
                    );
                } else if r == 8 {
                    report.check(Ok(()));
                }
            }
            if round > 0 {
                cpu[r].push((cpu_ns() - c0) as f64 / l.events as f64);
                wall[r].push(w0.elapsed().as_nanos() as f64 / l.events as f64);
            }
        }
        if round > 0 {
            crate::trace::set_enabled(true);
            let c0 = cpu_ns();
            for p in &l.prepared {
                *seq += 1;
                let name = format!("ladder-{}-{seq}", l.label);
                let tr = sdk.take().ok_or("SDK transport lost")?;
                match sdk_session(tr, p.plan, &name, l.batch, *seq, None) {
                    Ok((tr, _)) => sdk = Some(tr),
                    Err((_, e)) => {
                        crate::trace::set_enabled(false);
                        return Err(format!("ladder {} traced top rung: {e}", l.label));
                    }
                }
            }
            crate::trace::set_enabled(false);
            traced_top.push((cpu_ns() - c0) as f64 / l.events as f64);
        }
    }
    drop(sdk);
    drop(direct);
    drop(via_gw);
    drop(stack);
    drop(store);
    remove_dir(&store_dir);
    let med = |v: &Vec<f64>| crate::stats::median(v).unwrap_or(0.0);
    Ok((
        cpu.iter().map(med).collect(),
        wall.iter().map(med).collect(),
        med(&traced_top),
    ))
}

fn run_ladder(
    label: &'static str,
    batch: usize,
    plans: &[Plan],
    report: &mut Report,
    seq: &mut u64,
) -> Result<(), String> {
    let prepared = plans.iter().map(prepare).collect::<Result<Vec<_>, _>>()?;
    let events = plans.iter().map(|p| p.frames.len() as u64).sum();
    let l = Ladder {
        label,
        batch,
        prepared,
        events,
    };
    let (cpu, wall, traced_top) = measure(&l, report, seq)?;
    let m = |name: &str| format!("{name}.{label}");
    let [offline, online, unsliced, session, wal, wire, tcp, gw, sdk] = cpu[..] else {
        unreachable!("one figure per rung")
    };
    report.put(m("ladder.offline_ef_ns_per_event"), offline, "ns");
    report.put(m("detect.online_ns_per_event"), online, "ns");
    report.put(m("monitor.session_ns_per_event"), unsliced - online, "ns");
    report.put(m("slice.saved_ns_per_event"), unsliced - session, "ns");
    report.put(m("store.append_ns_per_event"), wal - session, "ns");
    report.put(m("tracefmt.wire_ns_per_event"), wire - wal, "ns");
    report.put(m("monitor.transport_ns_per_event"), tcp - wire, "ns");
    report.put(m("gateway.hop_ns_per_event"), gw - tcp, "ns");
    report.put(m("sdk.ns_per_event"), sdk - gw, "ns");
    report.put(m("ladder.top_ns_per_event"), sdk, "ns");
    report.put(m("ladder.top_wall_ns_per_event"), wall[8], "ns");
    report.put(m("ladder.traced_top_ns_per_event"), traced_top, "ns");
    report.put(m("trace.overhead_ratio"), traced_top / sdk, "ratio");
    // The layer costs telescope from the online rung to the top rung.
    let layers = [
        online,
        unsliced - online,
        session - unsliced,
        wal - session,
        wire - wal,
        tcp - wire,
        gw - tcp,
        sdk - gw,
    ];
    let sum: f64 = layers.iter().sum();
    report.notes.push(format!(
        "ladder {label}: cpu ns/event per rung {:?}; layers sum {sum:.1} = top {sdk:.1}; wall ns/event {:?}",
        cpu.iter().map(|v| v.round()).collect::<Vec<_>>(),
        wall.iter().map(|v| v.round()).collect::<Vec<_>>()
    ));
    // Every rung from the session layer up nests the one below it.
    let nested = [(2, 1), (4, 3), (5, 4), (6, 5), (7, 6), (8, 7)];
    for (hi, lo) in nested {
        report.check(if cpu[hi] < cpu[lo] * (1.0 - NOISE_BOUND) {
            Err(format!(
                "ladder {label}: rung {} ({:.0} ns/event) is cheaper than rung {} ({:.0} ns/event) \
                 beyond the {NOISE_BOUND} noise bound: the rungs do not stream the same events",
                RUNGS[hi], cpu[hi], RUNGS[lo], cpu[lo]
            ))
        } else {
            Ok(())
        });
    }
    // The untraced single-stream run is the top rung itself: the same
    // sessions, one at a time, through the same SDK, gateway and
    // monitor. Tracing must not move it beyond the noise bound either
    // way.
    let ratio = traced_top / sdk;
    report.check(if (ratio - 1.0).abs() > NOISE_BOUND {
        Err(format!(
            "ladder {label}: traced top rung ({traced_top:.0} ns/event) is {ratio:.3}x the \
             untraced one ({sdk:.0} ns/event), outside the {NOISE_BOUND} noise bound"
        ))
    } else {
        Ok(())
    });
    Ok(())
}

/// Sessions per ladder: `stream-durable` sessions in 64-event batches,
/// and planted `gateway-lag` sessions as single frames (opened plain,
/// so every rung can take them).
const LADDER_STREAM_SESSIONS: usize = 4;
const LADDER_LAG_SESSIONS: usize = 240;

/// `--trace 1`: the traced passes of all three workloads plus both
/// ladders, so every per-layer metric is measured whichever workload
/// is named. `--seconds` is split between the three traced passes.
pub fn run_traced_suite(args: &Args, workload: &str) -> Result<Report, String> {
    let mut report = Report::default();
    report.notes.push(format!(
        "traced layer suite (requested for workload {workload})"
    ));
    let slice = args.seconds / 3.0;

    let corpus = offline::build(args.seed)?;
    crate::trace::set_enabled(true);
    let out = offline::run(&corpus, slice, true, &mut report);
    crate::trace::set_enabled(false);
    let spans = crate::trace::take();
    offline::report_layers(&corpus, &out, &spans, &mut report);
    crate::trace::write_jsonl(
        &crate::out_dir().join(format!("spans-offline-{}.jsonl", args.seed)),
        &spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;

    stream::traced_pass(args.seed, slice, &mut report)?;
    lag::traced_pass(args.seed, slice, &mut report)?;

    report.put("host_cpus", crate::host_cpus(), "count");
    let mut seq = 0;
    let plans = stream::build_plans(
        args.seed ^ 0x1add,
        LADDER_STREAM_SESSIONS,
        stream::EVENTS_PER_PROCESS,
    )?;
    run_ladder("batch64", stream::BATCH, &plans, &mut report, &mut seq)?;
    let mut plans = lag::build_plans(args.seed)?;
    plans.truncate(LADDER_LAG_SESSIONS);
    for p in &mut plans {
        p.dist = 0;
    }
    run_ladder("singles", 1, &plans, &mut report, &mut seq)?;
    crate::trace::take();
    Ok(report)
}
