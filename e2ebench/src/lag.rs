//! `gateway-lag`: an open loop at a fixed offered rate through a
//! `GatewayService` over two in-memory monitor backends. One
//! connection: a writer thread sends single `event` frames on
//! schedule, a reader thread timestamps the replies. Many short planted
//! sessions are multiplexed on it; the detection lag of a session runs
//! from when its witness-completing event was *due* until its verdict
//! frame arrives, so generator stalls are charged to the system. The
//! untraced run hosts the stack in a child process ([`crate::host`]);
//! the traced pass hosts it in-process to read its snapshots.

use crate::host::Child;
use crate::plans::{lag_kind, lag_plan, verify_planted, Plan};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::stream::{counter_delta, host_monitor, shutdown_endpoint, Hosted};
use crate::trace::{now_ns, span};
use crate::{repeated_setup, Args, Rng, SETUP_ROUNDS};
use hb_gateway::{GatewayConfig, GatewayService, GatewaySnapshot};
use hb_monitor::MetricsSnapshot;
use hb_tracefmt::wire::{read_frame, write_frame, ClientMsg, ServerMsg, WireVerdict, WIRE_VERSION};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Offered rate in events per second: a sixth of this path's capacity
/// (49 000 events/s on the 2-CPU reference host). At a third, the
/// host's speed drift pushed it near saturation and the lag's
/// run-to-run spread tripled.
pub const RATE: f64 = 8_000.0;
/// Set-up's warm-up: events offered at a rate no host keeps up with.
const WARM_UP_EVENTS: usize = 5_000;
const WARM_UP_RATE: f64 = 1_000_000.0;
/// Sessions interleaved on the connection at any time.
const WINDOW: usize = 16;
/// Windows the schedule is split into, with a host-speed probe between.
const WINDOWS: usize = 10;
/// Planted sessions generated per seed; the schedule cycles over them.
const POOL: usize = 512;

/// A gateway over two in-memory monitors, each on a loopback port.
pub struct Stack {
    pub backends: Vec<Hosted>,
    pub gateway: Option<Arc<GatewayService>>,
    pub addr: String,
    thread: Option<JoinHandle<()>>,
}

/// Starts the gateway over `backends` (already running).
pub fn host_gateway(backends: Vec<Hosted>) -> Result<Stack, String> {
    let gw = Arc::new(GatewayService::start(GatewayConfig {
        backends: backends.iter().map(|b| b.addr.clone()).collect(),
        ..GatewayConfig::default()
    })?);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let thread = {
        let gw = Arc::clone(&gw);
        std::thread::spawn(move || {
            let _ = gw.serve(listener);
        })
    };
    Ok(Stack {
        backends,
        gateway: Some(gw),
        addr,
        thread: Some(thread),
    })
}

impl Stack {
    pub fn gateway_metrics(&self) -> GatewaySnapshot {
        self.gateway
            .as_ref()
            .expect("gateway runs until drop")
            .metrics()
    }

    pub fn backend_metrics(&self) -> Vec<MetricsSnapshot> {
        self.backends.iter().map(Hosted::metrics).collect()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // The gateway goes first: its pool connections must close or
        // the backends' accept loops would wait on them.
        if let Some(t) = self.thread.take() {
            if shutdown_endpoint(&self.addr).is_ok() {
                let _ = t.join();
            }
        }
        if let Some(gw) = self.gateway.take() {
            if let Ok(gw) = Arc::try_unwrap(gw) {
                gw.shutdown();
            }
        }
        self.backends.clear();
    }
}

/// Reads one raw frame (`<len> <json>\n`) off the socket, so the
/// decode itself can be timed apart from the wait for bytes.
fn read_raw<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    buf.clear();
    let n = r.read_until(b' ', buf)?;
    if n == 0 {
        return Ok(false);
    }
    let len: usize = std::str::from_utf8(&buf[..n - 1])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad frame header"))?;
    if len > hb_tracefmt::wire::MAX_FRAME_BYTES {
        return Err(std::io::Error::other("frame too large"));
    }
    let start = buf.len();
    buf.resize(start + len + 1, 0);
    r.read_exact(&mut buf[start..])?;
    Ok(true)
}

/// Per-session state shared by the writer and the reader.
struct Track {
    plan: usize,
    /// Due time (trace-epoch ns) of the witness-completing event, set
    /// by the writer before it sends that event.
    complete_due_ns: Option<u64>,
    verdicts: Vec<Option<WireVerdict>>,
    lag_recorded: bool,
    error: Option<String>,
}

/// What one open-loop run measured.
#[derive(Default)]
pub struct Outcome {
    pub lag_ms: Samples,
    pub late_ms: Samples,
    pub encode_ns: Samples,
    pub decode_ns: Samples,
    pub events_closed: u64,
    pub events_dist: u64,
    pub events_sent: u64,
    pub wall_secs: f64,
    pub sessions: u64,
    failures: Vec<Result<(), String>>,
}

/// Drives the open loop against `addr`: events due at `rate` per
/// second for `seconds`.
pub fn open_loop(
    addr: &str,
    plans: &[Plan],
    seconds: f64,
    rate: f64,
    tag: &str,
    report: &mut Report,
) -> Result<Outcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let unblock = stream.try_clone().map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    write_frame(
        &mut writer,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
        },
    )
    .map_err(|e| e.to_string())?;
    match read_frame::<_, ServerMsg>(&mut reader) {
        Ok(Some(ServerMsg::Welcome { .. })) => {}
        other => return Err(format!("handshake: {other:?}")),
    }
    let tracks: Mutex<HashMap<String, Track>> = Mutex::new(HashMap::new());
    let writer_done = AtomicBool::new(false);
    let opened = AtomicU64::new(0);
    let closed = AtomicU64::new(0);
    let t0_ns = now_ns() + 2_000_000;
    let interval_ns = 1e9 / rate;
    let seconds_ns = (seconds * 1e9) as u64;

    let (w_out, r_out) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| -> Result<Outcome, String> {
            let mut out = Outcome::default();
            let mut active: Vec<(String, usize, usize)> = Vec::with_capacity(WINDOW); // (name, plan, cursor)
            let mut next_session = 0usize;
            let mut rr = 0usize;
            let mut i = 0u64;
            let mut buf = Vec::new();
            // Encode into memory (timed), then one socket write.
            let mut send = |w: &mut BufWriter<TcpStream>,
                            msg: &ClientMsg,
                            out: &mut Outcome|
             -> Result<(), String> {
                buf.clear();
                let t = now_ns();
                {
                    let _s = span("tracefmt.encode", 0);
                    write_frame(&mut buf, msg).map_err(|e| format!("encode: {e}"))?;
                }
                out.encode_ns.push((now_ns() - t) as f64);
                w.write_all(&buf)
                    .and_then(|()| w.flush())
                    .map_err(|e| format!("write: {e}"))
            };
            loop {
                let due = t0_ns + (i as f64 * interval_ns) as u64;
                let open_more = due < t0_ns + seconds_ns;
                while open_more && active.len() < WINDOW {
                    let p = next_session % plans.len();
                    let name = format!("{tag}-{next_session}");
                    next_session += 1;
                    tracks.lock().expect("tracks").insert(
                        name.clone(),
                        Track {
                            plan: p,
                            complete_due_ns: None,
                            verdicts: vec![None; plans[p].predicates.len()],
                            lag_recorded: false,
                            error: None,
                        },
                    );
                    opened.fetch_add(1, Ordering::SeqCst);
                    send(&mut writer, &plans[p].open_msg(&name), &mut out)?;
                    active.push((name, p, 0));
                }
                if active.is_empty() {
                    break;
                }
                rr %= active.len();
                let (name, p, cursor) = active[rr].clone();
                let plan = &plans[p];
                let now = now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                if plan.completes == Some(cursor) {
                    if let Some(t) = tracks.lock().expect("tracks").get_mut(&name) {
                        t.complete_due_ns = Some(due);
                    }
                }
                out.late_ms.push(now_ns().saturating_sub(due) as f64 / 1e6);
                send(
                    &mut writer,
                    &plan.frames[cursor].clone().into_event(&name),
                    &mut out,
                )?;
                out.events_sent += 1;
                i += 1;
                if cursor + 1 == plan.frames.len() {
                    send(&mut writer, &ClientMsg::Close { session: name }, &mut out)?;
                    active.swap_remove(rr);
                } else {
                    active[rr].2 += 1;
                    rr += 1;
                }
            }
            // Anything the reader receives after this flag is set lets
            // it re-check for completion; the stats reply guarantees
            // one such frame even if every close arrived earlier.
            writer_done.store(true, Ordering::SeqCst);
            write_frame(&mut writer, &ClientMsg::Stats).map_err(|e| format!("write: {e}"))?;
            Ok(out)
        });

        let reader_thread = scope.spawn(|| -> Result<Outcome, String> {
            let mut out = Outcome::default();
            let mut buf = Vec::new();
            let mut last_close_ns = t0_ns;
            let mut reader = reader;
            loop {
                if writer_done.load(Ordering::SeqCst)
                    && closed.load(Ordering::SeqCst) == opened.load(Ordering::SeqCst)
                {
                    break;
                }
                match read_raw(&mut reader, &mut buf) {
                    Ok(true) => {}
                    Ok(false) => return Err("connection closed by the gateway".into()),
                    Err(e) => return Err(format!("read: {e}")),
                }
                let recv_ns = now_ns();
                let msg = {
                    let _s = span("tracefmt.decode", 0);
                    read_frame::<_, ServerMsg>(&mut buf.as_slice())
                };
                out.decode_ns.push((now_ns() - recv_ns) as f64);
                let msg = match msg {
                    Ok(Some(m)) => m,
                    other => return Err(format!("bad reply frame: {other:?}")),
                };
                let mut tracks = tracks.lock().expect("tracks");
                match msg {
                    ServerMsg::Verdict {
                        session,
                        predicate,
                        verdict,
                    } => {
                        let Some(t) = tracks.get_mut(&session) else {
                            continue;
                        };
                        let plan = &plans[t.plan];
                        let Some(i) = plan.predicates.iter().position(|p| p.id == predicate) else {
                            t.error = Some(format!("verdict for unknown predicate '{predicate}'"));
                            continue;
                        };
                        if matches!(verdict, WireVerdict::Detected(_)) && !t.lag_recorded {
                            if let Some(due) = t.complete_due_ns {
                                let lag = recv_ns.saturating_sub(due) as f64 / 1e6;
                                out.lag_ms.push(lag);
                                t.lag_recorded = true;
                            }
                        }
                        match &t.verdicts[i] {
                            Some(prev) if prev != &verdict => {
                                t.error =
                                    Some(format!("verdict changed from {prev:?} to {verdict:?}"));
                            }
                            _ => t.verdicts[i] = Some(verdict),
                        }
                    }
                    ServerMsg::Closed { session, .. } => {
                        let Some(t) = tracks.remove(&session) else {
                            continue;
                        };
                        let plan = &plans[t.plan];
                        let mut outcome = match t.error {
                            Some(e) => Err(e),
                            None => {
                                let verdicts = plan
                                    .predicates
                                    .iter()
                                    .zip(&t.verdicts)
                                    .filter_map(|(p, v)| v.clone().map(|v| (p.id.clone(), v)))
                                    .collect();
                                plan.check(&verdicts)
                            }
                        };
                        if outcome.is_ok() && plan.completes.is_some() && !t.lag_recorded {
                            outcome = Err("detected verdict arrived without a lag sample".into());
                        }
                        if outcome.is_ok() {
                            out.events_closed += plan.frames.len() as u64;
                            if plan.dist > 0 {
                                out.events_dist += plan.frames.len() as u64;
                            }
                        } else if plan.completes.is_some() && !t.lag_recorded {
                            // A failed session misses every latency limit.
                            out.lag_ms.push(f64::INFINITY);
                        }
                        out.sessions += 1;
                        out.failures
                            .push(outcome.map_err(|e| format!("session {session}: {e}")));
                        last_close_ns = recv_ns;
                        closed.fetch_add(1, Ordering::SeqCst);
                    }
                    ServerMsg::Error {
                        session, message, ..
                    } => {
                        let key = session.unwrap_or_default();
                        match tracks.get_mut(&key) {
                            Some(t) => t.error = Some(format!("server error: {message}")),
                            None => return Err(format!("server error: {message}")),
                        }
                    }
                    _ => {}
                }
            }
            out.wall_secs = (last_close_ns.saturating_sub(t0_ns)) as f64 / 1e9;
            Ok(out)
        });
        let w = writer_thread.join().expect("writer thread panicked");
        // A failed writer leaves the reader waiting for closes that
        // will never come: unblock it by shutting the socket.
        if w.is_err() {
            let _ = unblock.shutdown(std::net::Shutdown::Both);
        }
        (w, reader_thread.join().expect("reader thread panicked"))
    });
    let w = w_out?;
    let mut r = r_out?;
    for f in r.failures.drain(..) {
        report.check(f);
    }
    r.late_ms = w.late_ms;
    r.encode_ns = w.encode_ns;
    r.events_sent = w.events_sent;
    Ok(r)
}

/// Set-up: the planted session pool, the gateway stack, and a warm-up.
pub struct Ctx {
    pub plans: Vec<Plan>,
    pub stack: Stack,
}

pub fn build_plans(seed: u64) -> Result<Vec<Plan>, String> {
    let mut rng = Rng::new(seed ^ 0x1a9_9a7e);
    (0..POOL)
        .map(|_| {
            let kind = lag_kind(&mut rng);
            let plan = lag_plan(&mut rng, kind);
            verify_planted(&plan).map(|_| plan)
        })
        .collect()
}

/// Warm-up: a fixed number of events offered far above capacity, so it
/// takes as long as the stack needs to process them.
fn warm_up(addr: &str, plans: &[Plan]) -> Result<(), String> {
    let mut warm = Report::default();
    open_loop(
        addr,
        plans,
        WARM_UP_EVENTS as f64 / WARM_UP_RATE,
        WARM_UP_RATE,
        "warm",
        &mut warm,
    )?;
    if warm.failed > 0 {
        return Err("warm-up sessions failed".into());
    }
    Ok(())
}

/// The traced pass's set-up, with the stack in this process so the
/// pass can read its snapshots.
pub fn setup(seed: u64) -> Result<Ctx, String> {
    let plans = build_plans(seed)?;
    let stack = host_gateway(vec![host_monitor(false)?, host_monitor(false)?])?;
    warm_up(&stack.addr, &plans)?;
    Ok(Ctx { plans, stack })
}

/// Stats counters of every backend of a hosted gateway.
fn backend_counters(host: &Child) -> Result<Vec<BTreeMap<String, u64>>, String> {
    (1..host.addrs.len()).map(|i| host.counters(i)).collect()
}

pub fn run_end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up: the planted pool, the gateway and its monitors in a child
    // process, and the warm-up.
    let (plans, host) = repeated_setup(SETUP_ROUNDS, report, || {
        let plans = build_plans(args.seed)?;
        let host = Child::spawn(crate::host::GATEWAY)?;
        warm_up(&host.addrs[0], &plans)?;
        Ok((plans, host))
    })?;
    let before = backend_counters(&host)?;
    // Windows of the schedule; each figure is the median over windows,
    // so a burst of host interference in a few windows does not move
    // it. Lags are as measured: they are dominated by thread wake-ups,
    // which do not scale with the host-speed probe.
    let window_secs = args.seconds / WINDOWS as f64;
    let (mut rates, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lag, mut late) = (Samples::new(), Samples::new());
    let (mut sessions, mut sent) = (0, 0);
    for w in 0..WINDOWS {
        let mut out = open_loop(
            &host.addrs[0],
            &plans,
            window_secs,
            RATE,
            &format!("gl{w}"),
            report,
        )?;
        rates.push(out.events_closed as f64 / out.wall_secs.max(1e-9));
        if let (Some(a), Some(b)) = (out.lag_ms.percentile(50.0), out.lag_ms.percentile(90.0)) {
            p50.push(a);
            p90.push(b);
        }
        lag.extend(out.lag_ms);
        late.extend(out.late_ms);
        sessions += out.sessions;
        sent += out.events_sent;
    }
    let after = backend_counters(&host)?;
    for (b, a) in before.iter().zip(&after) {
        crate::stream::monitor_failures(
            counter_delta(b, a, "events_rejected"),
            counter_delta(b, a, "events_dropped"),
            0,
            report,
        );
    }
    report.attempted += sent;
    report.put("rss_peak_mb", host.rss_peak_mb()?, "MB");
    for (name, values, unit) in [
        ("events_per_s", &rates, "1/s"),
        ("verdict_lag_ms_p50", &p50, "ms"),
        ("verdict_lag_ms_p90", &p90, "ms"),
    ] {
        if let Some(v) = median(values) {
            report.put_n(name, v, unit, values.len());
        }
    }
    report.put_percentile("verdict_lag_ms_p99", &mut lag, 99.0, "ms");
    report.put_percentile("gen.late_ms_p99", &mut late, 99.0, "ms");
    report.notes.push(format!(
        "{sessions} sessions in {WINDOWS} windows; events_per_s and verdict_lag_ms_p50/p90 are \
         medians over windows, verdict_lag_ms_p99 is over all {} lag samples; p50 per window \
         (ms): {:.3?}",
        lag.len(),
        p50
    ));
    Ok(())
}

/// The traced gateway pass: client codec spans, gateway and monitor
/// snapshot deltas, generator lateness.
pub fn traced_pass(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let ctx = setup(seed)?;
    let gw_before = ctx.stack.gateway_metrics();
    let before = ctx.stack.backend_metrics();
    crate::trace::set_enabled(true);
    let mut out = open_loop(&ctx.stack.addr, &ctx.plans, seconds, RATE, "glt", report)?;
    crate::trace::set_enabled(false);
    let gw_after = ctx.stack.gateway_metrics();
    let after = ctx.stack.backend_metrics();
    for (b, a) in before.iter().zip(&after) {
        crate::stream::monitor_failures(
            a.events_rejected - b.events_rejected,
            a.events_dropped - b.events_dropped,
            0,
            report,
        );
    }
    let spans = crate::trace::take();
    let events = out.events_sent.max(1) as f64;
    report.put_percentile(
        "tracefmt.encode_us_p50",
        &mut scale(&out.encode_ns, 1e-3),
        50.0,
        "us",
    );
    report.put_percentile(
        "tracefmt.decode_us_p50",
        &mut scale(&out.decode_ns, 1e-3),
        50.0,
        "us",
    );
    report.put(
        "gateway.frames_forwarded_per_event",
        (gw_after.frames_forwarded - gw_before.frames_forwarded) as f64 / events,
        "ratio",
    );
    report.put(
        "gateway.backpressure_stalls",
        (gw_after.backpressure_stalls - gw_before.backpressure_stalls) as f64,
        "count",
    );
    report.put(
        "gateway.sessions_dropped",
        (gw_after.sessions_dropped - gw_before.sessions_dropped) as f64,
        "count",
    );
    let relayed: u64 = before
        .iter()
        .zip(&after)
        .map(|(b, a)| a.dist_updates_relayed - b.dist_updates_relayed)
        .sum();
    report.put(
        "dist.updates_per_event",
        relayed as f64 / out.events_dist.max(1) as f64,
        "ratio",
    );
    report.put_percentile("gen.late_ms_p99", &mut out.late_ms, 99.0, "ms");
    crate::trace::write_jsonl(
        &crate::out_dir().join(format!("spans-gateway-{seed}.jsonl")),
        &spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;
    Ok(())
}

fn scale(s: &Samples, k: f64) -> Samples {
    let mut out = Samples::new();
    for v in s.values() {
        out.push(v * k);
    }
    out
}
