//! `stream-durable`: two concurrent SDK sessions, one connection each,
//! `batch_max` 64, against one loopback monitor with the WAL on (sync
//! `os`) and slicing at its default. Closed loop: each load thread
//! opens its next session only after the previous `CloseReport`. The
//! untraced run hosts the monitor in a child process ([`crate::host`]);
//! the traced pass hosts it in-process to read its snapshots.

use crate::host::Child;
use crate::plans::{stream_plan, Plan};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::span;
use crate::{host_slowness, remove_dir, repeated_setup, scratch_dir, Args, SETUP_ROUNDS};
use hb_monitor::{MetricsSnapshot, MonitorConfig, MonitorService, PersistConfig};
use hb_sdk::transport::TcpTransport;
use hb_sdk::{RetryPolicy, SdkSnapshot, SessionBuilder, Transport};
use hb_store::SyncPolicy;
use hb_tracefmt::wire::{read_frame, write_frame, ClientMsg, ServerMsg};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monitor shards, as on the 2-CPU reference host.
pub const SHARDS: usize = 2;
/// Load threads (one SDK connection each).
const LOAD_THREADS: usize = 2;
/// SDK flush-batch cap.
pub const BATCH: usize = 64;
/// Distinct sessions generated per seed; load threads cycle over them.
const POOL: usize = 48;
/// One `emit` in this many gets a span: a span per event would hold
/// millions of spans in memory on a traced run.
const EMIT_SPAN_EVERY: usize = 16;
/// Windows the run is split into, with a host-speed probe between.
const WINDOWS: usize = 10;
/// Warm-up sessions per load thread in set-up.
const WARM_UP_SESSIONS: usize = 3;
/// Events per process of a session (8 processes: 2400 events).
pub const EVENTS_PER_PROCESS: usize = 300;

/// A monitor service on a loopback port, served by its own thread.
pub struct Hosted {
    pub service: Option<MonitorService>,
    pub addr: String,
    thread: Option<JoinHandle<()>>,
    dir: Option<PathBuf>,
}

/// Starts a monitor with `shards` shards; `wal` turns on the WAL with
/// sync `os` in a fresh directory under the run's output directory.
pub fn host_monitor(wal: bool) -> Result<Hosted, String> {
    let dir = if wal { Some(scratch_dir("wal")?) } else { None };
    let config = MonitorConfig {
        shards: SHARDS,
        persist: dir.as_ref().map(|d| PersistConfig {
            sync: SyncPolicy::Os,
            ..PersistConfig::new(d.clone())
        }),
        ..MonitorConfig::default()
    };
    let service = if wal {
        MonitorService::open(config).map_err(|e| format!("open WAL monitor: {e}"))?
    } else {
        MonitorService::start(config)
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let handle = service.handle();
    let thread = std::thread::spawn(move || {
        let _ = hb_monitor::serve(listener, handle);
    });
    Ok(Hosted {
        service: Some(service),
        addr,
        thread: Some(thread),
        dir,
    })
}

/// Asks a served endpoint to shut down and waits for its `bye`.
pub fn shutdown_endpoint(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut r = BufReader::new(stream);
    write_frame(&mut w, &ClientMsg::Shutdown).map_err(|e| e.to_string())?;
    let _ = read_frame::<_, ServerMsg>(&mut r);
    Ok(())
}

impl Hosted {
    pub fn metrics(&self) -> MetricsSnapshot {
        self.service
            .as_ref()
            .expect("service runs until drop")
            .metrics()
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            if shutdown_endpoint(&self.addr).is_ok() {
                let _ = t.join();
            }
        }
        if let Some(s) = self.service.take() {
            s.shutdown();
        }
        if let Some(d) = self.dir.take() {
            remove_dir(&d);
        }
    }
}

/// Generates the session pool.
pub fn build_plans(
    seed: u64,
    count: usize,
    events_per_process: usize,
) -> Result<Vec<Plan>, String> {
    (0..count)
        .map(|i| {
            stream_plan(
                seed.wrapping_mul(7919).wrapping_add(i as u64),
                events_per_process,
            )
        })
        .collect()
}

/// What the load loop measured.
#[derive(Default)]
pub struct Outcome {
    pub session_ms: Samples,
    pub events: u64,
    pub wall_secs: f64,
    pub sdk: SdkSnapshot,
    pub open_ms: Samples,
    pub close_ms: Samples,
}

fn add_sdk(a: &mut SdkSnapshot, b: &SdkSnapshot) {
    a.events_enqueued += b.events_enqueued;
    a.events_sent += b.events_sent;
    a.events_resent += b.events_resent;
    a.events_dropped += b.events_dropped;
    a.wire_batches_sent += b.wire_batches_sent;
    a.batches_flushed += b.batches_flushed;
    a.reconnects += b.reconnects;
    a.server_errors += b.server_errors;
}

/// A session's outcome: the transport to reuse and the SDK counters,
/// or the transport (when still usable) and what went wrong.
pub type SessionResult =
    Result<(Box<dyn Transport>, SdkSnapshot), (Option<Box<dyn Transport>>, String)>;

/// One session through the SDK: open, emit every frame, close.
/// Returns its wall time and SDK counters.
pub fn sdk_session(
    transport: Box<dyn Transport>,
    plan: &Plan,
    name: &str,
    batch: usize,
    request: u64,
    timings: Option<(&mut Samples, &mut Samples)>,
) -> SessionResult {
    let mut builder = SessionBuilder::new(name, plan.processes)
        .batch_max(batch)
        .distributed(plan.dist);
    for v in &plan.vars {
        builder = builder.var(v);
    }
    for p in &plan.predicates {
        builder = builder.predicate(p.clone());
    }
    let t0 = Instant::now();
    let opened = {
        let _s = span("sdk.open", request);
        builder.open(transport)
    };
    let (session, _tracers) = opened.map_err(|e| (None, format!("{name}: open: {e}")))?;
    let open_secs = t0.elapsed().as_secs_f64();
    for (i, f) in plan.frames.iter().enumerate() {
        let _s = (i % EMIT_SPAN_EVERY == 0).then(|| span("sdk.emit", request));
        if !session.emit(f.p, f.clock.clone(), f.set.clone()) {
            return Err((None, format!("{name}: event dropped by the SDK queue")));
        }
    }
    let t1 = Instant::now();
    let closed = {
        let _s = span("sdk.close", request);
        session.close_reclaim()
    };
    let (report, transport) = closed.map_err(|e| (None, format!("{name}: close: {e}")))?;
    if let Some((open_ms, close_ms)) = timings {
        open_ms.push(open_secs * 1e3);
        close_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    let check = if let Some(e) = report.errors.first() {
        Err(format!("server error: {e}"))
    } else if report.discarded > 0 {
        Err(format!("{} events discarded at close", report.discarded))
    } else if report.metrics.events_dropped > 0 {
        Err(format!(
            "{} events dropped by the SDK",
            report.metrics.events_dropped
        ))
    } else {
        plan.check(&report.verdicts)
    };
    match check {
        Ok(()) => Ok((transport, report.metrics)),
        Err(e) => Err((Some(transport), format!("{name}: {e}"))),
    }
}

/// Runs the closed loop for `seconds` (or `sessions_per_thread`
/// sessions, when given) against `addr`.
pub fn load(
    addr: &str,
    plans: &[Plan],
    seconds: f64,
    sessions_per_thread: Option<usize>,
    tag: &str,
    report: &mut Report,
) -> Outcome {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<(Outcome, Vec<Result<(), String>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut checks = Vec::new();
                    let mut transport: Option<Box<dyn Transport>> =
                        match TcpTransport::dial(addr, RetryPolicy::with_retries(3)) {
                            Ok(tr) => Some(Box::new(tr)),
                            Err(e) => {
                                checks.push(Err(format!("{tag} thread {t}: dial: {e}")));
                                None
                            }
                        };
                    let mut k = 0usize;
                    while let Some(tr) = transport.take() {
                        let done = match sessions_per_thread {
                            Some(n) => k >= n,
                            None => Instant::now() >= deadline,
                        };
                        if done {
                            break;
                        }
                        let plan = &plans[(t + LOAD_THREADS * k) % plans.len()];
                        let name = format!("{tag}-{t}-{k}");
                        let request = ((t as u64) << 32) | k as u64;
                        let t0 = Instant::now();
                        let _root = span("stream.session", request);
                        match sdk_session(
                            tr,
                            plan,
                            &name,
                            BATCH,
                            request,
                            Some((&mut out.open_ms, &mut out.close_ms)),
                        ) {
                            Ok((tr, sdk)) => {
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                out.session_ms.push(ms);
                                out.events += plan.frames.len() as u64;
                                add_sdk(&mut out.sdk, &sdk);
                                checks.push(Ok(()));
                                transport = Some(tr);
                            }
                            Err((tr, e)) => {
                                checks.push(Err(e));
                                transport = tr;
                            }
                        }
                        k += 1;
                    }
                    (out, checks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Outcome {
        wall_secs: started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for (out, checks) in results {
        total.session_ms.extend(out.session_ms);
        total.open_ms.extend(out.open_ms);
        total.close_ms.extend(out.close_ms);
        total.events += out.events;
        add_sdk(&mut total.sdk, &out.sdk);
        for c in checks {
            report.check(c);
        }
    }
    total
}

/// Monitor-side failures between two snapshots: rejected and dropped
/// events count as failed operations.
pub fn monitor_failures(rejected: u64, dropped: u64, events: u64, report: &mut Report) {
    report.attempted += events;
    if rejected + dropped > 0 {
        report.failed += rejected + dropped;
        eprintln!("e2ebench: FAILED monitor rejected {rejected} and dropped {dropped} events");
    }
}

/// The change in a stats counter between two snapshots of one endpoint.
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    key: &str,
) -> u64 {
    let get = |m: &BTreeMap<String, u64>| m.get(key).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// A warm-up session on each load thread.
fn warm_up(addr: &str, plans: &[Plan]) -> Result<(), String> {
    let mut warm = Report::default();
    load(addr, plans, 0.0, Some(WARM_UP_SESSIONS), "warm", &mut warm);
    if warm.failed > 0 {
        return Err("warm-up sessions failed".into());
    }
    Ok(())
}

/// The traced pass's set-up: the session pool and a WAL monitor in this
/// process, whose snapshots the pass reads, warmed up.
pub struct Ctx {
    pub plans: Vec<Plan>,
    pub monitor: Hosted,
}

pub fn setup(seed: u64) -> Result<Ctx, String> {
    let plans = build_plans(seed, POOL, EVENTS_PER_PROCESS)?;
    let monitor = host_monitor(true)?;
    warm_up(&monitor.addr, &plans)?;
    Ok(Ctx { plans, monitor })
}

pub fn run_end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up: the session pool, the WAL monitor in a child process, and
    // the warm-up.
    let (plans, host) = repeated_setup(SETUP_ROUNDS, report, || {
        let plans = build_plans(args.seed, POOL, EVENTS_PER_PROCESS)?;
        let host = Child::spawn(crate::host::WAL_MONITOR)?;
        warm_up(&host.addrs[0], &plans)?;
        Ok((plans, host))
    })?;
    let addr = &host.addrs[0];
    let before = host.counters(0)?;
    // Windows of the closed loop, with the host's speed probed between
    // them while the stack is idle; each window's figures are
    // normalised to nominal host speed.
    let window_secs = args.seconds / WINDOWS as f64;
    let (mut rates, mut raw_rates, mut slowness) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ms, mut raw_ms) = (Samples::new(), Samples::new());
    let mut events = 0;
    let mut s_before = host_slowness();
    for w in 0..WINDOWS {
        let out = load(addr, &plans, window_secs, None, &format!("sd{w}"), report);
        let s_after = host_slowness();
        let s = (s_before + s_after) / 2.0;
        s_before = s_after;
        slowness.push(s);
        let rate = out.events as f64 / out.wall_secs.max(1e-9);
        rates.push(rate * s);
        raw_rates.push(rate);
        for &v in out.session_ms.values() {
            ms.push(v / s);
            raw_ms.push(v);
        }
        events += out.events;
    }
    let after = host.counters(0)?;
    monitor_failures(
        counter_delta(&before, &after, "events_rejected"),
        counter_delta(&before, &after, "events_dropped"),
        events,
        report,
    );
    report.put("rss_peak_mb", host.rss_peak_mb()?, "MB");
    report.put_n(
        "events_per_s",
        median(&rates).unwrap_or(0.0),
        "1/s",
        rates.len(),
    );
    report.put_n(
        "events_per_s.raw",
        median(&raw_rates).unwrap_or(0.0),
        "1/s",
        raw_rates.len(),
    );
    for (name, q) in [
        ("session_ms_p50", 50.0),
        ("session_ms_p90", 90.0),
        ("session_ms_p99", 99.0),
    ] {
        report.put_percentile(name, &mut ms, q, "ms");
        report.put_percentile(&format!("{name}.raw"), &mut raw_ms, q, "ms");
    }
    report.put_n(
        "host.slowness",
        median(&slowness).unwrap_or(0.0),
        "ratio",
        slowness.len(),
    );
    report.notes.push(format!(
        "events_per_s is the median over {WINDOWS} windows and session_ms the sessions of all \
         windows, normalised to nominal host speed (.raw: as measured); rss_peak_mb is the \
         monitor process's peak"
    ));
    Ok(())
}

/// The traced stream pass: SDK spans, SDK and monitor snapshot deltas.
pub fn traced_pass(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let ctx = setup(seed)?;
    let before = ctx.monitor.metrics();
    crate::trace::set_enabled(true);
    let mut out = load(&ctx.monitor.addr, &ctx.plans, seconds, None, "sdt", report);
    crate::trace::set_enabled(false);
    let after = ctx.monitor.metrics();
    monitor_failures(
        after.events_rejected - before.events_rejected,
        after.events_dropped - before.events_dropped,
        out.events,
        report,
    );
    let spans = crate::trace::take();
    let mut emit = Samples::new();
    for d in crate::trace::durations(&spans, "sdk.emit") {
        emit.push(d);
    }
    report.put_percentile("sdk.emit_ns_p50", &mut emit, 50.0, "ns");
    report.put_percentile("sdk.open_ms_p50", &mut out.open_ms, 50.0, "ms");
    report.put_percentile("sdk.close_ms_p50", &mut out.close_ms, 50.0, "ms");
    report.put(
        "sdk.events_per_frame",
        out.sdk.events_sent as f64 / out.sdk.wire_batches_sent.max(1) as f64,
        "ratio",
    );
    report.put("sdk.resent", out.sdk.events_resent as f64, "count");
    report.put("sdk.dropped", out.sdk.events_dropped as f64, "count");
    report.put(
        "monitor.held_high_water",
        after.events_held_high_water as f64,
        "count",
    );
    report.put(
        "monitor.rejected",
        (after.events_rejected - before.events_rejected) as f64,
        "count",
    );
    let (mut events_in, mut filtered) = (0u64, 0u64);
    for (key, &v) in &after.slices {
        let old = before.slices.get(key).copied().unwrap_or(0);
        if key.ends_with(".events_in") {
            events_in += v - old;
        } else if key.ends_with(".events_filtered") {
            filtered += v - old;
        }
    }
    report.put(
        "slice.reduction_ratio",
        events_in as f64 / events_in.saturating_sub(filtered).max(1) as f64,
        "ratio",
    );
    let events = out.events.max(1) as f64;
    report.put(
        "store.wal_bytes_per_event",
        (after.wal_bytes - before.wal_bytes) as f64 / events,
        "B",
    );
    report.put(
        "store.fsync_max_us",
        after.wal_fsync_max_micros as f64,
        "us",
    );
    report.put(
        "store.snapshots",
        (after.snapshots_written - before.snapshots_written) as f64,
        "count",
    );
    crate::trace::write_jsonl(
        &crate::out_dir().join(format!("spans-stream-{seed}.jsonl")),
        &spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;
    Ok(())
}
