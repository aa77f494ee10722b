//! The long-running monitoring service.
//!
//! # Architecture
//!
//! ```text
//!  TCP conns ──┐                       ┌── shard worker 0 ── sessions…
//!  in-process ─┴─ MonitorHandle ──────►├── shard worker 1 ── sessions…
//!   clients        (route by           └── shard worker k ── sessions…
//!                   hash(session))            │
//!                      │   ▲                  └─ verdicts → client sink
//!                      ▼   └── Arc<Metrics> ◄─┘
//!                  hb-store WAL
//!                  (when --data-dir is set)
//! ```
//!
//! Sessions are sharded across a fixed pool of worker threads by a hash
//! of the session name, so one session's events are always handled by
//! one thread (per-session order preserved, no locks on the hot path)
//! while independent sessions proceed in parallel. Each client supplies
//! a **sink** channel at open time; verdicts, errors, and close
//! notifications flow back through it asynchronously.
//!
//! # Durability
//!
//! With a [`PersistConfig`], every session-mutating client message is
//! appended to an [`hb_store`] write-ahead log *before* it is routed to
//! a shard — the WAL is the input tape, and replaying it reproduces the
//! service state. Periodic snapshots (every `snapshot_every` records)
//! freeze all sessions at a known WAL position so recovery replays only
//! the tail; covered segments are compacted away. Opening a service on
//! an existing data directory *is* crash recovery: the newest valid
//! snapshot is restored, the tail replayed, and the rebuilt sessions
//! handed to the shard workers before any new input is accepted.
//! Recovered sessions keep running detectors; the first client message
//! that touches one re-attaches its reply sink and re-reports any
//! verdict that settled before the crash.
//!
//! Transports are thin: the in-process [`MonitorHandle`] is the service
//! API, and [`serve`] adapts it to TCP — one reader thread per
//! connection decoding wire frames, one writer thread encoding sink
//! messages back. A `shutdown` message (or [`MonitorService::shutdown`])
//! flushes every session — stranded held events are discarded, final
//! verdicts are emitted — before the workers exit.

use crate::buffer::IngestError;
use crate::dist::{AggStep, DistAggregator, DistWorker};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::persist::{AggregatorSlotSnapshot, PersistConfig, ServiceSnapshot, WorkerSlotSnapshot};
use crate::session::{Session, SessionError, SessionLimits, VerdictEvent};
use crossbeam::channel::{unbounded, Receiver, Sender};
use hb_detect::online::OnlineVerdict;
use hb_store::{Store, StoreError, StoreOptions};
use hb_tracefmt::wire::{
    self, ClientMsg, ServerMsg, SliceUpdateBody, WireDistRole, WireMode, WirePredicate, WireVerdict,
};
use hb_vclock::VectorClock;
use parking_lot::Mutex;
use serde::{Deserialize as _, Serialize as _};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Worker threads; sessions are sharded across them. Zero means one.
    pub shards: usize,
    /// Per-session causal-buffer limits.
    pub limits: SessionLimits,
    /// Period of the stats log line on stderr; `None` disables it.
    pub stats_interval: Option<Duration>,
    /// Write-ahead logging and crash recovery; `None` keeps the service
    /// purely in-memory.
    pub persist: Option<PersistConfig>,
    /// The highest protocol version this service speaks — normally
    /// [`wire::WIRE_VERSION`]. Lowering it makes the service behave
    /// like an older build (refusing newer `hello`s and, below 3, the
    /// batched `events` frame); compatibility tests use this to pit a
    /// current SDK against yesterday's server.
    pub wire_version: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            shards: 4,
            limits: SessionLimits::default(),
            stats_interval: None,
            persist: None,
            wire_version: wire::WIRE_VERSION,
        }
    }
}

/// A command routed to a shard worker.
enum Cmd {
    /// A session frame, already write-ahead-logged when persistence is
    /// on; replies and errors go to `sink`.
    Client {
        msg: ClientMsg,
        sink: Sender<ServerMsg>,
    },
    /// Freeze every session on this shard and reply with the batch.
    /// The sender holds the WAL lock while waiting, so everything the
    /// shard saw before this command is — by construction — at a lower
    /// WAL position than the snapshot will claim.
    Snapshot { reply: Sender<ServiceSnapshot> },
    /// Close every remaining session and stop the worker (graceful
    /// shutdown). Handles may outlive the service, so workers cannot
    /// rely on channel disconnection to learn about shutdown.
    Flush,
}

/// The write-ahead log plus its snapshot cadence, behind one lock: an
/// append and its routing to a shard happen under the lock, so the WAL
/// order and the shard queue order never disagree.
struct WalInner {
    store: Store,
    since_snapshot: u64,
    snapshot_every: u64,
}

type SharedWal = Arc<Mutex<WalInner>>;

/// The running service: shard workers plus shared metrics.
pub struct MonitorService {
    shards: Vec<Sender<Cmd>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    wal: Option<SharedWal>,
    stats_stop: Option<Sender<()>>,
    stats_thread: Option<JoinHandle<()>>,
    wire_version: u32,
}

/// A cheap, cloneable client of a running service.
#[derive(Clone)]
pub struct MonitorHandle {
    shards: Vec<Sender<Cmd>>,
    metrics: Arc<Metrics>,
    wal: Option<SharedWal>,
    wire_version: u32,
}

fn shard_index_of(session: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    session.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A sink whose receiver is already gone: sends are silently dropped.
/// Recovered sessions start with one until a client re-attaches.
fn dead_sink() -> Sender<ServerMsg> {
    unbounded().0
}

/// Re-applies one replayed WAL record to the recovering slots. Errors
/// are ignored: they were reported to the original client when the
/// record was first acknowledged, and replay must be idempotent over
/// them.
fn apply_replayed(msg: ClientMsg, slots: &mut Slots, limits: SessionLimits) {
    fn role<'a>(slots: &'a mut Slots, session: &str) -> Option<&'a mut Role> {
        slots.get_mut(session).map(|slot| &mut slot.role)
    }
    match msg {
        ClientMsg::Open {
            session,
            processes,
            vars,
            initial,
            predicates,
            dist,
        } => {
            if let Entry::Vacant(slot) = slots.entry(session) {
                let opened = Role::open(
                    slot.key(),
                    processes,
                    &vars,
                    &initial,
                    &predicates,
                    dist,
                    limits,
                );
                if let Ok(mut role) = opened {
                    let _ = role.take_initial_verdicts();
                    slot.insert(Slot::detached(role));
                }
            }
        }
        ClientMsg::Event {
            session,
            p,
            clock,
            set,
        } => {
            if let Some(Role::Plain(s)) = role(slots, &session) {
                let _ = s.event(p, VectorClock::from_components(clock), &set);
            }
        }
        ClientMsg::Events { session, events } => {
            if let Some(Role::Plain(s)) = role(slots, &session) {
                for e in events {
                    let _ = s.event(e.p, VectorClock::from_components(e.clock), &e.set);
                }
            }
        }
        ClientMsg::FinishProcess { session, p } => {
            if let Some(Role::Plain(s)) = role(slots, &session) {
                let _ = s.finish_process(p);
            }
        }
        ClientMsg::Close { session } => {
            slots.remove(&session);
        }
        ClientMsg::DistEvent {
            session,
            seq,
            event,
        } => {
            if let Some(Role::Worker { engine, .. }) = role(slots, &session) {
                let clock = VectorClock::from_components(event.clock);
                let _ = engine.observe(seq, event.p, clock, &event.set);
            }
        }
        ClientMsg::SliceUpdate {
            session,
            seq,
            update,
        } => {
            if let Some(Role::Aggregator(a)) = role(slots, &session) {
                let steps = a.update(seq, update);
                if steps.iter().any(|s| matches!(s, AggStep::Closed { .. })) {
                    slots.remove(&session);
                }
            }
        }
        // Answered inline by `submit`, never written to the WAL.
        ClientMsg::Stats
        | ClientMsg::Shutdown
        | ClientMsg::Hello { .. }
        | ClientMsg::Drain { .. } => {}
    }
}

/// Runs the snapshot barrier: asks every shard for its frozen sessions,
/// writes the combined snapshot at the current WAL position, and
/// compacts covered segments. Called with the WAL lock held, so no new
/// record can slip between the position claimed and the state captured.
fn snapshot_barrier(
    shards: &[Sender<Cmd>],
    metrics: &Metrics,
    inner: &mut WalInner,
) -> Result<(), StoreError> {
    let (reply_tx, reply_rx) = unbounded();
    let mut expected = 0;
    for tx in shards {
        if tx
            .send(Cmd::Snapshot {
                reply: reply_tx.clone(),
            })
            .is_ok()
        {
            expected += 1;
        }
    }
    drop(reply_tx);
    let mut snap = ServiceSnapshot::default();
    for _ in 0..expected {
        match reply_rx.recv() {
            Ok(mut freeze) => {
                snap.sessions.append(&mut freeze.sessions);
                snap.workers.append(&mut freeze.workers);
                snap.aggregators.append(&mut freeze.aggregators);
            }
            Err(_) => {
                return Err(StoreError::Corrupt(
                    "shard worker exited during snapshot".into(),
                ))
            }
        }
    }
    snap.sessions.sort_by(|a, b| a.name.cmp(&b.name));
    snap.workers.sort_by(|a, b| a.name.cmp(&b.name));
    snap.aggregators.sort_by(|a, b| a.name.cmp(&b.name));
    inner.store.write_snapshot(snap.to_json().as_bytes())?;
    inner.store.compact()?;
    inner.since_snapshot = 0;
    metrics.snapshots_written.fetch_add(1, Ordering::Relaxed);
    metrics
        .snapshot_unix_secs
        .store(unix_now_secs(), Ordering::Relaxed);
    Ok(())
}

impl MonitorService {
    /// Starts a service that cannot fail to start (no persistence, or
    /// the caller accepts a panic on storage errors). Prefer
    /// [`MonitorService::open`] when a data directory is configured.
    pub fn start(config: MonitorConfig) -> MonitorService {
        MonitorService::open(config).expect("start monitor service")
    }

    /// Opens the service: recovers durable state (when configured),
    /// then starts the shard workers — pre-seeded with the recovered
    /// sessions — and the stats reporter.
    ///
    /// Fails only on storage problems: a data directory locked by a
    /// running process ([`StoreError::Locked`]), I/O errors, or a
    /// snapshot too damaged to parse ([`StoreError::Corrupt`] — a
    /// damaged WAL *tail* is repaired silently, but a snapshot that
    /// exists and lies is refused rather than guessed at).
    pub fn open(config: MonitorConfig) -> Result<MonitorService, StoreError> {
        let shards = config.shards.max(1);
        let metrics = Arc::new(Metrics::new());

        // Recovery happens before the first worker spawns: the rebuilt
        // sessions are handed over as worker initial state, so no new
        // input can interleave with the replay.
        let mut initial: Vec<Slots> = (0..shards).map(|_| Slots::new()).collect();
        let wal: Option<SharedWal> = match &config.persist {
            None => None,
            Some(p) => {
                let started = Instant::now();
                let store = Store::open(
                    &p.dir,
                    StoreOptions {
                        segment_bytes: p.segment_bytes,
                        sync: p.sync,
                    },
                )?;
                let mut slots = Slots::new();
                let mut from_seq = 0;
                if let Some((seq, payload)) = store.load_snapshot()? {
                    let snap = ServiceSnapshot::from_json(&payload).map_err(StoreError::Corrupt)?;
                    slots = thaw(&snap, config.limits).map_err(StoreError::Corrupt)?;
                    from_seq = seq;
                }
                let mut replayed = 0u64;
                for rec in store.replay(from_seq) {
                    let (seq, payload) = rec?;
                    let text = std::str::from_utf8(&payload).map_err(|e| {
                        StoreError::Corrupt(format!("wal record {seq} is not UTF-8: {e}"))
                    })?;
                    let value = serde_json::parse_value(text)
                        .map_err(|e| StoreError::Corrupt(format!("wal record {seq}: {e}")))?;
                    let msg = ClientMsg::from_value(&value)
                        .map_err(|e| StoreError::Corrupt(format!("wal record {seq}: {e}")))?;
                    apply_replayed(msg, &mut slots, config.limits);
                    replayed += 1;
                }
                let report = store.recovery_report();
                metrics
                    .sessions_recovered
                    .store(slots.len() as u64, Ordering::Relaxed);
                metrics.recovery_replayed.store(replayed, Ordering::Relaxed);
                metrics
                    .recovery_truncated_bytes
                    .store(report.truncated_bytes, Ordering::Relaxed);
                metrics
                    .recovery_millis
                    .store(started.elapsed().as_millis() as u64, Ordering::Relaxed);
                if let Some(secs) = store.stats().snapshot_unix_secs {
                    metrics.snapshot_unix_secs.store(secs, Ordering::Relaxed);
                }
                for (name, slot) in slots {
                    initial[shard_index_of(&name, shards)].insert(name, slot);
                }
                Some(Arc::new(Mutex::new(WalInner {
                    store,
                    since_snapshot: 0,
                    snapshot_every: p.snapshot_every.max(1),
                })))
            }
        };

        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, seed) in initial.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            let metrics = Arc::clone(&metrics);
            let limits = config.limits;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hb-monitor-shard-{shard}"))
                    .spawn(move || shard_worker(rx, limits, metrics, seed))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        let (stats_stop, stats_thread) = match config.stats_interval {
            Some(period) => {
                let (stop_tx, stop_rx) = unbounded::<()>();
                let metrics = Arc::clone(&metrics);
                let handle = std::thread::Builder::new()
                    .name("hb-monitor-stats".into())
                    .spawn(move || loop {
                        match stop_rx.recv_timeout(period) {
                            Ok(()) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                                return
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                eprintln!("hb-monitor: {}", metrics.snapshot());
                            }
                        }
                    })
                    .expect("spawn stats thread");
                (Some(stop_tx), Some(handle))
            }
            None => (None, None),
        };
        Ok(MonitorService {
            shards: senders,
            workers,
            metrics,
            wal,
            stats_stop,
            stats_thread,
            wire_version: config
                .wire_version
                .clamp(wire::MIN_WIRE_VERSION, wire::WIRE_VERSION),
        })
    }

    /// A client handle for submitting messages in-process.
    pub fn handle(&self) -> MonitorHandle {
        MonitorHandle {
            shards: self.shards.clone(),
            metrics: Arc::clone(&self.metrics),
            wal: self.wal.clone(),
            wire_version: self.wire_version,
        }
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Gracefully shuts down: every open session is closed (emitting
    /// final verdicts into its sink), then the workers exit and join.
    /// With persistence, an **empty** snapshot is written last — a
    /// graceful shutdown resolves every session, so a later restart has
    /// nothing to recover and must not resurrect them.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        for tx in &self.shards {
            let _ = tx.send(Cmd::Flush);
        }
        self.shards.clear(); // disconnect: workers exit after the flush
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(wal) = self.wal.take() {
            let mut inner = wal.lock();
            let done = ServiceSnapshot::default();
            if let Err(e) = inner
                .store
                .write_snapshot(done.to_json().as_bytes())
                .and_then(|()| inner.store.compact().map(|_| ()))
            {
                eprintln!("hb-monitor: final snapshot failed: {e}");
            }
        }
        if let Some(stop) = self.stats_stop.take() {
            let _ = stop.send(());
        }
        if let Some(t) = self.stats_thread.take() {
            let _ = t.join();
        }
        self.metrics.snapshot()
    }
}

impl MonitorHandle {
    fn shard_index(&self, session: &str) -> usize {
        shard_index_of(session, self.shards.len())
    }

    /// Submits one client message; responses arrive on `sink`.
    ///
    /// With persistence, session-mutating messages are appended to the
    /// WAL **before** they are routed to a shard — by the time any
    /// effect of the message is observable, its record is in the log.
    /// An append failure refuses the message with `ServerMsg::Error`
    /// instead of processing input that would be lost by a crash.
    ///
    /// `Stats` is answered synchronously from the shared metrics (no
    /// shard round-trip); `Shutdown` is a transport-level concern and
    /// answered with `Bye` — shutting the service down is the owner's
    /// call via [`MonitorService::shutdown`].
    pub fn submit(&self, msg: ClientMsg, sink: &Sender<ServerMsg>) {
        let refuse = |session: Option<&String>, kind: Option<&str>, message: String| {
            self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = sink.send(ServerMsg::Error {
                session: session.cloned(),
                kind: kind.map(str::to_string),
                message,
            });
        };
        let session = match &msg {
            ClientMsg::Stats => {
                let _ = sink.send(ServerMsg::Stats {
                    counters: self.metrics.snapshot().to_map(),
                });
                return;
            }
            ClientMsg::Shutdown => {
                let _ = sink.send(ServerMsg::Bye);
                return;
            }
            // Version handshake: also the gateway's health probe, so it
            // must stay cheap and side-effect free.
            ClientMsg::Hello { version } => {
                match wire::negotiate_version(*version, self.wire_version) {
                    Ok(version) => {
                        let _ = sink.send(ServerMsg::Welcome { version });
                    }
                    Err(message) => refuse(None, None, message),
                }
                return;
            }
            ClientMsg::Drain { backend } => {
                let message = format!(
                    "cannot drain '{backend}': this is a monitor backend, \
                     not a gateway — point `hbtl gateway drain` at the gateway"
                );
                return refuse(None, None, message);
            }
            // A pre-v3 build has no `events` decoder; answering the way
            // its parser would keeps the emulation honest for
            // compatibility tests (the SDK never triggers this — it
            // falls back to single frames after the handshake).
            ClientMsg::Events { .. } if self.wire_version < 3 => {
                return refuse(None, None, "unknown client message 'events'".into());
            }
            // Pattern predicates joined the wire in v4. A pre-v4 build
            // would refuse the unknown mode at the parser; we answer
            // with a machine-readable kind so dialers can classify the
            // downgrade without scraping message text.
            ClientMsg::Open {
                session,
                predicates,
                ..
            } if self.wire_version < 4
                && predicates
                    .iter()
                    .any(|p| p.mode == WireMode::Pattern || p.pattern.is_some()) =>
            {
                let message = format!(
                    "pattern predicates need wire v4; this monitor speaks v{}",
                    self.wire_version
                );
                let kind = Some(wire::error_kind::UNSUPPORTED_PREDICATE);
                return refuse(Some(session), kind, message);
            }
            // Distributed sessions joined the wire in v5. A real pre-v5
            // parser would *silently ignore* the unknown `dist` key and
            // open a plain session — a correctness hazard, not a
            // degradation — so the emulation refuses loudly with a
            // machine-readable kind the gateway and SDK gate on.
            ClientMsg::Open {
                session,
                dist: Some(_),
                ..
            } if self.wire_version < 5 => {
                let message = format!(
                    "distributed sessions need wire v5; this monitor speaks v{}",
                    self.wire_version
                );
                let kind = Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION);
                return refuse(Some(session), kind, message);
            }
            // Partitioning is the gateway's job: a backend accepts the
            // derived worker/aggregator opens, never the client-facing
            // `distribute` request.
            ClientMsg::Open {
                session,
                dist: Some(WireDistRole::Distribute { .. }),
                ..
            } => {
                let message = "distributed sessions are opened through a gateway; \
                               this is a monitor backend";
                let kind = Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION);
                return refuse(Some(session), kind, message.into());
            }
            // A pre-v5 build has no decoder for the inter-monitor
            // frames; answer the way its parser would.
            ClientMsg::DistEvent { .. } if self.wire_version < 5 => {
                return refuse(None, None, "unknown client message 'dist-event'".into());
            }
            ClientMsg::SliceUpdate { .. } if self.wire_version < 5 => {
                return refuse(None, None, "unknown client message 'slice-update'".into());
            }
            ClientMsg::Open { session, .. }
            | ClientMsg::Event { session, .. }
            | ClientMsg::Events { session, .. }
            | ClientMsg::FinishProcess { session, .. }
            | ClientMsg::Close { session }
            | ClientMsg::DistEvent { session, .. }
            | ClientMsg::SliceUpdate { session, .. } => session,
        };
        let shard = self.shard_index(session);
        // A batch is one WAL record and one shard command: the append
        // is atomic, delivery in the shard is per event.
        let payload = self
            .wal
            .as_ref()
            .map(|_| serde_json::to_string(&msg.to_value()).expect("wire message serializes"));
        let cmd = Cmd::Client {
            msg,
            sink: sink.clone(),
        };
        match (&self.wal, payload) {
            (Some(wal), Some(payload)) => {
                let mut inner = wal.lock();
                if let Err(e) = inner.store.append(payload.as_bytes()) {
                    return refuse(None, None, format!("write-ahead log append failed: {e}"));
                }
                // Route while still holding the lock: a concurrent
                // snapshot barrier must not run between this record's
                // append and its arrival in the shard queue.
                let _ = self.shards[shard].send(cmd);
                let stats = inner.store.stats();
                self.metrics
                    .wal_records
                    .store(stats.appended_records, Ordering::Relaxed);
                self.metrics
                    .wal_bytes
                    .store(stats.appended_bytes, Ordering::Relaxed);
                self.metrics
                    .wal_fsyncs
                    .store(stats.fsyncs, Ordering::Relaxed);
                self.metrics
                    .wal_fsync_max_micros
                    .store(stats.fsync_max_micros, Ordering::Relaxed);
                inner.since_snapshot += 1;
                if inner.since_snapshot >= inner.snapshot_every {
                    if let Err(e) = snapshot_barrier(&self.shards, &self.metrics, &mut inner) {
                        eprintln!("hb-monitor: snapshot failed: {e}");
                    }
                }
            }
            _ => {
                let _ = self.shards[shard].send(cmd);
            }
        }
    }

    /// The shared metrics.
    pub fn stats(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// What a session slot hosts. The three roles share one per-backend
/// namespace: a worker partition sits under its decorated name
/// (`origin#w<i>`), an aggregator under the origin name it answers
/// for — it is the member of the partition the client hears.
enum Role {
    Plain(Session),
    Worker {
        /// The origin session the partition's slice updates address.
        origin: String,
        engine: DistWorker,
    },
    Aggregator(DistAggregator),
}

/// Which frames a slot takes. The order is the shutdown flush order:
/// workers flush before aggregators so a co-located aggregator can
/// still absorb their stranded-hold updates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Worker,
    Aggregator,
    Plain,
}

/// A verdict of a distributed session: its predicates are
/// conjunctive, never patterns.
fn dist_verdict((predicate, verdict): (String, OnlineVerdict)) -> VerdictEvent {
    VerdictEvent {
        predicate,
        pattern: false,
        verdict,
    }
}

impl Role {
    /// Opens the role `dist` names over one open request.
    fn open(
        name: &str,
        processes: usize,
        vars: &[String],
        initial: &[BTreeMap<String, i64>],
        predicates: &[WirePredicate],
        dist: Option<WireDistRole>,
        limits: SessionLimits,
    ) -> Result<Role, SessionError> {
        Ok(match dist {
            None => Role::Plain(Session::open(
                name, processes, vars, initial, predicates, limits,
            )?),
            Some(WireDistRole::Worker { origin, worker, k }) => Role::Worker {
                origin,
                engine: DistWorker::open(worker, k, processes, vars, initial, predicates)?,
            },
            Some(WireDistRole::Aggregator { k }) => Role::Aggregator(DistAggregator::open(
                k,
                processes,
                vars,
                initial,
                predicates,
                limits.buffer_capacity,
                limits.policy,
            )?),
            // `MonitorHandle::submit` refuses this role, so it is never
            // routed to a shard or written to the WAL.
            Some(WireDistRole::Distribute { .. }) => {
                return Err(SessionError::BadOpen(
                    "distributed sessions are opened through a gateway".into(),
                ))
            }
        })
    }

    fn kind(&self) -> Kind {
        match self {
            Role::Plain(_) => Kind::Plain,
            Role::Worker { .. } => Kind::Worker,
            Role::Aggregator(_) => Kind::Aggregator,
        }
    }

    /// Events in the role's causal buffer (a worker has none).
    fn held(&self) -> usize {
        match self {
            Role::Plain(s) => s.held(),
            Role::Worker { .. } => 0,
            Role::Aggregator(a) => a.held(),
        }
    }

    fn take_initial_verdicts(&mut self) -> Vec<VerdictEvent> {
        match self {
            Role::Plain(s) => s.take_initial_verdicts(),
            Role::Worker { .. } => Vec::new(),
            Role::Aggregator(a) => a
                .take_initial_verdicts()
                .into_iter()
                .map(dist_verdict)
                .collect(),
        }
    }

    /// Slicing-filter counter deltas. Only plain sessions and workers
    /// filter; an aggregator reporting its workers' filtering again
    /// would double count.
    fn take_slice_stats(&mut self) -> Vec<(String, u64, u64)> {
        match self {
            Role::Plain(s) => s.take_slice_stats(),
            Role::Worker { engine, .. } => engine.take_slice_stats(),
            Role::Aggregator(_) => Vec::new(),
        }
    }

    /// Moves the open-slot gauges by one; opening also counts a session
    /// opened, except for worker partitions, which no client sees.
    fn count(&self, metrics: &Metrics, open: bool) {
        let gauges: &[&AtomicU64] = match self {
            Role::Plain(_) => &[&metrics.sessions_active],
            Role::Worker { .. } => &[&metrics.dist_workers_active],
            Role::Aggregator(_) => &[&metrics.sessions_active, &metrics.dist_aggregators_active],
        };
        for gauge in gauges {
            if open {
                gauge.fetch_add(1, Ordering::Relaxed);
            } else {
                gauge.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if open && self.kind() != Kind::Worker {
            metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One session slot plus the sink registered at its open (or
/// re-attached after recovery).
struct Slot {
    role: Role,
    sink: Sender<ServerMsg>,
    /// False for a slot rebuilt by crash recovery that no client has
    /// spoken to yet: its sink is dead, and settled verdicts have not
    /// been shown to the post-restart client.
    attached: bool,
}

/// A shard's slots by session name.
type Slots = HashMap<String, Slot>;

impl Slot {
    /// A slot rebuilt by crash recovery, waiting for its client.
    fn detached(role: Role) -> Slot {
        Slot {
            role,
            sink: dead_sink(),
            attached: false,
        }
    }

    /// First client contact with a recovered slot: adopt the client's
    /// sink and re-report everything that settled before the crash
    /// (the client that originally received those verdicts is gone).
    fn attach(&mut self, name: &str, sink: &Sender<ServerMsg>, metrics: &Metrics) {
        if self.attached {
            return;
        }
        self.sink = sink.clone();
        self.attached = true;
        metrics.sessions_reattached.fetch_add(1, Ordering::Relaxed);
        let verdicts = match &self.role {
            Role::Plain(s) => s
                .all_verdicts()
                .into_iter()
                .map(|v| (v.predicate, v.verdict))
                .collect(),
            Role::Worker { .. } => Vec::new(),
            Role::Aggregator(a) => a.all_verdicts(),
        };
        for (predicate, verdict) in verdicts {
            if !matches!(verdict, OnlineVerdict::Pending) {
                let _ = self.sink.send(ServerMsg::Verdict {
                    session: name.to_string(),
                    predicate,
                    verdict: wire_verdict(&verdict),
                });
            }
        }
    }
}

/// The slot a frame for `kind` addresses, attached to `sink`. A missing
/// session, or one of another role, refuses the frame instead.
fn attached<'a>(
    slots: &'a mut Slots,
    session: &str,
    kind: Kind,
    sink: &Sender<ServerMsg>,
    metrics: &Metrics,
) -> Option<&'a mut Slot> {
    let message = match slots.get_mut(session) {
        Some(slot) if slot.role.kind() == kind => {
            slot.attach(session, sink, metrics);
            return Some(slot);
        }
        None => format!("no such session '{session}'"),
        Some(_) => match kind {
            Kind::Plain => {
                format!("session '{session}' is distributed; its frames are routed by the gateway")
            }
            Kind::Worker => format!("session '{session}' is not a distributed worker partition"),
            Kind::Aggregator => format!("session '{session}' is not a distributed session"),
        },
    };
    refuse(sink, session, None, message, metrics);
    None
}

fn wire_verdict(v: &OnlineVerdict) -> WireVerdict {
    match v {
        OnlineVerdict::Detected(cut) => WireVerdict::Detected(cut.counters().to_vec()),
        OnlineVerdict::Impossible => WireVerdict::Impossible,
        OnlineVerdict::Pending => WireVerdict::Pending,
    }
}

fn send_verdicts(
    name: &str,
    verdicts: impl IntoIterator<Item = VerdictEvent>,
    sink: &Sender<ServerMsg>,
    metrics: &Metrics,
) {
    for v in verdicts {
        metrics.verdicts_settled.fetch_add(1, Ordering::Relaxed);
        metrics.record_verdict(
            &v.predicate,
            v.pattern,
            matches!(v.verdict, OnlineVerdict::Detected(_)),
        );
        let _ = sink.send(ServerMsg::Verdict {
            session: name.to_string(),
            predicate: v.predicate,
            verdict: wire_verdict(&v.verdict),
        });
    }
}

/// Refuses a frame with one `error` frame, counted as a protocol error.
fn refuse(
    sink: &Sender<ServerMsg>,
    session: &str,
    kind: Option<&str>,
    message: String,
    metrics: &Metrics,
) {
    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let _ = sink.send(ServerMsg::Error {
        session: Some(session.to_string()),
        kind: kind.map(str::to_string),
        message,
    });
}

/// The machine-readable [`wire::error_kind`] for a session error, when
/// one exists. Replay artifacts of at-least-once clients get kinds so
/// those clients can classify them without parsing message text.
fn error_kind_of(e: &SessionError) -> Option<&'static str> {
    match e {
        SessionError::AlreadyFinished(_) => Some(wire::error_kind::ALREADY_FINISHED),
        SessionError::Ingest(IngestError::Duplicate { .. }) => {
            Some(wire::error_kind::DUPLICATE_EVENT)
        }
        _ => None,
    }
}

/// Reports a session error, counting causal-buffer refusals by cause.
fn send_error(name: &str, e: &SessionError, sink: &Sender<ServerMsg>, metrics: &Metrics) {
    let counter = match e {
        SessionError::Ingest(IngestError::Duplicate { .. }) => Some(&metrics.events_duplicate),
        SessionError::Ingest(IngestError::Overflow { .. }) => Some(&metrics.events_rejected),
        SessionError::Ingest(IngestError::Dropped) => Some(&metrics.events_dropped),
        _ => None,
    };
    if let Some(counter) = counter {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    refuse(sink, name, error_kind_of(e), e.to_string(), metrics);
}

/// Drains slicing-filter counter deltas into the shared metrics. Called
/// at verdict, finish, snapshot, and close boundaries — never per
/// event, so sliced ingestion stays mutex-free on the hot path (the
/// counters lag by at most one such boundary).
fn record_slices(stats: Vec<(String, u64, u64)>, metrics: &Metrics) {
    for (id, events_in, events_filtered) in stats {
        metrics.record_slice(&id, events_in, events_filtered);
    }
}

/// Moves the held gauge and the delivered counter by what one ingest
/// changed, given `(held, delivered)` before and after.
fn account(metrics: &Metrics, before: (usize, u64), after: (usize, u64)) {
    metrics
        .events_delivered
        .fetch_add(after.1 - before.1, Ordering::Relaxed);
    if after.0 > before.0 {
        metrics.held_add((after.0 - before.0) as u64);
    } else {
        metrics.held_sub((before.0 - after.0) as u64);
    }
}

/// Ships a worker's slice updates toward the aggregator: one
/// `ServerMsg::SliceUpdate` frame per update, carrying the **origin**
/// session name so the gateway can relay by session.
fn relay_updates(
    origin: &str,
    updates: Vec<(u64, SliceUpdateBody)>,
    sink: &Sender<ServerMsg>,
    metrics: &Metrics,
) {
    metrics
        .dist_updates_relayed
        .fetch_add(updates.len() as u64, Ordering::Relaxed);
    for (seq, update) in updates {
        let _ = sink.send(ServerMsg::SliceUpdate {
            session: origin.to_string(),
            seq,
            update,
        });
    }
}

/// Reports an aggregator's steps with the frames and counters a plain
/// session's outcomes get. Returns whether a close was processed.
fn send_steps(
    name: &str,
    steps: Vec<AggStep>,
    sink: &Sender<ServerMsg>,
    metrics: &Metrics,
) -> bool {
    let mut closed = false;
    for step in steps {
        match step {
            AggStep::Verdict { predicate, verdict } => {
                send_verdicts(name, [dist_verdict((predicate, verdict))], sink, metrics);
            }
            AggStep::Error(e) => send_error(name, &e, sink, metrics),
            AggStep::Closed { discarded } => {
                metrics
                    .events_discarded
                    .fetch_add(discarded, Ordering::Relaxed);
                let _ = sink.send(ServerMsg::Closed {
                    session: name.to_string(),
                    discarded,
                });
                closed = true;
            }
        }
    }
    closed
}

/// Feeds one event into a plain session and reports the outcome — the
/// shared per-event path of an `event` frame and every member of an
/// `events` batch.
fn ingest_one(
    name: &str,
    session: &mut Session,
    sink: &Sender<ServerMsg>,
    p: usize,
    clock: Vec<u32>,
    set: BTreeMap<String, i64>,
    metrics: &Metrics,
) {
    metrics.events_ingested.fetch_add(1, Ordering::Relaxed);
    let before = (session.held(), session.delivered());
    let result = session.event(p, VectorClock::from_components(clock), &set);
    account(metrics, before, (session.held(), session.delivered()));
    match result {
        Ok(verdicts) => {
            if !verdicts.is_empty() {
                record_slices(session.take_slice_stats(), metrics);
            }
            send_verdicts(name, verdicts, sink, metrics);
        }
        Err(e) => send_error(name, &e, sink, metrics),
    }
}

/// Closes a slot: stranded held events are discarded (a worker flushes
/// its held events into the update stream instead), every predicate
/// force-settles, and the sink gets the final verdicts and `closed`.
fn close_slot(name: &str, mut slot: Slot, metrics: &Metrics) {
    metrics.held_sub(slot.role.held() as u64);
    let (verdicts, discarded) = match &mut slot.role {
        Role::Plain(s) => s.close(),
        Role::Aggregator(a) => {
            let (verdicts, discarded) = a.close();
            (verdicts.into_iter().map(dist_verdict).collect(), discarded)
        }
        Role::Worker { origin, engine } => {
            let flushed = engine.close();
            let discarded = flushed.len() as u64;
            relay_updates(origin, flushed, &slot.sink, metrics);
            (Vec::new(), discarded)
        }
    };
    record_slices(slot.role.take_slice_stats(), metrics);
    // A worker's flushed holds travel on as updates; whichever of them
    // the aggregator strands, it counts itself.
    if slot.role.kind() != Kind::Worker {
        metrics
            .events_discarded
            .fetch_add(discarded, Ordering::Relaxed);
    }
    slot.role.count(metrics, false);
    send_verdicts(name, verdicts, &slot.sink, metrics);
    let _ = slot.sink.send(ServerMsg::Closed {
        session: name.to_string(),
        discarded,
    });
}

/// Freezes every slot of a shard for the snapshot barrier.
fn freeze(slots: &mut Slots, metrics: &Metrics) -> ServiceSnapshot {
    let mut snap = ServiceSnapshot::default();
    for (name, slot) in slots.iter_mut() {
        record_slices(slot.role.take_slice_stats(), metrics);
        match &slot.role {
            Role::Plain(s) => snap.sessions.push(s.snapshot()),
            Role::Worker { origin, engine } => snap.workers.push(WorkerSlotSnapshot {
                name: name.clone(),
                origin: origin.clone(),
                snap: engine.snapshot(),
            }),
            Role::Aggregator(a) => snap.aggregators.push(AggregatorSlotSnapshot {
                name: name.clone(),
                processes: a.processes(),
                snap: a.snapshot(),
            }),
        }
    }
    snap
}

/// Rebuilds every slot a snapshot froze, detached.
fn thaw(snap: &ServiceSnapshot, limits: SessionLimits) -> Result<Slots, String> {
    let mut slots = Slots::new();
    for s in &snap.sessions {
        let session = Session::restore(s, limits)
            .map_err(|e| format!("restore session '{}': {e}", s.name))?;
        slots.insert(s.name.clone(), Slot::detached(Role::Plain(session)));
    }
    for w in &snap.workers {
        let engine = DistWorker::restore(&w.snap, w.snap.states.len())
            .map_err(|e| format!("restore worker '{}': {e}", w.name))?;
        let origin = w.origin.clone();
        slots.insert(
            w.name.clone(),
            Slot::detached(Role::Worker { origin, engine }),
        );
    }
    for a in &snap.aggregators {
        let engine =
            DistAggregator::restore(&a.snap, a.processes, limits.buffer_capacity, limits.policy)
                .map_err(|e| format!("restore aggregator '{}': {e}", a.name))?;
        slots.insert(a.name.clone(), Slot::detached(Role::Aggregator(engine)));
    }
    Ok(slots)
}

/// The shard worker loop: owns its slots, applies commands in arrival
/// order, pushes responses into per-session sinks. `slots` starts with
/// the slots crash recovery rebuilt; they start detached.
fn shard_worker(rx: Receiver<Cmd>, limits: SessionLimits, metrics: Arc<Metrics>, mut slots: Slots) {
    for slot in slots.values() {
        slot.role.count(&metrics, true);
        metrics.held_add(slot.role.held() as u64);
    }
    for cmd in rx.iter() {
        let (msg, sink) = match cmd {
            Cmd::Client { msg, sink } => (msg, sink),
            Cmd::Snapshot { reply } => {
                let _ = reply.send(freeze(&mut slots, &metrics));
                continue;
            }
            Cmd::Flush => break,
        };
        match msg {
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                dist,
            } => {
                if slots.contains_key(&session) {
                    let message = format!("session '{session}' already open");
                    let kind = Some(wire::error_kind::ALREADY_OPEN);
                    refuse(&sink, &session, kind, message, &metrics);
                    continue;
                }
                match Role::open(
                    &session,
                    processes,
                    &vars,
                    &initial,
                    &predicates,
                    dist,
                    limits,
                ) {
                    Ok(mut role) => {
                        role.count(&metrics, true);
                        let _ = sink.send(ServerMsg::Opened {
                            session: session.clone(),
                        });
                        send_verdicts(&session, role.take_initial_verdicts(), &sink, &metrics);
                        slots.insert(
                            session,
                            Slot {
                                role,
                                sink,
                                attached: true,
                            },
                        );
                    }
                    Err(e) => send_error(&session, &e, &sink, &metrics),
                }
            }
            ClientMsg::Event {
                session,
                p,
                clock,
                set,
            } => {
                let slot = attached(&mut slots, &session, Kind::Plain, &sink, &metrics);
                let Some(Slot {
                    role: Role::Plain(s),
                    sink,
                    ..
                }) = slot
                else {
                    continue;
                };
                ingest_one(&session, s, sink, p, clock, set, &metrics);
            }
            ClientMsg::Events { session, events } => {
                let slot = attached(&mut slots, &session, Kind::Plain, &sink, &metrics);
                let Some(Slot {
                    role: Role::Plain(s),
                    sink,
                    ..
                }) = slot
                else {
                    continue;
                };
                metrics.batches_ingested.fetch_add(1, Ordering::Relaxed);
                for e in events {
                    ingest_one(&session, s, sink, e.p, e.clock, e.set, &metrics);
                }
            }
            ClientMsg::FinishProcess { session, p } => {
                let slot = attached(&mut slots, &session, Kind::Plain, &sink, &metrics);
                let Some(Slot {
                    role: Role::Plain(s),
                    sink,
                    ..
                }) = slot
                else {
                    continue;
                };
                match s.finish_process(p) {
                    Ok(verdicts) => {
                        record_slices(s.take_slice_stats(), &metrics);
                        send_verdicts(&session, verdicts, sink, &metrics);
                    }
                    Err(e) => send_error(&session, &e, sink, &metrics),
                }
            }
            // A gateway-routed event for a worker partition (wire v5),
            // answered with slice updates the gateway relays to the
            // session's aggregator.
            ClientMsg::DistEvent {
                session,
                seq,
                event,
            } => {
                let slot = attached(&mut slots, &session, Kind::Worker, &sink, &metrics);
                let Some(Slot {
                    role: Role::Worker { origin, engine },
                    sink,
                    ..
                }) = slot
                else {
                    continue;
                };
                metrics.events_ingested.fetch_add(1, Ordering::Relaxed);
                let clock = VectorClock::from_components(event.clock);
                let updates = engine.observe(seq, event.p, clock, &event.set);
                relay_updates(origin, updates, sink, &metrics);
            }
            // A sequenced slice update for an aggregator (wire v5): a
            // relayed worker observation, or the gateway-originated
            // finish/close.
            ClientMsg::SliceUpdate {
                session,
                seq,
                update,
            } => {
                let slot = attached(&mut slots, &session, Kind::Aggregator, &sink, &metrics);
                let Some(Slot {
                    role: Role::Aggregator(a),
                    sink,
                    ..
                }) = slot
                else {
                    continue;
                };
                metrics.dist_updates_applied.fetch_add(1, Ordering::Relaxed);
                let before = (a.held(), a.delivered());
                let steps = a.update(seq, update);
                account(&metrics, before, (a.held(), a.delivered()));
                if send_steps(&session, steps, sink, &metrics) {
                    if let Some(slot) = slots.remove(&session) {
                        slot.role.count(&metrics, false);
                    }
                }
            }
            // A plain close reaching a distributed member directly
            // closes it out of band; the gateway closes the partitions
            // before sending the aggregator its sequenced close update,
            // so stranded holds flush into the update stream first.
            ClientMsg::Close { session } => match slots.remove(&session) {
                Some(mut slot) => {
                    slot.attach(&session, &sink, &metrics);
                    close_slot(&session, slot, &metrics);
                }
                None => {
                    let message = format!("no such session '{session}'");
                    refuse(&sink, &session, None, message, &metrics);
                }
            },
            // Answered inline by `MonitorHandle::submit`.
            ClientMsg::Stats
            | ClientMsg::Shutdown
            | ClientMsg::Hello { .. }
            | ClientMsg::Drain { .. } => {}
        }
    }
    // Reached on Flush or channel disconnect: close every remaining
    // session so detectors still settle and sinks learn the outcome.
    let mut rest: Vec<(String, Slot)> = slots.drain().collect();
    rest.sort_by_key(|(_, slot)| slot.role.kind());
    for (name, slot) in rest {
        close_slot(&name, slot, &metrics);
    }
}

// ---- TCP transport --------------------------------------------------------

/// Serves the wire protocol on `listener` until a client sends
/// `shutdown`. Each connection gets a reader (this function's accept
/// loop spawns it) and a writer thread draining the connection's sink.
///
/// Returns when a `shutdown` frame arrives; the caller then owns the
/// final [`MonitorService::shutdown`].
pub fn serve(listener: TcpListener, handle: MonitorHandle) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    let mut conn_threads = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        // Small request/reply frames; Nagle would stall each exchange on
        // a delayed-ACK round trip.
        let _ = stream.set_nodelay(true);
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        conn_threads.push(std::thread::spawn(move || {
            let shutdown_requested = serve_connection(stream, handle);
            if shutdown_requested {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop.
                let _ = TcpStream::connect(addr);
            }
        }));
    }
    for t in conn_threads {
        let _ = t.join();
    }
    Ok(())
}

/// Handles one connection; returns whether the client asked the whole
/// service to shut down.
fn serve_connection(stream: TcpStream, handle: MonitorHandle) -> bool {
    let peer_write = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    let (sink_tx, sink_rx) = unbounded::<ServerMsg>();
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(peer_write);
        for msg in sink_rx.iter() {
            let is_bye = matches!(msg, ServerMsg::Bye);
            if wire::write_frame(&mut w, &msg).is_err() || is_bye {
                return;
            }
        }
    });
    let mut r = BufReader::new(stream);
    let mut shutdown = false;
    loop {
        match wire::read_frame::<_, ClientMsg>(&mut r) {
            Ok(Some(msg)) => {
                let is_shutdown = matches!(msg, ClientMsg::Shutdown);
                handle.submit(msg, &sink_tx);
                if is_shutdown {
                    shutdown = true;
                    break;
                }
            }
            Ok(None) => break, // clean disconnect
            Err(e) => {
                let _ = sink_tx.send(ServerMsg::Error {
                    session: None,
                    kind: None,
                    message: e.to_string(),
                });
                break; // framing is broken; no way to resync safely
            }
        }
    }
    drop(sink_tx); // writer drains and exits
    let _ = writer.join();
    shutdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_store::SyncPolicy;
    use hb_tracefmt::wire::{WireClause, WireMode};
    use std::path::PathBuf;

    fn fig2_open(session: &str) -> ClientMsg {
        ClientMsg::Open {
            session: session.into(),
            processes: 2,
            vars: vec!["x0".into(), "x1".into()],
            initial: vec![],
            predicates: vec![WirePredicate {
                id: "ef".into(),
                mode: WireMode::Conjunctive,
                clauses: vec![
                    WireClause {
                        process: 0,
                        var: "x0".into(),
                        op: "=".into(),
                        value: 2,
                    },
                    WireClause {
                        process: 1,
                        var: "x1".into(),
                        op: "=".into(),
                        value: 1,
                    },
                ],
                pattern: None,
            }],
            dist: None,
        }
    }

    fn event(session: &str, p: usize, clock: &[u32], set: &[(&str, i64)]) -> ClientMsg {
        ClientMsg::Event {
            session: session.into(),
            p,
            clock: clock.to_vec(),
            set: set.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Drains the sink until a verdict for `predicate` arrives.
    fn wait_verdict(rx: &Receiver<ServerMsg>, predicate: &str) -> WireVerdict {
        for msg in rx.iter() {
            if let ServerMsg::Verdict {
                predicate: p,
                verdict,
                ..
            } = msg
            {
                if p == predicate {
                    return verdict;
                }
            }
        }
        panic!("sink closed without a verdict for '{predicate}'");
    }

    fn pattern_open(session: &str) -> ClientMsg {
        use hb_tracefmt::wire::{WireAtom, WirePattern};
        ClientMsg::Open {
            session: session.into(),
            processes: 2,
            vars: vec!["unlock".into(), "lock".into()],
            initial: vec![],
            predicates: vec![WirePredicate {
                id: "inv".into(),
                mode: WireMode::Pattern,
                clauses: vec![],
                pattern: Some(WirePattern {
                    atoms: vec![
                        WireAtom {
                            process: Some(1),
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
            }],
            dist: None,
        }
    }

    #[test]
    fn pattern_sessions_detect_and_count_in_stats() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(pattern_open("s"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));

        // The delivered order shows lock before unlock, but the two are
        // concurrent — the predictive matcher flags the inversion.
        handle.submit(event("s", 0, &[1, 0], &[("lock", 1)]), &tx);
        handle.submit(event("s", 1, &[0, 1], &[("unlock", 1)]), &tx);
        assert!(matches!(wait_verdict(&rx, "inv"), WireVerdict::Detected(_)));

        let stats = service.shutdown();
        assert_eq!(stats.verdicts_settled, 1);
        assert_eq!(stats.verdicts["verdicts.pattern.inv.detected"], 1);
    }

    #[test]
    fn pre_v4_monitors_refuse_pattern_opens_with_a_typed_error() {
        let service = MonitorService::start(MonitorConfig {
            wire_version: 2,
            ..MonitorConfig::default()
        });
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(pattern_open("s"), &tx);
        match rx.recv().unwrap() {
            ServerMsg::Error {
                session,
                kind,
                message,
            } => {
                assert_eq!(session.as_deref(), Some("s"));
                assert_eq!(
                    kind.as_deref(),
                    Some(wire::error_kind::UNSUPPORTED_PREDICATE)
                );
                assert!(message.contains("wire v4"));
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        // Clause predicates still open fine on the same connection.
        handle.submit(fig2_open("s2"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        service.shutdown();
    }

    #[test]
    fn in_process_session_detects_and_flushes() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));

        // Shuffled Fig. 2(a): the receive arrives before anything else.
        handle.submit(event("s", 1, &[2, 2], &[("x1", 2)]), &tx);
        handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
        handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
        handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));

        handle.submit(
            ClientMsg::Close {
                session: "s".into(),
            },
            &tx,
        );
        loop {
            if let ServerMsg::Closed { discarded, .. } = rx.recv().unwrap() {
                assert_eq!(discarded, 0);
                break;
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.events_ingested, 4);
        assert_eq!(stats.events_delivered, 4);
        assert_eq!(stats.events_held, 0);
        assert!(stats.events_held_high_water >= 1);
        assert_eq!(stats.verdicts_settled, 1);
        assert_eq!(stats.sessions_active, 0);
    }

    #[test]
    fn slice_counters_flow_into_service_stats() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        // First event leaves the clause false — the filter drops it
        // before the detector; the next two satisfy their clauses.
        handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
        handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
        handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
        let stats = service.shutdown();
        assert_eq!(stats.slices["slice.ef.events_in"], 3);
        assert_eq!(stats.slices["slice.ef.events_filtered"], 1);
        assert_eq!(stats.to_map()["slice.ef.events_filtered"], 1);
    }

    #[test]
    fn shutdown_flushes_open_sessions_with_final_verdicts() {
        let service = MonitorService::start(MonitorConfig {
            shards: 2,
            ..MonitorConfig::default()
        });
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("flushy"), &tx);
        handle.submit(event("flushy", 1, &[1, 1], &[("x1", 1)]), &tx); // held forever
        let stats = service.shutdown();
        assert_eq!(stats.events_held, 0, "flush returns the held gauge to zero");
        assert_eq!(stats.events_discarded, 1);
        drop(tx); // our clone would keep the iterator below alive forever
        let msgs: Vec<ServerMsg> = rx.iter().collect();
        assert!(msgs.iter().any(|m| matches!(
            m,
            ServerMsg::Verdict {
                verdict: WireVerdict::Impossible,
                ..
            }
        )));
        assert!(msgs.iter().any(|m| matches!(m, ServerMsg::Closed { .. })));
    }

    #[test]
    fn sessions_shard_independently() {
        let service = MonitorService::start(MonitorConfig {
            shards: 3,
            ..MonitorConfig::default()
        });
        let handle = service.handle();
        let mut sinks = Vec::new();
        for i in 0..6 {
            let (tx, rx) = unbounded();
            let name = format!("s{i}");
            handle.submit(fig2_open(&name), &tx);
            handle.submit(event(&name, 0, &[1, 0], &[("x0", 2)]), &tx);
            handle.submit(event(&name, 1, &[0, 1], &[("x1", 1)]), &tx);
            sinks.push((name, tx, rx));
        }
        for (_, _, rx) in &sinks {
            assert_eq!(wait_verdict(rx, "ef"), WireVerdict::Detected(vec![1, 1]));
        }
        let stats = service.shutdown();
        assert_eq!(stats.sessions_opened, 6);
        assert_eq!(stats.events_ingested, 12);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        // Event for a session that does not exist.
        handle.submit(event("ghost", 0, &[1, 0], &[]), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        // Open, then duplicate open.
        handle.submit(fig2_open("dup"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        handle.submit(fig2_open("dup"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        // Duplicate event.
        handle.submit(event("dup", 0, &[1, 0], &[]), &tx);
        handle.submit(event("dup", 0, &[1, 0], &[]), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        let stats = service.shutdown();
        assert_eq!(stats.protocol_errors, 3);
        assert_eq!(stats.events_duplicate, 1);
    }

    /// The SDK's flusher classifies replay artifacts by the `kind`
    /// field, so the exact constants the service emits are contract,
    /// not cosmetics (the message texts are free to change).
    #[test]
    fn replay_artifact_errors_carry_machine_readable_kinds() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("kinds"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        // A replayed open, a replayed event, and an event after finish —
        // the three benign at-least-once artifacts.
        handle.submit(fig2_open("kinds"), &tx);
        handle.submit(event("kinds", 0, &[1, 0], &[]), &tx);
        handle.submit(event("kinds", 0, &[1, 0], &[]), &tx);
        handle.submit(
            ClientMsg::FinishProcess {
                session: "kinds".into(),
                p: 0,
            },
            &tx,
        );
        handle.submit(event("kinds", 0, &[2, 0], &[]), &tx);
        // An unknown session is a real error: no kind.
        handle.submit(event("ghost", 0, &[1, 0], &[]), &tx);
        service.shutdown();
        let mut session_kinds = Vec::new();
        let mut ghost_kinds = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            if let ServerMsg::Error { session, kind, .. } = msg {
                match session.as_deref() {
                    Some("kinds") => session_kinds.push(kind),
                    Some("ghost") => ghost_kinds.push(kind),
                    other => panic!("error for unexpected session {other:?}"),
                }
            }
        }
        assert_eq!(
            session_kinds,
            [
                Some(wire::error_kind::ALREADY_OPEN.to_string()),
                Some(wire::error_kind::DUPLICATE_EVENT.to_string()),
                Some(wire::error_kind::ALREADY_FINISHED.to_string()),
            ]
        );
        assert_eq!(ghost_kinds, [None]);
    }

    #[test]
    fn hello_handshake_negotiates_version() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(
            ClientMsg::Hello {
                version: wire::WIRE_VERSION,
            },
            &tx,
        );
        assert_eq!(
            rx.recv().unwrap(),
            ServerMsg::Welcome {
                version: wire::WIRE_VERSION
            }
        );
        // A future version is refused with the canonical message…
        handle.submit(
            ClientMsg::Hello {
                version: wire::WIRE_VERSION + 1,
            },
            &tx,
        );
        match rx.recv().unwrap() {
            ServerMsg::Error { message, .. } => {
                assert!(
                    message.contains("unsupported protocol version"),
                    "{message}"
                );
            }
            other => panic!("{other:?}"),
        }
        // …and a version-1 peer that never says hello still works: the
        // handshake is optional (see in_process_session_detects_and_flushes).
        handle.submit(
            ClientMsg::Drain {
                backend: "127.0.0.1:1".into(),
            },
            &tx,
        );
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Error { .. }));
        service.shutdown();
    }

    #[test]
    fn stats_request_answers_inline() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(ClientMsg::Stats, &tx);
        match rx.recv().unwrap() {
            ServerMsg::Stats { counters } => {
                assert_eq!(counters["events_ingested"], 0);
            }
            other => panic!("{other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let service = MonitorService::start(MonitorConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = service.handle();
        let server = std::thread::spawn(move || serve(listener, handle).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        wire::write_frame(&mut w, &fig2_open("tcp")).unwrap();
        let opened: ServerMsg = wire::read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(opened, ServerMsg::Opened { .. }));
        wire::write_frame(&mut w, &event("tcp", 0, &[1, 0], &[("x0", 2)])).unwrap();
        wire::write_frame(&mut w, &event("tcp", 1, &[0, 1], &[("x1", 1)])).unwrap();
        let verdict: ServerMsg = wire::read_frame(&mut r).unwrap().unwrap();
        match verdict {
            ServerMsg::Verdict { verdict, .. } => {
                assert_eq!(verdict, WireVerdict::Detected(vec![1, 1]));
            }
            other => panic!("{other:?}"),
        }
        wire::write_frame(&mut w, &ClientMsg::Shutdown).unwrap();
        let bye: ServerMsg = wire::read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(bye, ServerMsg::Bye));
        server.join().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.events_ingested, 2);
    }

    // ---- persistence ------------------------------------------------------

    fn persist_config(name: &str) -> PersistConfig {
        let dir: PathBuf = std::env::temp_dir()
            .join("hb-monitor-service-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        PersistConfig {
            sync: SyncPolicy::Os,
            ..PersistConfig::new(dir)
        }
    }

    #[test]
    fn wal_replay_rebuilds_sessions_after_a_crash() {
        let config = MonitorConfig {
            persist: Some(persist_config("replay")),
            ..MonitorConfig::default()
        };
        {
            let service = MonitorService::open(config.clone()).unwrap();
            let handle = service.handle();
            let (tx, rx) = unbounded();
            handle.submit(fig2_open("s"), &tx);
            assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
            handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
            handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
            // "Crash": drop everything without shutdown. The appends
            // already happened in submit, so the WAL has all three
            // records; no graceful state is written.
            drop(handle);
            drop(service);
        }
        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 1);
        assert_eq!(m.recovery_replayed, 3, "open + two events");
        let handle = service.handle();
        let (tx, rx) = unbounded();
        // Resume the stream exactly where it stopped: the recovered
        // session still has x1=1 delivered, so e2 completes detection.
        handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
        service.shutdown();
    }

    #[test]
    fn snapshots_bound_replay_and_settled_verdicts_are_reemitted() {
        let mut persist = persist_config("snapshot");
        persist.snapshot_every = 3;
        let config = MonitorConfig {
            shards: 2,
            persist: Some(persist),
            ..MonitorConfig::default()
        };
        {
            let service = MonitorService::open(config.clone()).unwrap();
            let handle = service.handle();
            let (tx, rx) = unbounded();
            handle.submit(fig2_open("s"), &tx);
            handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
            handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
            handle.submit(event("s", 0, &[2, 0], &[("x0", 2)]), &tx);
            assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
            assert!(service.metrics().snapshots_written >= 1);
            drop(handle);
            drop(service); // crash
        }
        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 1);
        assert!(
            m.recovery_replayed < 4,
            "snapshot should bound the replay, got {}",
            m.recovery_replayed
        );
        // First contact with the recovered session re-reports the
        // verdict that settled before the crash.
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(
            ClientMsg::Close {
                session: "s".into(),
            },
            &tx,
        );
        assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![2, 1]));
        service.shutdown();
    }

    #[test]
    fn graceful_shutdown_leaves_nothing_to_recover() {
        let config = MonitorConfig {
            persist: Some(persist_config("graceful")),
            ..MonitorConfig::default()
        };
        let service = MonitorService::open(config.clone()).unwrap();
        let handle = service.handle();
        let (tx, _rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        handle.submit(event("s", 0, &[1, 0], &[("x0", 1)]), &tx);
        drop(handle); // release the WAL before reopening below
        service.shutdown();

        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 0, "shutdown resolved every session");
        assert_eq!(m.recovery_replayed, 0, "the final snapshot covers the log");
        service.shutdown();
    }

    #[test]
    fn second_service_on_the_same_data_dir_is_refused() {
        let config = MonitorConfig {
            persist: Some(persist_config("locked")),
            ..MonitorConfig::default()
        };
        let service = MonitorService::open(config.clone()).unwrap();
        match MonitorService::open(config) {
            Err(StoreError::Locked { .. }) => {}
            Err(other) => panic!("expected Locked, got {other:?}"),
            Ok(_) => panic!("second open must be refused"),
        }
        service.shutdown();
    }

    #[test]
    fn oversized_opens_are_refused_and_recovery_survives_them() {
        let config = MonitorConfig {
            persist: Some(persist_config("oversized")),
            ..MonitorConfig::default()
        };
        let huge = |session: &str, dist: Option<WireDistRole>| ClientMsg::Open {
            session: session.into(),
            processes: 1 << 40,
            vars: vec![],
            initial: vec![],
            predicates: vec![],
            dist,
        };
        {
            let service = MonitorService::open(config.clone()).unwrap();
            let handle = service.handle();
            let (tx, rx) = unbounded();
            let worker = WireDistRole::Worker {
                origin: "huge".into(),
                worker: 0,
                k: 1,
            };
            handle.submit(huge("huge", None), &tx);
            handle.submit(huge("huge#w0", Some(worker)), &tx);
            handle.submit(huge("huge", Some(WireDistRole::Aggregator { k: 1 })), &tx);
            for _ in 0..3 {
                match rx.recv().unwrap() {
                    ServerMsg::Error { message, .. } => {
                        assert!(message.starts_with("bad open: "), "{message}")
                    }
                    other => panic!("expected a refusal, got {other:?}"),
                }
            }
            // The monitor is still up: a normal session opens and detects.
            handle.submit(fig2_open("s"), &tx);
            assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
            handle.submit(event("s", 0, &[1, 0], &[("x0", 2)]), &tx);
            handle.submit(event("s", 1, &[0, 1], &[("x1", 1)]), &tx);
            assert_eq!(wait_verdict(&rx, "ef"), WireVerdict::Detected(vec![1, 1]));
            // "Crash": the WAL keeps the refused opens.
            drop(handle);
            drop(service);
        }
        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(
            m.recovery_replayed, 6,
            "three refused opens, one open, two events"
        );
        assert_eq!(m.sessions_recovered, 1, "only the valid session");
        service.shutdown();
    }

    // ---- distributed sessions ---------------------------------------------

    /// [`fig2_open`] under a distribution role — same processes, vars
    /// and predicate, so a distributed trio and the single-backend
    /// reference monitor the identical session.
    fn fig2_dist_open(session: &str, role: WireDistRole) -> ClientMsg {
        match fig2_open(session) {
            ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                ..
            } => ClientMsg::Open {
                session,
                processes,
                vars,
                initial,
                predicates,
                dist: Some(role),
            },
            _ => unreachable!(),
        }
    }

    /// The shuffled Fig. 2(a) stream the in-process tests use.
    #[allow(clippy::type_complexity)]
    fn fig2_events() -> Vec<(usize, Vec<u32>, Vec<(&'static str, i64)>)> {
        vec![
            (1, vec![2, 2], vec![("x1", 2)]),
            (0, vec![1, 0], vec![("x0", 1)]),
            (1, vec![0, 1], vec![("x1", 1)]),
            (0, vec![2, 0], vec![("x0", 2)]),
        ]
    }

    /// Runs `events` through a plain single-backend session and returns
    /// every frame the session emitted, through `closed`.
    #[allow(clippy::type_complexity)]
    fn reference_frames(events: &[(usize, Vec<u32>, Vec<(&'static str, i64)>)]) -> Vec<ServerMsg> {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(fig2_open("s"), &tx);
        for (p, clock, set) in events {
            handle.submit(event("s", *p, clock, set), &tx);
        }
        handle.submit(
            ClientMsg::Close {
                session: "s".into(),
            },
            &tx,
        );
        let mut frames = Vec::new();
        for msg in rx.iter() {
            let done = matches!(msg, ServerMsg::Closed { .. });
            frames.push(msg);
            if done {
                break;
            }
        }
        service.shutdown();
        frames
    }

    /// Plays the gateway against one in-process service: opens the
    /// worker partitions (decorated names) and the aggregator (origin
    /// name), stamps seqs, routes events to their owner workers as
    /// `dist-event` frames, and relays worker `slice-update` frames to
    /// the aggregator. Channels outlive the service, so a test can
    /// crash and reopen the service mid-stream and keep driving.
    struct DistDriver {
        origin: String,
        k: usize,
        next_seq: u64,
        wtx: Sender<ServerMsg>,
        wrx: Receiver<ServerMsg>,
        atx: Sender<ServerMsg>,
        arx: Receiver<ServerMsg>,
    }

    impl DistDriver {
        fn open(handle: &MonitorHandle, origin: &str, k: usize) -> DistDriver {
            let (wtx, wrx) = unbounded();
            let (atx, arx) = unbounded();
            for worker in 0..k {
                handle.submit(
                    fig2_dist_open(
                        &format!("{origin}#w{worker}"),
                        WireDistRole::Worker {
                            origin: origin.into(),
                            worker,
                            k,
                        },
                    ),
                    &wtx,
                );
                assert!(matches!(wrx.recv().unwrap(), ServerMsg::Opened { .. }));
            }
            // The aggregator's Opened stays in `arx`: it is the first
            // frame of the origin stream the tests byte-compare.
            handle.submit(fig2_dist_open(origin, WireDistRole::Aggregator { k }), &atx);
            DistDriver {
                origin: origin.into(),
                k,
                next_seq: 0,
                wtx,
                wrx,
                atx,
                arx,
            }
        }

        fn event(&mut self, handle: &MonitorHandle, p: usize, clock: &[u32], set: &[(&str, i64)]) {
            let seq = self.next_seq;
            self.next_seq += 1;
            handle.submit(
                ClientMsg::DistEvent {
                    session: format!("{}#w{}", self.origin, wire::owner(p, self.k)),
                    seq,
                    event: wire::EventFrame {
                        p,
                        clock: clock.to_vec(),
                        set: set.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    },
                },
                &self.wtx,
            );
        }

        /// Replaces both sinks with fresh channels — what a gateway
        /// reconnecting after a monitor restart does. The recovered
        /// slots adopt the new sinks on first contact (re-attach).
        fn rewire(&mut self) {
            let (wtx, wrx) = unbounded();
            let (atx, arx) = unbounded();
            self.wtx = wtx;
            self.wrx = wrx;
            self.atx = atx;
            self.arx = arx;
        }

        /// Relays the next `n` worker observations to the aggregator.
        fn relay(&mut self, handle: &MonitorHandle, n: usize) {
            let mut relayed = 0;
            while relayed < n {
                match self.wrx.recv().unwrap() {
                    ServerMsg::SliceUpdate {
                        session,
                        seq,
                        update,
                    } => {
                        assert_eq!(session, self.origin, "updates address the origin");
                        handle.submit(
                            ClientMsg::SliceUpdate {
                                session,
                                seq,
                                update,
                            },
                            &self.atx,
                        );
                        relayed += 1;
                    }
                    other => panic!("expected a slice-update, got {other:?}"),
                }
            }
        }

        /// The gateway close protocol: close the workers first (their
        /// stranded holds flush as updates that must still reach the
        /// aggregator), then hand the aggregator its final close
        /// update. Returns the origin session's full frame stream.
        fn close(self, handle: &MonitorHandle) -> Vec<ServerMsg> {
            for worker in 0..self.k {
                handle.submit(
                    ClientMsg::Close {
                        session: format!("{}#w{}", self.origin, worker),
                    },
                    &self.wtx,
                );
            }
            let mut closed = 0;
            while closed < self.k {
                match self.wrx.recv().unwrap() {
                    ServerMsg::SliceUpdate {
                        session,
                        seq,
                        update,
                    } => handle.submit(
                        ClientMsg::SliceUpdate {
                            session,
                            seq,
                            update,
                        },
                        &self.atx,
                    ),
                    ServerMsg::Closed { .. } => closed += 1,
                    other => panic!("unexpected worker frame {other:?}"),
                }
            }
            handle.submit(
                ClientMsg::SliceUpdate {
                    session: self.origin.clone(),
                    seq: self.next_seq,
                    update: SliceUpdateBody::Close,
                },
                &self.atx,
            );
            let mut frames = Vec::new();
            for msg in self.arx.iter() {
                let done = matches!(msg, ServerMsg::Closed { .. });
                frames.push(msg);
                if done {
                    break;
                }
            }
            frames
        }
    }

    #[test]
    fn distributed_sessions_match_the_single_backend_frame_for_frame() {
        let events = fig2_events();
        let expected = reference_frames(&events);
        assert!(
            expected.contains(&ServerMsg::Verdict {
                session: "s".into(),
                predicate: "ef".into(),
                verdict: WireVerdict::Detected(vec![2, 1]),
            }),
            "the reference stream must actually detect"
        );

        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let mut driver = DistDriver::open(&handle, "s", 2);
        for (p, clock, set) in &events {
            driver.event(&handle, *p, clock, set);
        }
        driver.relay(&handle, events.len());
        let frames = driver.close(&handle);
        assert_eq!(frames, expected, "origin frame streams must be identical");

        let m = service.shutdown();
        assert_eq!(m.events_ingested, 4);
        assert_eq!(m.dist_updates_relayed, 4, "one observation per event");
        assert_eq!(m.dist_updates_applied, 5, "four observations + close");
        assert_eq!(m.dist_workers_active, 0);
        assert_eq!(m.dist_aggregators_active, 0);
        assert_eq!(m.verdicts_settled, 1);
        assert_eq!(m.sessions_active, 0);
    }

    #[test]
    fn distributed_slots_recover_from_a_crash_mid_stream() {
        let config = MonitorConfig {
            persist: Some(persist_config("dist-crash")),
            ..MonitorConfig::default()
        };
        let events = fig2_events();
        let expected = reference_frames(&events);

        let service = MonitorService::open(config.clone()).unwrap();
        let handle = service.handle();
        let mut driver = DistDriver::open(&handle, "s", 2);
        for (p, clock, set) in &events[..3] {
            driver.event(&handle, *p, clock, set);
        }
        driver.relay(&handle, 3);
        assert!(matches!(
            driver.arx.try_recv().unwrap(),
            ServerMsg::Opened { .. }
        ));
        // "Crash": drop without shutdown. The WAL holds the three
        // opens, three dist-events, and three relayed updates; the
        // flush-on-drop frames die with the old sinks below.
        drop(handle);
        drop(service);

        let service = MonitorService::open(config).unwrap();
        let m = service.metrics();
        assert_eq!(m.sessions_recovered, 3, "two workers + one aggregator");
        assert_eq!(m.recovery_replayed, 9);
        let handle = service.handle();
        driver.rewire();
        let (p, clock, set) = &events[3];
        driver.event(&handle, *p, clock, set);
        driver.relay(&handle, 1);
        let frames = driver.close(&handle);
        // The reconnected stream is the reference stream minus the
        // Opened frame consumed before the crash.
        assert_eq!(frames, expected[1..], "recovery must not change the stream");
        assert!(service.metrics().sessions_reattached >= 1);
        service.shutdown();
    }

    #[test]
    fn pre_v5_monitors_refuse_distributed_frames() {
        let service = MonitorService::start(MonitorConfig {
            wire_version: 4,
            ..MonitorConfig::default()
        });
        let handle = service.handle();
        let (tx, rx) = unbounded();
        handle.submit(
            fig2_dist_open(
                "s#w0",
                WireDistRole::Worker {
                    origin: "s".into(),
                    worker: 0,
                    k: 2,
                },
            ),
            &tx,
        );
        match rx.recv().unwrap() {
            ServerMsg::Error { kind, message, .. } => {
                assert_eq!(
                    kind.as_deref(),
                    Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION)
                );
                assert!(message.contains("wire v5"), "{message}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        handle.submit(
            ClientMsg::DistEvent {
                session: "s#w0".into(),
                seq: 0,
                event: wire::EventFrame {
                    p: 0,
                    clock: vec![1, 0],
                    set: BTreeMap::new(),
                },
            },
            &tx,
        );
        match rx.recv().unwrap() {
            ServerMsg::Error { kind, message, .. } => {
                assert_eq!(kind, None);
                assert_eq!(message, "unknown client message 'dist-event'");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        handle.submit(
            ClientMsg::SliceUpdate {
                session: "s".into(),
                seq: 0,
                update: SliceUpdateBody::Close,
            },
            &tx,
        );
        match rx.recv().unwrap() {
            ServerMsg::Error { message, .. } => {
                assert_eq!(message, "unknown client message 'slice-update'");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // Plain sessions are untouched by the emulation.
        handle.submit(fig2_open("plain"), &tx);
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        service.shutdown();
    }

    #[test]
    fn monitors_refuse_gateway_only_roles_and_direct_frames() {
        let service = MonitorService::start(MonitorConfig::default());
        let handle = service.handle();
        let (tx, rx) = unbounded();
        // `distribute` is the client-facing role; only a gateway fans
        // it out into worker/aggregator opens.
        handle.submit(fig2_dist_open("s", WireDistRole::Distribute { k: 2 }), &tx);
        match rx.recv().unwrap() {
            ServerMsg::Error { kind, message, .. } => {
                assert_eq!(
                    kind.as_deref(),
                    Some(wire::error_kind::UNSUPPORTED_DISTRIBUTION)
                );
                assert!(message.contains("gateway"), "{message}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        // Worker partitions take dist-event frames, not plain events…
        handle.submit(
            fig2_dist_open(
                "s#w0",
                WireDistRole::Worker {
                    origin: "s".into(),
                    worker: 0,
                    k: 1,
                },
            ),
            &tx,
        );
        assert!(matches!(rx.recv().unwrap(), ServerMsg::Opened { .. }));
        handle.submit(event("s#w0", 0, &[1, 0], &[("x0", 1)]), &tx);
        match rx.recv().unwrap() {
            ServerMsg::Error { message, .. } => {
                assert!(message.contains("routed by the gateway"), "{message}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // …and slice-updates only land on aggregator slots.
        handle.submit(
            ClientMsg::SliceUpdate {
                session: "s#w0".into(),
                seq: 0,
                update: SliceUpdateBody::Close,
            },
            &tx,
        );
        match rx.recv().unwrap() {
            ServerMsg::Error { message, .. } => {
                assert!(message.contains("not a distributed session"), "{message}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        service.shutdown();
    }
}
