//! hb-monitor: a streaming online-detection service.
//!
//! This crate turns the library's on-line detectors
//! ([`hb_detect::online`]) into a long-running **monitoring service**:
//! processes of a distributed computation stream vector-clock-stamped
//! events to the monitor as they execute, and the monitor answers with
//! temporal-logic verdicts — `EF φ` detected at its least satisfying
//! cut, or impossible — while the computation is still running.
//!
//! The layers, bottom up:
//!
//! - [`buffer`] — per-session **causal delivery**: events may arrive in
//!   any order consistent with transport reordering; a bounded hold
//!   buffer releases them in a causally-consistent order (an event is
//!   delivered only when its vector clock says every causal
//!   predecessor already was). Capacity overflow is an explicit policy:
//!   reject with backpressure, or drop newest.
//! - [`session`] — one monitored computation: variable namespace,
//!   per-process local states, registered predicates, and one on-line
//!   detector per predicate fed by the causal buffer, through a
//!   detection core shared with the distributed aggregator.
//! - [`dist`] — distributed detection (wire v5): the worker partitions
//!   that compute slice-membership bits and the aggregator that feeds
//!   them to the session's detection core.
//! - [`service`] — the shared runtime: sessions of all three roles
//!   (plain, worker, aggregator) sharded across worker threads, an
//!   in-process client handle, a TCP wire-protocol transport (see
//!   [`hb_tracefmt::wire`]), atomic [`metrics`], and graceful shutdown
//!   that flushes every session to a final verdict.
//! - [`persist`] — durable state: with a data directory configured, the
//!   service write-ahead-logs every client message (via [`hb_store`])
//!   before acknowledging it and snapshots all sessions periodically,
//!   so a crashed monitor restarts exactly where it stopped.

#![warn(missing_docs)]

pub mod buffer;
pub mod dist;
pub mod metrics;
pub mod persist;
pub mod service;
pub mod session;

pub use buffer::{CausalBuffer, Delivered, IngestError, OverflowPolicy};
pub use metrics::{Metrics, MetricsSnapshot};
pub use persist::{
    AggregatorSlotSnapshot, PersistConfig, ServiceSnapshot, SessionSnapshot, WorkerSlotSnapshot,
};
pub use service::{serve, MonitorConfig, MonitorHandle, MonitorService};
pub use session::{Session, SessionError, SessionLimits, VerdictEvent};
