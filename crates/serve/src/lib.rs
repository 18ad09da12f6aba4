//! # summa-serve — a multi-tenant reasoning service
//!
//! Serves the `summa_dl` / `summa_core` reasoning surface over a
//! length-prefixed, versioned binary TCP protocol: `ping`, `subsumes`,
//! `classify`, `realize`, `admit`, `critique`, plus admin ops for
//! snapshot hot-swap and server stats. Every response carries the
//! request's deterministic [`summa_guard::Spend`] and a trace handle.
//!
//! The service is built from four layers:
//!
//! * [`wire`] — the protocol: framing, request/response codecs, typed
//!   protocol errors, typed overload rejections.
//! * [`snapshot`] — epoch-versioned ontology snapshots; hot-swap never
//!   blocks in-flight queries (old generations stay alive via `Arc`).
//! * [`ops`] — the operations themselves. Each request runs under its
//!   own private budget, tableau, and cache ([`ops::execute`]), so a
//!   served answer is byte-identical to a direct library call.
//! * [`server`] — admission control (bounded wait line, per-tenant
//!   in-flight caps and step quotas; overload is a *typed response*,
//!   never a disconnect), per-connection execution under `threads`
//!   execution slots, and graceful drain with exact accounting
//!   (`accepted == completed`, always). Each admitted request runs on
//!   its own connection thread as a one-cell `summa_exec::par_map`,
//!   so the exec supervisor's retry and quarantine answer for it.
//!
//! A fifth, passive layer — [`telemetry`] — decomposes every served
//! request into phase histograms (queue-wait / execute / serialize)
//! keyed by op and tenant, samples queue-depth and in-flight gauges
//! into time-series rings, and tail-samples slow or errored
//! requests into a bounded slow-query log. It is scraped over the
//! wire via the versioned `Telemetry` op (Prometheus-style text or a
//! Chrome-trace dump of the slow log) and never alters response
//! bytes; disabled it costs one relaxed atomic load per request.
//!
//! Chaos coverage rides through the existing `summa_guard` fault
//! plane: the server's pool budget carries the `serve.accept` site and
//! the exec supervisor's `exec.worker` / `exec.task` sites that every
//! execution passes, and each request budget can arm a
//! deterministic per-request plan (used by the conformance suite).
//!
//! No dependencies beyond the workspace.

pub mod client;
pub mod ops;
pub mod server;
pub mod snapshot;
pub mod telemetry;
pub mod wire;

pub mod prelude {
    pub use crate::client::Client;
    pub use crate::server::{ServeStats, Server, ServerConfig};
    pub use crate::snapshot::{parse_tbox, Snapshot, SnapshotStore};
    pub use crate::telemetry::{SlowTrigger, TelemetryConfig, TelemetryPlane};
    pub use crate::wire::{
        Envelope, OkBody, Op, Overload, Payload, ProtoError, Request, Response,
        OUTCOME_CANCELLED, OUTCOME_COMPLETED, OUTCOME_EXHAUSTED, STATUS_ENGINE_ERROR,
        STATUS_OK, STATUS_OVERLOADED, STATUS_PROTOCOL_ERROR, TELEMETRY_FORMAT_CHROME_SLOWLOG,
        TELEMETRY_FORMAT_PROMETHEUS,
    };
}
