//! The TCP reasoning server: accept loop, per-connection handlers,
//! admission control, execution slots, and graceful drain.
//!
//! ## Admission and backpressure
//!
//! Every decoded request passes four gates: draining? tenant over its
//! in-flight cap? tenant over its step quota? wait line full? Failing
//! any gate produces a **typed** [`wire::Overload`] response on the
//! same connection — overload is never expressed as a disconnect.
//!
//! ## Execution
//!
//! An admitted request runs on the connection thread that read it.
//! The thread first waits for one of `cfg.threads` execution slots
//! (`queue_capacity` bounds how many requests may wait), then runs the
//! request as a one-cell [`summa_exec::par_map`] under the pool
//! budget. One cell runs inline, with no spawn, and gets the exec
//! supervisor's panic isolation, retries and quarantine; a cell the
//! supervisor gives up on is answered with a typed engine error. So
//! every admitted request is answered exactly once, by one mechanism.
//!
//! ## Drain accounting
//!
//! [`Server::shutdown`] stops the accept loop, waits for the last
//! admitted response to be *written*, then closes connections and
//! joins every thread. The final [`ServeStats`] must reconcile:
//! `accepted == completed`, and every frame ever read is accounted as
//! completed, overload-rejected, protocol-rejected, or admin-answered.

use crate::ops::{self, Executed};
use crate::snapshot::SnapshotStore;
use crate::telemetry::{PhaseNs, TelemetryConfig, TelemetryPlane};
use crate::wire::{
    self, Envelope, Overload, ProtoError, Request, Response, FrameError, SERVED_CACHE,
    SERVED_INDEX, SERVED_PROVER, STATUS_OVERLOADED, STATUS_PROTOCOL_ERROR,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use summa_guard::obs::Tracer;
use summa_guard::{Budget, FaultInjector, Spend};

/// Server tuning knobs. The defaults suit tests and small deployments;
/// every limit is explicit so the soak/conformance suites can pin
/// them.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Execution slots: how many admitted requests may execute at
    /// once. Defaults to [`summa_exec::default_threads`]
    /// (`SUMMA_THREADS` aware).
    pub threads: usize,
    /// How many admitted requests may wait for an execution slot;
    /// admission beyond it is a typed [`Overload::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap ([`Overload::TenantBusy`] beyond it).
    pub tenant_max_pending: u64,
    /// Per-tenant lifetime step quota
    /// ([`Overload::QuotaExhausted`] once spent); `None` = unmetered.
    pub tenant_step_quota: Option<u64>,
    /// Step cap for each request's private budget; `None` = unlimited.
    pub request_steps: Option<u64>,
    /// Deterministic fault plan armed on **every request budget** as a
    /// fresh injector (`(plan, seed)`, [`FaultInjector::parse_plan`]
    /// syntax). Fresh-per-request arrival counters keep the plan's
    /// behavior independent of thread interleaving — the
    /// conformance suite replays the same plan on its direct calls.
    pub request_fault_plan: Option<(String, u64)>,
    /// Envelope each request's one-cell `par_map` runs under (carries
    /// the injector for the `serve.accept` and `exec.*` chaos sites; an
    /// unlimited default falls back to the process-global injector,
    /// so `SUMMA_FAULT_PLAN` covers the server too).
    pub pool_budget: Budget,
    /// Tracer for serve spans and counters; defaults to the process
    /// tracer (`SUMMA_TRACE=1` aware).
    pub tracer: Tracer,
    /// Telemetry plane knobs (phase histograms, gauges, tail
    /// sampling). Enabled by default; disabling reduces the per-request
    /// cost to one relaxed atomic load.
    pub telemetry: TelemetryConfig,
    /// Force the per-request-fresh cold path even when snapshots carry
    /// a warm state (A/B lanes, chaos conformance). Defaults from
    /// `SUMMA_SERVE_COLD=1`. Configs with a request fault plan or a
    /// request step cap run cold regardless — see
    /// [`ServerConfig::warm_eligible`].
    pub cold: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: summa_exec::default_threads(),
            queue_capacity: 256,
            tenant_max_pending: 32,
            tenant_step_quota: None,
            request_steps: None,
            request_fault_plan: None,
            pool_budget: Budget::unlimited(),
            tracer: Tracer::global().clone(),
            telemetry: TelemetryConfig::default(),
            cold: std::env::var("SUMMA_SERVE_COLD").map(|v| v == "1").unwrap_or(false),
        }
    }
}

impl ServerConfig {
    /// Build the private budget one request executes under. The
    /// conformance suite calls this too, so served and direct
    /// executions share the envelope *by construction*. The injector
    /// is always explicit (an empty one when no plan is configured):
    /// request determinism must not depend on whether the process has
    /// a global chaos plan armed.
    pub fn request_budget(&self) -> Budget {
        let mut b = Budget::new().with_tracer(self.tracer.clone());
        if let Some(steps) = self.request_steps {
            b = b.with_steps(steps);
        }
        let injector = match &self.request_fault_plan {
            Some((plan, seed)) => FaultInjector::parse_plan(plan, *seed)
                .expect("request_fault_plan validated at Server::start"),
            None => FaultInjector::new(0),
        };
        b.with_injector(Arc::new(injector))
    }

    /// Whether this configuration may answer from the warm path
    /// ([`crate::ops::execute_warm`]). Warm answers carry bodies
    /// byte-identical to cold ones only when both *complete*, so any
    /// config that deliberately interrupts requests — a fault plan or
    /// a per-request step cap — runs fully cold, as does an explicit
    /// `cold` opt-out.
    pub fn warm_eligible(&self) -> bool {
        !self.cold && self.request_fault_plan.is_none() && self.request_steps.is_none()
    }
}

/// Per-tenant admission ledger.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TenantLedger {
    pub pending: u64,
    pub consumed_steps: u64,
}

/// Monotonic server counters (atomics; snapshot via [`ServeStats`]).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub frames: AtomicU64,
    pub accepted: AtomicU64,
    pub completed: AtomicU64,
    pub engine_errors: AtomicU64,
    pub rejected_protocol: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub admin: AtomicU64,
    pub batches: AtomicU64,
    pub max_queue_depth: AtomicU64,
    pub snapshot_loads: AtomicU64,
    pub accept_faults: AtomicU64,
    pub retries: AtomicU64,
    pub index_hits: AtomicU64,
    pub index_misses: AtomicU64,
    pub cache_shared_hits: AtomicU64,
}

/// A point-in-time snapshot of the server's exact accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames successfully read off connections.
    pub frames: u64,
    /// Requests admitted past every overload gate.
    pub accepted: u64,
    /// Admitted requests answered (any status, engine errors
    /// included).
    pub completed: u64,
    /// Admitted requests whose answer degraded to a typed engine
    /// error (subset of `completed`).
    pub engine_errors: u64,
    /// Frames answered with a typed protocol error without admission.
    pub rejected_protocol: u64,
    /// Requests answered with a typed overload rejection.
    pub rejected_overload: u64,
    /// Admin requests (stats, snapshot loads) answered inline.
    pub admin: u64,
    /// Executions run: one per admitted request.
    pub batches: u64,
    /// High-water count of requests waiting for an execution slot,
    /// observed at admission.
    pub max_queue_depth: u64,
    /// Snapshots installed over the wire.
    pub snapshot_loads: u64,
    /// Connections dropped by the `serve.accept` chaos site.
    pub accept_faults: u64,
    /// Panicked execution attempts the exec supervisor retried.
    pub retries: u64,
    /// Requests answered straight from a snapshot's precomputed
    /// [`HierarchyIndex`](summa_dl::index::HierarchyIndex) (subset of
    /// `completed`).
    pub index_hits: u64,
    /// Warm-path requests the index could not answer alone (they
    /// proved, with the epoch-shared cache).
    pub index_misses: u64,
    /// Sat-cache hits served from a snapshot's epoch-shared cache by
    /// warm fall-through requests.
    pub cache_shared_hits: u64,
}

impl ServeStats {
    /// Exact partial accounting: every admitted request was answered,
    /// and every frame read is accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.accepted == self.completed
            && self.frames
                == self.accepted + self.rejected_protocol + self.rejected_overload + self.admin
    }

    /// Counter entries for the wire `Stats` payload, in a fixed order.
    pub fn entries(&self) -> Vec<(String, u64)> {
        vec![
            ("frames".into(), self.frames),
            ("accepted".into(), self.accepted),
            ("completed".into(), self.completed),
            ("engine_errors".into(), self.engine_errors),
            ("rejected_protocol".into(), self.rejected_protocol),
            ("rejected_overload".into(), self.rejected_overload),
            ("admin".into(), self.admin),
            ("batches".into(), self.batches),
            ("max_queue_depth".into(), self.max_queue_depth),
            ("snapshot_loads".into(), self.snapshot_loads),
            ("accept_faults".into(), self.accept_faults),
            ("retries".into(), self.retries),
            ("index_hits".into(), self.index_hits),
            ("index_misses".into(), self.index_misses),
            ("cache_shared_hits".into(), self.cache_shared_hits),
        ]
    }
}

/// The execution-slot gate: admitted requests wait here until fewer
/// than `cfg.threads` are running.
#[derive(Default)]
pub(crate) struct Slots {
    waiting: usize,
    running: usize,
}

/// State shared between the accept loop and the connection handlers.
pub(crate) struct Shared {
    pub cfg: ServerConfig,
    /// `cfg.warm_eligible()`, resolved once at startup — every
    /// execution branches on this.
    pub warm: bool,
    pub store: SnapshotStore,
    pub slots: Mutex<Slots>,
    pub slot_freed: Condvar,
    pub tenants: Mutex<BTreeMap<String, TenantLedger>>,
    pub counters: Counters,
    /// Admitted requests whose response has not been written yet.
    pub in_flight: AtomicU64,
    pub draining: AtomicBool,
    pub next_trace: AtomicU64,
    pub tracer: Tracer,
    /// The long-lived telemetry plane (phase histograms, gauges,
    /// slow-query log). Always present; recording is gated on its
    /// enabled flag.
    pub telemetry: TelemetryPlane,
    /// Clones of live connection streams, for shutdown.
    pub conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            frames: c.frames.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            engine_errors: c.engine_errors.load(Ordering::Relaxed),
            rejected_protocol: c.rejected_protocol.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            admin: c.admin.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            snapshot_loads: c.snapshot_loads.load(Ordering::Relaxed),
            accept_faults: c.accept_faults.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            index_hits: c.index_hits.load(Ordering::Relaxed),
            index_misses: c.index_misses.load(Ordering::Relaxed),
            cache_shared_hits: c.cache_shared_hits.load(Ordering::Relaxed),
        }
    }
}

/// A running reasoning server bound to a local TCP port.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `127.0.0.1:0` (ephemeral port) with the builtin snapshot
    /// corpus and start serving.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        Server::start_with_store(cfg, SnapshotStore::with_builtins())
    }

    /// [`Server::start`] against a caller-built snapshot store.
    pub fn start_with_store(cfg: ServerConfig, store: SnapshotStore) -> io::Result<Server> {
        if let Some((plan, seed)) = &cfg.request_fault_plan {
            FaultInjector::parse_plan(plan, *seed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tracer = cfg.tracer.clone();
        let telemetry = TelemetryPlane::new(cfg.telemetry.clone());
        let warm = cfg.warm_eligible();
        let shared = Arc::new(Shared {
            cfg,
            warm,
            store,
            telemetry,
            slots: Mutex::new(Slots::default()),
            slot_freed: Condvar::new(),
            tenants: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            next_trace: AtomicU64::new(0),
            tracer,
            conns: Mutex::new(Vec::new()),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_handles);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))?;

        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            conn_handles,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The snapshot store (hot-swappable while serving).
    pub fn store(&self) -> &SnapshotStore {
        &self.shared.store
    }

    /// The telemetry plane (for in-process scrapes and tests; remote
    /// consumers use the `Telemetry` wire op).
    pub fn telemetry(&self) -> &TelemetryPlane {
        &self.shared.telemetry
    }

    /// Graceful drain: stop admissions, answer everything already
    /// admitted, close connections, join all threads, and return the
    /// final (reconciling) accounting.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServeStats {
        let _span = self.shared.tracer.span("serve.drain");
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop with a dummy connection; it checks the
        // drain flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Let the handlers execute and write the last admitted
        // responses.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.in_flight.load(Ordering::SeqCst) != 0 {
            if Instant::now() > deadline {
                break; // degraded exit; reconciliation will flag it
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Unblock handler reads; clients already got every response.
        for conn in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .conn_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
        let stats = self.shared.stats();
        self.shared.tracer.add("serve.drained", 1);
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            let _ = self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Responses are small frames; never trade latency for Nagle
        // coalescing.
        stream.set_nodelay(true).ok();
        // Chaos site: an injected fault at accept drops the connection
        // before any protocol state exists (the one place "drop" is
        // the contract — no frame was ever read).
        let gate = catch_unwind(AssertUnwindSafe(|| {
            shared.cfg.pool_budget.meter().fault_point("serve.accept")
        }));
        if !matches!(gate, Ok(Ok(_))) {
            shared.counters.accept_faults.fetch_add(1, Ordering::Relaxed);
            shared.tracer.add("serve.accept.fault", 1);
            continue;
        }
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(clone);
        }
        let conn_shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_conn(conn_shared, stream))
        {
            conn_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
        }
    }
}

/// Write a response frame; IO errors just end the connection (the
/// peer left — nothing to answer anymore).
fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    wire::write_frame(stream, &wire::encode_response(resp)).is_ok()
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream) {
    conn_loop(&shared, &mut stream);
    // A clone of this socket lives in `shared.conns` (for drain), so
    // dropping our handle would NOT close the connection — shut the
    // socket down explicitly so the peer sees EOF.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn conn_loop(shared: &Arc<Shared>, stream: &mut TcpStream) {
    loop {
        match wire::read_frame(&mut *stream) {
            Ok(None) => break,
            Err(FrameError::Io(_)) => break,
            // The stream cannot be re-synchronized after these two:
            // answer with the typed error, then close. They count as
            // frames so the final accounting stays exact.
            Err(FrameError::Oversize(n)) => {
                shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                reject_protocol(shared, stream, 0, ProtoError::Oversize(n));
                break;
            }
            Err(FrameError::Truncated) => {
                shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                reject_protocol(shared, stream, 0, ProtoError::Truncated);
                break;
            }
            Ok(Some(payload)) => {
                shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                match wire::decode_request(&payload) {
                    Err((e, id)) => {
                        // Malformed frame, intact framing: typed error,
                        // connection stays usable.
                        reject_protocol(shared, stream, id, e);
                    }
                    Ok(env) => {
                        if !dispatch(shared, stream, env) {
                            break;
                        }
                    }
                }
            }
        }
    }
}

fn reject_protocol(shared: &Arc<Shared>, stream: &mut TcpStream, id: u64, e: ProtoError) {
    shared
        .counters
        .rejected_protocol
        .fetch_add(1, Ordering::Relaxed);
    shared.tracer.add("serve.reject.protocol", 1);
    let resp = Response {
        id,
        status: STATUS_PROTOCOL_ERROR,
        elapsed_ns: 0,
        trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
        epoch: 0,
        served: SERVED_PROVER,
        spend: Spend::default(),
        body: wire::protocol_error_body(&e),
    };
    let _ = send(stream, &resp);
}

fn reject_overload(shared: &Arc<Shared>, stream: &mut TcpStream, id: u64, o: Overload, detail: &str) {
    shared
        .counters
        .rejected_overload
        .fetch_add(1, Ordering::Relaxed);
    shared.tracer.add("serve.reject.overload", 1);
    let resp = Response {
        id,
        status: STATUS_OVERLOADED,
        elapsed_ns: 0,
        trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
        epoch: 0,
        served: SERVED_PROVER,
        spend: Spend::default(),
        body: wire::overload_body(o, detail),
    };
    let _ = send(stream, &resp);
}

/// Route one decoded request. Returns `false` when the connection
/// should close (write failure only — every protocol outcome keeps it
/// open).
fn dispatch(shared: &Arc<Shared>, stream: &mut TcpStream, env: Envelope) -> bool {
    match &env.request {
        // Admin surface: answered inline from server state, bypassing
        // admission (stats must work *during* overload, and loads must
        // not wait behind the requests reading current snapshots).
        Request::Stats => {
            shared.counters.admin.fetch_add(1, Ordering::Relaxed);
            let entries = shared.stats().entries();
            let mut payload = Vec::new();
            wire::put_u32(&mut payload, entries.len() as u32);
            for (k, v) in &entries {
                wire::put_str(&mut payload, k);
                wire::put_u64(&mut payload, *v);
            }
            let mut body = Vec::new();
            body.push(wire::OUTCOME_COMPLETED);
            body.push(wire::REASON_NONE);
            body.push(1);
            body.extend_from_slice(&payload);
            let resp = Response {
                id: env.id,
                status: wire::STATUS_OK,
                elapsed_ns: 0,
                trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
                epoch: 0,
                served: SERVED_PROVER,
                spend: Spend::default(),
                body,
            };
            send(stream, &resp)
        }
        // Telemetry scrapes answer inline for the same reason stats
        // do: observability must keep working during overload. The
        // body leads with its own version so scrape tooling can evolve
        // independently of the protocol version.
        Request::Telemetry { format } => {
            let text = match *format {
                wire::TELEMETRY_FORMAT_PROMETHEUS => {
                    shared.telemetry.prometheus_text(&shared.stats())
                }
                wire::TELEMETRY_FORMAT_CHROME_SLOWLOG => shared.telemetry.slow_log_chrome_json(),
                _ => {
                    reject_protocol(
                        shared,
                        stream,
                        env.id,
                        ProtoError::Malformed("unknown telemetry format"),
                    );
                    return true;
                }
            };
            shared.counters.admin.fetch_add(1, Ordering::Relaxed);
            shared.tracer.add("serve.telemetry.scrape", 1);
            let mut payload = Vec::new();
            payload.push(wire::TELEMETRY_VERSION);
            payload.push(*format);
            wire::put_str(&mut payload, &text);
            let mut body = Vec::new();
            body.push(wire::OUTCOME_COMPLETED);
            body.push(wire::REASON_NONE);
            body.push(1);
            body.extend_from_slice(&payload);
            let resp = Response {
                id: env.id,
                status: wire::STATUS_OK,
                elapsed_ns: 0,
                trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
                epoch: 0,
                served: SERVED_PROVER,
                spend: Spend::default(),
                body,
            };
            send(stream, &resp)
        }
        Request::LoadSnapshot { .. } => {
            shared.counters.admin.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let ex = ops::execute(&shared.store, &env.request, &shared.cfg.request_budget());
            if ex.status == wire::STATUS_OK {
                shared.counters.snapshot_loads.fetch_add(1, Ordering::Relaxed);
                shared.tracer.add("serve.snapshot.load", 1);
            }
            let resp = Response {
                id: env.id,
                status: ex.status,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
                trace_id: shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1,
                epoch: ex.epoch,
                served: ex.served,
                spend: ex.spend,
                body: ex.body,
            };
            send(stream, &resp)
        }
        _ => {
            // Admission gates, cheapest first.
            if shared.draining.load(Ordering::SeqCst) {
                reject_overload(shared, stream, env.id, Overload::Draining, "server draining");
                return true;
            }
            let (tenant_tel, admitted_at, start_ns) = {
                let mut tenants = shared
                    .tenants
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let ledger = tenants.entry(env.tenant.clone()).or_default();
                if ledger.pending >= shared.cfg.tenant_max_pending {
                    drop(tenants);
                    reject_overload(
                        shared,
                        stream,
                        env.id,
                        Overload::TenantBusy,
                        "tenant in-flight cap reached",
                    );
                    return true;
                }
                if let Some(quota) = shared.cfg.tenant_step_quota {
                    if ledger.consumed_steps >= quota {
                        drop(tenants);
                        reject_overload(
                            shared,
                            stream,
                            env.id,
                            Overload::QuotaExhausted,
                            "tenant step quota spent",
                        );
                        return true;
                    }
                }
                // Join the wait line under the tenants lock so pending++
                // and waiting++ stay consistent.
                let depth = {
                    let mut slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
                    if slots.waiting >= shared.cfg.queue_capacity {
                        drop(slots);
                        drop(tenants);
                        reject_overload(
                            shared,
                            stream,
                            env.id,
                            Overload::QueueFull,
                            "request queue at capacity",
                        );
                        return true;
                    }
                    slots.waiting += 1;
                    slots.waiting as u64
                };
                ledger.pending += 1;
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .max_queue_depth
                    .fetch_max(depth, Ordering::Relaxed);
                shared.tracer.add("serve.enqueued", 1);
                // Telemetry handle resolution piggybacks on this
                // already-locked admission section; when disabled the
                // cost is one relaxed load.
                let tenant_tel = shared
                    .telemetry
                    .enabled()
                    .then(|| shared.telemetry.tenant(&env.tenant));
                shared.telemetry.queue_depth_set(depth as i64);
                shared.telemetry.in_flight_add(1);
                (tenant_tel, Instant::now(), shared.telemetry.now_ns())
            };
            let (resp, mut phases) = run_admitted(shared, &env, admitted_at);
            let ser_t0 = Instant::now();
            let ok = send(stream, &resp);
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.telemetry.in_flight_add(-1);
            if let Some(tel) = tenant_tel {
                phases.serialize_ns = ser_t0.elapsed().as_nanos() as u64;
                let total_ns = admitted_at.elapsed().as_nanos() as u64;
                shared.telemetry.observe_request(
                    &tel,
                    &env.tenant,
                    env.request.op(),
                    &resp,
                    phases,
                    start_ns,
                    total_ns,
                );
            }
            ok
        }
    }
}

/// Run one admitted request on the calling connection thread: wait for
/// an execution slot, execute the request as a one-cell `par_map`
/// under the pool budget, free the slot, and do the per-answer
/// accounting (tenant ledger, counters, served attribution) exactly
/// once. The accounting happens before the response is written, so a
/// client's next request never meets its own stale in-flight count.
fn run_admitted(shared: &Shared, env: &Envelope, admitted_at: Instant) -> (Response, PhaseNs) {
    let waiting = {
        let mut slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
        while slots.running >= shared.cfg.threads.max(1) {
            slots = shared
                .slot_freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slots.waiting -= 1;
        slots.running += 1;
        slots.waiting
    };
    shared.telemetry.sample_gauges(waiting);
    let queue_wait_ns = admitted_at.elapsed().as_nanos() as u64;
    let trace_id = shared.next_trace.fetch_add(1, Ordering::Relaxed) + 1;

    let t0 = Instant::now();
    let outcome = {
        let _span = shared
            .tracer
            .span("serve.request")
            .with("op", env.request.op().name())
            .with("trace_id", trace_id)
            .with("tenant", env.tenant.as_str());
        // One cell runs inline; the pool envelope is charged one step
        // and the request executes under its own private budget.
        summa_exec::par_map(
            std::slice::from_ref(env),
            &shared.cfg.pool_budget,
            1,
            |meter, _, env: &Envelope| {
                meter.charge(1)?;
                let rb = shared.cfg.request_budget();
                Ok(if shared.warm {
                    ops::execute_warm(&shared.store, &env.request, &rb)
                } else {
                    ops::execute(&shared.store, &env.request, &rb)
                })
            },
        )
    };
    let execute_ns = t0.elapsed().as_nanos() as u64;
    shared
        .slots
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .running -= 1;
    shared.slot_freed.notify_one();
    shared.tracer.record_ns("serve.request.ns", execute_ns);

    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .retries
        .fetch_add(outcome.spend.retries, Ordering::Relaxed);
    // A cell the supervisor quarantined (or a pool-level interrupt)
    // left no result: answer it with a typed engine error.
    let ex = outcome
        .results
        .into_iter()
        .next()
        .flatten()
        .unwrap_or_else(|| Executed {
            status: wire::STATUS_ENGINE_ERROR,
            body: wire::engine_error_body("request execution failed after retries"),
            epoch: 0,
            served: SERVED_PROVER,
            spend: Spend::default(),
        });
    if ex.status == wire::STATUS_ENGINE_ERROR {
        shared.counters.engine_errors.fetch_add(1, Ordering::Relaxed);
        shared.tracer.add("serve.engine_error", 1);
    }
    match ex.served {
        SERVED_INDEX => {
            shared.counters.index_hits.fetch_add(1, Ordering::Relaxed);
        }
        SERVED_CACHE => {
            // A warm request the index could not answer alone: an
            // index miss, with any shared-cache replays attributed.
            shared.counters.index_misses.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .cache_shared_hits
                .fetch_add(ex.spend.cache_hits, Ordering::Relaxed);
        }
        _ => {}
    }
    shared.telemetry.note_served(ex.served, ex.spend.cache_hits);
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = shared
        .tenants
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get_mut(&env.tenant)
    {
        t.pending = t.pending.saturating_sub(1);
        t.consumed_steps = t.consumed_steps.saturating_add(ex.spend.steps);
    }
    let resp = Response {
        id: env.id,
        status: ex.status,
        elapsed_ns: execute_ns,
        trace_id,
        epoch: ex.epoch,
        served: ex.served,
        spend: ex.spend,
        body: ex.body,
    };
    let phases = PhaseNs {
        queue_wait_ns,
        execute_ns,
        serialize_ns: 0,
    };
    (resp, phases)
}
