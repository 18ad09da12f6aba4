//! The served run: several times over, start a server, install the
//! workload's snapshot over the wire and drive it with closed-loop
//! clients for one window; then check every distinct answer against the
//! cold conformance baseline.

use crate::stats;
use crate::workload::{Kind, Stream, Workload, CLIENTS, SERVER_THREADS};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::time::{Duration, Instant};
use summa_obs::Tracer;
use summa_serve::client::Client;
use summa_serve::ops;
use summa_serve::server::{ServeStats, Server, ServerConfig};
use summa_serve::snapshot::SnapshotStore;
use summa_serve::wire::{self, Envelope, Op, Request, Response, STATUS_OK};

/// Server set-ups per run, each followed by one measuring window.
pub const SETUP_REPS: usize = 5;
/// Further set-ups per run that only time the set-up; `setup_s` is the
/// median over all of them.
const BARE_SETUPS: usize = 10;
/// Untimed requests before a window opens, as a share of it.
const WARMUP_SHARE: f64 = 0.1;
/// Pings per client in the traced run's transport-floor burst.
const PING_BURST: usize = 2000;

/// The production configuration, pinned to this benchmark's thread
/// count, with the warm path on and tracing off.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        threads: SERVER_THREADS,
        cold: false,
        tracer: Tracer::disabled(),
        ..ServerConfig::default()
    }
}

/// Length of one slice of the timed window. Each end-to-end figure is
/// computed per slice and reported as the median over slices, so that a
/// burst of interference from outside the benchmark moves a few slices
/// and not the result.
pub const SLICE: Duration = Duration::from_secs(1);

/// One timed request, as the client saw it. Times are in ns,
/// saturating at `u32::MAX` (4.3 s).
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub op: Op,
    pub served: u8,
    /// The slice of the run the request completed in; `None` when it
    /// completed after its window closed.
    pub slice: Option<u16>,
    pub latency_ns: u32,
    /// Server-side execute time from the response header.
    pub elapsed_ns: u32,
    pub steps: u32,
}

fn saturate(v: u128) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// A hash of a request's wire encoding: the answer book's key.
pub fn request_hash(req: &Request) -> u64 {
    let mut h = DefaultHasher::new();
    wire::encode_request(&Envelope {
        id: 0,
        tenant: String::new(),
        request: req.clone(),
    })
    .hash(&mut h);
    h.finish()
}

/// The distinct answers one run received, keyed by the request's hash
/// and the generation (index into `Workload::texts`) that answered it.
/// Bodies are kept byte for byte in one arena; the requests themselves
/// are drawn again from the seeded streams for the check, so the book's
/// memory barely grows with throughput.
#[derive(Debug, Default)]
pub struct Answers {
    index: HashMap<(u64, usize), (usize, usize)>,
    arena: Vec<u8>,
    /// Repeats of a request whose body differed from the first one.
    pub inconsistent: u64,
}

impl Answers {
    fn note(&mut self, hash: u64, gen: usize, body: &[u8]) {
        match self.index.entry((hash, gen)) {
            Entry::Occupied(e) => {
                let (at, len) = *e.get();
                if &self.arena[at..at + len] != body {
                    self.inconsistent += 1;
                }
            }
            Entry::Vacant(e) => {
                e.insert((self.arena.len(), body.len()));
                self.arena.extend_from_slice(body);
            }
        }
    }

    fn absorb(&mut self, other: Answers) {
        self.inconsistent += other.inconsistent;
        for ((hash, gen), (at, len)) in other.index {
            self.note(hash, gen, &other.arena[at..at + len]);
        }
    }

    fn body(&self, hash: u64, gen: usize) -> Option<&[u8]> {
        let &(at, len) = self.index.get(&(hash, gen))?;
        Some(&self.arena[at..at + len])
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }
}

/// Everything one served run measured.
pub struct Served {
    pub setup_s: Vec<f64>,
    /// Timed requests; per slice, the process CPU time and the CPU time
    /// the hypervisor took from the machine (steal), in µs.
    pub records: Vec<Record>,
    pub slice_cpu_us: Vec<u64>,
    pub slice_steal_us: Vec<u64>,
    /// Requests each client's stream drew, timed or not.
    pub drawn: Vec<usize>,
    pub peak_rss_mb: f64,
    /// Requests sent in the timed windows, and how many failed (non-OK
    /// status, typed overload or I/O error).
    pub attempted: u64,
    pub failed: u64,
    pub answers: Answers,
    /// The last server's books.
    pub stats: ServeStats,
    /// Snapshot installs (set-ups and reinstalls), and how many of
    /// them shipped a warm state.
    pub installs: u64,
    pub warm_installs: u64,
    /// Problems with the server's books or warm state; any fails the run.
    pub faults: Vec<String>,
    /// Traced runs only, from the last server: per-phase p50s from the
    /// telemetry plane, the ping burst, and the snapshot's shared-cache
    /// figures.
    pub phases_p50_ns: BTreeMap<&'static str, u64>,
    pub ping_ns: Vec<u64>,
    pub cache_hit_rate: f64,
    pub cache_entries: usize,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Start a server and install `texts[0]` over the wire. Returns the
/// server, the set-up time and the installed epoch.
fn set_up(w: &Workload) -> io::Result<(Server, f64, u64)> {
    let t0 = Instant::now();
    let server = Server::start_with_store(server_config(), SnapshotStore::new())?;
    let mut client = Client::connect(server.addr(), "setup")?;
    let resp = client.load_snapshot(w.snapshot, &w.texts[0])?;
    let setup_s = t0.elapsed().as_secs_f64();
    if resp.status != STATUS_OK {
        return Err(invalid(format!(
            "setup load failed with status {}",
            resp.status
        )));
    }
    Ok((server, setup_s, resp.epoch))
}

/// The generation (index into `Workload::texts`) an epoch of one
/// window's server holds. Set-up installs `texts[0]`. On
/// `snapshot_churn` client 0 is the only writer: its k-th reinstall in
/// the window is epoch `setup + k`, and its stream, having drawn
/// `loads_before` installs in earlier windows, sends
/// `texts[(loads_before + k) % 2]`. [`note_install`] checks both.
fn generation(w: &Workload, window: &Window, epoch: u64) -> Option<usize> {
    match epoch.checked_sub(window.setup_epoch)? {
        0 => Some(0),
        k if w.kind == Kind::SnapshotChurn => Some((window.loads_before + k as usize) % 2),
        _ => None,
    }
}

/// What one client thread brings back from one window.
#[derive(Default)]
struct ClientOut {
    records: Vec<Record>,
    answers: Answers,
    attempted: u64,
    failed: u64,
    data_sent: u64,
    admin_sent: u64,
    installs: u64,
    warm_installs: u64,
    faults: Vec<String>,
}

/// One measuring window: warm-up until `open`, timed until `close`,
/// its slices numbered from `first_slice`; the epoch its server's
/// set-up installed, and the installs client 0 drew before it.
#[derive(Clone, Copy)]
struct Window {
    open: Instant,
    close: Instant,
    first_slice: usize,
    slices: usize,
    setup_epoch: u64,
    loads_before: usize,
}

fn run_client(
    w: &Workload,
    server: &Server,
    client: &mut Client,
    stream: &mut Stream,
    window: Window,
) -> ClientOut {
    let mut out = ClientOut {
        records: Vec::with_capacity(SLICE_RECORDS * window.slices),
        ..ClientOut::default()
    };
    let slice_ns = SLICE.as_nanos();
    loop {
        let now = Instant::now();
        if now >= window.close {
            break;
        }
        let timed = now >= window.open;
        let req = stream.next_request();
        let op = req.op();
        let admin = op == Op::LoadSnapshot;
        let t0 = Instant::now();
        let resp = client.call(req.clone());
        let done = Instant::now();
        if admin {
            out.admin_sent += 1;
        } else {
            out.data_sent += 1;
        }
        out.attempted += u64::from(timed);
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                out.failed += u64::from(timed);
                out.faults.push(format!("I/O error: {e}"));
                break;
            }
        };
        if resp.status != STATUS_OK {
            out.failed += u64::from(timed);
        }
        if timed {
            let local = ((done - window.open).as_nanos() / slice_ns) as usize;
            out.records.push(Record {
                op,
                served: resp.served,
                slice: (local < window.slices).then(|| (window.first_slice + local) as u16),
                latency_ns: saturate((done - t0).as_nanos()),
                elapsed_ns: saturate(u128::from(resp.elapsed_ns)),
                steps: saturate(u128::from(resp.spend.steps)),
            });
        }
        if admin {
            note_install(w, server, &window, &req, &resp, &mut out);
        } else if resp.status == STATUS_OK {
            match generation(w, &window, resp.epoch) {
                Some(gen) => out.answers.note(request_hash(&req), gen, &resp.body),
                None => out
                    .faults
                    .push(format!("answer from unknown epoch {}", resp.epoch)),
            }
        }
    }
    out
}

/// Records a client keeps room for per slice.
const SLICE_RECORDS: usize = 20_000;

/// Check that an install created the generation [`generation`] expects
/// and shipped a warm state.
fn note_install(
    w: &Workload,
    server: &Server,
    window: &Window,
    req: &Request,
    resp: &Response,
    out: &mut ClientOut,
) {
    if resp.status != STATUS_OK {
        out.faults
            .push(format!("load_snapshot failed with status {}", resp.status));
        return;
    }
    out.installs += 1;
    let expected = window.setup_epoch + out.installs;
    let sent = match req {
        Request::LoadSnapshot { axioms, .. } => w.texts.iter().position(|t| t == axioms),
        _ => None,
    };
    if resp.epoch != expected || sent != generation(w, window, resp.epoch) {
        out.faults.push(format!(
            "reinstall {} got epoch {} holding axiom set {sent:?}; expected epoch {expected}",
            out.installs, resp.epoch
        ));
    }
    // This client is the only writer, so the current generation is the
    // one it just installed.
    match server.store().get(w.snapshot) {
        Some(s) if s.epoch == resp.epoch && s.warm.is_some() => out.warm_installs += 1,
        Some(s) if s.epoch == resp.epoch => out
            .faults
            .push(format!("epoch {} shipped without a warm state", s.epoch)),
        _ => out.faults.push(format!(
            "epoch {} not current after its install",
            resp.epoch
        )),
    }
}

/// Aggregate the telemetry plane's phase histograms over every op.
fn phase_p50s(server: &Server) -> BTreeMap<&'static str, u64> {
    let merged: BTreeMap<&'static str, summa_obs::Histogram> = summa_serve::telemetry::PHASES
        .iter()
        .map(|p| (p.name(), summa_obs::Histogram::default()))
        .collect();
    server.telemetry().registry().for_each_histogram(|name, h| {
        for (phase, acc) in &merged {
            if name.starts_with(&format!("serve.phase.{phase}.")) {
                acc.absorb(h);
            }
        }
    });
    merged
        .into_iter()
        .map(|(p, h)| (p, h.quantile_ns(0.5)))
        .collect()
}

/// Drive one workload: [`SETUP_REPS`] times, start a fresh server,
/// install the workload's snapshot over the wire and measure one
/// window, so that each window gets fresh threads and connections. The
/// clients' request streams run on across the windows.
pub fn run(w: &Workload, seconds: u64, traced: bool) -> io::Result<Served> {
    let slices_per_window = (seconds as usize).div_ceil(SETUP_REPS).max(1);
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| w.stream(c)).collect();
    let mut served = Served {
        setup_s: Vec::new(),
        records: Vec::with_capacity(SLICE_RECORDS * CLIENTS * slices_per_window * SETUP_REPS),
        slice_cpu_us: Vec::new(),
        slice_steal_us: Vec::new(),
        drawn: Vec::new(),
        peak_rss_mb: 0.0,
        attempted: 0,
        failed: 0,
        answers: Answers::default(),
        stats: ServeStats::default(),
        installs: 0,
        warm_installs: 0,
        faults: Vec::new(),
        phases_p50_ns: BTreeMap::new(),
        ping_ns: Vec::new(),
        cache_hit_rate: 0.0,
        cache_entries: 0,
    };
    for _ in 0..BARE_SETUPS {
        let (server, setup_s, _) = set_up(w)?;
        served.setup_s.push(setup_s);
        server.shutdown();
    }
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (server, setup_s, setup_epoch) = set_up(w)?;
        served.setup_s.push(setup_s);
        served.installs += 1;
        let warm = server
            .store()
            .get(w.snapshot)
            .is_some_and(|s| s.epoch == setup_epoch && s.warm.is_some());
        if warm {
            served.warm_installs += 1;
        } else {
            served.faults.push(format!(
                "snapshot {} shipped without a warm state",
                w.snapshot
            ));
        }
        // The set-up's install is an admin frame on this server.
        let (mut data_sent, mut admin_sent) = (0u64, 1u64);

        let mut clients = (0..CLIENTS)
            .map(|i| Client::connect(server.addr(), &format!("client-{i}")))
            .collect::<io::Result<Vec<_>>>()?;
        let length = SLICE * slices_per_window as u32;
        let open = Instant::now() + length.mul_f64(WARMUP_SHARE);
        let window = Window {
            open,
            close: open + length,
            first_slice: rep * slices_per_window,
            slices: slices_per_window,
            setup_epoch,
            loads_before: streams[0].sent(),
        };
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(streams.iter_mut())
                .map(|(c, stream)| {
                    let server = &server;
                    s.spawn(move || run_client(w, server, c, stream, window))
                })
                .collect();
            let (mut cpu, mut steal) = (Vec::new(), Vec::new());
            for i in 0..=slices_per_window {
                std::thread::sleep(
                    (open + SLICE * i as u32).saturating_duration_since(Instant::now()),
                );
                cpu.push(stats::process_cpu_us());
                steal.push(stats::host_steal_us());
            }
            let deltas = |v: &[u64]| {
                v.windows(2)
                    .map(|p| p[1].saturating_sub(p[0]))
                    .collect::<Vec<_>>()
            };
            served.slice_cpu_us.extend(deltas(&cpu));
            served.slice_steal_us.extend(deltas(&steal));
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (i, out) in outs.into_iter().enumerate() {
            served.records.extend(out.records);
            served.answers.absorb(out.answers);
            served.attempted += out.attempted;
            served.failed += out.failed;
            served
                .faults
                .extend(out.faults.into_iter().map(|f| format!("client {i}: {f}")));
            data_sent += out.data_sent;
            admin_sent += out.admin_sent;
            served.installs += out.installs;
            served.warm_installs += out.warm_installs;
        }
        served.peak_rss_mb = stats::peak_rss_mb();

        if traced && last {
            served.phases_p50_ns = phase_p50s(&server);
            served.ping_ns = ping_burst(&mut clients)?;
            data_sent += (CLIENTS * PING_BURST) as u64;
            if let Some(cache) = server
                .store()
                .get(w.snapshot)
                .and_then(|s| s.warm.as_ref().map(|warm| warm.cache.stats()))
            {
                let probes = cache.hits + cache.misses;
                served.cache_hit_rate = cache.hits as f64 / probes.max(1) as f64;
                served.cache_entries = cache.entries;
            }
        }
        drop(clients);
        let stats = server.shutdown();
        if !stats.reconciles() {
            served
                .faults
                .push(format!("server books do not reconcile: {stats:?}"));
        }
        if stats.accepted != data_sent {
            served.faults.push(format!(
                "server accepted {} requests, clients sent {data_sent}",
                stats.accepted
            ));
        }
        if stats.admin != admin_sent {
            served.faults.push(format!(
                "server answered {} admin frames, clients sent {admin_sent}",
                stats.admin
            ));
        }
        served.stats = stats;
    }
    served.drawn = streams.iter().map(Stream::sent).collect();
    Ok(served)
}

/// The transport floor: pings on the workload's own connections, both
/// clients at once.
fn ping_burst(clients: &mut [Client]) -> io::Result<Vec<u64>> {
    let results: Vec<io::Result<Vec<u64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(PING_BURST);
                    for _ in 0..PING_BURST {
                        let t0 = Instant::now();
                        let resp = c.ping()?;
                        out.push(t0.elapsed().as_nanos() as u64);
                        if resp.status != STATUS_OK {
                            return Err(invalid(format!("ping status {}", resp.status)));
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Byte-compare every distinct answer against [`ops::execute`] on a
/// fresh store holding the generation that answered it. The requests
/// are drawn again from the clients' seeded streams. Returns the number
/// of distinct answers checked and one line per problem.
pub fn check_answers(w: &Workload, served: &Served) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    if served.answers.inconsistent > 0 {
        problems.push(format!(
            "{} repeated requests got a different body than their first answer",
            served.answers.inconsistent
        ));
    }
    let mut todo: Vec<(Request, usize, &[u8])> = Vec::new();
    let mut seen = HashSet::new();
    for (client, &drawn) in served.drawn.iter().enumerate() {
        let mut stream = w.stream(client);
        for _ in 0..drawn {
            let req = stream.next_request();
            if req.op() == Op::LoadSnapshot {
                continue;
            }
            let hash = request_hash(&req);
            for gen in 0..w.texts.len() {
                if let Some(body) = served.answers.body(hash, gen) {
                    if seen.insert((hash, gen)) {
                        todo.push((req.clone(), gen, body));
                    }
                }
            }
        }
    }
    if todo.len() != served.answers.len() {
        problems.push(format!(
            "{} answers match no request the streams drew",
            served.answers.len() - todo.len()
        ));
    }
    let stores: Vec<SnapshotStore> = w
        .texts
        .iter()
        .map(|text| {
            let store = SnapshotStore::new();
            store
                .install_axioms(w.snapshot, text)
                .expect("generated axioms parse");
            store
        })
        .collect();
    let cfg = server_config();
    let chunk = todo.len().div_ceil(CLIENTS).max(1);
    let found: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|part| {
                let (stores, cfg) = (&stores, &cfg);
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for (req, gen, body) in part {
                        let cold = ops::execute(&stores[*gen], req, &cfg.request_budget());
                        if cold.status != STATUS_OK || cold.body != *body {
                            bad.push(format!(
                                "{} against axiom set {gen}: served body differs from ops::execute",
                                req.op().name()
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    problems.extend(found.into_iter().flatten());
    (todo.len(), problems)
}

/// The op a workload reports besides `subsumes`.
pub fn other_op(kind: Kind) -> Op {
    match kind {
        Kind::WarmLookup => Op::Classify,
        Kind::ProverMix => Op::Realize,
        Kind::SnapshotChurn => Op::LoadSnapshot,
    }
}
