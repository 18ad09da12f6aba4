//! The traced run's per-layer figures. The served run supplies the
//! server's own telemetry phases, `ServeStats` and response headers;
//! this module replays the same seeded request stream in-process,
//! wrapping each call into a layer's public functions in a `summa_obs`
//! span, and probes each layer on the workload's snapshot.

use crate::drive::{server_config, Served};
use crate::stats::{self, Metric};
use crate::workload::{Kind, Workload, CLIENTS};
use std::sync::Arc;
use std::time::Instant;
use summa_dl::cache::SatCache;
use summa_dl::classify::{classify_parallel_governed_with, ClassHierarchy};
use summa_dl::concept::Concept;
use summa_dl::index::HierarchyIndex;
use summa_dl::parser::parse_concept;
use summa_dl::realize::realize_parallel_governed_indexed;
use summa_dl::tableau::Tableau;
use summa_guard::{Budget, Governed};
use summa_obs::Tracer;
use summa_serve::ops;
use summa_serve::snapshot::{parse_tbox, Snapshot, SnapshotStore};
use summa_serve::wire::{self, Envelope, Op, Request, Response, SERVED_CACHE, SERVED_INDEX};

/// One per-layer figure and the end-to-end metric it should move.
pub struct LayerMetric {
    pub metric: Metric,
    pub moves: &'static str,
}

/// Requests replayed per client, per workload (`snapshot_churn`'s
/// client 0 sends installs, which take milliseconds each).
fn replay_caps(kind: Kind) -> [usize; CLIENTS] {
    match kind {
        Kind::WarmLookup => [2000, 2000],
        Kind::ProverMix => [300, 300],
        Kind::SnapshotChurn => [6, 2000],
    }
}

/// Repetitions of the set-up-time layer calls (parse, install,
/// classify, index build); each figure is their median.
const SETUP_CALL_REPS: usize = 3;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn p50(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n => v[(n - 1) / 2] as f64,
    }
}

fn mean_u64(v: &[u64]) -> f64 {
    stats::mean(v.iter().map(|&x| x as f64))
}

fn median_of(mut run: impl FnMut() -> u64) -> f64 {
    let v: Vec<f64> = (0..SETUP_CALL_REPS).map(|_| run() as f64).collect();
    stats::median(&v)
}

/// The stream requests the replay sends, interleaved across clients.
fn replay_stream(w: &Workload) -> Vec<Request> {
    let caps = replay_caps(w.kind);
    let mut streams: Vec<_> = (0..CLIENTS).map(|c| w.stream(c)).collect();
    let mut out = Vec::new();
    for i in 0..caps.iter().copied().max().unwrap_or(0) {
        for (c, s) in streams.iter_mut().enumerate() {
            if i < caps[c] {
                out.push(s.next_request());
            }
        }
    }
    out
}

fn fresh_store(w: &Workload) -> SnapshotStore {
    let store = SnapshotStore::new();
    store
        .install_axioms(w.snapshot, &w.texts[0])
        .expect("generated axioms parse");
    store
}

/// Per-call timings of one replay pass.
#[derive(Default)]
struct Replay {
    wall_ns: u64,
    decode_request: Vec<u64>,
    encode_response: Vec<u64>,
    decode_response: Vec<u64>,
    response_bytes: Vec<u64>,
    data_requests: u64,
}

/// Send `requests` through the wire codecs and `ops::execute_warm`,
/// as a connection thread and a batch worker would, under `tracer`.
fn replay(store: &SnapshotStore, requests: &[Request], tracer: &Tracer) -> Replay {
    let budget_cfg = summa_serve::server::ServerConfig {
        tracer: tracer.clone(),
        ..server_config()
    };
    let mut r = Replay::default();
    let t_all = Instant::now();
    for (id, req) in requests.iter().enumerate() {
        let _request = tracer.span("bench.request").with("op", req.op().name());
        let env = Envelope {
            id: id as u64,
            tenant: "replay".to_string(),
            request: req.clone(),
        };
        let frame = wire::encode_request(&env);
        let t0 = Instant::now();
        let decoded = {
            let _s = tracer.span("wire.decode_request");
            wire::decode_request(&frame).expect("replayed frame decodes")
        };
        r.decode_request.push(elapsed_ns(t0));
        let budget = budget_cfg.request_budget();
        let ex = {
            let _s = tracer.span("ops.execute_warm");
            match decoded.request.op() {
                Op::LoadSnapshot => ops::execute(store, &decoded.request, &budget),
                _ => ops::execute_warm(store, &decoded.request, &budget),
            }
        };
        if decoded.request.op() != Op::LoadSnapshot {
            r.data_requests += 1;
        }
        let resp = Response {
            id: decoded.id,
            status: ex.status,
            elapsed_ns: 0,
            trace_id: id as u64,
            epoch: ex.epoch,
            served: ex.served,
            spend: ex.spend,
            body: ex.body,
        };
        let t0 = Instant::now();
        let bytes = {
            let _s = tracer.span("wire.encode_response");
            wire::encode_response(&resp)
        };
        r.encode_response.push(elapsed_ns(t0));
        r.response_bytes.push(bytes.len() as u64);
        let t0 = Instant::now();
        {
            let _s = tracer.span("wire.decode_response");
            wire::decode_response(&bytes).expect("response decodes");
        }
        r.decode_response.push(elapsed_ns(t0));
    }
    r.wall_ns = elapsed_ns(t_all);
    r
}

/// Direct calls into `dl` and `ops` on the workload's snapshot: the
/// stream's own queries plus a probe set covering every op and tier.
#[derive(Default)]
struct Probes {
    execute: [Vec<u64>; 4],
    parse_concept: Vec<u64>,
    index_lookups: u64,
    index_ns: u64,
    intact: Vec<u64>,
    tableau_new: Vec<u64>,
    sat: Vec<u64>,
    realize_ns: Vec<u64>,
    realize_hits: Vec<u64>,
    realize_misses: Vec<u64>,
}

/// Slots of [`Probes::execute`], by (op, served tier).
const EXECUTE_TIERS: [(&str, Op, u8); 4] = [
    (
        "ops.execute_warm_ns.subsumes.index",
        Op::Subsumes,
        SERVED_INDEX,
    ),
    (
        "ops.execute_warm_ns.subsumes.cache",
        Op::Subsumes,
        SERVED_CACHE,
    ),
    (
        "ops.execute_warm_ns.classify.index",
        Op::Classify,
        SERVED_INDEX,
    ),
    (
        "ops.execute_warm_ns.realize.cache",
        Op::Realize,
        SERVED_CACHE,
    ),
];

fn probe(store: &SnapshotStore, snap: &Snapshot, requests: &[Request], tracer: &Tracer) -> Probes {
    let mut p = Probes::default();
    let warm = snap
        .warm
        .as_ref()
        .expect("warm state checked by the served run");
    let budget = server_config().request_budget();
    for req in requests {
        if req.op() == Op::LoadSnapshot {
            continue;
        }
        let t0 = Instant::now();
        let ex = {
            let _s = tracer.span("ops.execute_warm");
            ops::execute_warm(store, req, &budget)
        };
        let ns = elapsed_ns(t0);
        if let Some(slot) = EXECUTE_TIERS
            .iter()
            .position(|&(_, op, tier)| op == req.op() && tier == ex.served)
        {
            p.execute[slot].push(ns);
        }
        match req {
            Request::Subsumes { sub, sup, .. } => {
                let mut voc = snap.voc.clone();
                let mut parsed = Vec::new();
                for text in [sub, sup] {
                    let t0 = Instant::now();
                    let c = {
                        let _s = tracer.span("dl.parser.parse_concept");
                        parse_concept(text, &mut voc).expect("generated concept parses")
                    };
                    p.parse_concept.push(elapsed_ns(t0));
                    parsed.push(c);
                }
                if let (Concept::Atom(a), Concept::Atom(b)) = (&parsed[0], &parsed[1]) {
                    let _s = tracer.span("dl.index.subsumes");
                    let t0 = Instant::now();
                    for _ in 0..64 {
                        std::hint::black_box(warm.index.subsumes(*b, *a));
                    }
                    p.index_ns += elapsed_ns(t0);
                    p.index_lookups += 64;
                    // The warm path checks the index's integrity before
                    // every lookup.
                    let t0 = Instant::now();
                    std::hint::black_box(warm.index.is_intact());
                    p.intact.push(elapsed_ns(t0));
                    continue;
                }
                let query = Concept::and(vec![parsed[0].clone(), Concept::not(parsed[1].clone())]);
                let t0 = Instant::now();
                let mut reasoner = {
                    let _s = tracer.span("dl.tableau.new");
                    Tableau::new(&snap.tbox, &voc)
                };
                p.tableau_new.push(elapsed_ns(t0));
                let mut meter = budget.meter();
                let t0 = Instant::now();
                {
                    let _s = tracer.span("dl.tableau.sat");
                    let _ = std::hint::black_box(reasoner.sat_metered(&query, &mut meter));
                }
                p.sat.push(elapsed_ns(t0));
            }
            Request::Realize { abox, .. } => {
                let mut voc = snap.voc.clone();
                let parsed = ops::parse_abox(abox, &mut voc).expect("generated ABox parses");
                let t0 = Instant::now();
                let (governed, spend) = {
                    let _s = tracer.span("dl.realize");
                    realize_parallel_governed_indexed(
                        &snap.tbox,
                        &parsed,
                        &voc,
                        &budget,
                        1,
                        Arc::new(SatCache::new()),
                        Some(&warm.index),
                    )
                };
                p.realize_ns.push(elapsed_ns(t0));
                assert!(
                    matches!(governed, Governed::Completed(_)),
                    "realize completes"
                );
                p.realize_hits.push(spend.cache_hits);
                p.realize_misses.push(spend.cache_misses);
            }
            _ => {}
        }
    }
    p
}

/// Everything the traced run reports, with the end-to-end metric each
/// figure should move, and the Chrome trace of the replay.
pub fn measure(w: &Workload, served: &Served) -> (Vec<LayerMetric>, String) {
    let tracer = Tracer::enabled();
    let mut out: Vec<LayerMetric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, moves: &'static str| {
        out.push(LayerMetric {
            metric: Metric::new(name, value, unit),
            moves,
        });
    };

    // serve::wire, serve::ops, dl::tableau counters: the replay, once
    // untraced for timings and once traced for spans and counters.
    let requests = replay_stream(w);
    let plain = replay(&fresh_store(w), &requests, &Tracer::disabled());
    let counted = {
        let _s = tracer.span("bench.replay");
        replay(&fresh_store(w), &requests, &tracer)
    };
    let per_request =
        |counter: &str| tracer.counter_value(counter) as f64 / counted.data_requests.max(1) as f64;
    let states_popped = per_request("dl.rule.search");
    let label_scans = per_request("dl.tableau.label_scans");
    let trail_undo = per_request("dl.rule.trail.undo");

    const WIRE: &str = "classify_p50_us, latency_p50_us on warm_lookup";
    push(
        "wire.decode_request_ns",
        mean_u64(&plain.decode_request),
        "ns",
        WIRE,
    );
    push(
        "wire.encode_response_ns",
        mean_u64(&plain.encode_response),
        "ns",
        WIRE,
    );
    push(
        "wire.decode_response_ns",
        mean_u64(&plain.decode_response),
        "ns",
        WIRE,
    );
    push(
        "wire.response_bytes_mean",
        mean_u64(&plain.response_bytes),
        "bytes",
        WIRE,
    );

    // serve::server + batch: the served run's own telemetry and books.
    const SERVER: &str = "latency_p50_us, throughput_rps on warm_lookup";
    for phase in ["queue_wait", "batch_form", "execute", "serialize"] {
        let ns = served.phases_p50_ns.get(phase).copied().unwrap_or(0);
        push(
            &format!("server.{phase}_p50_us"),
            ns as f64 / 1e3,
            "us",
            SERVER,
        );
    }
    let data = |r: &&crate::drive::Record| r.op != Op::LoadSnapshot;
    let residual: Vec<u64> = served
        .records
        .iter()
        .filter(data)
        .map(|r| u64::from(r.latency_ns.saturating_sub(r.elapsed_ns)))
        .collect();
    push("server.residual_p50_us", p50(residual) / 1e3, "us", SERVER);
    let st = &served.stats;
    push(
        "server.batch_size_mean",
        st.accepted as f64 / st.batches.max(1) as f64,
        "requests",
        SERVER,
    );
    push(
        "server.max_queue_depth",
        st.max_queue_depth as f64,
        "count",
        SERVER,
    );
    push(
        "ping.p50_us",
        p50(served.ping_ns.clone()) / 1e3,
        "us",
        "floor of latency_p50_us on warm_lookup",
    );

    // serve::ops, dl::parser, dl::index, dl::tableau, dl::realize.
    let store = fresh_store(w);
    let snap = store.get(w.snapshot).expect("installed");
    let mut probe_requests = w.probes();
    probe_requests.extend(requests.iter().cloned());
    let probes = {
        let _s = tracer.span("bench.probes");
        probe(&store, &snap, &probe_requests, &tracer)
    };
    const OPS: &str = "subsumes_p50_us on prover_mix and warm_lookup";
    for (slot, &(name, _, _)) in EXECUTE_TIERS.iter().enumerate() {
        push(name, p50(probes.execute[slot].clone()), "ns", OPS);
    }
    let served_data: Vec<_> = served.records.iter().filter(data).collect();
    let share = |tier: u8| {
        served_data.iter().filter(|r| r.served == tier).count() as f64
            / served_data.len().max(1) as f64
    };
    push("ops.served_index_frac", share(SERVED_INDEX), "ratio", OPS);
    push("ops.served_cache_frac", share(SERVED_CACHE), "ratio", OPS);
    push(
        "ops.served_prover_frac",
        share(summa_serve::wire::SERVED_PROVER),
        "ratio",
        OPS,
    );
    push(
        "parser.parse_concept_ns",
        p50(probes.parse_concept.clone()),
        "ns",
        "subsumes_p50_us on prover_mix",
    );
    push(
        "index.subsumes_ns",
        probes.index_ns as f64 / probes.index_lookups.max(1) as f64,
        "ns",
        "subsumes_p50_us on warm_lookup",
    );
    push(
        "index.is_intact_ns",
        p50(probes.intact.clone()),
        "ns",
        "subsumes_p50_us on warm_lookup",
    );

    // dl::classify and dl::index build, the install-time work.
    let (tbox, voc) = parse_tbox(&w.texts[0]).expect("generated axioms parse");
    let atoms = voc.n_concepts() as f64;
    let mut hierarchy: Option<ClassHierarchy> = None;
    let sat0 = tracer.counter_value("dl.classify.sat_tests");
    let pruned0 = tracer.counter_value("dl.classify.pruned");
    let classify_ms = median_of(|| {
        let budget = Budget::new().with_tracer(tracer.clone());
        let t0 = Instant::now();
        let (g, _) =
            classify_parallel_governed_with(&tbox, &voc, &budget, 1, Arc::new(SatCache::new()));
        let ns = elapsed_ns(t0);
        if let Governed::Completed(h) = g {
            hierarchy = Some(h);
        }
        ns
    });
    let reps = SETUP_CALL_REPS as f64;
    let sat_tests = (tracer.counter_value("dl.classify.sat_tests") - sat0) as f64 / reps;
    let pruned = (tracer.counter_value("dl.classify.pruned") - pruned0) as f64 / reps;
    let hierarchy = hierarchy.expect("install-time classification completes");
    let index_build = median_of(|| {
        let t0 = Instant::now();
        std::hint::black_box(HierarchyIndex::build(&hierarchy));
        elapsed_ns(t0)
    });
    push(
        "index.build_ms",
        ms(index_build as u64),
        "ms",
        "load_snapshot_p50_ms on snapshot_churn",
    );

    // dl::cache: the served snapshot's epoch-shared cache.
    const CACHE: &str = "throughput_rps on prover_mix";
    push("cache.hit_rate", served.cache_hit_rate, "ratio", CACHE);
    push("cache.entries", served.cache_entries as f64, "count", CACHE);

    const KERNEL: &str = "subsumes_p50_us, cpu_us_per_req on prover_mix";
    push(
        "tableau.new_ns",
        p50(probes.tableau_new.clone()),
        "ns",
        KERNEL,
    );
    push("tableau.sat_ns", p50(probes.sat.clone()), "ns", KERNEL);
    let steps: Vec<u64> = served
        .records
        .iter()
        .filter(|r| r.op == Op::Subsumes)
        .map(|r| u64::from(r.steps))
        .collect();
    push("tableau.steps_per_req", mean_u64(&steps), "steps", KERNEL);
    push("tableau.states_popped", states_popped, "count/req", KERNEL);
    push("tableau.label_scans", label_scans, "count/req", KERNEL);
    push("tableau.trail_undo", trail_undo, "count/req", KERNEL);

    const REALIZE: &str = "realize_p50_us on prover_mix";
    push(
        "realize.ms",
        ms(p50(probes.realize_ns.clone()) as u64),
        "ms",
        REALIZE,
    );
    push(
        "realize.cache_hits",
        mean_u64(&probes.realize_hits),
        "count/req",
        REALIZE,
    );
    push(
        "realize.cache_misses",
        mean_u64(&probes.realize_misses),
        "count/req",
        REALIZE,
    );

    const CLASSIFY: &str = "load_snapshot_p50_ms, setup_s on snapshot_churn and prover_mix";
    push("classify.ms", ms(classify_ms as u64), "ms", CLASSIFY);
    push("classify.sat_tests", sat_tests, "count", CLASSIFY);
    push("classify.pruned", pruned, "count", CLASSIFY);
    push(
        "classify.sat_test_ratio",
        sat_tests / (atoms * atoms),
        "ratio",
        CLASSIFY,
    );

    // serve::snapshot: parsing and installing the axiom text.
    const SNAPSHOT: &str = "load_snapshot_p50_ms on snapshot_churn";
    let parse = median_of(|| {
        let t0 = Instant::now();
        std::hint::black_box(parse_tbox(&w.texts[0]).expect("parses"));
        elapsed_ns(t0)
    });
    let install = median_of(|| {
        let store = SnapshotStore::new();
        let t0 = Instant::now();
        let _s = tracer.span("serve.snapshot.install_axioms");
        store
            .install_axioms(w.snapshot, &w.texts[0])
            .expect("installs");
        elapsed_ns(t0)
    });
    push("snapshot.parse_ms", ms(parse as u64), "ms", SNAPSHOT);
    push("snapshot.install_ms", ms(install as u64), "ms", SNAPSHOT);
    push(
        "snapshot.warm_built",
        served.warm_installs as f64 / served.installs.max(1) as f64,
        "ratio",
        SNAPSHOT,
    );

    push(
        "trace.overhead_frac",
        counted.wall_ns as f64 / plain.wall_ns.max(1) as f64,
        "ratio",
        "none; sanity check",
    );
    (out, tracer.snapshot().chrome_trace())
}
