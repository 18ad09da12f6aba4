//! The serving benchmark of the summa reasoner.
//!
//! One process starts a `summa_serve::server::Server`, installs
//! generated snapshots over the wire, and drives it with closed-loop
//! clients for a timed window. Every distinct answer is then
//! byte-compared against `summa_serve::ops::execute`, the cold
//! conformance baseline.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload warm_lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `warm_lookup`, `prover_mix`, `snapshot_churn` (see
//! `workload.rs`). With `--trace 0` the last line of standard output is
//! a JSON object holding the end-to-end metrics; with `--trace 1` it
//! holds the per-layer metrics of the traced run, whose Chrome trace is
//! written under `.bench_out/`. The exit code is non-zero when an answer
//! or the server's books are wrong.

mod drive;
mod gen;
mod layers;
mod stats;
mod workload;

use drive::{Record, Served};
use stats::{percentile, Metric};
use summa_serve::wire::Op;
use workload::{Kind, Workload, CLIENTS, SERVER_THREADS};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// The git revision of the working tree, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Steal above this share of the machine's CPU time marks a slice as
/// disturbed by the host.
const STEAL_LIMIT: f64 = 0.02;

/// The timed records split into [`drive::SLICE`]-long slices by
/// completion time (requests answered after their window closed are
/// left out), keeping the slices the host disturbed least: those whose
/// steal stays under [`STEAL_LIMIT`], or, when fewer than half do, the
/// least-stolen half. Returns the kept slices with their indices.
fn slices(s: &Served) -> Vec<(usize, Vec<&Record>)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let capacity_us = drive::SLICE.as_secs_f64() * 1e6 * cpus;
    let mut all: Vec<Vec<&Record>> = vec![Vec::new(); s.slice_cpu_us.len()];
    for r in &s.records {
        if let Some(slice) = r.slice.and_then(|i| all.get_mut(usize::from(i))) {
            slice.push(r);
        }
    }
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by_key(|&i| s.slice_steal_us[i]);
    let calm = order
        .iter()
        .filter(|&&i| (s.slice_steal_us[i] as f64) < STEAL_LIMIT * capacity_us)
        .count();
    order.truncate(calm.max(all.len().div_ceil(2)));
    order.sort_unstable();
    println!(
        "slices: {} of {} kept (host steal per slice, ms: {:?})",
        order.len(),
        all.len(),
        s.slice_steal_us
            .iter()
            .map(|us| us / 1000)
            .collect::<Vec<_>>()
    );
    order
        .into_iter()
        .map(|i| (i, std::mem::take(&mut all[i])))
        .collect()
}

/// The median over slices of a per-slice figure. Slices holding too
/// few samples for it are skipped; at least half must qualify.
fn sliced(
    name: &str,
    slices: &[(usize, Vec<&Record>)],
    figure: impl Fn(usize, &[&Record]) -> Option<f64>,
) -> Result<f64, String> {
    let values: Vec<f64> = slices.iter().filter_map(|(i, s)| figure(*i, s)).collect();
    if values.is_empty() || values.len() * 2 < slices.len() {
        return Err(format!(
            "{name}: only {} of {} slices hold enough samples",
            values.len(),
            slices.len()
        ));
    }
    Ok(stats::median(&values))
}

/// A percentile of the latencies of the records matching `pick`, in µs.
fn pct(records: &[&Record], q: f64, pick: impl Fn(&Record) -> bool) -> Option<f64> {
    let mut v: Vec<u64> = records
        .iter()
        .filter(|r| pick(r))
        .map(|r| u64::from(r.latency_ns))
        .collect();
    v.sort_unstable();
    percentile(&v, q).map(|ns| ns as f64 / 1e3)
}

/// The end-to-end metrics `BENCHMARK.json` gates, and the ones the
/// report prints beside them. Every figure but set-up time, the other
/// op's p50 and memory is the median over kept slices.
///
/// Throughput, the p95 tails and CPU time per request are reported but
/// not gated: when other tenants of the host take a quarter or more of
/// the benchmark machine's CPU, they move by more than any bound a regression
/// check could use (`prover_mix` tails grew from 0.4 to 4 ms, CPU time
/// per request on `snapshot_churn` by 29% between two sets of runs),
/// while the medians stay within a quarter.
fn end_to_end(kind: Kind, s: &Served) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let parts = slices(s);
    let other = drive::other_op(kind);
    let sub = |r: &Record| r.op == Op::Subsumes;
    let oth = |r: &Record| r.op == other;
    // The other op is rare on some workloads, so its p50 is pooled
    // over every slice of the run rather than taken per slice.
    let pooled: Vec<&Record> = s.records.iter().filter(|r| r.slice.is_some()).collect();
    let other_p50 = pct(&pooled, 0.5, oth)
        .ok_or_else(|| format!("other_op_p50_us: too few {} requests", other.name()))?;
    let latency = |name: &str, q: f64, pick: &dyn Fn(&Record) -> bool| {
        sliced(name, &parts, |_, x| pct(x, q, pick)).map(|v| Metric::new(name, v, "us"))
    };
    let gated = vec![
        Metric::new("setup_s", stats::median(&s.setup_s), "s"),
        latency("latency_p50_us", 0.5, &|_| true)?,
        latency("subsumes_p50_us", 0.5, &sub)?,
        Metric::new("other_op_p50_us", other_p50, "us"),
    ];
    let secs = drive::SLICE.as_secs_f64();
    let named_other = match kind {
        Kind::WarmLookup => Metric::new("classify_p50_us", other_p50, "us"),
        Kind::ProverMix => Metric::new("realize_p50_us", other_p50, "us"),
        Kind::SnapshotChurn => Metric::new("load_snapshot_p50_ms", other_p50 / 1e3, "ms"),
    };
    // Peak RSS follows throughput (the epoch-shared sat cache grows with
    // every new query) and, on snapshot_churn, how many retired
    // generations are still alive, so it is not gated either.
    let report_only = vec![
        Metric::new(
            "cpu_us_per_req",
            sliced("cpu_us_per_req", &parts, |i, x| {
                (!x.is_empty()).then(|| s.slice_cpu_us[i] as f64 / x.len() as f64)
            })?,
            "us",
        ),
        Metric::new(
            "throughput_rps",
            sliced("throughput_rps", &parts, |_, x| Some(x.len() as f64 / secs))?,
            "req/s",
        ),
        latency("latency_p95_us", 0.95, &|_| true)?,
        latency("subsumes_p95_us", 0.95, &sub)?,
        named_other,
        Metric::new("peak_rss_mb", s.peak_rss_mb, "MB"),
        Metric::new(
            "failed_frac",
            s.failed as f64 / s.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let per_slice: Vec<usize> = parts.iter().map(|(_, x)| x.len()).collect();
    let p50s: Vec<u64> = parts
        .iter()
        .filter_map(|(_, x)| pct(x, 0.5, |_| true).map(|us| us.round() as u64))
        .collect();
    println!("kept slices: requests {per_slice:?}, latency p50 us {p50s:?}");
    Ok((gated, report_only))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = Workload::new(args.kind, args.seed);
    println!(
        "servebench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance: nproc={} git={} profile={} clients={CLIENTS} server_threads={SERVER_THREADS} closed loop, zero think time",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_revision(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    println!("inputs: {}", args.kind.describe());

    let served =
        drive::run(&w, args.seconds, args.trace).map_err(|e| format!("served run: {e}"))?;
    let mut problems = served.faults.clone();
    let (checked, wrong) = drive::check_answers(&w, &served);
    problems.extend(wrong);
    println!(
        "answer check: {checked} distinct answers byte-compared against ops::execute, {} problems",
        problems.len()
    );
    for p in problems.iter().take(20) {
        println!("  problem: {p}");
    }

    let (e2e, report_only) = end_to_end(args.kind, &served)?;
    println!("end-to-end ({} timed requests):", served.records.len());
    for m in &e2e {
        println!("  {:<22} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("reported, not gated:");
    for m in &report_only {
        println!("  {:<22} {:>14.3} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.trace {
        let (rows, chrome) = layers::measure(&w, &served);
        println!("per-layer (traced run):");
        for r in &rows {
            println!(
                "  {:<38} {:>14.3} {:<9} moves {}",
                r.metric.name, r.metric.value, r.metric.unit, r.moves
            );
        }
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("chrome trace: {}", path.display());
        rows.into_iter().map(|r| r.metric).collect()
    } else {
        e2e
    };
    let correct = problems.is_empty();
    println!(
        "{}",
        stats::result_json(correct, served.attempted.max(1), served.failed, &metrics)
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: --workload <warm_lookup|prover_mix|snapshot_churn> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
