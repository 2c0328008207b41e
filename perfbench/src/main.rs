//! Pipeline benchmark over deletion-heavy sliding-window streams.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|serve|sparse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 on any wrong answer, byte-identity mismatch or
//! spilled hybrid shard. See `perfbench/README.md`.

mod pipeline;
mod probe;
mod spans;
mod stats;
mod stream;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dgs_connectivity::SpanningForestSketch;
use dgs_core::checkpoint::ingest_all;
use dgs_core::HybridConnectivitySketch;
use dgs_hypergraph::{Update, WalConfig};

use pipeline::{encode, ms, run_pass, setup, PassOut, Shard};
use spans::{self_ns, Span};
use stats::{digest, m, median, quantile, Metric};
use stream::{Segment, Stream};
use workload::{Backend, Workload, BATCH, REPETITIONS, ROUND};

const USAGE: &str =
    "usage: dgs-perfbench --workload <ingest|serve|sparse> --seed <n> --seconds <s> --trace <0|1>";
/// State and span output, relative to the working directory.
const OUT_DIR: &str = ".perfbench";
/// Stand-alone set-ups before the passes (each pass adds one more).
const EXTRA_SETUPS: usize = 3;
/// Query latency samples a run collects at least, so that at least ten
/// lie beyond the 95th percentile.
const MIN_QUERY_SAMPLES: usize = 220;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2)
    };
    let code = match w.backend {
        Backend::Forest => run::<SpanningForestSketch>(&w, &args),
        Backend::Hybrid => run::<HybridConnectivitySketch>(&w, &args),
    };
    std::process::exit(code);
}

fn run<S: Shard>(w: &Workload, a: &Args) -> i32 {
    let state = Path::new(OUT_DIR).join(format!("state-{}-{}", w.name, a.seed));
    let _ = std::fs::remove_dir_all(&state);
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("cannot create {}: {e}", state.display());
        return 1;
    }
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = stats::fs_type(&state);
    println!(
        "# workload={} seed={} seconds={} trace={} host_cpus={host_cpus} state_fs={fs}",
        w.name, a.seed, a.seconds, a.trace as u8
    );
    if fs == "tmpfs" || fs == "ramfs" {
        eprintln!("warning: state directory is in memory; snapshot fsync cost is not measured");
    }
    let result = measure::<S>(w, a, &state);
    let _ = std::fs::remove_dir_all(&state);
    match result {
        Ok(report) => {
            for x in &report.table {
                println!("{:<34} {:>16.4} {}", x.name, x.value, x.unit);
            }
            for e in &report.wrong {
                eprintln!("WRONG: {e}");
            }
            let correct = report.wrong.is_empty();
            println!(
                "{}",
                stats::result_json(correct, report.attempted, report.failed, &report.json)
            );
            i32::from(!correct)
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

struct Report {
    /// Printed as a table: everything measured.
    table: Vec<Metric>,
    /// The result line's metrics.
    json: Vec<Metric>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

fn measure<S: Shard>(w: &Workload, a: &Args, state: &Path) -> Result<Report, String> {
    let origin = Instant::now();
    let stream = Stream::generate(w.stream, a.seed, w.write_updates(), BATCH as u64);
    let spilled = AtomicBool::new(false);
    println!(
        "# stream prefix_updates={} deletions={} max_support={} tail_updates={}",
        stream.prefix.len(),
        stream.prefix.deletions,
        stream.prefix.max_support,
        w.readback_updates()
    );

    let mut setups = Vec::new();
    for k in 0..EXTRA_SETUPS {
        let dir = state.join(format!("setup-{k}"));
        let (svc, took) = setup::<S>(w, &dir, None)?;
        drop(svc);
        setups.push(took);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Passes until the time is up (and enough query samples are in),
    // alternating untraced and traced passes in a traced run.
    let start = Instant::now();
    let seconds = Duration::from_secs(a.seconds);
    let cap = (seconds * 3).min(Duration::from_secs(120));
    let mut passes: Vec<PassOut> = Vec::new();
    let mut tails: Vec<Segment> = Vec::new();
    loop {
        let traced = a.trace && passes.len() % 2 == 1;
        let dir = state.join(format!("pass-{}", passes.len()));
        let tail = stream.tail(passes.len() as u64, w.readback_updates());
        let p = run_pass::<S>(w, &stream.prefix, &tail, &dir, traced, origin, &spilled)?;
        tails.push(tail);
        let lat: Vec<f64> = p.queries.iter().map(|q| q.latency_ms()).collect();
        let rates: Vec<String> = round_rates(std::iter::once(&p))
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        println!(
            "# pass {} traced={} round_updates_per_s={} query_p50_ms={:.3} query_p95_ms={:.3} freshness_p95_ms={:.3} recovery_s={:.4} setup_s={:.4}",
            passes.len(),
            traced as u8,
            rates.join(","),
            q0(&lat, 0.5),
            q0(&lat, 0.95),
            q0(&p.freshness_ms, 0.95),
            p.recovery_s,
            p.setup_s
        );
        passes.push(p);
        let samples: usize = untraced(&passes).map(|p| p.queries.len()).sum();
        // A traced run reports no end-to-end latency, so it needs no quota.
        let enough = a.trace || samples >= MIN_QUERY_SAMPLES;
        // The warm-up pass, then at least one measured (and one traced) pass.
        let least = if a.trace { 3 } else { 2 };
        if passes.len() >= least
            && ((start.elapsed() >= seconds && enough) || start.elapsed() >= cap)
        {
            break;
        }
    }
    let peak_rss_mb = stats::peak_rss_mb();

    // Gates outside the timed region: every pass's shards against a
    // single-threaded reference, and the hybrid never spilled.
    let mut wrong: Vec<String> = passes.iter().flat_map(|p| p.wrong.clone()).collect();
    for i in 0..REPETITIONS {
        let mut prefix = S::build(i);
        ingest_all(&mut prefix, &stream.prefix.updates).map_err(|e| format!("reference: {e}"))?;
        for (k, (p, tail)) in passes.iter().zip(&tails).enumerate() {
            let mut reference = prefix.clone();
            ingest_all(&mut reference, &tail.updates).map_err(|e| format!("reference: {e}"))?;
            if p.digests[i] != digest(&encode(&reference)) {
                wrong.push(format!(
                    "pass {k} shard {i}: bytes differ from the reference"
                ));
            }
        }
    }
    if w.backend == Backend::Hybrid
        && (spilled.load(Ordering::Relaxed)
            || passes.iter().any(|p| p.resident_at_end != REPETITIONS))
    {
        wrong.push(format!("{}: a hybrid shard spilled", w.name));
    }

    let mut table = end_to_end(&passes, &mut setups, peak_rss_mb);
    let attempted: u64 = passes
        .iter()
        .map(|p| p.updates + p.refreshes + p.queries.len() as u64)
        .sum();
    let reasons = failure_reasons(&passes);
    for (reason, n) in &reasons {
        eprintln!("failed queries: {n} x {reason}");
    }
    let failed = reasons.values().sum::<usize>() as u64;
    let json = if a.trace {
        let updates: Vec<Update> = stream
            .prefix
            .updates
            .updates
            .iter()
            .chain(&tails[0].updates.updates)
            .cloned()
            .collect();
        let probe = probe::run::<S>(w, &updates, &state.join("probe"))?;
        let spans: Vec<Span> = passes
            .iter()
            .filter(|p| p.traced)
            .flat_map(|p| p.spans.iter().copied())
            .collect();
        let out = PathBuf::from(OUT_DIR).join(format!("spans-{}.tsv", w.name));
        spans::write_tsv(&out, &spans).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("# spans: {} written to {}", spans.len(), out.display());
        let layers = per_layer(w, &passes, &spans, &probe, attempted, failed);
        table.extend(layers.iter().copied());
        layers
    } else {
        table.clone()
    };
    Ok(Report {
        table,
        json,
        attempted,
        failed,
        wrong,
    })
}

/// The passes the end-to-end metrics come from: untraced, and not the
/// first pass, which warms the allocator, page cache and worker pool.
fn untraced(passes: &[PassOut]) -> impl Iterator<Item = &PassOut> {
    passes.iter().skip(1).filter(|p| !p.traced)
}

fn failure_reasons(passes: &[PassOut]) -> std::collections::BTreeMap<&str, usize> {
    let mut out = std::collections::BTreeMap::new();
    for q in passes.iter().flat_map(|p| &p.queries) {
        if let pipeline::Outcome::Failed(reason) = &q.outcome {
            *out.entry(reason.as_str()).or_insert(0) += 1;
        }
    }
    out
}

fn round_rates<'a>(passes: impl Iterator<Item = &'a PassOut>) -> Vec<f64> {
    passes
        .flat_map(|p| p.round_secs.iter().map(|s| ROUND as f64 / s))
        .collect()
}

/// Sum that reads +0 for an empty sample (`Iterator::sum` gives -0).
fn total(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, |a, b| a + b)
}

/// Quantile that reads 0 for an empty sample (a layer the workload does
/// not use).
fn q0(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        quantile(xs, q)
    }
}

fn end_to_end(passes: &[PassOut], setups: &mut Vec<f64>, peak_rss_mb: f64) -> Vec<Metric> {
    setups.extend(untraced(passes).map(|p| p.setup_s));
    let latencies: Vec<f64> = untraced(passes)
        .flat_map(|p| p.queries.iter().map(|q| q.latency_ms()))
        .collect();
    let freshness: Vec<f64> = untraced(passes)
        .flat_map(|p| p.freshness_ms.iter().copied())
        .collect();
    let recovery: Vec<f64> = untraced(passes).map(|p| p.recovery_s).collect();
    let disk: Vec<f64> = untraced(passes)
        .map(|p| (p.wal_bytes + p.snapshot_bytes) as f64 / p.updates as f64)
        .collect();
    let p95 = q0(&latencies, 0.95);
    let beyond = latencies.iter().filter(|&&x| x > p95).count();
    let out = vec![
        m("setup_s", median(setups), "s"),
        m(
            "ingest_updates_per_s",
            median(&round_rates(untraced(passes))),
            "1/s",
        ),
        m("query_p50_ms", q0(&latencies, 0.5), "ms"),
        m("query_p95_ms", p95, "ms"),
        m("freshness_p95_ms", q0(&freshness, 0.95), "ms"),
        m("recovery_s", median(&recovery), "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
        m("disk_bytes_per_update", median(&disk), "B"),
    ];
    println!(
        "# passes={} untraced_rounds={} query_samples={} beyond_p95={beyond} freshness_samples={}",
        passes.len(),
        round_rates(untraced(passes)).len(),
        latencies.len(),
        freshness.len()
    );
    out
}

fn per_layer(
    w: &Workload,
    passes: &[PassOut],
    spans: &[Span],
    probe: &probe::Probe,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let traced: Vec<&PassOut> = passes.iter().filter(|p| p.traced).collect();
    let npass = traced.len().max(1) as f64;
    let selfs = self_ns(spans);
    let named = |names: &[&str]| -> Vec<&Span> {
        spans.iter().filter(|s| names.contains(&s.name)).collect()
    };
    let durs_ms =
        |names: &[&str]| -> Vec<f64> { named(names).iter().map(|s| s.ns() as f64 / 1e6).collect() };
    let self_ms = |name: &str| -> f64 {
        total(
            spans
                .iter()
                .filter(|s| s.name == name || (name == "service.push" && s.name.starts_with(name)))
                .map(|s| selfs[&s.id] as f64 / 1e6),
        ) / npass
    };
    const FLUSHES: [&str; 3] = [
        "service.push.flush",
        "service.push.cow_flush",
        "service.push.snapshot",
    ];

    let queries: Vec<&pipeline::QueryRec> = traced.iter().flat_map(|p| &p.queries).collect();
    let decodes: Vec<&(Instant, Instant, bool)> = queries.iter().flat_map(|q| &q.decodes).collect();
    let admission_ms: Vec<f64> = named(&["service.query"])
        .iter()
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect();
    let lateness_ms: Vec<f64> = queries.iter().map(|q| ms(q.start - q.due)).collect();

    let rounds: Vec<&Span> = named(&["ingest.round"]);
    let round_ns: u64 = rounds.iter().map(|s| s.ns()).sum();
    let round_self_ns: u64 = rounds.iter().map(|s| selfs[&s.id]).sum();

    let traced_rates = round_rates(traced.iter().copied());
    let untraced_rates = round_rates(untraced(passes));

    // What the probe's per-call costs predict for the flushes the
    // pipeline made: apply per stripe (stripes run in parallel),
    // copy-on-write clones, snapshots with their WAL sync, and segment
    // rotations (an fsync) that land on a flushing push.
    let stripes = REPETITIONS.div_ceil(w.threads) as f64;
    let flush_spans = named(&FLUSHES);
    let count = |name: &str| flush_spans.iter().filter(|s| s.name == name).count() as f64;
    let rotations = flush_spans
        .iter()
        .filter(|s| (s.key * BATCH as u64).is_multiple_of(WalConfig::default().segment_records))
        .count() as f64;
    let predicted_ms = flush_spans.len() as f64
        * (stripes * BATCH as f64 * probe.apply_us_per_update + probe.wal_append_us)
        / 1e3
        + count("service.push.cow_flush") * stripes * probe.clone_ms
        + count("service.push.snapshot") * (REPETITIONS as f64 * probe.save_ms + probe.wal_sync_ms)
        + rotations * probe.wal_sync_ms;
    let measured_ms = total(durs_ms(&FLUSHES));

    let obs: Vec<pipeline::ObsNumbers> = traced.iter().filter_map(|p| p.obs).collect();
    let obs_mean = |f: fn(&pipeline::ObsNumbers) -> u64| -> f64 {
        total(obs.iter().map(|o| f(o) as f64)) / obs.len().max(1) as f64
    };
    let per_pass =
        |f: fn(&PassOut) -> u64| -> f64 { total(traced.iter().map(|p| f(p) as f64)) / npass };
    let q_attempted: usize = passes.iter().map(|p| p.queries.len()).sum();

    vec![
        m(
            "service.push.buffer_us_p50",
            q0(&durs_ms(&["service.push.buffer"]), 0.5) * 1e3,
            "us",
        ),
        m(
            "service.push.flush_ms_sum",
            total(durs_ms(&FLUSHES)) / npass,
            "ms",
        ),
        m(
            "service.push.flush_ms_p50",
            q0(&durs_ms(&["service.push.flush"]), 0.5),
            "ms",
        ),
        m(
            "service.push.snapshot_ms_sum",
            total(durs_ms(&["service.push.snapshot"])) / npass,
            "ms",
        ),
        m(
            "service.push.cow_flush_ms_p50",
            q0(&durs_ms(&["service.push.cow_flush"]), 0.5),
            "ms",
        ),
        m(
            "service.refresh_ms_p50",
            q0(&durs_ms(&["service.refresh"]), 0.5),
            "ms",
        ),
        m(
            "service.query_ms_p50",
            q0(&durs_ms(&["service.query"]), 0.5),
            "ms",
        ),
        m(
            "service.query_ms_p95",
            q0(&durs_ms(&["service.query"]), 0.95),
            "ms",
        ),
        m("service.admission_ms_p95", q0(&admission_ms, 0.95), "ms"),
        m("decode.ms_p50", q0(&durs_ms(&["decode"]), 0.5), "ms"),
        m("decode.ms_p95", q0(&durs_ms(&["decode"]), 0.95), "ms"),
        m(
            "decode.consulted_per_query",
            total(queries.iter().map(|q| q.consulted as f64)) / queries.len().max(1) as f64,
            "count",
        ),
        m(
            "decode.fail_ratio",
            decodes.iter().filter(|d| !d.2).count() as f64 / decodes.len().max(1) as f64,
            "ratio",
        ),
        m("query.lateness_ms_p95", q0(&lateness_ms, 0.95), "ms"),
        m(
            "ingest.unattributed_fraction",
            round_self_ns as f64 / round_ns.max(1) as f64,
            "ratio",
        ),
        m("self.ingest_round_ms", self_ms("ingest.round"), "ms"),
        m("self.service_push_ms", self_ms("service.push"), "ms"),
        m("self.service_refresh_ms", self_ms("service.refresh"), "ms"),
        m("self.readback_cycle_ms", self_ms("readback.cycle"), "ms"),
        m("self.query_request_ms", self_ms("query.request"), "ms"),
        m("self.service_query_ms", self_ms("service.query"), "ms"),
        m("self.decode_ms", self_ms("decode"), "ms"),
        m("trace.traced_updates_per_s", median(&traced_rates), "1/s"),
        m(
            "trace.untraced_updates_per_s",
            median(&untraced_rates),
            "1/s",
        ),
        m(
            "trace.overhead_ratio",
            median(&untraced_rates) / median(&traced_rates),
            "ratio",
        ),
        m(
            "trace.traced_iqr_frac",
            stats::iqr_frac(&traced_rates),
            "ratio",
        ),
        m(
            "trace.untraced_iqr_frac",
            stats::iqr_frac(&untraced_rates),
            "ratio",
        ),
        m("wal.append_us", probe.wal_append_us, "us"),
        m("wal.sync_ms", probe.wal_sync_ms, "ms"),
        m(
            "sketch.apply_us_per_update",
            probe.apply_us_per_update,
            "us",
        ),
        m("sketch.clone_ms", probe.clone_ms, "ms"),
        m("sketch.drop_ms", probe.drop_ms, "ms"),
        m("checkpoint.encode_ms", probe.encode_ms, "ms"),
        m("checkpoint.save_ms", probe.save_ms, "ms"),
        m("checkpoint.bytes", probe.bytes as f64, "B"),
        m("checkpoint.recover_ms", probe.recover_ms, "ms"),
        m(
            "supervise.unexplained_fraction",
            1.0 - predicted_ms / measured_ms,
            "ratio",
        ),
        m("flushes", flush_spans.len() as f64 / npass, "count"),
        m("refreshes", per_pass(|p| p.refreshes), "count"),
        m("snapshots_written", per_pass(|p| p.snapshot_files), "count"),
        m("wal_bytes", per_pass(|p| p.wal_bytes), "B"),
        m("snapshot_bytes", per_pass(|p| p.snapshot_bytes), "B"),
        m("queries_attempted", q_attempted as f64, "count"),
        m("queries_failed", failed as f64, "count"),
        m(
            "failed_fraction",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        m(
            "hybrid.resident_at_end",
            passes.last().map_or(0, |p| p.resident_at_end) as f64,
            "count",
        ),
        m(
            "obs.snapshot_ms_sum",
            obs_mean(|o| o.snapshot_ns_sum) / 1e6,
            "ms",
        ),
        m(
            "obs.wal_append_us_p50",
            obs_mean(|o| o.wal_append_ns_p50) / 1e3,
            "us",
        ),
        m("obs.query_ms_p50", obs_mean(|o| o.query_ns_p50) / 1e6, "ms"),
        m("obs.flushes", obs_mean(|o| o.flushes), "count"),
    ]
}
