//! E22 — request tracing completeness, flight-recorder postmortems, and
//! traced-ingest overhead.
//!
//! The tracing layer (`dgs-trace`) claims three operational properties,
//! each scored here against a chaos-driven service soak:
//!
//! 1. **Completeness** — every query attempted against a traced
//!    [`ConnectivityService`] opens exactly one `dgs_core_service_request`
//!    root span with a distinct trace id (rejected requests included —
//!    the typed shed is *in* the trace as a mark), and every standalone
//!    flush opens its own `dgs_core_supervise_flush` root. Histogram
//!    exemplars resolve: every `(metric, bucket)` exemplar points at a
//!    trace id present in the snapshot.
//! 2. **Integrity** — the snapshot holds **zero orphan spans** (every
//!    `parent_span_id` resolves inside its trace), zero evicted events
//!    (the rings were sized for the soak), and zero torn reads.
//! 3. **Postmortems** — every typed failure freezes exactly one
//!    postmortem file: the chaos campaign forces a shard quarantine
//!    (poison), honest `DeadlineExceeded` answers (stalled decodes), and
//!    a breaker trip; `written == quarantines + deadline_missed +
//!    breaker_trips`, and every file on disk re-reads with its checksum
//!    frames intact (`obs-report --postmortem <file>` renders them).
//!
//! A separate phase measures **overhead**: the same stream is pushed
//! through a bare [`SupervisedIngestor`] untraced and traced (tracing
//! adds one root span per flush — never per update), best-of-trials on
//! both sides; the traced/untraced ratio is held to a mode-dependent
//! floor the overhead row records (the quick CI floor absorbs
//! small-runner noise).
//!
//! `experiments check-trace` re-runs the quick soak in CI against
//! [`GUARD`] (guarding the checked-in `BENCH_trace.json`).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    BreakerConfig, BrownoutConfig, CheckpointConfig, ConnectivityService, QueryPolicy,
    QueryRequest, ServiceConfig, ServiceError, SupervisedIngestor, SupervisorConfig,
    TokenBucketConfig,
};
use dgs_hypergraph::{ChaosCampaign, ChaosFault, ChaosScheduler};
use dgs_obs::Registry;
use dgs_sketch::SketchError;
use dgs_trace::{FlightRecorder, Postmortem, Tracer};

use crate::baseline::{Baseline, Bound, Cmp, Fields, Gate, Guard};
use crate::workloads::{practical_forests, soak_updates, ScratchDir};

/// `experiments e22` writes `BENCH_trace.json`; `check-trace` guards it:
/// one root per request, a clean snapshot, exact and readable postmortem
/// accounting, and traced ingest above its floor.
pub const GUARD: Guard = Guard {
    command: "check-trace",
    file: "BENCH_trace.json",
    verdict_field: Some("summary.acceptable"),
    gates: &[
        Gate::row(
            "rows[aspect=completeness].request_roots",
            Cmp::Eq,
            Bound::Path("requests", 1.0),
        ),
        Gate::row(
            "rows[aspect=completeness].distinct_trace_ids",
            Cmp::Eq,
            Bound::Path("requests", 1.0),
        ),
        Gate::row(
            "rows[aspect=completeness].flush_roots",
            Cmp::Gt,
            Bound::Num(0.0),
        ),
        Gate::row("rows[aspect=integrity].orphans", Cmp::Eq, Bound::Num(0.0)),
        Gate::row("rows[aspect=integrity].evicted", Cmp::Eq, Bound::Num(0.0)),
        Gate::row("rows[aspect=integrity].torn", Cmp::Eq, Bound::Num(0.0)),
        Gate::row("rows[aspect=integrity].exemplars", Cmp::Gt, Bound::Num(0.0)),
        Gate::row(
            "rows[aspect=integrity].dangling_exemplars",
            Cmp::Eq,
            Bound::Num(0.0),
        ),
        Gate::row(
            "rows[aspect=postmortems].written",
            Cmp::Eq,
            Bound::Path("expected", 1.0),
        ),
        Gate::row(
            "rows[aspect=postmortems].readable",
            Cmp::Eq,
            Bound::Path("written", 1.0),
        ),
        Gate::row(
            "rows[aspect=postmortems].expected",
            Cmp::Gt,
            Bound::Num(0.0),
        ),
        Gate::row(
            "rows[aspect=postmortems].with_tree",
            Cmp::Gt,
            Bound::Num(0.0),
        ),
        Gate::row(
            "rows[aspect=overhead].overhead_ratio",
            Cmp::Ge,
            Bound::Path("floor", 1.0),
        ),
        Gate::summary(
            "rows[aspect=postmortems].quarantines",
            Cmp::Ge,
            Bound::Num(1.0),
        ),
        Gate::summary(
            "rows[aspect=postmortems].deadline_missed",
            Cmp::Ge,
            Bound::Num(1.0),
        ),
        Gate::summary(
            "rows[aspect=postmortems].breaker_trips",
            Cmp::Ge,
            Bound::Num(1.0),
        ),
    ],
    measure: |quick| document(&measure(quick)),
};

/// Everything E22 measures.
pub struct Measurement {
    /// Vertices in the streamed graph.
    pub n: usize,
    /// Boosted repetitions (= supervised shards).
    pub repetitions: usize,
    /// Updates pushed through the traced service.
    pub updates: usize,
    /// Chaos events fired.
    pub events: usize,
    /// Queries attempted (admitted + typed rejections).
    pub requests: u64,
    /// `dgs_core_service_request` root spans in the snapshot.
    pub request_roots: u64,
    /// Distinct trace ids among those roots.
    pub distinct_trace_ids: u64,
    /// `dgs_core_supervise_flush` root spans (standalone flushes).
    pub flush_roots: u64,
    /// Orphan spans (parent missing inside the trace). MUST be 0.
    pub orphans: u64,
    /// Events evicted from any ring during the soak. MUST be 0.
    pub evicted: u64,
    /// Torn ring reads. MUST be 0.
    pub torn: u64,
    /// Histogram-bucket exemplars computed from the snapshot.
    pub exemplars: u64,
    /// Exemplars whose trace id is absent from the snapshot. MUST be 0.
    pub dangling_exemplars: u64,
    /// Shard quarantines (each writes a `shard-quarantine` postmortem).
    pub quarantines: u64,
    /// Honest `DeadlineExceeded` answers (each writes a postmortem).
    pub deadline_missed: u64,
    /// Breaker trips (each writes a `breaker-open` postmortem).
    pub breaker_trips: u64,
    /// Postmortem files the recorder reports written.
    pub postmortems_written: u64,
    /// Postmortem files on disk that decoded with valid checksums.
    pub postmortems_readable: u64,
    /// Postmortems whose offending-request span tree is non-empty.
    pub postmortems_with_tree: u64,
    /// Untraced ingest throughput (best of trials).
    pub untraced_updates_per_sec: f64,
    /// Traced ingest throughput (best of trials).
    pub traced_updates_per_sec: f64,
    /// Acceptance floor for the overhead ratio (mode-dependent).
    pub overhead_floor: f64,
    /// traced / untraced updates per second.
    pub overhead_ratio: f64,
    /// Expected postmortem count from the typed-failure counters.
    pub expected_postmortems: u64,
}

const DELTA: f64 = 0.5;

/// The scripted failure campaign: a transient shard error (retry spans), a
/// poisoning (quarantine postmortem), and a late stall burst sized to trip
/// the breaker (deadline + breaker postmortems).
fn campaign(seed: u64, len: usize, trip_after: u32) -> ChaosCampaign {
    let at = |frac: f64| ((len as f64 * frac) as usize).max(1);
    ChaosCampaign::new("e22-trace", seed)
        .at(
            at(0.15),
            ChaosFault::ShardError {
                shard: 1,
                attempts: 2,
            },
        )
        .at(at(0.30), ChaosFault::ShardPoison { shard: 0 })
        .at(
            at(0.85),
            ChaosFault::SlowConsumer {
                queries: trip_after,
                millis: 0, // the stall length is derived from the deadline
            },
        )
}

fn sup_config(repetitions: usize, len: usize, seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        repetitions,
        threads: 2,
        batch_size: 32,
        // The poisoned shard must stay quarantined: its postmortem is the
        // artifact under test, and a rebuild would fire a second one.
        rebuild_after_flushes: u64::MAX,
        scrub_interval: 0,
        delta: DELTA,
        checkpoint: CheckpointConfig {
            snapshot_interval: (len / 8).max(256) as u64,
            ..CheckpointConfig::default()
        },
        seed,
        ..SupervisorConfig::default()
    }
}

/// Runs the soak. Every request opens one root span (typed rejections
/// included, as marks inside the trace); postmortem accounting is exact:
/// written == quarantines + deadlines + breaker trips.
pub fn measure(quick: bool) -> Measurement {
    let n: usize = if quick { 24 } else { 32 };
    let repetitions: usize = if quick { 3 } else { 5 };
    let cycles: usize = if quick { 12 } else { 40 };
    let query_stride: usize = 64;
    let trials: usize = if quick { 3 } else { 5 };
    let overhead_floor = if quick { 0.75 } else { 0.95 };
    // Two consecutive misses trip the breaker. The stall burst is sized to
    // the trip count, and two is the most the cost-admission gate will
    // admit back-to-back: each ~150ms stall feeds the per-repetition cost
    // EWMA, and after two of them the estimate exceeds the deadline's
    // cost-headroom budget — a third stalled query would be CostRejected,
    // not deadline-missed, and the breaker would never fire.
    let trip_after: u32 = 2;
    let seed: u64 = 0xE22;
    let deadline = Duration::from_millis(100);

    // Workload: the E20/E21 churn-cycle construction.
    let updates = soak_updates(n, seed, cycles);
    let len = updates.len();

    let dirs = ScratchDir::new("e22");

    let sup_cfg = sup_config(repetitions, len, seed);
    let svc_cfg = ServiceConfig {
        queue_capacity: 4,
        quota: TokenBucketConfig {
            capacity: 4.0 * repetitions as f64,
            refill_per_sec: 2_000.0,
        },
        default_deadline: deadline,
        refresh_interval: 256,
        recover_views: false,
        brownout: BrownoutConfig {
            start_depth: 2,
            min_repetitions: 2,
        },
        breaker: BreakerConfig {
            // Exactly the stall burst: the last stalled query trips it.
            trip_after,
            // Long enough that the breaker stays open to the end of the
            // stream — the probes after cooldown would mint extra deadline
            // postmortems and break exact accounting.
            cooldown: Duration::from_secs(600),
        },
        ..ServiceConfig::default()
    };

    // Phase 1: traced service under chaos. Everything runs on this thread,
    // so one ring holds the whole soak; sized with lots of headroom —
    // eviction is scored as a failure, not tolerated.
    let registry = Registry::new();
    let tracer = Tracer::with_sink(1 << 15, &registry.sink());
    let recorder =
        FlightRecorder::with_sink(dirs.join("postmortems"), &tracer, 64, &registry.sink())
            .expect("flight recorder dir");
    let svc: ConnectivityService<SpanningForestSketch> =
        ConnectivityService::with_sink(svc_cfg, &registry.sink());
    svc.set_tracer(&tracer);
    svc.set_flight_recorder(&recorder);
    svc.add_tenant(
        "t0",
        dirs.join("wal"),
        dirs.join("snap"),
        n,
        2,
        sup_cfg,
        practical_forests(n, seed ^ 0xB00),
    )
    .expect("add tenant");

    let camp = campaign(seed, len, trip_after);
    let mut sched = ChaosScheduler::new(&camp);
    sched.set_sink(&registry.sink());
    let events = sched.len();

    // While nonzero, each decode burns one unit, stalls past the deadline,
    // and fails retryably — the budget check then returns an honest
    // `DeadlineExceeded` (a successful slow decode would be an honest
    // `Full` and trip nothing).
    let stall_queries = AtomicU32::new(0);
    let stall = deadline + Duration::from_millis(50);
    let decode = |_shard: usize, s: &SpanningForestSketch| {
        if stall_queries
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
        {
            std::thread::sleep(stall);
            return Err(SketchError::failure("chaos", "stalled decode"));
        }
        s.try_component_count()
    };
    let req = QueryRequest {
        deadline: Some(deadline),
        policy: QueryPolicy::FirstSuccess,
    };

    let mut requests = 0u64;
    let mut pending_stalls = 0u32;
    for (pos, u) in updates.iter().enumerate() {
        for event in sched.due(pos) {
            match event.fault {
                ChaosFault::ShardError { shard, attempts } => {
                    svc.with_ingestor("t0", |ing| {
                        ing.inject_apply_fault(
                            shard % repetitions,
                            SketchError::failure("chaos", "transient shard error"),
                            attempts,
                        );
                    })
                    .expect("chaos tenant");
                }
                ChaosFault::ShardPoison { shard } => {
                    svc.with_ingestor("t0", |ing| {
                        ing.inject_apply_fault(
                            shard % repetitions,
                            SketchError::failure("chaos", "poisoned shard"),
                            u32::MAX,
                        );
                    })
                    .expect("chaos tenant");
                }
                ChaosFault::SlowConsumer { queries, .. } => {
                    pending_stalls = queries;
                }
                // Load spikes and durability faults are E20/E21's soaks.
                _ => {}
            }
        }
        if pending_stalls > 0 {
            // The stall burst: each query eats one stalled decode and lands
            // an honest DeadlineExceeded; the last one trips the breaker.
            stall_queries.store(pending_stalls, Ordering::Release);
            for _ in 0..pending_stalls {
                requests += 1;
                match svc.query("t0", &req, decode) {
                    Ok(_) | Err(ServiceError::Overload(_)) => {}
                    Err(e) => panic!("stalled query failed: {e}"),
                }
            }
            pending_stalls = 0;
        }
        svc.push("t0", u).expect("push");
        if pos % query_stride == 0 {
            requests += 1;
            match svc.query("t0", &req, decode) {
                Ok(_) | Err(ServiceError::Overload(_)) => {}
                Err(e) => panic!("query failed: {e}"),
            }
        }
    }
    svc.flush("t0").expect("flush");

    let snap = tracer.snapshot();
    let mut trace_ids: BTreeSet<u64> = BTreeSet::new();
    let mut request_roots = 0u64;
    let mut flush_roots = 0u64;
    for root in snap.roots() {
        match root.name {
            "dgs_core_service_request" => {
                request_roots += 1;
                trace_ids.insert(root.trace_id);
            }
            "dgs_core_supervise_flush" => flush_roots += 1,
            _ => {}
        }
    }
    let all_ids: BTreeSet<u64> = snap.events.iter().map(|e| e.trace_id).collect();
    let exemplars = snap.exemplars();
    let dangling_exemplars = exemplars
        .iter()
        .filter(|x| !all_ids.contains(&x.trace_id))
        .count() as u64;

    let tenant = |name: &str| {
        registry
            .counter_value(&format!("{name}{{tenant=\"t0\"}}"))
            .unwrap_or(0)
    };
    let quarantines = registry
        .counter_value("dgs_core_supervise_quarantines")
        .unwrap_or(0);
    let deadline_missed = tenant("dgs_core_service_deadline_missed");
    let breaker_trips = tenant("dgs_core_service_breaker_trips");

    // Every postmortem on disk must decode with valid checksum frames.
    let mut postmortems_readable = 0u64;
    let mut postmortems_with_tree = 0u64;
    let mut pm_files: Vec<_> = std::fs::read_dir(recorder.dir())
        .expect("postmortem dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    pm_files.sort();
    for path in &pm_files {
        if let Ok(pm) = Postmortem::read(path) {
            postmortems_readable += 1;
            if !pm.tree.is_empty() {
                postmortems_with_tree += 1;
            }
            // The render path must not panic on any real postmortem.
            let _ = pm.render();
        }
    }

    // Phase 2: traced-vs-untraced ingest overhead on a bare ingestor. One
    // untimed warm-up pass per mode drains bursty CPU credit (see the E19
    // note), then best-of-trials on each side.
    let mut untraced_updates_per_sec = 0.0f64;
    let mut traced_updates_per_sec = 0.0f64;
    for trial in 0..=trials {
        for traced in [false, true] {
            let tag = format!("ovh-{trial}-{traced}");
            let mut ing: SupervisedIngestor<SpanningForestSketch> = SupervisedIngestor::create(
                dirs.join(format!("{tag}-wal")),
                dirs.join(format!("{tag}-snap")),
                n,
                2,
                sup_config(repetitions, len, seed),
                practical_forests(n, seed ^ 0x0FF),
            )
            .expect("overhead ingestor");
            let overhead_tracer = Tracer::new(1 << 10);
            if traced {
                ing.set_tracer(&overhead_tracer);
            }
            let t0 = Instant::now();
            for u in &updates {
                ing.push(u).expect("overhead push");
            }
            ing.flush().expect("overhead flush");
            let rate = len as f64 / t0.elapsed().as_secs_f64();
            if trial > 0 {
                let best = if traced {
                    &mut traced_updates_per_sec
                } else {
                    &mut untraced_updates_per_sec
                };
                *best = best.max(rate);
            }
        }
    }

    Measurement {
        n,
        repetitions,
        updates: len,
        events,
        requests,
        request_roots,
        distinct_trace_ids: trace_ids.len() as u64,
        flush_roots,
        orphans: snap.orphans().len() as u64,
        evicted: snap.evicted,
        torn: snap.torn,
        exemplars: exemplars.len() as u64,
        dangling_exemplars,
        quarantines,
        deadline_missed,
        breaker_trips,
        postmortems_written: recorder.written(),
        postmortems_readable,
        postmortems_with_tree,
        untraced_updates_per_sec,
        traced_updates_per_sec,
        overhead_floor,
        overhead_ratio: if untraced_updates_per_sec <= 0.0 {
            0.0
        } else {
            traced_updates_per_sec / untraced_updates_per_sec
        },
        expected_postmortems: quarantines + deadline_missed + breaker_trips,
    }
}

/// `BENCH_trace.json` in the shared [`crate::baseline`] schema.
pub fn document(meas: &Measurement) -> Baseline {
    let mut b = Baseline::new("e22-trace").config(
        Fields::new()
            .usize("n", meas.n)
            .usize("repetitions", meas.repetitions)
            .usize("updates", meas.updates)
            .usize("events", meas.events),
    );
    b.row(
        Fields::new()
            .str("aspect", "completeness")
            .u64("requests", meas.requests)
            .u64("request_roots", meas.request_roots)
            .u64("distinct_trace_ids", meas.distinct_trace_ids)
            .u64("flush_roots", meas.flush_roots),
    );
    b.row(
        Fields::new()
            .str("aspect", "integrity")
            .u64("orphans", meas.orphans)
            .u64("evicted", meas.evicted)
            .u64("torn", meas.torn)
            .u64("exemplars", meas.exemplars)
            .u64("dangling_exemplars", meas.dangling_exemplars),
    );
    b.row(
        Fields::new()
            .str("aspect", "postmortems")
            .u64("quarantines", meas.quarantines)
            .u64("deadline_missed", meas.deadline_missed)
            .u64("breaker_trips", meas.breaker_trips)
            .u64("expected", meas.expected_postmortems)
            .u64("written", meas.postmortems_written)
            .u64("readable", meas.postmortems_readable)
            .u64("with_tree", meas.postmortems_with_tree),
    );
    b.row(
        Fields::new()
            .str("aspect", "overhead")
            .f64("untraced_updates_per_sec", meas.untraced_updates_per_sec, 1)
            .f64("traced_updates_per_sec", meas.traced_updates_per_sec, 1)
            .f64("overhead_ratio", meas.overhead_ratio, 4)
            .f64("floor", meas.overhead_floor, 2),
    );
    b.summary(
        Fields::new()
            .u64("requests", meas.requests)
            .u64("request_roots", meas.request_roots)
            .u64("orphans", meas.orphans)
            .u64("evicted", meas.evicted)
            .u64("postmortems_written", meas.postmortems_written)
            .u64("postmortems_expected", meas.expected_postmortems)
            .f64("overhead_ratio", meas.overhead_ratio, 4),
    )
}

/// `obs-report --postmortem <file>`: render one postmortem to stdout.
pub fn render_postmortem(path: &str) -> bool {
    match Postmortem::read(std::path::Path::new(path)) {
        Ok(pm) => {
            print!("{}", pm.render());
            true
        }
        Err(e) => {
            eprintln!("obs-report: cannot read postmortem {path}: {e}");
            false
        }
    }
}
