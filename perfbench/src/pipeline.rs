//! One pass of a workload through the real stack:
//! `ConnectivityService` → `SupervisedIngestor` (WAL append, batched shard
//! update, snapshots) → frozen views → admission → decode, then
//! `finish` and a timed `SupervisedIngestor::resume` on the pass's own
//! directories.
//!
//! Spans are recorded only around the calls the benchmark makes; the
//! program is not instrumented. With `traced == false` the write loop
//! takes one clock reading per round (and one per refresh, for
//! freshness).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dgs_connectivity::{ForestParams, SpanningForestSketch};
use dgs_core::{
    CheckpointConfig, ConnectivityService, HybridConfig, HybridConnectivitySketch, QueryPolicy,
    QueryRequest, Recoverable, ServiceConfig, ServiceError, SupervisedAnswer, SupervisedIngestor,
    SupervisorConfig,
};
use dgs_field::{Codec, SeedTree, Writer};
use dgs_hypergraph::{EdgeSpace, Update};
use dgs_obs::{MetricsSink, Registry};
use dgs_sketch::{Profile, SketchResult};

use crate::spans::{Recorder, Span};
use crate::stats::{digest, dir_usage};
use crate::stream::Segment;
use crate::workload::{
    Reads, Workload, BATCH, N, QUERY_RATE, READBACK_QUERIES, REFRESH_EVERY, REPETITIONS, ROUND,
};

pub const TENANT: &str = "t0";
/// Seed namespace of the sketches (a program setting, not an input).
pub const SKETCH_SEED: u64 = 0x0D65_5EED;
/// Query deadline: generous, so that on these workloads no query fails.
pub const DEADLINE: Duration = Duration::from_secs(1);

pub type Digest = (u64, u64, usize);

/// A shard type the benchmark can drive.
pub trait Shard: Recoverable + Clone + Send + Sync + 'static {
    /// Repetition `i`, exactly as the service builds it.
    fn build(i: usize) -> Self;
    fn count(&self) -> SketchResult<usize>;
    /// `Some(resident)` for the hybrid backend.
    fn resident(&self) -> Option<bool>;
}

fn forest(i: usize) -> SpanningForestSketch {
    let space = EdgeSpace::graph(N as usize).expect("edge space over N vertices");
    let params = ForestParams::new(Profile::Practical, space.dimension());
    SpanningForestSketch::new_full(space, &SeedTree::new(SKETCH_SEED).child(i as u64), params)
}

impl Shard for SpanningForestSketch {
    fn build(i: usize) -> Self {
        forest(i)
    }
    fn count(&self) -> SketchResult<usize> {
        self.try_component_count()
    }
    fn resident(&self) -> Option<bool> {
        None
    }
}

impl Shard for HybridConnectivitySketch {
    fn build(i: usize) -> Self {
        HybridConnectivitySketch::new(forest(i), HybridConfig::default())
    }
    fn count(&self) -> SketchResult<usize> {
        self.try_component_count()
    }
    fn resident(&self) -> Option<bool> {
        Some(self.is_resident())
    }
}

pub fn supervisor_config(w: &Workload) -> SupervisorConfig {
    SupervisorConfig {
        repetitions: REPETITIONS,
        threads: w.threads,
        batch_size: BATCH,
        checkpoint: CheckpointConfig {
            snapshot_interval: w.snapshot_every().unwrap_or(u64::MAX),
            snapshot_seed: SKETCH_SEED,
            ..CheckpointConfig::default()
        },
        ..SupervisorConfig::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        // Views are refreshed by explicit `refresh_view` calls at the
        // workload's cadence, so each refresh is its own span.
        refresh_interval: 0,
        default_deadline: DEADLINE,
        ..ServiceConfig::default()
    }
}

/// Creates the service and its tenant (which freezes the initial view).
pub fn setup<S: Shard>(
    w: &Workload,
    dir: &Path,
    sink: Option<&MetricsSink>,
) -> Result<(ConnectivityService<S>, f64), String> {
    let t = Instant::now();
    let svc = match sink {
        Some(sink) => ConnectivityService::with_sink(service_config(), sink),
        None => ConnectivityService::new(service_config()),
    };
    svc.add_tenant(
        TENANT,
        dir.join("wal"),
        dir.join("snap"),
        N as usize,
        2,
        supervisor_config(w),
        S::build,
    )
    .map_err(|e| format!("add_tenant: {e}"))?;
    Ok((svc, t.elapsed().as_secs_f64()))
}

/// How a query ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    Value(usize),
    /// Typed rejection or an answer without a value.
    Failed(String),
}

pub struct QueryRec {
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    pub epoch: Option<u64>,
    pub outcome: Outcome,
    pub consulted: usize,
    /// Decode closure calls: (start, end, ok).
    pub decodes: Vec<(Instant, Instant, bool)>,
}

impl QueryRec {
    /// Latency from the due time; a failed query is beyond any limit.
    pub fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Value(_) => ms(self.end - self.due),
            Outcome::Failed(_) => f64::INFINITY,
        }
    }
}

/// A sketch's canonical encoding (what `shard_encoded` returns).
pub fn encode<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Read-only numbers from the program's own `dgs-obs` registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsNumbers {
    pub snapshot_ns_sum: u64,
    pub wal_append_ns_p50: u64,
    pub query_ns_p50: u64,
    pub flushes: u64,
}

pub struct PassOut {
    pub traced: bool,
    pub setup_s: f64,
    pub round_secs: Vec<f64>,
    pub queries: Vec<QueryRec>,
    pub freshness_ms: Vec<f64>,
    pub recovery_s: f64,
    pub updates: u64,
    pub refreshes: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub snapshot_files: u64,
    pub resident_at_end: usize,
    pub digests: Vec<Digest>,
    pub spans: Vec<Span>,
    /// Wrong answers and byte-identity mismatches.
    pub wrong: Vec<String>,
    pub obs: Option<ObsNumbers>,
}

/// The write side of a pass: pushes, refreshes, and the bookkeeping for
/// span classification and freshness.
struct WriteSide<'a, S: Shard> {
    svc: &'a ConnectivityService<S>,
    w: &'a Workload,
    rec: Option<Recorder>,
    pushed: u64,
    refreshes: u64,
    /// The next flush copies every shard the current view still shares.
    cow_pending: bool,
    /// View epoch → when the push of update `epoch - 1` returned.
    returns: BTreeMap<u64, Instant>,
}

impl<S: Shard> WriteSide<'_, S> {
    /// Pushes one update; returns when the push returned if traced.
    fn push(&mut self, u: &Update, parent: u64) -> Result<Option<Instant>, String> {
        let start = self.rec.is_some().then(Instant::now);
        self.svc
            .push(TENANT, u)
            .map_err(|e| format!("push at offset {}: {e}", self.pushed))?;
        self.pushed += 1;
        let k = self.pushed;
        let flushed = k.is_multiple_of(BATCH as u64);
        let end = match (start, &mut self.rec) {
            (Some(start), Some(rec)) => {
                let end = Instant::now();
                let name = if !flushed {
                    "service.push.buffer"
                } else if self.w.snapshot_every().is_some_and(|s| k.is_multiple_of(s)) {
                    "service.push.snapshot"
                } else if self.cow_pending {
                    "service.push.cow_flush"
                } else {
                    "service.push.flush"
                };
                rec.record(name, parent, k.div_ceil(BATCH as u64), start, end);
                Some(end)
            }
            _ => None,
        };
        if flushed {
            self.cow_pending = false;
        }
        Ok(end)
    }

    fn refresh(&mut self, pushed_at: Instant, parent: u64) -> Result<(), String> {
        self.returns.insert(self.pushed, pushed_at);
        let start = Instant::now();
        let epoch = self
            .svc
            .refresh_view(TENANT)
            .map_err(|e| format!("refresh at offset {}: {e}", self.pushed))?;
        if let Some(rec) = &mut self.rec {
            rec.record("service.refresh", parent, epoch, start, Instant::now());
        }
        if epoch != self.pushed {
            return Err(format!("view epoch {epoch} after {} pushes", self.pushed));
        }
        self.refreshes += 1;
        self.cow_pending = true;
        Ok(())
    }
}

/// One query through the service; decode calls are timed when traced.
fn query_once<S: Shard>(
    svc: &ConnectivityService<S>,
    due: Instant,
    traced: bool,
    spilled: &AtomicBool,
) -> QueryRec {
    let req = QueryRequest {
        deadline: Some(DEADLINE),
        policy: QueryPolicy::FirstSuccess,
    };
    let calls = RefCell::new(Vec::new());
    let start = Instant::now();
    let resp = if traced {
        svc.query(TENANT, &req, |_, s: &S| {
            let t = Instant::now();
            if s.resident() == Some(false) {
                spilled.store(true, Ordering::Relaxed);
            }
            let out = s.count();
            calls.borrow_mut().push((t, Instant::now(), out.is_ok()));
            out
        })
    } else {
        svc.query(TENANT, &req, |_, s: &S| {
            if s.resident() == Some(false) {
                spilled.store(true, Ordering::Relaxed);
            }
            s.count()
        })
    };
    let end = Instant::now();
    let (epoch, outcome, consulted) = match resp {
        Ok(r) => {
            let outcome = match r.answer {
                SupervisedAnswer::Full { value, .. } | SupervisedAnswer::Degraded { value, .. } => {
                    Outcome::Value(value)
                }
                SupervisedAnswer::Unknown { .. } => Outcome::Failed("unknown".into()),
                SupervisedAnswer::DeadlineExceeded { .. } => Outcome::Failed("deadline".into()),
                SupervisedAnswer::Invalid(e) => Outcome::Failed(format!("invalid: {e}")),
            };
            (Some(r.epoch), outcome, r.consulted)
        }
        Err(ServiceError::Overload(o)) => (None, Outcome::Failed(o.reason().into()), 0),
        Err(e) => (None, Outcome::Failed(e.to_string()), 0),
    };
    QueryRec {
        due,
        start,
        end,
        epoch,
        outcome,
        consulted,
        decodes: calls.into_inner(),
    }
}

/// Open-loop query generator: query `k` is due at `k / rate` seconds
/// after the start, whether or not earlier queries have finished.
///
/// The generator spins until each due time instead of sleeping: on a
/// virtual machine a sleeping thread wakes up to several milliseconds
/// late, depending on what the host is doing, and that lateness would be
/// charged to the service.
fn query_loop<S: Shard>(
    svc: &ConnectivityService<S>,
    rate: f64,
    done: &AtomicBool,
    traced: bool,
    spilled: &AtomicBool,
) -> Vec<QueryRec> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now();
    let mut out = Vec::new();
    for k in 0u32.. {
        let due = t0 + period * k;
        while Instant::now() < due && !done.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        if done.load(Ordering::Acquire) {
            break;
        }
        out.push(query_once(svc, due, traced, spilled));
    }
    out
}

/// Query spans: request (due → end) ⊃ service.query (call) ⊃ decode.
fn record_query_spans(rec: &mut Recorder, qid: u64, q: &QueryRec) {
    let req = rec.open();
    let call = rec.open();
    for &(s, e, _) in &q.decodes {
        rec.record("decode", call, qid, s, e);
    }
    rec.close(call, "service.query", req, qid, q.start, q.end);
    rec.close(req, "query.request", 0, qid, q.due, q.end);
}

/// Runs one pass in `dir` (created fresh, removed afterwards): the
/// write phase over `prefix`, then the read-back over `tail`.
pub fn run_pass<S: Shard>(
    w: &Workload,
    prefix: &Segment,
    tail: &Segment,
    dir: &Path,
    traced: bool,
    origin: Instant,
    spilled: &AtomicBool,
) -> Result<PassOut, String> {
    let _ = std::fs::remove_dir_all(dir);
    let registry = traced.then(Registry::new);
    let sink = registry.as_ref().map(Registry::sink);
    let (svc, setup_s) = setup::<S>(w, dir, sink.as_ref())?;

    let mut writer = WriteSide {
        svc: &svc,
        w,
        rec: traced.then(|| Recorder::new(origin)),
        pushed: 0,
        refreshes: 0,
        // The initial view shares every shard with the live ensemble.
        cow_pending: true,
        returns: BTreeMap::new(),
    };
    let mut round_secs = Vec::new();
    let done = AtomicBool::new(false);
    let mut queries = std::thread::scope(|scope| -> Result<Vec<QueryRec>, String> {
        let open_loop = w.reads == Reads::OpenLoop;
        let reader =
            open_loop.then(|| scope.spawn(|| query_loop(&svc, QUERY_RATE, &done, traced, spilled)));
        let written = (|| -> Result<(), String> {
            for round in prefix.updates.updates.chunks(ROUND) {
                let start = Instant::now();
                let id = writer.rec.as_ref().map_or(0, Recorder::open);
                for u in round {
                    let returned = writer.push(u, id)?;
                    if open_loop && writer.pushed.is_multiple_of(REFRESH_EVERY) {
                        writer.refresh(returned.unwrap_or_else(Instant::now), id)?;
                    }
                }
                let end = Instant::now();
                if let Some(rec) = &mut writer.rec {
                    rec.close(id, "ingest.round", 0, round_secs.len() as u64, start, end);
                }
                round_secs.push((end - start).as_secs_f64());
            }
            Ok(())
        })();
        done.store(true, Ordering::Release);
        let queries = match reader {
            Some(h) => h.join().map_err(|_| "query thread panicked".to_string())?,
            None => Vec::new(),
        };
        written.map(|()| queries)
    })?;

    if w.reads == Reads::ReadBack {
        for batch in tail.updates.updates.chunks(BATCH) {
            let id = writer.rec.as_ref().map_or(0, Recorder::open);
            let start = Instant::now();
            let mut returned = None;
            for u in batch {
                returned = writer.push(u, id)?;
            }
            writer.refresh(returned.unwrap_or_else(Instant::now), id)?;
            for _ in 0..READBACK_QUERIES {
                queries.push(query_once(&svc, Instant::now(), traced, spilled));
            }
            if let Some(rec) = &mut writer.rec {
                rec.close(
                    id,
                    "readback.cycle",
                    0,
                    writer.pushed,
                    start,
                    Instant::now(),
                );
            }
        }
    }

    let WriteSide {
        rec,
        pushed,
        refreshes,
        returns,
        ..
    } = writer;
    let mut spans = rec.map(|r| r.spans).unwrap_or_default();
    if traced {
        let mut qrec = Recorder::new(origin);
        for (qid, q) in queries.iter().enumerate() {
            record_query_spans(&mut qrec, qid as u64, q);
        }
        spans.extend(qrec.spans);
    }

    let mut wrong = Vec::new();
    let mut freshness_ms = Vec::new();
    for q in &queries {
        let (Outcome::Value(v), Some(epoch)) = (&q.outcome, q.epoch) else {
            continue;
        };
        match prefix
            .counts
            .get(&epoch)
            .or_else(|| tail.counts.get(&epoch))
        {
            Some(exact) if exact == v => {}
            Some(exact) => wrong.push(format!("epoch {epoch}: answered {v}, exact {exact}")),
            None => wrong.push(format!("epoch {epoch}: no exact count recorded")),
        }
        if let Some(t) = returns.get(&epoch) {
            freshness_ms.push(ms(q.end - *t));
        }
    }

    let obs = registry.map(|r| {
        let hist = |key: &str| {
            r.histogram_stats(key)
                .map_or((0, 0), |s| (s.sum, s.quantile(0.5)))
        };
        ObsNumbers {
            snapshot_ns_sum: hist("dgs_core_checkpoint_snapshot_ns").0,
            wal_append_ns_p50: hist("dgs_hypergraph_wal_append_ns").1,
            query_ns_p50: hist(&format!("dgs_core_service_query_ns{{tenant=\"{TENANT}\"}}")).1,
            flushes: r.counter_value("dgs_core_supervise_flushes").unwrap_or(0),
        }
    });

    // Shutdown, byte digests, disk usage, then a timed resume.
    let (_, ing) = svc
        .finish()
        .map_err(|e| format!("finish: {e}"))?
        .pop()
        .ok_or("finish returned no tenant")?;
    if ing.ingested() != pushed {
        wrong.push(format!("ingested {} of {pushed} pushes", ing.ingested()));
    }
    let digests: Vec<Digest> = (0..REPETITIONS)
        .map(|i| digest(&ing.shard_encoded(i)))
        .collect();
    drop(ing);
    let (wal_bytes, _) = dir_usage(&dir.join("wal"));
    let (snapshot_bytes, snapshot_files) = dir_usage(&dir.join("snap"));

    let start = Instant::now();
    let (mut resumed, durable) = SupervisedIngestor::<S>::resume(
        dir.join("wal"),
        dir.join("snap"),
        N as usize,
        2,
        supervisor_config(w),
        S::build,
    )
    .map_err(|e| format!("resume: {e}"))?;
    let recovery_s = start.elapsed().as_secs_f64();
    if durable != pushed {
        wrong.push(format!("resumed at offset {durable}, expected {pushed}"));
    }
    for (i, d) in digests.iter().enumerate() {
        if digest(&resumed.shard_encoded(i)) != *d {
            wrong.push(format!(
                "shard {i}: bytes after resume differ from before shutdown"
            ));
        }
    }
    let view = resumed.freeze().map_err(|e| format!("freeze: {e}"))?;
    let resident_at_end = view
        .shards()
        .filter(|(_, s)| s.resident() == Some(true))
        .count();
    drop(view);
    drop(resumed);
    let _ = std::fs::remove_dir_all(dir);

    Ok(PassOut {
        traced,
        setup_s,
        round_secs,
        queries,
        freshness_ms,
        recovery_s,
        updates: pushed,
        refreshes,
        wal_bytes,
        snapshot_bytes,
        snapshot_files,
        resident_at_end,
        digests,
        spans,
        wrong,
        obs,
    })
}
