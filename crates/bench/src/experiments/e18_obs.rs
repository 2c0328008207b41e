//! E18 — empirical vs. theoretical failure probability, read through the
//! dgs-obs metrics layer.
//!
//! The paper's guarantees are probabilistic: an ℓ0-sampler answers with
//! failure probability δ, and R sibling-seeded repetitions amplify that to
//! δ^R (Section 2.1 / the boosting used throughout Theorems 4–14). Every
//! decode attempt and failure is already counted by the instrumentation
//! this PR threads through `dgs-sketch` and `dgs-core`, so this experiment
//! does *not* keep its own tallies: it drives an adversarial insert/delete
//! workload (heavy churn — most inserted indices are deleted again, so the
//! sketch must cancel exactly and sample only the survivors), then reads
//! the observed failure rates back out of a [`dgs_obs::Registry`] and
//! compares them row by row against the stated bounds. The checked-in
//! `BENCH_obs.json` baseline is guarded in CI by `experiments check-obs`
//! (see [`GUARD`] for the bound).
//!
//! Bounds used (documented in DESIGN.md, "Observability"):
//!
//! * starved sampler (sparsity 1, one row): δ = 1/2 — a single one-sparse
//!   cell per level fails on any collision; the paper's constant-failure
//!   regime.
//! * boosted R repetitions of the starved sampler: δ^R = 2^{-R}.
//! * `Profile::Practical` (sparsity 8, rows 6): δ = 2^{-rows/2} = 1/8 —
//!   the honest constant behind the profile's `2^{-Ω(rows)}` failure note.

use dgs_connectivity::SpanningForestSketch;
use dgs_core::{
    BoostedQuery, CheckpointConfig, CheckpointedIngestor, QueryOutcome, QueryPolicy,
    RecoveryDriver, ShardedIngestor,
};
use dgs_field::prng::*;
use dgs_field::SeedTree;
use dgs_hypergraph::fault::{FaultClass, FaultInjector};
use dgs_hypergraph::EdgeSpace;
use dgs_obs::Registry;
use dgs_sketch::{L0Params, L0Sampler, Profile};
use dgs_trace::Tracer;

use crate::baseline::{Baseline, Bound, Cmp, Fields, Gate, Guard};
use crate::workloads::{gnm_churn, lean_forest, lean_forest_sketch, tiled_updates, ScratchDir};

/// `experiments e18` writes `BENCH_obs.json`; `check-obs` guards it: every
/// observed failure rate against a multiple of its theoretical bound.
pub const GUARD: Guard = Guard {
    command: "check-obs",
    file: "BENCH_obs.json",
    verdict_field: Some("summary.all_within_2x"),
    gates: &[Gate::row(
        "rows[*].observed",
        Cmp::Le,
        Bound::Path("bound", 2.0),
    )],
    measure: |quick| document(&measure(quick)),
};

/// One empirical-vs-theoretical comparison row.
pub struct RateRow {
    /// Which structure / boosting level the row measures.
    pub label: &'static str,
    /// Recovery rows per level of the underlying sampler.
    pub rows: usize,
    /// Sparsity of the underlying sampler's recovery structure.
    pub sparsity: usize,
    /// Boosting repetitions R (1 = the bare sampler).
    pub repetitions: usize,
    /// Query attempts counted by the metrics layer.
    pub attempts: u64,
    /// Failures (bare sampler) or residual Unknowns (boosted).
    pub failures: u64,
    /// failures / attempts.
    pub observed: f64,
    /// The theoretical bound δ (or δ^R) for this configuration.
    pub bound: f64,
}

/// Everything E18 measures.
pub struct Measurement {
    /// Trials per configuration row.
    pub trials: u64,
    /// Net support size each adversarial vector ends with.
    pub support: usize,
    /// Indices inserted then deleted again per trial (the churn).
    pub churn: usize,
    /// The empirical-vs-theoretical table.
    pub rate_rows: Vec<RateRow>,
}

/// Dimension of the adversarial vectors: C(64, 2), a graph-scale index
/// space.
const DIM: u64 = 2016;
const SUPPORT: usize = 8;
const CHURN: usize = 32;

/// Applies one adversarial insert/delete trial to every sampler in
/// `samplers`: inserts `SUPPORT + CHURN` distinct indices, then deletes the
/// `CHURN` churn indices again. The surviving support is what a correct
/// sample must come from; the churn exists to force exact cancellation.
fn apply_adversarial(samplers: &mut [L0Sampler], trial: u64) {
    let mut rng = StdRng::seed_from_u64(0xE18_0000 + trial);
    let mut indices: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    while indices.len() < SUPPORT + CHURN {
        indices.insert(rng.gen_range(0..DIM));
    }
    let indices: Vec<u64> = indices.into_iter().collect();
    // Interleave: insert everything, then delete the churn half in a
    // different order, so cancellations straddle the whole stream.
    for s in samplers.iter_mut() {
        for &i in &indices {
            s.update(i, 1).expect("insert");
        }
        for &i in indices.iter().skip(SUPPORT).rev() {
            s.update(i, -1).expect("delete");
        }
    }
}

fn starved() -> L0Params {
    L0Params {
        sparsity: 1,
        rows: 1,
        level_independence: 2,
    }
}

/// Observed failure rate of the bare sampler with `params`, read from the
/// `dgs_sketch_l0_sample_*` counters of a private registry.
fn bare_rate(params: L0Params, trials: u64, seed: u64) -> (u64, u64) {
    let registry = Registry::new();
    for t in 0..trials {
        let mut sampler = L0Sampler::new(&SeedTree::new(seed + t), DIM, params);
        sampler.set_sink(&registry.sink());
        apply_adversarial(std::slice::from_mut(&mut sampler), t);
        let _ = sampler.sample();
    }
    let attempts = registry
        .counter_value("dgs_sketch_l0_sample_attempts")
        .unwrap_or(0);
    let failures = registry
        .counter_value("dgs_sketch_l0_sample_failures")
        .unwrap_or(0);
    (attempts, failures)
}

/// Residual failure (Unknown) rate of an R-boosted query over samplers with
/// `params`, read from the `dgs_core_boost_*` counters. Also asserts the
/// soundness side: whenever the boosted query answers, the sampled index is
/// a real survivor of the churn.
fn boosted_rate(params: L0Params, reps: usize, trials: u64, seed: u64) -> (u64, u64) {
    let registry = Registry::new();
    for t in 0..trials {
        let seeds = SeedTree::new(seed + t);
        let mut samplers: Vec<L0Sampler> = (0..reps)
            .map(|i| L0Sampler::new(&seeds.child(i as u64), DIM, params))
            .collect();
        apply_adversarial(&mut samplers, t);
        let mut boosted = BoostedQuery::from_repetitions(samplers);
        boosted.set_sink(&registry.sink());
        match boosted.query(QueryPolicy::FirstSuccess, |s| s.sample()) {
            QueryOutcome::Answer { value, .. } => {
                let (_, w) = value.expect("nonzero vector certified zero");
                assert_eq!(w, 1, "sampled a cancelled index");
            }
            QueryOutcome::Unknown { .. } => {}
            QueryOutcome::Invalid(e) => panic!("clean adversarial vector flagged invalid: {e}"),
        }
    }
    let answers = registry
        .counter_value("dgs_core_boost_answers")
        .unwrap_or(0);
    let unknowns = registry
        .counter_value("dgs_core_boost_unknowns")
        .unwrap_or(0);
    (answers + unknowns, unknowns)
}

/// Runs the measurement grid.
pub fn measure(quick: bool) -> Measurement {
    let trials: u64 = if quick { 150 } else { 400 };
    let seed = 0xE18;
    let practical = L0Params::for_dimension(DIM, Profile::Practical);

    let mut rate_rows = Vec::new();
    let rate = |attempts: u64, failures: u64| {
        if attempts == 0 {
            0.0
        } else {
            failures as f64 / attempts as f64
        }
    };

    let (attempts, failures) = bare_rate(starved(), trials, seed);
    rate_rows.push(RateRow {
        label: "l0-starved",
        rows: 1,
        sparsity: 1,
        repetitions: 1,
        attempts,
        failures,
        observed: rate(attempts, failures),
        bound: 0.5,
    });

    for reps in [2usize, 4] {
        let (attempts, failures) = boosted_rate(starved(), reps, trials, seed + 1000);
        rate_rows.push(RateRow {
            label: "l0-starved-boosted",
            rows: 1,
            sparsity: 1,
            repetitions: reps,
            attempts,
            failures,
            observed: rate(attempts, failures),
            bound: 0.5f64.powi(reps as i32),
        });
    }

    let (attempts, failures) = bare_rate(practical, trials, seed + 2000);
    rate_rows.push(RateRow {
        label: "l0-practical",
        rows: practical.rows,
        sparsity: practical.sparsity,
        repetitions: 1,
        attempts,
        failures,
        observed: rate(attempts, failures),
        bound: 2.0f64.powf(-(practical.rows as f64) / 2.0),
    });

    Measurement {
        trials,
        support: SUPPORT,
        churn: CHURN,
        rate_rows,
    }
}

/// `BENCH_obs.json` in the shared [`crate::baseline`] schema: a row per
/// structure. Rates are read from `dgs_sketch_l0_*` / `dgs_core_boost_*`
/// counters, not retallied; bounds: starved δ = 1/2, boosted δ^R = 2^-R,
/// Practical δ = 2^(-rows/2).
pub fn document(meas: &Measurement) -> Baseline {
    let mut b = Baseline::new("e18-obs").config(
        Fields::new()
            .u64("trials", meas.trials)
            .usize("support", meas.support)
            .usize("churn", meas.churn),
    );
    for r in &meas.rate_rows {
        b.row(
            Fields::new()
                .str("structure", r.label)
                .usize("rows", r.rows)
                .usize("sparsity", r.sparsity)
                .usize("repetitions", r.repetitions)
                .u64("attempts", r.attempts)
                .u64("failures", r.failures)
                .f64("observed", r.observed, 6)
                .f64("bound", r.bound, 6),
        );
    }
    b
}

/// `experiments obs-report` — drives one representative workload through
/// every instrumented subsystem (forest batch ingest + decode, the sharded
/// boosted ingestor, WAL + checkpoint + recovery, fault injection) under a
/// single registry and one `dgs_trace` root span, then dumps the registry in
/// Prometheus text format, the JSON export, and the root's span tree.
pub fn obs_report(quick: bool) {
    let n: usize = if quick { 32 } else { 64 };
    let seed = 0x0B5;
    let registry = Registry::new();
    let sink = registry.sink();
    let tracer = Tracer::with_sink(256, &sink);
    let root = tracer.root("dgs_bench_obs_report");
    let trace_id = root.trace_id();
    let stream = gnm_churn(n, 3 * n, seed);
    let updates = tiled_updates(&stream, stream.len());

    // Forest sketch: batched ingest and a decode, feeding the sketch-layer
    // and connectivity-layer counters.
    let space = EdgeSpace::graph(n).unwrap();
    let mut sketch = lean_forest_sketch(n, seed);
    sketch.set_sink(&sink);
    for chunk in updates.chunks(256) {
        sketch.try_update_batch(chunk).expect("batched update");
    }
    let _ = sketch.try_component_count();

    // Sharded boosted ingestion: per-shard throughput counters, queue
    // depth, flush latency.
    let seeds = SeedTree::new(seed ^ 0xB00);
    let mut ingestor = ShardedIngestor::with_build(4, 2, 256, |i| {
        SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), lean_forest())
    });
    ingestor.set_sink(&sink);
    for u in &updates {
        ingestor.push(u).expect("sharded push");
    }
    let _ = ingestor.finish().expect("sharded finish");

    // Durability: WAL appends, a forced snapshot, and a recovery pass.
    let dirs = ScratchDir::new("obs-report");
    let (wal_dir, snap_dir) = (dirs.join("wal"), dirs.join("snap"));
    let fresh = |n: usize, _max_rank: usize| lean_forest_sketch(n, seed ^ 0xC0);
    let mut durable = CheckpointedIngestor::create(
        &wal_dir,
        &snap_dir,
        n,
        stream.max_rank,
        CheckpointConfig::default(),
        fresh(n, stream.max_rank),
    )
    .expect("create durable ingestor");
    durable.set_sink(&sink);
    for u in &stream.updates {
        durable.ingest(u).expect("durable ingest");
    }
    durable.checkpoint_now().expect("checkpoint");
    let store = durable.store().clone();
    drop(durable);
    let mut driver = RecoveryDriver::new(&wal_dir, store);
    driver.set_sink(&sink);
    let _ = driver
        .recover::<SpanningForestSketch, _>(fresh)
        .expect("recover");

    // Fault injection: one labelled counter bump per class.
    let mut injector = FaultInjector::new(seed);
    injector.set_sink(&sink);
    for class in FaultClass::ALL {
        let _ = injector.inject(&stream, class);
    }
    root.finish();

    println!("# obs-report: {} updates over n = {n}", updates.len());
    println!("{}", registry.to_prometheus());
    println!("{}", registry.to_json());
    print!("{}", tracer.snapshot().render_tree(trace_id));
}
