//! E16 — crash recovery: recovery time vs checkpoint interval.
//!
//! The durability subsystem (dgs-hypergraph `wal` + dgs-core `checkpoint`)
//! trades steady-state cost against recovery latency: frequent snapshots
//! shorten the WAL tail a crash forces recovery to replay, at the price of
//! writing the sketch more often. Because sketches are linear, recovery is
//! *exact* — this experiment verifies bit-identity against an uninterrupted
//! run in every row while measuring the trade-off, and writes the machine-
//! readable baseline `BENCH_recovery.json` (guarded by `check-recovery`).

use std::time::Instant;

use dgs_connectivity::SpanningForestSketch;
use dgs_core::checkpoint::{
    CheckpointConfig, CheckpointStore, CheckpointedIngestor, Recoverable, RecoveryDriver,
};
use dgs_hypergraph::wal::WalConfig;

use crate::baseline::{Baseline, Bound, Cmp, Fields, Gate, Guard};
use crate::workloads::{encoded, gnm_churn, lean_forest_sketch, ScratchDir};

/// `experiments e16` writes `BENCH_recovery.json`; `check-recovery` guards
/// it: every cadence must recover bit-exactly.
pub const GUARD: Guard = Guard {
    command: "check-recovery",
    file: "BENCH_recovery.json",
    verdict_field: Some("summary.all_exact"),
    gates: &[Gate::row("rows[*].exact", Cmp::Eq, Bound::TRUE)],
    measure: |quick| document(&measure(quick)),
};

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().and_then(|e| e.metadata().ok()))
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub struct RowOut {
    pub interval: String,
    pub interval_updates: Option<u64>,
    pub snapshots: usize,
    pub wal_bytes: u64,
    pub snap_bytes: u64,
    pub ingest_ms: f64,
    pub replayed: u64,
    pub recovery_ms: f64,
    pub exact: bool,
}

pub struct Measurement {
    pub n: usize,
    pub updates: usize,
    pub crash_at: usize,
    pub rows: Vec<RowOut>,
}

pub fn measure(quick: bool) -> Measurement {
    let n: usize = if quick { 48 } else { 96 };
    let seed = 0xE16;
    let stream = gnm_churn(n, 4 * n, seed);
    let m = stream.len();
    // Crash strictly between checkpoints so every row replays a tail.
    let crash_at = m - m / 7 - 1;

    let intervals: &[Option<u64>] = if quick {
        &[Some(64), Some(256), None]
    } else {
        &[Some(64), Some(128), Some(256), Some(512), Some(1024), None]
    };

    // The uninterrupted reference over the durable prefix.
    let mut reference = lean_forest_sketch(n, seed);
    for u in &stream.updates[..crash_at] {
        reference.apply_update(u).expect("reference ingest");
    }
    let reference_bytes = encoded(&reference);

    let base = ScratchDir::new("e16");
    let mut rows: Vec<RowOut> = Vec::new();
    for (i, &interval) in intervals.iter().enumerate() {
        let wal_dir = base.join(format!("wal-{i}"));
        let snap_dir = base.join(format!("snap-{i}"));
        let cfg = CheckpointConfig {
            wal: WalConfig {
                segment_records: 4096,
                seed,
            },
            snapshot_interval: interval.unwrap_or(u64::MAX),
            snapshot_seed: seed,
        };

        // Ingest under durability, then crash (drop without sealing).
        let t0 = Instant::now();
        let mut ing = CheckpointedIngestor::create(
            &wal_dir,
            &snap_dir,
            stream.n,
            stream.max_rank,
            cfg,
            lean_forest_sketch(n, seed),
        )
        .expect("create ingestor");
        for u in &stream.updates[..crash_at] {
            ing.ingest(u).expect("ingest");
        }
        let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
        let snapshots = ing.store().offsets().expect("list snapshots").len();
        drop(ing);

        let wal_bytes = dir_bytes(&wal_dir);
        let snap_bytes = dir_bytes(&snap_dir);

        // Timed recovery.
        let store = CheckpointStore::open(&snap_dir, cfg.snapshot_seed).expect("open store");
        let driver = RecoveryDriver::new(&wal_dir, store);
        let t1 = Instant::now();
        let rec = driver
            .recover::<SpanningForestSketch, _>(|_, _| lean_forest_sketch(n, seed))
            .expect("recovery");
        let recovery_ms = t1.elapsed().as_secs_f64() * 1e3;

        let exact = rec.offset as usize == crash_at && encoded(&rec.sketch) == reference_bytes;
        rows.push(RowOut {
            interval: interval.map_or("wal-only".to_string(), |k| k.to_string()),
            interval_updates: interval,
            snapshots,
            wal_bytes,
            snap_bytes,
            ingest_ms,
            replayed: rec.replayed,
            recovery_ms,
            exact,
        });
    }
    Measurement {
        n,
        updates: m,
        crash_at,
        rows,
    }
}

/// `BENCH_recovery.json` in the shared [`crate::baseline`] schema: a row
/// per snapshot cadence; `wal-only` = no snapshots, so recovery degrades to
/// a full-log replay.
pub fn document(meas: &Measurement) -> Baseline {
    let mut b = Baseline::new("e16-recovery").config(
        Fields::new()
            .usize("n", meas.n)
            .usize("updates", meas.updates)
            .usize("crash_at", meas.crash_at),
    );
    for r in &meas.rows {
        b.row(
            Fields::new()
                .opt_u64("interval", r.interval_updates)
                .str("label", &r.interval)
                .usize("snapshots", r.snapshots)
                .u64("wal_bytes", r.wal_bytes)
                .u64("snapshot_bytes", r.snap_bytes)
                .f64("ingest_ms", r.ingest_ms, 3)
                .u64("replayed", r.replayed)
                .f64("recovery_ms", r.recovery_ms, 3)
                .bool("exact", r.exact),
        );
    }
    b
}
