//! Layer probe: the pass's update stream through each layer's public
//! function alone, on one thread, with nothing else running. Gives the
//! per-call costs that the pipeline's call counts are checked against.

use std::path::Path;
use std::time::{Duration, Instant};

use dgs_core::{CheckpointStore, RecoveryDriver};
use dgs_hypergraph::{Update, WalConfig, WalWriter};

use crate::pipeline::{encode, ms, Shard, SKETCH_SEED};
use crate::stats::{digest, median};
use crate::workload::{Workload, BATCH, N};

pub struct Probe {
    pub wal_append_us: f64,
    pub wal_sync_ms: f64,
    pub apply_us_per_update: f64,
    pub clone_ms: f64,
    pub drop_ms: f64,
    pub encode_ms: f64,
    pub save_ms: f64,
    pub bytes: u64,
    pub recover_ms: f64,
}

const REPEATS: usize = 5;

fn median_of(mut f: impl FnMut() -> Result<Duration, String>) -> Result<f64, String> {
    let mut xs = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        xs.push(ms(f()?));
    }
    Ok(median(&xs))
}

pub fn run<S: Shard>(w: &Workload, updates: &[Update], dir: &Path) -> Result<Probe, String> {
    let _ = std::fs::remove_dir_all(dir);

    // WAL: append the whole stream, then time syncs after a batch each.
    let mut wal = WalWriter::create(dir.join("wal"), N as usize, 2, WalConfig::default())
        .map_err(|e| format!("probe wal create: {e}"))?;
    let start = Instant::now();
    for u in updates {
        wal.append(u)
            .map_err(|e| format!("probe wal append: {e}"))?;
    }
    let wal_append_us = start.elapsed().as_secs_f64() * 1e6 / updates.len() as f64;
    drop(wal);
    let mut sync_wal = WalWriter::create(dir.join("sync-wal"), N as usize, 2, WalConfig::default())
        .map_err(|e| format!("probe wal create: {e}"))?;
    let mut batches = updates.chunks(BATCH);
    let wal_sync_ms = median_of(|| {
        for u in batches.next().unwrap_or_default() {
            sync_wal
                .append(u)
                .map_err(|e| format!("probe wal append: {e}"))?;
        }
        let t = Instant::now();
        sync_wal
            .sync()
            .map_err(|e| format!("probe wal sync: {e}"))?;
        Ok(t.elapsed())
    })?;
    drop(sync_wal);

    // One repetition through `apply_batch` in flush-sized batches; the
    // recovery store gets a snapshot where the pipeline's last one was.
    let store = CheckpointStore::open(dir.join("snap"), SKETCH_SEED)
        .map_err(|e| format!("probe store open: {e}"))?;
    let snap_at = w
        .snapshot_every()
        .map(|e| updates.len() as u64 / e * e)
        .filter(|&o| o > 0);
    let mut sketch = S::build(0);
    let mut apply = Duration::ZERO;
    for (i, batch) in updates.chunks(BATCH).enumerate() {
        let t = Instant::now();
        sketch
            .apply_batch(batch)
            .map_err(|(at, e)| format!("probe apply_batch at {at}: {e}"))?;
        apply += t.elapsed();
        if snap_at == Some(((i + 1) * BATCH) as u64) {
            store
                .save(&sketch, ((i + 1) * BATCH) as u64)
                .map_err(|e| format!("probe save: {e}"))?;
        }
    }
    let apply_us_per_update = apply.as_secs_f64() * 1e6 / updates.len() as f64;

    let mut drops = Vec::with_capacity(REPEATS);
    let clone_ms = median_of(|| {
        let t = Instant::now();
        let copy = std::hint::black_box(sketch.clone());
        let cloned = t.elapsed();
        let t = Instant::now();
        drop(copy);
        drops.push(ms(t.elapsed()));
        Ok(cloned)
    })?;
    let drop_ms = median(&drops);
    let encode_ms = median_of(|| {
        let t = Instant::now();
        std::hint::black_box(encode(&sketch));
        Ok(t.elapsed())
    })?;
    let save_store = CheckpointStore::open(dir.join("save"), SKETCH_SEED)
        .map_err(|e| format!("probe store open: {e}"))?;
    let mut bytes = 0;
    let save_ms = median_of(|| {
        let t = Instant::now();
        let path = save_store
            .save(&sketch, updates.len() as u64)
            .map_err(|e| format!("probe save: {e}"))?;
        let took = t.elapsed();
        bytes = std::fs::metadata(&path)
            .map_err(|e| format!("probe stat: {e}"))?
            .len();
        Ok(took)
    })?;

    // Recovery of this one repetition from the probe's own WAL and store,
    // checked byte for byte against the probe's sketch.
    let expected = digest(&encode(&sketch));
    let driver = RecoveryDriver::new(dir.join("wal"), store);
    let recover_ms = median_of(|| {
        let t = Instant::now();
        let rec = driver
            .recover(|_, _| S::build(0))
            .map_err(|e| format!("probe recover: {e}"))?;
        let took = t.elapsed();
        if rec.offset != updates.len() as u64 || digest(&encode(&rec.sketch)) != expected {
            return Err(format!(
                "probe recover: offset {} differs from the probe's sketch",
                rec.offset
            ));
        }
        Ok(took)
    })?;
    let _ = std::fs::remove_dir_all(dir);

    Ok(Probe {
        wal_append_us,
        wal_sync_ms,
        apply_us_per_update,
        clone_ms,
        drop_ms,
        encode_ms,
        save_ms,
        bytes,
        recover_ms,
    })
}
