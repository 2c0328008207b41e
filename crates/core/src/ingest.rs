//! Batched, sharded stream ingestion.
//!
//! Every sketch in this workspace is a linear map, so ingestion
//! parallelizes without changing any answer bit: updates to *independent*
//! state (different boosted repetitions, different vertex rows) can run on
//! different threads, and batching lets the sketch kernels hoist hashing
//! and exponentiation work out of the per-update loop (see
//! `dgs_sketch::L0Sampler::update_batch` and
//! `SpanningForestSketch::try_update_batch`, reached through
//! [`Recoverable::apply_batch`]).
//!
//! [`ShardedIngestor`] packages the pattern for boosted-repetition
//! ingestion: it buffers the stream into fixed-size batches and, at each
//! flush, stripes the repetitions across the persistent sticky worker
//! pool with [`dgs_pool::run_striped`] — the same routine the supervised
//! ingestor uses. The assignment is deterministic, seed-stable, and
//! **sticky** — the repetitions are cut into `stripes` contiguous blocks
//! and block `t` is always submitted to pool worker `t`, flush after
//! flush, so each worker's repetitions stay hot in its cache; each
//! repetition consumes every batch in stream order through the same
//! batched kernel — so the final states are **bit-identical** to
//! sequential ingestion for every `(threads, batch_size)` choice, which
//! the property tests assert byte-for-byte.

use dgs_hypergraph::{Update, UpdateStream};
use dgs_obs::{Counter, Gauge, Histogram, MetricsSink};
use dgs_pool::JobPanicked;
use dgs_sketch::{SketchError, SketchResult};

use crate::boost::BoostedQuery;
use crate::checkpoint::Recoverable;

/// One repetition's [`Recoverable::apply_batch`] result.
type BatchResult = Result<(), (usize, SketchError)>;

/// Metric handles for one ingestor; null (free) by default.
#[derive(Debug, Default)]
struct IngestMetrics {
    updates: Counter,
    flush_ns: Histogram,
    queue_depth: Gauge,
    /// One labelled counter per stripe (`shard="0"..`), counting
    /// `updates × repetitions` applications — per-shard throughput.
    shard_updates: Vec<Counter>,
}

impl IngestMetrics {
    fn resolve(sink: &MetricsSink, threads: usize) -> IngestMetrics {
        IngestMetrics {
            updates: sink.counter("dgs_core_ingest_updates"),
            flush_ns: sink.histogram("dgs_core_ingest_flush_ns"),
            queue_depth: sink.gauge("dgs_core_ingest_queue_depth"),
            shard_updates: (0..threads)
                .map(|t| {
                    sink.counter_labelled(
                        "dgs_core_ingest_shard_updates",
                        &[("shard", &t.to_string())],
                    )
                })
                .collect(),
        }
    }
}

/// Buffers stream updates into fixed-size batches and ingests each batch
/// into `R` boosted repetitions, striped across the persistent sticky
/// worker pool by [`dgs_pool::run_striped`].
///
/// Updates arrive one at a time ([`push`](Self::push)), the ingestor
/// flushes a batch whenever the buffer fills, and
/// [`finish`](Self::finish) flushes the remainder and hands back a
/// [`BoostedQuery`]. Because stripe assignment is a pure function of the
/// repetition index and every repetition sees every batch in stream order,
/// the result is bit-identical to sequential ingestion.
///
/// Error handling: an invalid update is detected at the next flush. Every
/// repetition then holds exactly the updates before it
/// ([`Recoverable::apply_batch`]'s applied-prefix contract), and
/// [`ingested`](Self::ingested) counts them; the failing update and the
/// rest of its batch are dropped. Treat a flush error as fatal for the
/// query (the stream itself is malformed — retrying cannot help).
#[derive(Debug)]
pub struct ShardedIngestor<S> {
    /// Boosted repetitions in logical (seed) order.
    repetitions: Vec<S>,
    /// Stripe (worker) count: `min(threads, repetitions)`, clamped **once**
    /// at construction. Metrics shard counters and flush fan-out both read
    /// this field, so the two can never disagree.
    stripes: usize,
    batch_size: usize,
    buffer: Vec<Update>,
    ingested: u64,
    metrics: IngestMetrics,
    /// Kept to re-attach the striping pool's own metrics on every flush
    /// (idempotent after the first — see [`dgs_pool::StickyPool::set_sink`]).
    sink: MetricsSink,
    /// Per-repetition flush results, kept across flush cycles (like
    /// `DecodeScratch`) so steady-state flushes allocate nothing.
    results: Vec<Result<BatchResult, JobPanicked>>,
}

impl<S: Recoverable + Send> ShardedIngestor<S> {
    /// Wraps already-built repetitions (must be independently seeded
    /// siblings — see [`BoostedQuery::new`]). `threads` above the
    /// repetition count is clamped down at construction: extra workers
    /// could never own a repetition.
    ///
    /// # Panics
    /// Panics if `repetitions` is empty, or `threads`/`batch_size` is zero.
    pub fn new(repetitions: Vec<S>, threads: usize, batch_size: usize) -> ShardedIngestor<S> {
        assert!(!repetitions.is_empty(), "need at least one repetition");
        assert!(threads >= 1, "need at least one thread");
        assert!(batch_size >= 1, "need a positive batch size");
        ShardedIngestor {
            stripes: threads.min(repetitions.len()),
            results: Vec::with_capacity(repetitions.len()),
            repetitions,
            batch_size,
            buffer: Vec::with_capacity(batch_size),
            ingested: 0,
            metrics: IngestMetrics::default(),
            sink: MetricsSink::null(),
        }
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_ingest_*`:
    /// total updates, flush latency histogram, buffered queue depth gauge,
    /// and per-stripe `shard="i"` throughput counters). Only the ingestor
    /// itself is instrumented — to also observe the sketches, set their
    /// sinks on the repetitions before constructing the ingestor. Default
    /// is the null sink: recording is free.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = IngestMetrics::resolve(sink, self.stripes);
        self.sink = sink.clone();
    }

    /// Builds `r` repetitions via `build(repetition_index)` — derive each
    /// from a sibling seed — and wraps them in an ingestor.
    pub fn with_build(
        r: usize,
        threads: usize,
        batch_size: usize,
        build: impl FnMut(usize) -> S,
    ) -> ShardedIngestor<S> {
        assert!(r >= 1, "need at least one repetition");
        ShardedIngestor::new((0..r).map(build).collect(), threads, batch_size)
    }

    /// Number of repetitions.
    pub fn repetitions(&self) -> usize {
        self.repetitions.len()
    }

    /// Updates currently buffered (not yet applied to any repetition).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Updates applied to every repetition so far (excludes the buffer).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ingest stripe count: `min(threads, repetitions)`, fixed at
    /// construction. Stripe `t` owns the `t`-th contiguous block of
    /// repetitions and is always submitted to pool worker `t`.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Buffers one stream update, flushing if the batch is full.
    pub fn push(&mut self, u: &Update) -> SketchResult<()> {
        self.buffer.push(u.clone());
        self.metrics.queue_depth.set(self.buffer.len() as i64);
        if self.buffer.len() >= self.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Pushes every update of a stream (batching internally).
    pub fn ingest_stream(&mut self, stream: &UpdateStream) -> SketchResult<()> {
        for u in &stream.updates {
            self.push(u)?;
        }
        Ok(())
    }

    /// Applies the buffered batch to every repetition through
    /// [`dgs_pool::run_striped`]: stripe `t` is submitted to pool worker `t`
    /// on every flush, so a worker re-touches the same repetitions' state
    /// batch after batch.
    ///
    /// A panic inside a repetition's batch kernel is caught on the worker
    /// and surfaced as a typed [`SketchError`], never a panic. On failure
    /// the first failing repetition's applied prefix is added to
    /// [`ingested`](Self::ingested).
    pub fn flush(&mut self) -> SketchResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let timer = self.metrics.flush_ns.start_timer();
        let batch = &self.buffer;
        let shard_updates = &self.metrics.shard_updates;
        dgs_pool::run_striped(
            &mut self.repetitions,
            self.stripes,
            &self.sink,
            &mut self.results,
            |t, s| {
                s.apply_batch(batch)?;
                if let Some(c) = shard_updates.get(t) {
                    c.add(batch.len() as u64);
                }
                Ok(())
            },
        );
        let outcome = self.results.drain(..).try_for_each(|r| {
            r.unwrap_or_else(|JobPanicked| {
                Err((
                    0,
                    SketchError::failure("sharded-ingest", "ingest worker panicked"),
                ))
            })
        });
        let applied = self.buffer.len() as u64;
        // The batch leaves the buffer even when it failed; clearing keeps
        // the buffer's capacity for the next fill.
        self.buffer.clear();
        if let Err((prefix, e)) = outcome {
            self.ingested += prefix as u64;
            return Err(e);
        }
        self.ingested += applied;
        self.metrics.updates.add(applied);
        self.metrics.queue_depth.set(0);
        timer.observe();
        Ok(())
    }

    /// Flushes the remaining buffer and returns the repetitions wrapped in
    /// a [`BoostedQuery`].
    pub fn finish(mut self) -> SketchResult<BoostedQuery<S>> {
        self.flush()?;
        Ok(BoostedQuery::from_repetitions(self.repetitions))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use dgs_connectivity::{ForestParams, SpanningForestSketch};
    use dgs_field::prng::*;
    use dgs_field::{Codec, SeedTree, Writer};
    use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
    use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph};
    use dgs_sketch::Profile;

    fn encoded<T: Codec>(t: &T) -> Vec<u8> {
        let mut w = Writer::new();
        t.encode(&mut w);
        w.into_bytes()
    }

    fn forest_build<'a>(
        space: &'a EdgeSpace,
        seeds: &'a SeedTree,
        params: ForestParams,
    ) -> impl Fn(usize) -> SpanningForestSketch + 'a {
        let space = space.clone();
        move |i| SpanningForestSketch::new_full(space.clone(), &seeds.child(i as u64), params)
    }

    #[test]
    fn sharded_batched_ingest_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(0x1A6E);
        let h = Hypergraph::from_graph(&gnp(16, 0.3, &mut rng));
        let stream = churn_stream(&h, ChurnConfig::default(), &mut rng);
        let space = EdgeSpace::graph(16).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(0xB005);
        let build = forest_build(&space, &seeds, params);

        let mut serial = BoostedQuery::new(3, &build);
        for u in &stream.updates {
            serial.try_update(u).unwrap();
        }
        let expected: Vec<Vec<u8>> = serial.sketches().iter().map(encoded).collect();

        // Thread counts cover clamping (5, 8 > 3 repetitions) and batch
        // sizes straddle the 4-lane field kernels.
        for threads in [1usize, 2, 3, 5, 8] {
            for batch_size in [1usize, 3, 4, 5, 8, 256] {
                let mut ing = ShardedIngestor::with_build(3, threads, batch_size, &build);
                assert_eq!(ing.stripes(), threads.min(3));
                ing.ingest_stream(&stream).unwrap();
                let boosted = ing.finish().unwrap();
                let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
                assert_eq!(got, expected, "threads {threads}, batch {batch_size}");
            }
        }
    }

    #[test]
    fn repeated_flush_cycles_reuse_the_pool_identically() {
        // Many explicit mid-batch flush() calls on one ingestor: every
        // cycle re-enters the cached sticky pool, so a mailbox or barrier
        // left dirty by cycle k would corrupt cycle k+1. Final states must
        // still match sequential ingestion byte-for-byte.
        let mut rng = StdRng::seed_from_u64(0x9E05);
        let h = Hypergraph::from_graph(&gnp(14, 0.35, &mut rng));
        let stream = churn_stream(&h, ChurnConfig::default(), &mut rng);
        let space = EdgeSpace::graph(14).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(0x9E05);
        let build = forest_build(&space, &seeds, params);

        let mut serial = BoostedQuery::new(4, &build);
        for u in &stream.updates {
            serial.try_update(u).unwrap();
        }
        let expected: Vec<Vec<u8>> = serial.sketches().iter().map(encoded).collect();

        let mut ing = ShardedIngestor::with_build(4, 3, 64, &build);
        for (j, u) in stream.updates.iter().enumerate() {
            ing.push(u).unwrap();
            // Drain mid-batch on a stride that never aligns with the batch
            // size, forcing dozens of short pool scopes.
            if j % 5 == 0 {
                ing.flush().unwrap();
            }
        }
        let boosted = ing.finish().unwrap();
        let got: Vec<Vec<u8>> = boosted.sketches().iter().map(encoded).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn buffer_flushes_at_batch_size_and_on_finish() {
        let space = EdgeSpace::graph(8).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(5);
        let build = forest_build(&space, &seeds, params);
        let mut ing = ShardedIngestor::with_build(1, 1, 3, &build);
        for v in 1..=4u32 {
            ing.push(&Update::insert(HyperEdge::pair(0, v))).unwrap();
        }
        // 4 pushes with batch_size 3: one flush happened, one update remains.
        assert_eq!(ing.ingested(), 3);
        assert_eq!(ing.buffered(), 1);
        let boosted = ing.finish().unwrap();
        assert_eq!(boosted.repetitions(), 1);
        let forest = boosted.sketches()[0].decode();
        assert_eq!(forest.len(), 4);
    }

    #[test]
    fn invalid_update_surfaces_at_flush() {
        let space = EdgeSpace::graph(6).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(6);
        let build = forest_build(&space, &seeds, params);
        let mut ing = ShardedIngestor::with_build(2, 2, 8, &build);
        ing.push(&Update::insert(HyperEdge::pair(0, 1))).unwrap();
        ing.push(&Update::insert(HyperEdge::pair(0, 77))).unwrap(); // out of range
        let err = ing.flush().unwrap_err();
        assert!(!err.is_retryable());
        // Every repetition holds the one update before the bad one.
        assert_eq!(ing.ingested(), 1);
        assert_eq!(ing.buffered(), 0);
    }
}
