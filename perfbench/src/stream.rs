//! Sliding-window update streams in the DynoGraph shape: every batch first
//! deletes the edges inserted `window` batches earlier, then inserts
//! `batch` fresh edges. Once the window is full, half of all updates are
//! deletions, and the live graph is always the union of the last `window`
//! insert batches.
//!
//! Each batch draws its edges from `regions` randomly placed arcs of
//! `span` vertices, so the live graph is a few clusters plus isolated
//! vertices, its component count changes from batch to batch, and its
//! shape has the same distribution for every seed.

use std::collections::{BTreeMap, VecDeque};

use dgs_field::prng::{Rng, RngCore, SeedableRng, StdRng};
use dgs_hypergraph::{HyperEdge, Update, UpdateStream};

/// Shape of a window stream.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpec {
    /// Vertices.
    pub n: u32,
    /// Insertions per batch.
    pub batch: usize,
    /// Batches an edge stays live before it expires.
    pub window: usize,
}

/// Arcs a batch draws its edges from, and their width.
const REGIONS: usize = 1;
const SPAN: u32 = 12;

/// Deterministic generator of [`WindowSpec`] updates.
#[derive(Clone)]
pub struct WindowStream {
    spec: WindowSpec,
    rng: StdRng,
    /// Insert batches still inside the window, oldest first.
    live: VecDeque<Vec<(u32, u32)>>,
    /// Generated updates not yet taken.
    pending: VecDeque<Update>,
}

impl WindowStream {
    pub fn new(spec: WindowSpec, seed: u64) -> WindowStream {
        assert!(SPAN <= spec.n, "arc wider than the graph");
        assert!(spec.batch >= 1 && spec.window >= 1, "empty window");
        WindowStream {
            spec,
            rng: StdRng::seed_from_u64(seed),
            live: VecDeque::with_capacity(spec.window + 1),
            pending: VecDeque::new(),
        }
    }

    /// The same live window with an independent generator: branch `k`
    /// continues the stream differently for every `k`.
    pub fn branch(&self, k: u64) -> WindowStream {
        let mut out = self.clone();
        let base = out.rng.next_u64();
        out.rng = StdRng::seed_from_u64(base ^ (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        out
    }

    /// The next batch: deletions of the batch that leaves the window, then
    /// this batch's insertions.
    pub fn next_batch(&mut self) -> Vec<Update> {
        let WindowSpec { n, batch, .. } = self.spec;
        let starts: [u32; REGIONS] = std::array::from_fn(|_| self.rng.gen_range(0..n));
        let mut out = Vec::with_capacity(2 * batch);
        if self.live.len() == self.spec.window {
            let expired = self.live.pop_front().expect("window is full");
            out.extend(
                expired
                    .iter()
                    .map(|&(u, v)| Update::delete(HyperEdge::pair(u, v))),
            );
        }
        let mut inserted = Vec::with_capacity(batch);
        for _ in 0..batch {
            let start = starts[self.rng.gen_range(0..REGIONS)];
            let a = self.rng.gen_range(0..SPAN);
            let mut b = self.rng.gen_range(0..SPAN - 1);
            if b >= a {
                b += 1;
            }
            let (u, v) = ((start + a) % n, (start + b) % n);
            inserted.push((u.min(v), u.max(v)));
        }
        out.extend(
            inserted
                .iter()
                .map(|&(u, v)| Update::insert(HyperEdge::pair(u, v))),
        );
        self.live.push_back(inserted);
        out
    }

    /// The next `len` updates (batches may straddle calls).
    pub fn take(&mut self, len: usize) -> Vec<Update> {
        while self.pending.len() < len {
            let batch = self.next_batch();
            self.pending.extend(batch);
        }
        self.pending.drain(..len).collect()
    }
}

/// A run of updates plus the exact component count of the live graph
/// after every `stride`-th update of the whole stream.
pub struct Segment {
    pub updates: UpdateStream,
    /// Stream offset (updates applied) → exact component count.
    pub counts: BTreeMap<u64, usize>,
    /// Largest number of distinct live edges at any offset.
    pub max_support: usize,
    pub deletions: usize,
}

impl Segment {
    fn generate(
        gen: &mut WindowStream,
        live: &mut LiveGraph,
        offset: u64,
        len: usize,
        stride: u64,
    ) -> Segment {
        let n = gen.spec.n;
        let updates = gen.take(len);
        let mut counts = BTreeMap::new();
        if offset == 0 {
            counts.insert(0, n as usize);
        }
        let mut max_support = 0;
        let mut deletions = 0;
        for (i, u) in updates.iter().enumerate() {
            if live.apply(u) {
                deletions += 1;
            }
            max_support = max_support.max(live.support());
            let at = offset + i as u64 + 1;
            if at.is_multiple_of(stride) {
                counts.insert(at, live.components(n));
            }
        }
        Segment {
            updates: UpdateStream {
                n: n as usize,
                max_rank: 2,
                updates,
            },
            counts,
            max_support,
            deletions,
        }
    }

    pub fn len(&self) -> usize {
        self.updates.updates.len()
    }
}

/// A workload's input: a prefix every pass replays, and per-pass tails
/// that branch off the generator where the prefix ends.
pub struct Stream {
    pub prefix: Segment,
    stride: u64,
    gen: WindowStream,
    live: LiveGraph,
}

impl Stream {
    /// The first `len` updates of the stream for `seed`, with exact counts
    /// at every multiple of `stride` (offset 0 included).
    pub fn generate(spec: WindowSpec, seed: u64, len: usize, stride: u64) -> Stream {
        let mut gen = WindowStream::new(spec, seed);
        let mut live = LiveGraph::default();
        let prefix = Segment::generate(&mut gen, &mut live, 0, len, stride);
        Stream {
            prefix,
            stride,
            gen,
            live,
        }
    }

    /// Pass `k`'s continuation: `len` updates after the prefix from branch
    /// `k` of the generator, so each pass reads different graphs.
    pub fn tail(&self, k: u64, len: usize) -> Segment {
        let mut gen = self.gen.branch(k);
        let mut live = self.live.clone();
        let offset = self.prefix.len() as u64;
        Segment::generate(&mut gen, &mut live, offset, len, self.stride)
    }
}

/// Signed edge multiset of the live graph, the benchmark's own reference.
#[derive(Clone, Default)]
pub struct LiveGraph {
    mult: BTreeMap<(u32, u32), i64>,
}

impl LiveGraph {
    /// Applies one update; returns whether it was a deletion.
    pub fn apply(&mut self, u: &Update) -> bool {
        let vs = u.edge.vertices();
        let key = (vs[0], vs[1]);
        let delta = u.op.delta();
        let m = self.mult.entry(key).or_insert(0);
        *m += delta;
        assert!(*m >= 0, "deleted an edge that is not live: {key:?}");
        if *m == 0 {
            self.mult.remove(&key);
        }
        delta < 0
    }

    /// Distinct live edges.
    pub fn support(&self) -> usize {
        self.mult.len()
    }

    /// Live edges with multiplicity.
    #[cfg(test)]
    pub fn edges(&self) -> &BTreeMap<(u32, u32), i64> {
        &self.mult
    }

    /// Connected components over `n` vertices (union-find).
    pub fn components(&self, n: u32) -> usize {
        let mut parent: Vec<u32> = (0..n).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        let mut count = n as usize;
        for &(u, v) in self.mult.keys() {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru as usize] = rv;
                count -= 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn spec() -> WindowSpec {
        WindowSpec {
            n: 64,
            batch: 32,
            window: 6,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Stream::generate(spec(), 7, 5000, 256);
        let b = Stream::generate(spec(), 7, 5000, 256);
        let c = Stream::generate(spec(), 8, 5000, 256);
        assert_eq!(a.prefix.updates.updates, b.prefix.updates.updates);
        assert_eq!(a.prefix.counts, b.prefix.counts);
        assert_ne!(a.prefix.updates.updates, c.prefix.updates.updates);
        assert_eq!(
            a.tail(3, 700).updates.updates,
            b.tail(3, 700).updates.updates
        );
        assert_ne!(
            a.tail(3, 700).updates.updates,
            a.tail(4, 700).updates.updates
        );
    }

    #[test]
    fn final_live_multiset_is_the_last_window_of_batches() {
        let spec = spec();
        let mut gen = WindowStream::new(spec, 11);
        let mut live = LiveGraph::default();
        let mut inserts: Vec<Vec<(u32, u32)>> = Vec::new();
        for _ in 0..40 {
            let mut ins = Vec::new();
            for u in &gen.next_batch() {
                if !live.apply(u) {
                    let vs = u.edge.vertices();
                    ins.push((vs[0], vs[1]));
                }
            }
            inserts.push(ins);
        }
        let mut expected: BTreeMap<(u32, u32), i64> = BTreeMap::new();
        for batch in &inserts[inserts.len() - spec.window..] {
            for &e in batch {
                *expected.entry(e).or_insert(0) += 1;
            }
        }
        assert_eq!(live.edges(), &expected);
    }

    #[test]
    fn tails_continue_the_window_exactly() {
        // Every deletion in a tail removes an edge that is live, and the
        // counts continue from the prefix's offsets.
        let s = Stream::generate(spec(), 5, 1000, 100);
        let t = s.tail(0, 1000);
        let mut live = LiveGraph::default();
        for u in s.prefix.updates.updates.iter().chain(&t.updates.updates) {
            live.apply(u);
        }
        assert_eq!(t.counts.keys().next(), Some(&1100));
        assert_eq!(t.counts[&2000], live.components(64));
    }

    #[test]
    fn half_the_updates_are_deletions_at_steady_state() {
        let spec = spec();
        let warm = spec.batch * spec.window;
        let s = Stream::generate(spec, 3, warm + 20_000, 256);
        let steady = &s.prefix.updates.updates[warm..];
        let deletes = steady.iter().filter(|u| u.op.delta() < 0).count();
        let share = deletes as f64 / steady.len() as f64;
        assert!((0.49..=0.51).contains(&share), "deletion share {share}");
        assert_eq!(s.prefix.deletions, deletes);
    }

    #[test]
    fn sparse_support_stays_under_the_spill_threshold() {
        let w = Workload::named("sparse").expect("sparse workload");
        let threshold = dgs_core::HybridConfig::default().spill_threshold;
        for seed in 0..4 {
            let s = Stream::generate(w.stream, seed, 4 * w.write_updates(), 256);
            assert!(
                s.prefix.max_support <= threshold,
                "seed {seed}: support {} > {threshold}",
                s.prefix.max_support
            );
            assert!(s.prefix.max_support <= w.stream.batch * w.stream.window);
        }
    }

    #[test]
    fn component_counts_vary_along_the_stream() {
        for name in ["ingest", "serve", "sparse"] {
            let w = Workload::named(name).expect("workload");
            let s = Stream::generate(w.stream, 5, w.write_updates(), 1024);
            let distinct: std::collections::BTreeSet<usize> =
                s.prefix.counts.values().copied().collect();
            assert!(distinct.len() >= 5, "{name}: counts {distinct:?}");
        }
    }
}
