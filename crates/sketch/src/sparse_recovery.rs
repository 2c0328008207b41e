//! Exact s-sparse recovery by hashing into one-sparse cells and peeling.
//!
//! `rows` independent pairwise hash functions each scatter the coordinates
//! across `2s` one-sparse cells. If the net vector has at most `s` nonzero
//! coordinates, peeling (decode a one-sparse cell, subtract the recovered
//! item everywhere, repeat) recovers the support exactly with probability
//! `1 - 2^{-Ω(rows)}`; a residual nonzero cell after peeling certifies
//! failure, so the decoder never silently returns a wrong support — the
//! only error mode left is a fingerprint false positive (`<= d/p` per cell).
//!
//! # Storage layout
//!
//! Cells are stored struct-of-arrays: three parallel `Vec<Fp>` level tables
//! (`w` total weights, `s` index-weighted sums, `f` fingerprints), each
//! `rows x cols` row-major. A batched update touches each table with a
//! unit-stride pattern per accumulator instead of striding 24-byte
//! `OneSparse` structs, and the batch planner
//! ([`plan_into`](SparseRecovery::plan_into) /
//! [`apply_soa`](SparseRecovery::apply_soa)) hoists the `z^index`
//! exponentiation and bucket hashing out of the per-cell loop entirely.
//!
//! # Encoding
//!
//! The [`Codec`](dgs_field::Codec) encoding is versioned. Every frame
//! written today is SoA version 2:
//!
//! ```text
//! u64 SOA_SENTINEL | u64 2 | params | cells
//! params = u64 dimension | u64 sparsity | Fingerprinter | Vec<KWiseHash>
//! cells  = u64 count | count x (u32 index | u64 w | u64 s | u64 f)
//! ```
//!
//! `cells` lists, by ascending flat index into the `rows x cols` tables,
//! exactly the cells whose three values are not all zero, so the bytes
//! follow the live support (a cancelled update leaves nothing behind) and
//! equal states encode to equal bytes. The table size is never read: it
//! is `rows x cols` from the validated parameters, capped at
//! [`MAX_TABLE_CELLS`]. Two older layouts still decode: SoA version 1
//! (`u64 SOA_SENTINEL | u64 1 | params | Vec<Fp> w | Vec<Fp> s | Vec<Fp>
//! f`, every cell in full) and the original sentinel-free array of
//! `OneSparse` cells (`params | Vec<OneSparse>`).
//!
//! The `params` and `cells` halves are also written and read separately
//! inside the crate, so that [`L0Sampler`](crate::L0Sampler) can offer the
//! same split to a container holding many samplers with one parameter set,
//! which then writes it once.

use dgs_field::{Fingerprinter, Fp, KWiseHash, SeedTree};
use dgs_obs::{Counter, Histogram, MetricsSink};

use crate::error::{SketchError, SketchResult};
use crate::one_sparse::{OneSparse, OneSparseDecode};

/// Sentinel marking the versioned SoA encoding. The legacy layout begins
/// with the dimension, which the workspace caps at `2^60`, so `u64::MAX`
/// can never be a legacy first word.
const SOA_SENTINEL: u64 = u64::MAX;
/// SoA version 1: the three tables written in full (decode only).
const SOA_V1: u64 = 1;
/// SoA version 2: only the nonzero cells are written (the layout encoded).
const SOA_V2: u64 = 2;

/// The largest `rows x cols` table a decoded frame may imply. A frame over
/// it is rejected before anything is allocated. The largest table any
/// [`Profile`](crate::Profile) builds is 16,384 cells (`Theory` at
/// dimension `2^64`), so the cap leaves 16x headroom while bounding what
/// one forged frame can make the decoder allocate (6 MiB).
/// [`SparseRecovery::new`] does not enforce it: a structure built past the
/// cap (only the uncoded Becker baseline can be) encodes, but its frame is
/// rejected on decode. The cap bounds one frame, not a container: a
/// sampler or forest frame decodes to the tables its parameters declare,
/// however few cells it lists, so bytes from outside the process are
/// checksummed before they are decoded (snapshots and channel frames
/// are).
pub const MAX_TABLE_CELLS: usize = 1 << 18;

/// Metric handles for one structure; null (free) by default, shared across
/// clones so aggregated copies keep feeding the same counters. Excluded from
/// the codec — a decoded structure starts unobserved.
#[derive(Clone, Debug, Default)]
struct SparseMetrics {
    decode_attempts: Counter,
    decode_successes: Counter,
    decode_failures: Counter,
    one_sparse_rejects: Counter,
    /// Span of the fingerprint power-table build + `pow` fill per
    /// `plan_into` call (the `Fp::mul_batch` lane kernel's hot caller).
    kernel_pow_ns: Histogram,
    /// Span of the per-row `bucket_batch` hashing per `plan_into` call
    /// (the `KWiseHash::eval_batch` lane kernel's hot caller).
    kernel_bucket_ns: Histogram,
}

impl SparseMetrics {
    fn resolve(sink: &MetricsSink) -> SparseMetrics {
        SparseMetrics {
            decode_attempts: sink.counter("dgs_sketch_sparse_decode_attempts"),
            decode_successes: sink.counter("dgs_sketch_sparse_decode_successes"),
            decode_failures: sink.counter("dgs_sketch_sparse_decode_failures"),
            one_sparse_rejects: sink.counter("dgs_sketch_sparse_one_sparse_rejects"),
            kernel_pow_ns: sink.histogram("dgs_sketch_kernel_pow_table_ns"),
            kernel_bucket_ns: sink.histogram("dgs_sketch_kernel_bucket_batch_ns"),
        }
    }
}

/// Reusable peeling scratch for [`SparseRecovery::decode_state`].
///
/// Holds the working copy of the cells, the per-pass candidate list with
/// its batch-inverted weights, and the recovered support. All buffers are
/// cleared (never shrunk) between uses, so one scratch reused across many
/// decodes allocates only until the high-water mark is reached.
#[derive(Clone, Debug, Default)]
pub struct PeelScratch {
    /// Working cells being drained by the current peel.
    work: Vec<OneSparse>,
    /// Per-cell classification cache, current for untouched cells.
    cls: Vec<Cls>,
    /// Per-cell inverse of the total weight `W`; fresh whenever the cell's
    /// classification is [`Cls::Unknown`].
    cell_winv: Vec<Fp>,
    /// Flat cell ids of the cells whose inverses are being (re)batched.
    cand: Vec<u32>,
    /// Candidate total weights, replaced by their inverses in place.
    winv: Vec<Fp>,
    /// Prefix products for [`Fp::inv_batch`].
    prefix: Vec<Fp>,
    /// Support recovered by the last successful peel, sorted by index.
    pub recovered: Vec<(u64, i64)>,
}

/// Cached one-sparse classification of a working cell. There is no cached
/// "verified" state: a chosen cell is subtracted from itself the same pass
/// (its state is the unit's state), so a verification is always consumed
/// immediately.
#[derive(Clone, Copy, Debug)]
enum Cls {
    /// Not yet examined since its last change; `cell_winv` is fresh.
    Unknown,
    /// Known not to verify (zero, zero-`W`, or failed verification).
    NotOne,
}

/// An s-sparse recovery structure.
#[derive(Clone, Debug)]
pub struct SparseRecovery {
    fper: Fingerprinter,
    hashes: Vec<KWiseHash>,
    /// `rows x cols` total weights, row-major.
    w: Vec<Fp>,
    /// `rows x cols` index-weighted sums, row-major.
    s: Vec<Fp>,
    /// `rows x cols` fingerprints, row-major.
    f: Vec<Fp>,
    cols: usize,
    sparsity: usize,
    dimension: u64,
    metrics: SparseMetrics,
}

impl SparseRecovery {
    /// A structure recovering up to `sparsity` nonzeros over `[0, dimension)`.
    pub fn new(seeds: &SeedTree, dimension: u64, sparsity: usize, rows: usize) -> SparseRecovery {
        assert!(sparsity >= 1 && rows >= 1);
        let cols = 2 * sparsity;
        let fper = Fingerprinter::new(&seeds.child(u64::MAX));
        let hashes: Vec<KWiseHash> = (0..rows)
            .map(|r| KWiseHash::new(&seeds.child(r as u64), 2))
            .collect();
        let cells = rows * cols;
        SparseRecovery {
            fper,
            hashes,
            w: vec![Fp::ZERO; cells],
            s: vec![Fp::ZERO; cells],
            f: vec![Fp::ZERO; cells],
            cols,
            sparsity,
            dimension,
            metrics: SparseMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink` (decode attempt / success /
    /// failure counters and one-sparse verification rejects, under
    /// `dgs_sketch_sparse_*`). The default is the null sink: all recording
    /// is free. Handles are shared by clones of this structure.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = SparseMetrics::resolve(sink);
    }

    /// The sparsity bound `s`.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// The number of hash rows.
    pub fn rows(&self) -> usize {
        self.hashes.len()
    }

    /// Applies `(index, delta)` to every row (one `z^index` exponentiation
    /// shared across rows). Rejects out-of-range indices with
    /// [`SketchError::InvalidInput`] — the check runs in release builds
    /// too, so a malformed stream can never scribble into the wrong cells.
    #[inline]
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn update(&mut self, index: u64, delta: i64) -> SketchResult<()> {
        if index >= self.dimension {
            return Err(SketchError::invalid(format!(
                "index {index} out of range for dimension {}",
                self.dimension
            )));
        }
        let term = self.fper.term(index, delta);
        let d = Fp::from_i64(delta);
        let sd = d.mul(Fp::new(index));
        for (r, h) in self.hashes.iter().enumerate() {
            let c = h.bucket(index, self.cols);
            let cell = r * self.cols + c;
            self.w[cell] += d;
            self.s[cell] += sd;
            self.f[cell] += term;
        }
        Ok(())
    }

    /// Batch planner: for each key (assumed already range-checked), writes
    /// `z^key` into `pows[i]` and the per-row bucket of key `i` into
    /// `buckets[i * rows .. (i + 1) * rows]`. The fingerprint exponentiations
    /// share one windowed [power table](dgs_field::PowTable) and the bucket
    /// hashing runs through [`KWiseHash::bucket_batch`] — this is where the
    /// batched ingest path earns its speedup over per-update
    /// [`update`](Self::update) calls.
    pub fn plan_into(&self, keys: &[u64], pows: &mut [Fp], buckets: &mut [u32]) {
        let rows = self.hashes.len();
        assert_eq!(pows.len(), keys.len(), "plan_into pows length mismatch");
        assert_eq!(
            buckets.len(),
            keys.len() * rows,
            "plan_into buckets length mismatch"
        );
        let max = keys.iter().copied().max().unwrap_or(0);
        debug_assert!(keys.iter().all(|&k| k < self.dimension));
        let pow_timer = self.metrics.kernel_pow_ns.start_timer();
        let table = self.fper.power_table(max);
        for (p, &k) in pows.iter_mut().zip(keys) {
            *p = table.pow(k);
        }
        pow_timer.observe();
        let bucket_timer = self.metrics.kernel_bucket_ns.start_timer();
        let mut scratch = vec![0usize; keys.len()];
        for (r, h) in self.hashes.iter().enumerate() {
            h.bucket_batch(keys, self.cols, &mut scratch);
            for (i, &b) in scratch.iter().enumerate() {
                buckets[i * rows + r] = b as u32;
            }
        }
        bucket_timer.observe();
    }

    /// Applies one planned update: `d` is the embedded delta, `sd` the
    /// precomputed `delta * index`, `term` the fingerprint contribution
    /// `delta * z^index`, and `row_buckets` the per-row cell columns from
    /// [`plan_into`](Self::plan_into). Exactly equivalent to
    /// [`update`](Self::update) on the same `(index, delta)`.
    #[inline]
    pub fn apply_soa(&mut self, d: Fp, sd: Fp, term: Fp, row_buckets: &[u32]) {
        debug_assert_eq!(row_buckets.len(), self.hashes.len());
        for (r, &c) in row_buckets.iter().enumerate() {
            let cell = r * self.cols + c as usize;
            self.w[cell] += d;
            self.s[cell] += sd;
            self.f[cell] += term;
        }
    }

    fn check_compatible(&self, rhs: &SparseRecovery) -> SketchResult<()> {
        if self.w.len() != rhs.w.len() || self.dimension != rhs.dimension {
            return Err(SketchError::invalid(format!(
                "sketch shape mismatch: {} vs {} cells, dimension {} vs {}",
                self.w.len(),
                rhs.w.len(),
                self.dimension,
                rhs.dimension
            )));
        }
        Ok(())
    }

    /// Cell-wise sum with a same-seeded structure.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn add_assign_sketch(&mut self, rhs: &SparseRecovery) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        Fp::add_batch(&mut self.w, &rhs.w);
        Fp::add_batch(&mut self.s, &rhs.s);
        Fp::add_batch(&mut self.f, &rhs.f);
        Ok(())
    }

    /// Cell-wise difference with a same-seeded structure.
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn sub_assign_sketch(&mut self, rhs: &SparseRecovery) -> SketchResult<()> {
        self.check_compatible(rhs)?;
        Fp::sub_batch(&mut self.w, &rhs.w);
        Fp::sub_batch(&mut self.s, &rhs.s);
        Fp::sub_batch(&mut self.f, &rhs.f);
        Ok(())
    }

    /// Flat length of this structure's linear state: the three `rows x
    /// cols` tables laid out `[W | S | F]`. This is the unit of transfer
    /// for the borrowed-state decode path ([`copy_state_into`]
    /// (Self::copy_state_into) / [`accumulate_state`]
    /// (Self::accumulate_state) / [`decode_state`](Self::decode_state)).
    pub fn state_len(&self) -> usize {
        3 * self.w.len()
    }

    /// Copies the linear state into `dst` in `[W | S | F]` order.
    ///
    /// # Panics
    /// Panics if `dst.len() != self.state_len()`.
    pub fn copy_state_into(&self, dst: &mut [Fp]) {
        let n = self.w.len();
        assert_eq!(dst.len(), 3 * n, "copy_state_into length mismatch");
        dst[..n].copy_from_slice(&self.w);
        dst[n..2 * n].copy_from_slice(&self.s);
        dst[2 * n..].copy_from_slice(&self.f);
    }

    /// Adds the linear state into lazy `u128` accumulators (same `[W | S
    /// | F]` layout) via [`Fp::accumulate_batch`]; reduce once with
    /// [`Fp::reduce_batch`] when the component sum is complete.
    ///
    /// # Panics
    /// Panics if `acc.len() != self.state_len()`.
    pub fn accumulate_state(&self, acc: &mut [u128]) {
        let n = self.w.len();
        assert_eq!(acc.len(), 3 * n, "accumulate_state length mismatch");
        Fp::accumulate_batch(&mut acc[..n], &self.w);
        Fp::accumulate_batch(&mut acc[n..2 * n], &self.s);
        Fp::accumulate_batch(&mut acc[2 * n..], &self.f);
    }

    /// True iff every cell is zero (the net vector hashes to nothing).
    pub fn is_zero(&self) -> bool {
        self.w.iter().all(|x| x.is_zero())
            && self.s.iter().all(|x| x.is_zero())
            && self.f.iter().all(|x| x.is_zero())
    }

    /// The cell at flat position `i`, reassembled from the level tables.
    #[inline]
    fn cell(&self, i: usize) -> OneSparse {
        OneSparse::from_parts(self.w[i], self.s[i], self.f[i])
    }

    /// Attempts exact support recovery by peeling. Returns `Some(support)`
    /// — pairs `(index, net_weight)` sorted by index — iff peeling drains
    /// every cell; `None` means the vector (almost surely) has more than
    /// `s` nonzeros or the hashing was unlucky.
    pub fn decode(&self) -> Option<Vec<(u64, i64)>> {
        let mut scratch = PeelScratch::default();
        if self.decode_into(&mut scratch) {
            Some(std::mem::take(&mut scratch.recovered))
        } else {
            None
        }
    }

    /// Peels this structure's own cells into a reusable scratch — the
    /// allocation-free equivalent of [`decode`](Self::decode). On success
    /// returns `true` with the sorted support left in `scratch.recovered`.
    pub fn decode_into(&self, scratch: &mut PeelScratch) -> bool {
        scratch.work.clear();
        scratch.work.extend((0..self.w.len()).map(|i| self.cell(i)));
        self.peel(scratch)
    }

    /// Peels borrowed `[W | S | F]` state — e.g. a component sum living in
    /// a decode arena — using this structure's hashes and fingerprinter as
    /// the seed template. Valid only for state accumulated from structures
    /// compatible with `self` (same seeds and shape); the caller owns that
    /// check. On success returns `true` with the sorted support left in
    /// `scratch.recovered`; classification decisions are identical to
    /// [`decode`](Self::decode) on a structure holding the same state, and
    /// a reused `scratch` makes the call allocation-free in steady state.
    ///
    /// # Panics
    /// Panics if `state.len() != self.state_len()`.
    pub fn decode_state(&self, state: &[Fp], scratch: &mut PeelScratch) -> bool {
        let n = self.w.len();
        assert_eq!(state.len(), 3 * n, "decode_state length mismatch");
        scratch.work.clear();
        scratch.work.extend(
            (0..n).map(|i| OneSparse::from_parts(state[i], state[n + i], state[2 * n + i])),
        );
        self.peel(scratch)
    }

    /// The historical peeling loop, kept verbatim as the sequential
    /// baseline the optimized decode paths are benchmarked against (E19)
    /// and tested equivalent to: a fresh `Vec<OneSparse>` per call, and a
    /// Fermat inversion (`Fp::inv`, a ~61-step exponentiation) per nonzero
    /// cell per pass via [`OneSparse::decode`], where [`peel`](Self::peel)
    /// batches the pass's inversions. Inverses in a field are unique and
    /// the first-verifying-cell choice rule is the same, so the recovered
    /// support is bit-identical to [`decode`](Self::decode).
    pub fn decode_legacy(&self) -> Option<Vec<(u64, i64)>> {
        self.metrics.decode_attempts.inc();
        let mut work: Vec<OneSparse> = (0..self.w.len()).map(|i| self.cell(i)).collect();
        let mut recovered: Vec<(u64, i64)> = Vec::new();
        // Each peel removes one coordinate; s+1 coordinates can never drain.
        let max_peels = self.sparsity * 2 + 2;
        loop {
            if work.iter().all(|c| c.is_zero()) {
                recovered.sort_unstable();
                self.metrics.decode_successes.inc();
                return Some(recovered);
            }
            if recovered.len() >= max_peels {
                self.metrics.decode_failures.inc();
                return None;
            }
            let mut progress = false;
            for i in 0..work.len() {
                if let OneSparseDecode::One { index, weight } =
                    work[i].decode(&self.fper, self.dimension)
                {
                    // Subtract the item from every row.
                    let mut unit = OneSparse::new();
                    unit.update(index, weight, &self.fper);
                    for (r, h) in self.hashes.iter().enumerate() {
                        let c = h.bucket(index, self.cols);
                        work[r * self.cols + c].sub_assign(&unit);
                    }
                    recovered.push((index, weight));
                    progress = true;
                    break;
                }
            }
            if !progress {
                // Peeling stalled: every nonzero cell failed one-sparse
                // verification. Count those rejects (cold path only — the
                // scan never runs on successful decodes).
                if self.metrics.one_sparse_rejects.is_live() {
                    let rejects = work
                        .iter()
                        .filter(|c| {
                            matches!(
                                c.decode(&self.fper, self.dimension),
                                OneSparseDecode::Collision
                            )
                        })
                        .count();
                    self.metrics.one_sparse_rejects.add(rejects as u64);
                }
                self.metrics.decode_failures.inc();
                return None;
            }
        }
    }

    /// The shared peeling core: drains `scratch.work`, leaving the sorted
    /// support in `scratch.recovered` on success.
    ///
    /// The historical loop re-examined every cell on every pass: a Fermat
    /// inversion per nonzero cell scanned, a `z^index` exponentiation per
    /// verification and another per subtracted unit, all repeated from
    /// scratch each pass. This core removes each of those costs without
    /// changing a single classification decision:
    ///
    /// * **Batched inverses** — every candidate `W` is inverted once up
    ///   front with one Montgomery batch inversion ([`Fp::inv_batch`]) and
    ///   cached per cell; after a subtraction only the `rows` touched
    ///   cells are re-inverted (another tiny batch).
    /// * **Lazy, cached classification** — cells are still scanned in
    ///   order and the pass still takes the *first* cell that verifies
    ///   (the historical choice rule), but a cell examined once keeps its
    ///   verdict until a subtraction touches it, so later passes skip
    ///   straight over known collisions, and cells past the chosen one
    ///   are never examined at all — no eager verification pows.
    /// * **No unit exponentiation** — a cell that verifies as one-sparse
    ///   holds *exactly* the unit vector's state: `W = weight`,
    ///   `S = weight * index`, and `F = weight * z^index` (that equality
    ///   is what verification checked), so the unit to subtract is the
    ///   cell itself, and the historical `z^index` reconstruction is pure
    ///   overhead.
    ///
    /// Classification is a pure function of a cell's current `(W, S, F)`
    /// state and field inverses are unique, so the decoded support is
    /// bit-identical to [`decode_legacy`](Self::decode_legacy).
    fn peel(&self, scratch: &mut PeelScratch) -> bool {
        self.metrics.decode_attempts.inc();
        scratch.recovered.clear();
        // Each peel removes one coordinate; s+1 coordinates can never drain.
        let max_peels = self.sparsity * 2 + 2;
        let ncells = scratch.work.len();
        scratch.cls.clear();
        scratch.cls.resize(ncells, Cls::Unknown);
        scratch.cell_winv.clear();
        scratch.cell_winv.resize(ncells, Fp::ZERO);
        // Candidates are nonzero cells with nonzero total weight (a zero-W
        // nonzero cell is a collision by definition, as in
        // `OneSparse::decode`); their inverses are batched here and kept
        // fresh per cell thereafter.
        let mut nonzero = 0usize;
        scratch.cand.clear();
        scratch.winv.clear();
        for (i, c) in scratch.work.iter().enumerate() {
            if c.is_zero() {
                scratch.cls[i] = Cls::NotOne;
                continue;
            }
            nonzero += 1;
            if c.parts().0.is_zero() {
                scratch.cls[i] = Cls::NotOne;
            } else {
                scratch.cand.push(i as u32);
                scratch.winv.push(c.parts().0);
            }
        }
        Fp::inv_batch(&mut scratch.winv, &mut scratch.prefix);
        for (k, &i) in scratch.cand.iter().enumerate() {
            scratch.cell_winv[i as usize] = scratch.winv[k];
        }
        loop {
            if nonzero == 0 {
                scratch.recovered.sort_unstable();
                self.metrics.decode_successes.inc();
                return true;
            }
            if scratch.recovered.len() >= max_peels {
                self.metrics.decode_failures.inc();
                return false;
            }
            // First cell in order that verifies as one-sparse, resolving
            // cached-unknown cells on demand.
            let mut found = None;
            for i in 0..ncells {
                match scratch.cls[i] {
                    Cls::NotOne => {}
                    Cls::Unknown => match self.classify(&scratch.work[i], scratch.cell_winv[i]) {
                        Some((index, weight)) => {
                            found = Some((i, index, weight));
                            break;
                        }
                        None => scratch.cls[i] = Cls::NotOne,
                    },
                }
            }
            let Some((ci, index, weight)) = found else {
                // Peeling stalled: every nonzero cell failed one-sparse
                // verification, so each is a reject (cold path only — the
                // count never runs on successful decodes).
                if self.metrics.one_sparse_rejects.is_live() {
                    self.metrics.one_sparse_rejects.add(nonzero as u64);
                }
                self.metrics.decode_failures.inc();
                return false;
            };
            // The verified cell's state is the unit vector's state, so it
            // doubles as the value to subtract from every row (including
            // itself, which it zeroes). Only the touched cells can have
            // changed, so only they are re-inverted and re-examined.
            let unit = scratch.work[ci];
            scratch.cand.clear();
            scratch.winv.clear();
            for (r, h) in self.hashes.iter().enumerate() {
                let i = r * self.cols + h.bucket(index, self.cols);
                let was_zero = scratch.work[i].is_zero();
                scratch.work[i].sub_assign(&unit);
                let cell = &scratch.work[i];
                match (was_zero, cell.is_zero()) {
                    (false, true) => nonzero -= 1,
                    (true, false) => nonzero += 1,
                    _ => {}
                }
                if cell.is_zero() || cell.parts().0.is_zero() {
                    scratch.cls[i] = Cls::NotOne;
                } else {
                    scratch.cls[i] = Cls::Unknown;
                    scratch.cand.push(i as u32);
                    scratch.winv.push(cell.parts().0);
                }
            }
            Fp::inv_batch(&mut scratch.winv, &mut scratch.prefix);
            for (k, &i) in scratch.cand.iter().enumerate() {
                scratch.cell_winv[i as usize] = scratch.winv[k];
            }
            scratch.recovered.push((index, weight));
        }
    }

    /// Classifies one cell given the precomputed inverse of its total
    /// weight: `Some((index, weight))` iff the cell verifies as one-sparse
    /// — exactly the `One` arm of [`OneSparse::decode`]. The caller
    /// guarantees the cell is nonzero with nonzero `W`.
    #[inline]
    fn classify(&self, cell: &OneSparse, winv: Fp) -> Option<(u64, i64)> {
        let (w, s, f) = cell.parts();
        let index = s.mul(winv).value();
        if index >= self.dimension || self.fper.expected(index, w) != f {
            return None; // collision
        }
        Some((index, w.to_i64()))
    }

    /// Memory footprint in bytes (cells + hash coefficients + fingerprint).
    pub fn size_bytes(&self) -> usize {
        self.w.len() * OneSparse::size_bytes()
            + self.hashes.iter().map(|h| h.size_bytes()).sum::<usize>()
            + self.fper.size_bytes()
    }

    /// Emits the pre-SoA array-of-cells layout — kept for compatibility
    /// tests and as a downgrade path for tooling that still reads the old
    /// format. New code should use [`Codec::encode`](dgs_field::Codec).
    pub fn encode_legacy(&self, w: &mut dgs_field::Writer) {
        use dgs_field::Codec;
        w.put_u64(self.dimension);
        w.put_usize(self.sparsity);
        self.fper.encode(w);
        self.hashes.to_vec().encode(w);
        let cells: Vec<OneSparse> = (0..self.w.len()).map(|i| self.cell(i)).collect();
        cells.encode(w);
    }

    /// True iff `other` was drawn with the same parameters: dimension,
    /// sparsity, fingerprint point and every row hash. Two such structures
    /// encode identical [`encode_params`](Self::encode_params) bytes.
    pub(crate) fn same_params(&self, other: &SparseRecovery) -> bool {
        self.dimension == other.dimension
            && self.sparsity == other.sparsity
            && self.fper.point() == other.fper.point()
            && self.hashes.len() == other.hashes.len()
            && self
                .hashes
                .iter()
                .zip(&other.hashes)
                .all(|(a, b)| a.coefficients() == b.coefficients())
    }

    /// Writes the parameter half of a v2 frame: dimension, sparsity,
    /// fingerprinter and row hashes.
    pub(crate) fn encode_params(&self, w: &mut dgs_field::Writer) {
        use dgs_field::Codec;
        w.put_u64(self.dimension);
        w.put_usize(self.sparsity);
        self.fper.encode(w);
        w.put_usize(self.hashes.len());
        for h in &self.hashes {
            h.encode(w);
        }
    }

    /// Writes the cell half of a v2 frame: the count of cells whose three
    /// values are not all zero, then each as `(u32 index, w, s, f)` in
    /// ascending index order.
    pub(crate) fn encode_cells(&self, w: &mut dgs_field::Writer) {
        let live = |i: usize| !(self.w[i].is_zero() && self.s[i].is_zero() && self.f[i].is_zero());
        let n = self.w.len();
        w.put_usize((0..n).filter(|&i| live(i)).count());
        for i in (0..n).filter(|&i| live(i)) {
            w.put_u32(i as u32);
            w.put_u64(self.w[i].value());
            w.put_u64(self.s[i].value());
            w.put_u64(self.f[i].value());
        }
    }

    /// Writes a whole v2 frame; `known_zero` skips the cell scan for a
    /// structure the caller knows holds zero state.
    pub(crate) fn encode_frame(&self, w: &mut dgs_field::Writer, known_zero: bool) {
        w.put_u64(SOA_SENTINEL);
        w.put_u64(SOA_V2);
        self.encode_params(w);
        if known_zero {
            debug_assert!(self.is_zero());
            w.put_usize(0);
        } else {
            self.encode_cells(w);
        }
    }

    /// Reads the parameter half of a v2 frame (see `encode_params`) into
    /// a structure with zero state. The table
    /// shape is validated, and capped at [`MAX_TABLE_CELLS`], before the
    /// tables are allocated.
    pub(crate) fn decode_params(
        r: &mut dgs_field::Reader<'_>,
    ) -> Result<SparseRecovery, dgs_field::CodecError> {
        let dimension = r.get_u64()?;
        let (sparsity, fper, hashes) = Self::decode_param_fields(r)?;
        Self::with_zero_tables(r, dimension, sparsity, fper, hashes)
    }

    /// Sparsity, fingerprinter and row hashes: the same bytes in every
    /// layout. The row count is bounded and the rows are read one by one,
    /// so a forged count allocates nothing up front.
    fn decode_param_fields(
        r: &mut dgs_field::Reader<'_>,
    ) -> Result<(usize, Fingerprinter, Vec<KWiseHash>), dgs_field::CodecError> {
        use dgs_field::Codec;
        let sparsity = r.get_len(1 << 30)?.max(1);
        let fper = Fingerprinter::decode(r)?;
        let rows = r.get_len(MAX_TABLE_CELLS)?;
        let hashes = (0..rows)
            .map(|_| KWiseHash::decode(r))
            .collect::<Result<_, _>>()?;
        Ok((sparsity, fper, hashes))
    }

    /// Validates `rows x cols` against [`MAX_TABLE_CELLS`] and allocates
    /// zeroed tables.
    fn with_zero_tables(
        r: &dgs_field::Reader<'_>,
        dimension: u64,
        sparsity: usize,
        fper: Fingerprinter,
        hashes: Vec<KWiseHash>,
    ) -> Result<SparseRecovery, dgs_field::CodecError> {
        let cols = 2 * sparsity;
        let cells = hashes.len().saturating_mul(cols);
        if hashes.is_empty() || cells > MAX_TABLE_CELLS {
            return Err(r.fail(format!(
                "sparse-recovery table of {} rows x {cols} cols outside 1..={MAX_TABLE_CELLS} cells",
                hashes.len()
            )));
        }
        Ok(SparseRecovery {
            fper,
            hashes,
            w: vec![Fp::ZERO; cells],
            s: vec![Fp::ZERO; cells],
            f: vec![Fp::ZERO; cells],
            cols,
            sparsity,
            dimension,
            metrics: SparseMetrics::default(),
        })
    }

    /// Reads the cell half of a v2 frame (see `encode_cells`) into this
    /// structure, which must hold zero state (fresh from `decode_params`). Rejects
    /// indices past the table or out of ascending order, listed all-zero
    /// cells and non-canonical field values, so every accepted frame
    /// re-encodes to the same bytes.
    pub(crate) fn read_cells(
        &mut self,
        r: &mut dgs_field::Reader<'_>,
    ) -> Result<(), dgs_field::CodecError> {
        debug_assert!(self.is_zero(), "read_cells needs zero state");
        let n = self.w.len();
        let count = r.get_len(n)?;
        let mut next = 0usize;
        for _ in 0..count {
            let i = r.get_u32()? as usize;
            if i < next || i >= n {
                return Err(r.fail(format!(
                    "cell index {i} out of order or past the {n}-cell table"
                )));
            }
            next = i + 1;
            let mut parts = [Fp::ZERO; 3];
            for p in &mut parts {
                let v = r.get_u64()?;
                *p = Fp::new(v);
                if p.value() != v {
                    return Err(r.fail(format!("non-canonical field value {v}")));
                }
            }
            if parts.iter().all(|p| p.is_zero()) {
                return Err(r.fail(format!("listed cell {i} is zero")));
            }
            [self.w[i], self.s[i], self.f[i]] = parts;
        }
        Ok(())
    }
}

impl dgs_field::Codec for SparseRecovery {
    fn encode(&self, w: &mut dgs_field::Writer) {
        self.encode_frame(w, false);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let first = r.get_u64()?;
        if first != SOA_SENTINEL {
            // Legacy layout: the first word was the dimension itself.
            let (sparsity, fper, hashes) = Self::decode_param_fields(r)?;
            let cells: Vec<OneSparse> = Vec::decode(r)?;
            let mut out = Self::with_zero_tables(r, first, sparsity, fper, hashes)?;
            if cells.len() != out.w.len() {
                return Err(r.fail(format!(
                    "legacy frame carries {} cells for a {}-cell table",
                    cells.len(),
                    out.w.len()
                )));
            }
            for (i, c) in cells.iter().enumerate() {
                (out.w[i], out.s[i], out.f[i]) = c.parts();
            }
            return Ok(out);
        }
        match r.get_u64()? {
            SOA_V2 => {
                let mut out = Self::decode_params(r)?;
                out.read_cells(r)?;
                Ok(out)
            }
            SOA_V1 => {
                let dimension = r.get_u64()?;
                let (sparsity, fper, hashes) = Self::decode_param_fields(r)?;
                let mut out = Self::with_zero_tables(r, dimension, sparsity, fper, hashes)?;
                for table in [&mut out.w, &mut out.s, &mut out.f] {
                    let got: Vec<Fp> = Vec::decode(r)?;
                    if got.len() != table.len() {
                        return Err(r.fail(format!(
                            "v1 frame carries a {}-cell table, shape implies {}",
                            got.len(),
                            table.len()
                        )));
                    }
                    *table = got;
                }
                Ok(out)
            }
            version => Err(r.fail(format!(
                "unknown sparse-recovery encoding version {version}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_field::{Codec, Reader, Writer};

    const D: u64 = 1 << 30;

    fn sr(label: u64, s: usize) -> SparseRecovery {
        SparseRecovery::new(&SeedTree::new(9).child(label), D, s, 6)
    }

    #[test]
    fn empty_decodes_empty() {
        assert_eq!(sr(0, 4).decode(), Some(vec![]));
    }

    #[test]
    fn recovers_small_support_exactly() {
        let mut s = sr(1, 4);
        s.update(100, 1).unwrap();
        s.update(2000, -2).unwrap();
        s.update(30, 3).unwrap();
        assert_eq!(s.decode(), Some(vec![(30, 3), (100, 1), (2000, -2)]));
    }

    #[test]
    fn cancellation_invisible() {
        let mut s = sr(2, 4);
        s.update(5, 1).unwrap();
        s.update(5, -1).unwrap();
        s.update(77, 1).unwrap();
        assert!(!s.is_zero());
        assert_eq!(s.decode(), Some(vec![(77, 1)]));
    }

    #[test]
    fn overfull_returns_none_not_garbage() {
        let mut s = sr(3, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut truth = std::collections::BTreeSet::new();
        while truth.len() < 64 {
            truth.insert(rng.gen_range(0..D));
        }
        for &i in &truth {
            s.update(i, 1).unwrap();
        }
        // 64 nonzeros in a 4-sparse structure: peeling may recover a few
        // items before stalling, but must not claim full success.
        assert_eq!(s.decode(), None);
    }

    #[test]
    fn boundary_sparsity_succeeds_with_high_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut success = 0;
        let trials = 100;
        for t in 0..trials {
            let mut s = sr(100 + t, 8);
            let mut truth = std::collections::BTreeMap::new();
            while truth.len() < 8 {
                truth.insert(rng.gen_range(0..D), 1i64);
            }
            for (&i, &w) in &truth {
                s.update(i, w).unwrap();
            }
            if let Some(out) = s.decode() {
                assert_eq!(out, truth.into_iter().collect::<Vec<_>>(), "trial {t}");
                success += 1;
            }
        }
        assert!(
            success >= 95,
            "only {success}/{trials} full-sparsity decodes"
        );
    }

    #[test]
    fn linearity_subtraction_peels_known_edges() {
        // The Section 4.2.1 pattern: recover E_1 from B(G), then decode
        // B(G) - B(E_1) for the rest.
        let seeds = SeedTree::new(9).child(500);
        let mut total = SparseRecovery::new(&seeds, D, 4, 6);
        for i in [10u64, 20, 30, 40] {
            total.update(i, 1).unwrap();
        }
        let mut known = SparseRecovery::new(&seeds, D, 4, 6);
        known.update(10, 1).unwrap();
        known.update(20, 1).unwrap();
        let mut rest = total.clone();
        rest.sub_assign_sketch(&known).unwrap();
        assert_eq!(rest.decode(), Some(vec![(30, 1), (40, 1)]));
        // And adding back restores the original support.
        rest.add_assign_sketch(&known).unwrap();
        assert_eq!(
            rest.decode(),
            Some(vec![(10, 1), (20, 1), (30, 1), (40, 1)])
        );
    }

    #[test]
    fn mismatched_shapes_are_invalid_input() {
        let mut a = sr(7, 4);
        let b = sr(8, 5);
        let err = a.add_assign_sketch(&b).unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn size_accounting_scales_with_parameters() {
        let small = sr(9, 4);
        let big = sr(10, 16);
        assert!(big.size_bytes() > small.size_bytes());
        assert_eq!(
            small.size_bytes(),
            6 * 8 * OneSparse::size_bytes() + 6 * 16 + 8
        );
    }

    #[test]
    fn planned_apply_matches_scalar_update() {
        let mut scalar = sr(20, 4);
        let mut planned = sr(20, 4);
        let entries: Vec<(u64, i64)> = vec![(3, 1), (900, -2), (3, -1), (D - 1, 5), (0, 1)];
        for &(i, d) in &entries {
            scalar.update(i, d).unwrap();
        }
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let rows = planned.rows();
        let mut pows = vec![Fp::ZERO; keys.len()];
        let mut buckets = vec![0u32; keys.len() * rows];
        planned.plan_into(&keys, &mut pows, &mut buckets);
        for (i, &(key, delta)) in entries.iter().enumerate() {
            let d = Fp::from_i64(delta);
            planned.apply_soa(
                d,
                d.mul(Fp::new(key)),
                d.mul(pows[i]),
                &buckets[i * rows..(i + 1) * rows],
            );
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        scalar.encode(&mut wa);
        planned.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn versioned_codec_round_trips() {
        let mut s = sr(21, 4);
        for (i, d) in [(10u64, 1i64), (20, -3), (1 << 29, 7)] {
            s.update(i, d).unwrap();
        }
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let back = <SparseRecovery as Codec>::decode(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(back.decode(), s.decode());
    }

    #[test]
    fn legacy_codec_layout_still_decodes() {
        let mut s = sr(22, 4);
        for (i, d) in [(42u64, 2i64), (77, -1), (D - 5, 3)] {
            s.update(i, d).unwrap();
        }
        let mut legacy = Writer::new();
        s.encode_legacy(&mut legacy);
        let back =
            <SparseRecovery as Codec>::decode(&mut Reader::new(&legacy.into_bytes())).unwrap();
        // The decoded structure matches the original exactly: same support,
        // same re-encoded (new-format) bytes.
        assert_eq!(back.decode(), s.decode());
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        s.encode(&mut wa);
        back.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn v1_soa_frame_still_decodes_and_reencodes_as_v2() {
        let mut s = sr(23, 4);
        for (i, d) in [(42u64, 2i64), (77, -1), (D - 5, 3)] {
            s.update(i, d).unwrap();
        }
        // The documented v1 layout, assembled from primitives:
        // sentinel | 1 | dimension | sparsity | fingerprint point
        // | Vec<KWiseHash> | Vec<Fp> w | Vec<Fp> s | Vec<Fp> f.
        let mut v1 = Writer::new();
        v1.put_u64(u64::MAX);
        v1.put_u64(1);
        v1.put_u64(s.dimension);
        v1.put_usize(s.sparsity);
        v1.put_u64(s.fper.point().value());
        v1.put_usize(s.hashes.len());
        for h in &s.hashes {
            v1.put_usize(h.coefficients().len());
            for c in h.coefficients() {
                v1.put_u64(c.value());
            }
        }
        for table in [&s.w, &s.s, &s.f] {
            v1.put_usize(table.len());
            for x in table {
                v1.put_u64(x.value());
            }
        }
        let v1 = v1.into_bytes();
        let mut r = Reader::new(&v1);
        let back = <SparseRecovery as Codec>::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.decode(), s.decode());
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        s.encode(&mut wa);
        back.encode(&mut wb);
        let v2 = wb.into_bytes();
        assert_eq!(wa.into_bytes(), v2);
        assert_eq!(v2[8..16], SOA_V2.to_le_bytes());
        assert!(v2.len() < v1.len());
    }

    #[test]
    fn v2_cells_follow_support_and_reject_noncanonical_lists() {
        let encode = |s: &SparseRecovery| {
            let mut w = Writer::new();
            s.encode(&mut w);
            w.into_bytes()
        };
        let fresh = sr(24, 4);
        let mut s = fresh.clone();
        s.update(9, 1).unwrap();
        // One item lands in one cell per row: 6 listed cells of 28 bytes.
        assert_eq!(encode(&s).len(), encode(&fresh).len() + 6 * 28);
        s.update(9, -1).unwrap();
        assert_eq!(encode(&s), encode(&fresh));

        let cells_at = encode(&fresh).len() - 8;
        let forged = |cells: &[(u32, [u64; 3])]| {
            let mut bytes = encode(&fresh)[..cells_at].to_vec();
            bytes.extend_from_slice(&(cells.len() as u64).to_le_bytes());
            for (i, parts) in cells {
                bytes.extend_from_slice(&i.to_le_bytes());
                for p in parts {
                    bytes.extend_from_slice(&p.to_le_bytes());
                }
            }
            <SparseRecovery as Codec>::decode(&mut Reader::new(&bytes))
        };
        assert!(forged(&[(3, [1, 2, 3])]).is_ok());
        assert!(
            forged(&[(3, [1, 2, 3]), (2, [1, 2, 3])]).is_err(),
            "descending"
        );
        assert!(
            forged(&[(3, [1, 2, 3]), (3, [1, 2, 3])]).is_err(),
            "repeated"
        );
        assert!(forged(&[(48, [1, 2, 3])]).is_err(), "past the table");
        assert!(forged(&[(3, [0, 0, 0])]).is_err(), "zero cell");
        assert!(forged(&[(3, [u64::MAX, 0, 0])]).is_err(), "non-canonical");
    }
}
