//! Shared workload builders, sketch builders, soak set-up and ground truth
//! for the experiments.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dgs_connectivity::{ForestParams, SpanningForestSketch};
use dgs_field::prng::{Rng, SeedableRng, StdRng};
use dgs_field::{Codec, SeedTree, Writer};
use dgs_hypergraph::algo::UnionFind;
use dgs_hypergraph::generators::{churn_stream, gnm, gnp, ChurnConfig};
use dgs_hypergraph::{EdgeSpace, HyperEdge, Hypergraph, Op, Update, UpdateStream};
use dgs_sketch::{L0Params, Profile};

/// Lean ℓ0 parameters used across the experiment suite: small enough that a
/// full `experiments all` run fits comfortably in memory, large enough that
/// decode failures stay rare (the E-tables report the realized rates).
pub fn lean_l0() -> L0Params {
    L0Params {
        sparsity: 4,
        rows: 4,
        level_independence: 8,
    }
}

/// Lean forest-sketch parameters (see [`lean_l0`]).
pub fn lean_forest() -> ForestParams {
    ForestParams {
        l0: lean_l0(),
        extra_rounds: 2,
    }
}

/// The default dynamic workload: a churn stream with 50% noise edges and
/// 25% delete/re-insert cycles — every experiment exercises deletions.
pub fn default_stream<R: Rng>(h: &Hypergraph, rng: &mut R) -> UpdateStream {
    churn_stream(h, ChurnConfig::default(), rng)
}

/// A heavier churn workload for stress rows.
pub fn heavy_stream<R: Rng>(h: &Hypergraph, rng: &mut R) -> UpdateStream {
    churn_stream(
        h,
        ChurnConfig {
            noise_ratio: 1.0,
            churn_ratio: 0.5,
        },
        rng,
    )
}

/// The default churn stream over a seeded `gnm(n, m)` graph (one RNG
/// drives both, graph first).
pub fn gnm_churn(n: usize, m: usize, seed: u64) -> UpdateStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnm(n, m, &mut rng));
    default_stream(&h, &mut rng)
}

/// `stream`'s updates, repeated whole until there are at least `at_least`
/// of them (the sketches are linear, so tiling only scales multiplicities).
pub fn tiled_updates(stream: &UpdateStream, at_least: usize) -> Vec<Update> {
    let mut updates = Vec::with_capacity(at_least + stream.len());
    while updates.len() < at_least {
        updates.extend(stream.updates.iter().cloned());
    }
    updates
}

/// A lean full-vertex forest sketch over `graph(n)`.
pub fn lean_forest_sketch(n: usize, seed: u64) -> SpanningForestSketch {
    let space = EdgeSpace::graph(n).expect("edge space");
    SpanningForestSketch::new_full(space, &SeedTree::new(seed), lean_forest())
}

/// Builder for the soaks' boosted repetitions: repetition `i` is a
/// `Profile::Practical` forest over `graph(n)` seeded from child `i`.
pub fn practical_forests(
    n: usize,
    seed: u64,
) -> impl Fn(usize) -> SpanningForestSketch + Send + Sync + Copy {
    move |i| {
        let space = EdgeSpace::graph(n).expect("edge space");
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(seed).child(i as u64), params)
    }
}

/// Canonical encoding of a sketch, for byte-identity checks.
pub fn encoded<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

/// The soaks' shared workload: a heavy churn stream over a seeded
/// `gnp(n, 0.25)` graph, replayed `cycles` times with every odd cycle
/// unwound (reverse order, flipped ops) so multiplicities return to zero
/// between passes.
pub fn soak_updates(n: usize, seed: u64, cycles: usize) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Hypergraph::from_graph(&gnp(n, 0.25, &mut rng));
    let base = heavy_stream(&h, &mut rng);
    let mut updates = Vec::with_capacity(base.updates.len() * cycles);
    for cycle in 0..cycles {
        if cycle % 2 == 0 {
            updates.extend(base.updates.iter().cloned());
        } else {
            updates.extend(base.updates.iter().rev().map(|u| match u.op {
                Op::Insert => Update::delete(u.edge.clone()),
                Op::Delete => Update::insert(u.edge.clone()),
            }));
        }
    }
    updates
}

/// A per-process scratch directory under the system temp dir, emptied on
/// creation and removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("dgs-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Exact ground truth for a soak: the live edge multiset of an applied
/// prefix.
#[derive(Default)]
pub struct LiveEdges(BTreeMap<HyperEdge, i64>);

impl LiveEdges {
    pub fn apply(&mut self, u: &Update) {
        *self.0.entry(u.edge.clone()).or_insert(0) += u.op.delta();
    }

    /// Exact component count over `n` vertices: union-find over the live
    /// edges (a hyperedge merges all its vertices).
    pub fn components(&self, n: usize) -> usize {
        let mut uf = UnionFind::new(n);
        for (e, _) in self.0.iter().filter(|(_, &mult)| mult > 0) {
            for w in e.vertices().windows(2) {
                uf.union(w[0], w[1]);
            }
        }
        uf.component_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_hypergraph::algo::components::hyper_component_count;

    #[test]
    fn streams_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = Hypergraph::from_graph(&gnp(12, 0.3, &mut rng));
        for s in [default_stream(&h, &mut rng), heavy_stream(&h, &mut rng)] {
            let h2 = s.final_hypergraph().expect("valid stream");
            assert_eq!(h2.edge_count(), h.edge_count());
        }
    }

    #[test]
    fn soak_cycles_cancel_to_zero_and_live_edges_track_them() {
        let updates = soak_updates(12, 3, 2);
        let mut live = LiveEdges::default();
        for u in &updates[..updates.len() / 2] {
            live.apply(u);
        }
        let h = Hypergraph::from_graph(&gnp(12, 0.25, &mut StdRng::seed_from_u64(3)));
        assert_eq!(live.components(12), hyper_component_count(&h));
        for u in &updates[updates.len() / 2..] {
            live.apply(u);
        }
        assert_eq!(live.components(12), 12);
    }

    #[test]
    fn lean_params_are_smaller_than_practical() {
        use dgs_sketch::Profile;
        let practical = L0Params::for_dimension(1 << 20, Profile::Practical);
        let lean = lean_l0();
        assert!(lean.sparsity <= practical.sparsity);
        assert!(lean.rows <= practical.rows);
    }
}
