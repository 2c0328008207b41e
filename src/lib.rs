//! # dynamic-graph-streams
//!
//! A production-quality Rust implementation of
//! **"Vertex and Hyperedge Connectivity in Dynamic Graph Streams"**
//! (Guha, McGregor, Tench — PODS 2015): linear sketches for vertex
//! connectivity, cut-degenerate graph reconstruction, and hypergraph
//! sparsification over streams of edge insertions *and deletions*, plus all
//! the substrates they stand on and the baselines they are measured
//! against.
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`field`] | `dgs-field` | Mersenne-61 arithmetic, k-wise hashing, fingerprints, seed trees |
//! | [`hypergraph`] | `dgs-hypergraph` | graph/hypergraph types, streams, generators, exact algorithms |
//! | [`sketch`] | `dgs-sketch` | one-sparse cells, s-sparse recovery, ℓ0-samplers |
//! | [`connectivity`] | `dgs-connectivity` | spanning-forest and k-skeleton sketches, player model |
//! | [`core`] | `dgs-core` | the paper's contributions (Thm 4/8/15/20) |
//! | [`baselines`] | `dgs-baselines` | Eppstein certificate, BK sparsifier, lower-bound protocols |
//!
//! ## Quickstart
//!
//! ```
//! use dynamic_graph_streams::prelude::*;
//!
//! // A dynamic stream: insert a triangle, delete one edge.
//! let n = 3;
//! let space = EdgeSpace::graph(n).unwrap();
//! let params = ForestParams::new(Profile::Practical, space.dimension());
//! let mut sketch = SpanningForestSketch::new_full(space, &SeedTree::new(42), params);
//! for (u, v) in [(0, 1), (1, 2), (0, 2)] {
//!     sketch.update(&HyperEdge::pair(u, v), 1);
//! }
//! sketch.update(&HyperEdge::pair(0, 2), -1);
//! assert!(sketch.is_connected());
//! ```
//!
//! See `examples/` for end-to-end scenarios and DESIGN.md / EXPERIMENTS.md
//! for the reproduction methodology.

pub use dgs_baselines as baselines;
pub use dgs_connectivity as connectivity;
pub use dgs_core as core;
pub use dgs_field as field;
pub use dgs_hypergraph as hypergraph;
pub use dgs_sketch as sketch;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use dgs_baselines::{benczur_karger_sparsifier, EppsteinCertificate, StoreAll};
    pub use dgs_connectivity::{
        assemble_players, assemble_players_strict, player_sketch, DecodeScratch, ForestParams,
        KSkeletonSketch, SpanningForestSketch,
    };
    pub use dgs_core::{
        BoostedQuery, BreakerConfig, BrownoutConfig, CheckpointConfig, CheckpointStore,
        CheckpointedIngestor, ConnectivityService, EnsembleOutcome, FrozenEnsemble, HybridConfig,
        HybridConnectivitySketch, HybridMode, HypergraphSparsifier, LightRecoverySketch, Overload,
        QueryBudget, QueryOutcome, QueryPolicy, QueryRequest, QueryResponse, Recoverable,
        Recovered, RecoveryDriver, RecoveryError, ServiceConfig, ServiceError, ShardState,
        ShardedIngestor, SparsifierConfig, SupervisedAnswer, SupervisedIngestor, SupervisorConfig,
        TokenBucketConfig, VertexConnConfig, VertexConnSketch,
    };
    pub use dgs_field::prng::{Rng, SeedableRng, SliceRandom, StdRng};
    pub use dgs_field::SeedTree;
    pub use dgs_hypergraph::{
        read_wal, Backoff, BackoffConfig, ChaosCampaign, ChaosEvent, ChaosFault, ChaosScheduler,
        EdgeSpace, FaultClass, FaultInjector, Graph, GraphError, HyperEdge, Hypergraph,
        LossyChannel, Op, Update, UpdateStream, WalConfig, WalError, WalReplay, WalWriter,
        WeightedHypergraph,
    };
    pub use dgs_sketch::{L0Params, L0Sampler, Profile, SketchError, SketchResult};
}

/// Linearity under threaded ingest: a stream split across worker threads,
/// each feeding its own same-seeded sketch, merges back to the serial
/// state. (The byte-level, every-family version of this law lives in
/// `tests/property_invariants.rs`.)
#[cfg(test)]
mod parallel {
    mod tests {
        use dgs_connectivity::{ForestParams, SpanningForestSketch};
        use dgs_core::{
            HypergraphSparsifier, SparsifierConfig, VertexConnConfig, VertexConnSketch,
        };
        use dgs_field::prng::*;
        use dgs_field::SeedTree;
        use dgs_hypergraph::generators::{churn_stream, gnp, ChurnConfig};
        use dgs_hypergraph::{EdgeSpace, Hypergraph, Update, UpdateStream};
        use dgs_sketch::Profile;

        /// Cuts `updates` into `threads` contiguous shards, ingests each on
        /// its own scoped thread into a fresh `build()`, and folds the
        /// partials with `merge`.
        fn sharded<S: Send>(
            updates: &[Update],
            threads: usize,
            build: impl Fn() -> S + Sync,
            apply: impl Fn(&mut S, &Update) + Sync,
            merge: impl Fn(&mut S, &S),
        ) -> S {
            let chunk = updates.len().div_ceil(threads).max(1);
            let partials: Vec<S> = std::thread::scope(|scope| {
                let handles: Vec<_> = updates
                    .chunks(chunk)
                    .map(|shard| {
                        let (build, apply) = (&build, &apply);
                        scope.spawn(move || {
                            let mut sk = build();
                            shard.iter().for_each(|u| apply(&mut sk, u));
                            sk
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            let mut acc = build();
            partials.iter().for_each(|p| merge(&mut acc, p));
            acc
        }

        fn churn(n: usize, p: f64, seed: u64) -> UpdateStream {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = Hypergraph::from_graph(&gnp(n, p, &mut rng));
            churn_stream(&h, ChurnConfig::default(), &mut rng)
        }

        #[test]
        fn sharded_forest_equals_serial() {
            let stream = churn(20, 0.3, 1);
            let space = EdgeSpace::graph(20).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let seeds = SeedTree::new(10);
            let build = || SpanningForestSketch::new_full(space.clone(), &seeds, params);
            let apply = |s: &mut SpanningForestSketch, u: &Update| s.update(&u.edge, u.op.delta());

            let mut serial = build();
            stream.updates.iter().for_each(|u| apply(&mut serial, u));
            for threads in [1usize, 2, 4, 7] {
                let par = sharded(&stream.updates, threads, build, apply, |a, b| {
                    a.add_assign_sketch(b)
                });
                assert_eq!(par.decode(), serial.decode(), "{threads} threads");
            }
        }

        #[test]
        fn sharded_vertex_conn_equals_serial() {
            let stream = churn(16, 0.4, 2);
            let space = EdgeSpace::graph(16).unwrap();
            let cfg = VertexConnConfig::query(2, 16, 1.5, Profile::Practical);
            let seeds = SeedTree::new(11);
            let build = || VertexConnSketch::new(space.clone(), cfg, &seeds);
            let apply = |s: &mut VertexConnSketch, u: &Update| s.update(&u.edge, u.op.delta());

            let mut serial = build();
            stream.updates.iter().for_each(|u| apply(&mut serial, u));
            let par = sharded(&stream.updates, 3, build, apply, |a, b| {
                a.add_assign_sketch(b)
            });
            assert_eq!(
                par.certificate().union.edges(),
                serial.certificate().union.edges()
            );
        }

        #[test]
        fn sharded_sparsifier_equals_serial() {
            let stream = churn(12, 0.5, 3);
            let space = EdgeSpace::graph(12).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let cfg = SparsifierConfig::explicit(3, 6, params);
            let seeds = SeedTree::new(12);
            let build = || HypergraphSparsifier::new(space.clone(), cfg, &seeds);
            let apply = |s: &mut HypergraphSparsifier, u: &Update| s.update(&u.edge, u.op.delta());

            let mut serial = build();
            stream.updates.iter().for_each(|u| apply(&mut serial, u));
            let par = sharded(&stream.updates, 4, build, apply, |a, b| {
                a.add_assign_sketch(b)
            });
            let (a, b) = (serial.decode(), par.decode());
            assert_eq!(a.per_level, b.per_level);
            let ea: Vec<_> = a.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
            let eb: Vec<_> = b.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
            assert_eq!(ea, eb);
        }

        #[test]
        fn empty_stream_is_fine() {
            let space = EdgeSpace::graph(5).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let seeds = SeedTree::new(13);
            let sk = sharded(
                &[],
                4,
                || SpanningForestSketch::new_full(space.clone(), &seeds, params),
                |s, u| s.update(&u.edge, u.op.delta()),
                |a, b| a.add_assign_sketch(b),
            );
            assert!(sk.decode().is_empty());
        }
    }
}
