//! Checkpoint/restore: sketch state round-trips through the binary codec
//! with *behavioral* equality — a restored sketch decodes identically and
//! keeps accepting updates.

use dynamic_graph_streams::core::LightRecoverySketch;
use dynamic_graph_streams::field::{Codec, Reader, Writer};
use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::generators;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation made on this thread since the last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording the largest allocation per thread so a
/// test can show a forged frame is rejected before its claimed size is
/// ever allocated.
struct RecordingAlloc;

impl RecordingAlloc {
    fn record(size: usize) {
        let _ = LARGEST_ALLOC.try_with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every call forwards to `System` unchanged; the recording touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: RecordingAlloc = RecordingAlloc;

/// Runs `f` and returns its result with the largest allocation it made on
/// this thread.
fn largest_alloc_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST_ALLOC.with(|l| l.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(|l| l.get()))
}

fn encoded<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

fn round_trip<T: Codec>(value: &T) -> T {
    let mut w = Writer::new();
    value.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let out = T::decode(&mut r).expect("decode");
    r.expect_end().expect("no trailing bytes");
    out
}

#[test]
fn l0_sampler_checkpoint_restores_behavior() {
    let params = L0Params {
        sparsity: 4,
        rows: 4,
        level_independence: 8,
    };
    let mut s = L0Sampler::new(&SeedTree::new(1), 1 << 20, params);
    for i in [5u64, 900, 77_000] {
        s.update(i, 1).unwrap();
    }
    let mut restored = round_trip(&s);
    assert_eq!(s.sample(), restored.sample());
    // The restored sampler keeps working: delete everything, then it reads
    // zero — requires the hashes to have survived the trip exactly.
    for i in [5u64, 900, 77_000] {
        restored.update(i, -1).unwrap();
    }
    assert!(restored.is_zero());
    assert_eq!(restored.sample(), Ok(None));
}

#[test]
fn forest_sketch_checkpoint_mid_stream() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 16;
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.3, &mut rng));
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(3), params);

    // Process half the stream, checkpoint, restore, process the rest.
    let half = stream.len() / 2;
    for u in &stream.updates[..half] {
        sk.update(&u.edge, u.op.delta());
    }
    let mut restored = round_trip(&sk);
    for u in &stream.updates[half..] {
        sk.update(&u.edge, u.op.delta());
        restored.update(&u.edge, u.op.delta());
    }
    assert_eq!(sk.decode(), restored.decode());
    assert_eq!(
        restored.decode_with_labels().1.component_count(),
        dgs_hypergraph::algo::hyper_component_count(&h)
    );
}

#[test]
fn skeleton_and_light_recovery_round_trip() {
    let g = generators::lemma10_gadget();
    let h = Hypergraph::from_graph(&g);
    let space = EdgeSpace::graph(g.n()).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut skel = KSkeletonSketch::new(space.clone(), 3, &SeedTree::new(4), params);
    let mut light = LightRecoverySketch::new(space, 2, &SeedTree::new(5), params);
    for e in h.edges() {
        skel.update(e, 1);
        light.update(e, 1);
    }
    let skel2 = round_trip(&skel);
    assert_eq!(skel.decode(), skel2.decode());
    assert_eq!(skel.k(), skel2.k());

    let light2 = round_trip(&light);
    let (a, b) = (light.recover(), light2.recover());
    assert_eq!(a.complete, b.complete);
    assert_eq!(a.edges(), b.edges());
    assert_eq!(
        light2.reconstruct().map(|r| r.edge_count()),
        Some(h.edge_count())
    );
}

#[test]
fn vertex_conn_and_sparsifier_round_trip() {
    use dynamic_graph_streams::core::HypergraphSparsifier;
    let mut rng = StdRng::seed_from_u64(9);
    let g = generators::planted_separator(5, 5, 2);
    let h = Hypergraph::from_graph(&g);
    let space = EdgeSpace::graph(g.n()).unwrap();

    let cfg = VertexConnConfig::query(2, g.n(), 2.0, Profile::Practical);
    let mut vc = VertexConnSketch::new(space.clone(), cfg, &SeedTree::new(10));
    for e in h.edges() {
        vc.update(e, 1);
    }
    let mut vc2 = round_trip(&vc);
    assert_eq!(
        vc.certificate().union.edges(),
        vc2.certificate().union.edges()
    );
    // The restored structure keeps accepting updates (membership rebuilt).
    vc2.update(&HyperEdge::pair(0, 1), -1);
    vc2.update(&HyperEdge::pair(0, 1), 1);
    assert!(vc2.certificate().disconnects(&[5, 6]));

    let hh = generators::random_uniform_hypergraph(10, 3, 18, &mut rng);
    let hspace = EdgeSpace::new(10, 3).unwrap();
    let scfg = SparsifierConfig::explicit(
        3,
        6,
        ForestParams::new(Profile::Practical, hspace.dimension()),
    );
    let mut sp = HypergraphSparsifier::new(hspace, scfg, &SeedTree::new(11));
    for e in hh.edges() {
        sp.update(e, 1);
    }
    let sp2 = round_trip(&sp);
    let (a, b) = (sp.decode(), sp2.decode());
    assert_eq!(a.per_level, b.per_level);
    let ea: Vec<_> = a.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    let eb: Vec<_> = b.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    assert_eq!(ea, eb);
}

#[test]
fn corrupted_checkpoints_fail_cleanly() {
    let space = EdgeSpace::graph(8).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let sk = SpanningForestSketch::new_full(space, &SeedTree::new(6), params);
    let mut w = Writer::new();
    sk.encode(&mut w);
    let bytes = w.into_bytes();
    // Truncations at various points must error, never panic.
    for cut in [0usize, 1, 8, 17, bytes.len() / 2, bytes.len() - 1] {
        let mut r = Reader::new(&bytes[..cut]);
        assert!(
            <SpanningForestSketch as Codec>::decode(&mut r).is_err(),
            "cut at {cut} decoded"
        );
    }
    // Trailing garbage is caught by expect_end.
    let mut extended = bytes.clone();
    extended.push(0xFF);
    let mut r = Reader::new(&extended);
    let _ = <SpanningForestSketch as Codec>::decode(&mut r).unwrap();
    assert!(r.expect_end().is_err());
}

/// Adversarial decoding (the byte-level fault model): every truncation of a
/// valid encoding must be rejected by `decode` + `expect_end`, and every
/// bit-flipped encoding must either be rejected with a typed `CodecError`
/// or decode into *some* value — never panic. Truncation and bit positions
/// are exhaustive for small encodings and evenly sampled for large ones.
fn assert_decode_rejects_corruption<T: Codec>(value: &T, label: &str) {
    use dgs_hypergraph::fault::{truncated, with_bit_flipped};

    let mut w = Writer::new();
    value.encode(&mut w);
    let bytes = w.into_bytes();
    assert!(!bytes.is_empty(), "{label}: empty encoding");

    let cut_step = (bytes.len() / 128).max(1);
    for cut in (0..bytes.len()).step_by(cut_step) {
        let cutb = truncated(&bytes, cut);
        let mut r = Reader::new(&cutb);
        let res = T::decode(&mut r).map(|_| ()).and_then(|()| r.expect_end());
        assert!(res.is_err(), "{label}: truncation to {cut} bytes accepted");
    }

    let total_bits = bytes.len() * 8;
    let bit_step = (total_bits / 512).max(1);
    for bit in (0..total_bits).step_by(bit_step) {
        let bad = with_bit_flipped(&bytes, bit);
        let mut r = Reader::new(&bad);
        // Either a typed rejection or a clean decode of a different value;
        // a panic here fails the test. (A single flipped payload bit can
        // yield another valid encoding — that is what checksummed framing
        // in `dgs_hypergraph::fault` is for.)
        let _ = T::decode(&mut r);
    }
}

#[test]
fn adversarial_bytes_never_panic_any_codec() {
    use dynamic_graph_streams::core::{HypergraphSparsifier, SparsifierConfig};
    use dynamic_graph_streams::field::{Fingerprinter, KWiseHash, UniformHash};
    use dynamic_graph_streams::sketch::{OneSparse, SparseRecovery};

    let seeds = SeedTree::new(99);
    let tiny = L0Params {
        sparsity: 2,
        rows: 2,
        level_independence: 2,
    };

    assert_decode_rejects_corruption(&42u64, "u64");
    assert_decode_rejects_corruption(&KWiseHash::new(&seeds, 4), "KWiseHash");
    assert_decode_rejects_corruption(&UniformHash::new(&seeds, 8), "UniformHash");
    assert_decode_rejects_corruption(&Fingerprinter::new(&seeds.child(1)), "Fingerprinter");
    assert_decode_rejects_corruption(&tiny, "L0Params");

    let fper = Fingerprinter::new(&seeds.child(2));
    let mut cell = OneSparse::new();
    cell.update(17, 3, &fper);
    assert_decode_rejects_corruption(&cell, "OneSparse");

    let mut rec = SparseRecovery::new(&seeds.child(3), 1 << 12, 2, 2);
    for i in [3u64, 900] {
        rec.update(i, 1).unwrap();
    }
    assert_decode_rejects_corruption(&rec, "SparseRecovery");

    let mut l0 = L0Sampler::new(&seeds.child(4), 1 << 12, tiny);
    for i in [5u64, 77, 4001] {
        l0.update(i, 1).unwrap();
    }
    assert_decode_rejects_corruption(&l0, "L0Sampler");

    // Structure-level codecs, kept tiny so exhaustive-ish corruption stays
    // fast: a 6-vertex graph space with starved parameters.
    let space = EdgeSpace::graph(6).unwrap();
    let params = ForestParams {
        l0: tiny,
        extra_rounds: 0,
    };
    assert_decode_rejects_corruption(&params, "ForestParams");

    let mut forest = SpanningForestSketch::new_full(space.clone(), &seeds.child(5), params);
    forest.update(&HyperEdge::pair(0, 1), 1);
    assert_decode_rejects_corruption(&forest, "SpanningForestSketch");

    // A forest whose vertex 2 was assembled from a compatible message drawn
    // with another level hash: its samplers are written with inline
    // parameters, every other vertex's with the round's shared block.
    let other = ForestParams {
        l0: L0Params {
            level_independence: 3,
            ..tiny
        },
        ..params
    };
    let foreign = SpanningForestSketch::new_full(space.clone(), &seeds.child(5), other);
    let mut mixed = forest.clone();
    mixed.set_vertex_samplers(2, foreign.vertex_samplers(2));
    mixed.update(&HyperEdge::pair(2, 3), 1);
    assert_decode_rejects_corruption(&mixed, "SpanningForestSketch (shared + inline)");

    // A resident hybrid persists its exact buffer and a dormant all-zero
    // sketch: parameters without cells.
    let mut hybrid = HybridConnectivitySketch::new(
        SpanningForestSketch::new_full(space.clone(), &seeds.child(11), params),
        HybridConfig::default(),
    );
    hybrid.try_update(&HyperEdge::pair(1, 4), 1).unwrap();
    hybrid.try_update(&HyperEdge::pair(3, 5), 1).unwrap();
    assert!(hybrid.is_resident());
    assert_decode_rejects_corruption(&hybrid, "HybridConnectivitySketch (resident)");

    let mut skel = KSkeletonSketch::new(space.clone(), 2, &seeds.child(6), params);
    skel.update(&HyperEdge::pair(1, 2), 1);
    assert_decode_rejects_corruption(&skel, "KSkeletonSketch");

    let msg = player_sketch(&space, 0, &[HyperEdge::pair(0, 3)], &seeds.child(7), params);
    assert_decode_rejects_corruption(&msg, "PlayerMessage");

    let mut cfg = VertexConnConfig::query(2, 6, 1.0, Profile::Practical);
    cfg.forest = params;
    assert_decode_rejects_corruption(&cfg, "VertexConnConfig");
    let mut vc = VertexConnSketch::new(space.clone(), cfg, &seeds.child(8));
    vc.update(&HyperEdge::pair(2, 3), 1);
    assert_decode_rejects_corruption(&vc, "VertexConnSketch");

    let mut light = LightRecoverySketch::new(space.clone(), 1, &seeds.child(9), params);
    light.update(&HyperEdge::pair(4, 5), 1);
    assert_decode_rejects_corruption(&light, "LightRecoverySketch");

    let scfg = SparsifierConfig::explicit(1, 2, params);
    let mut sp = HypergraphSparsifier::new(space.clone(), scfg, &seeds.child(10));
    sp.update(&HyperEdge::pair(0, 5), 1);
    assert_decode_rejects_corruption(&sp, "HypergraphSparsifier");

    let sp_msg = HypergraphSparsifier::player_message(
        &space,
        &scfg,
        &seeds.child(10),
        0,
        &[HyperEdge::pair(0, 5)],
    );
    assert_decode_rejects_corruption(&sp_msg, "SparsifierPlayerMessage");
}

/// Forged frames that claim huge tables or reference missing parameters
/// are rejected with a typed error before anything of the claimed size is
/// allocated.
#[test]
fn forged_v2_frames_fail_without_large_allocations() {
    use dynamic_graph_streams::field::Fingerprinter;
    use dynamic_graph_streams::sketch::SparseRecovery;

    // A v2 sparse-recovery frame whose sparsity claims 2^30: one row would
    // imply a 2^31-cell table (48 GiB of field elements).
    let seeds = SeedTree::new(5);
    let mut w = Writer::new();
    w.put_u64(u64::MAX); // sentinel
    w.put_u64(2); // version
    w.put_u64(1 << 20); // dimension
    w.put_u64(1 << 30); // sparsity
    Fingerprinter::new(&seeds).encode(&mut w);
    w.put_u64(1); // rows
    dynamic_graph_streams::field::KWiseHash::new(&seeds.child(1), 2).encode(&mut w);
    w.put_u64(0); // no cells
    let frame = w.into_bytes();
    let (res, largest) =
        largest_alloc_during(|| <SparseRecovery as Codec>::decode(&mut Reader::new(&frame)));
    let err = res.expect_err("2^30 sparsity accepted");
    assert!(err.message.contains("cells"), "{err}");
    assert!(largest < 1 << 20, "allocated {largest} bytes");

    // A v2 forest frame whose only round has no parameter block while its
    // samplers' flags say "same parameters as this round's block".
    let mut w = Writer::new();
    w.put_u64(u64::MAX); // sentinel
    w.put_u64(2); // version
    w.put_u64(4); // n
    w.put_u64(2); // max rank
    vec![0u64, 1, 2, 3].encode(&mut w); // vertices
    w.put_u64(1); // rounds
    w.put_u8(0); // no block
    w.put_u8(1); // shared flag
    w.put_u64(0); // no listed levels
    let frame = w.into_bytes();
    let (res, largest) =
        largest_alloc_during(|| <SpanningForestSketch as Codec>::decode(&mut Reader::new(&frame)));
    let err = res.expect_err("flag without a block accepted");
    assert!(err.message.contains("without a block"), "{err}");
    assert!(largest < 1 << 20, "allocated {largest} bytes");
}

/// The update stream behind `tests/fixtures/pre_v2_snapshots`: every edge
/// of K6 inserted, 10 deleted, 4 inserted again (32 updates).
fn fixture_stream() -> Vec<Update> {
    let pairs: Vec<(u32, u32)> = (0..6u32)
        .flat_map(|u| ((u + 1)..6).map(move |v| (u, v)))
        .collect();
    let mut out: Vec<Update> = pairs
        .iter()
        .map(|&(u, v)| Update::insert(HyperEdge::pair(u, v)))
        .collect();
    for &(u, v) in pairs
        .iter()
        .step_by(2)
        .chain(pairs.iter().skip(1).step_by(3))
    {
        out.push(Update::delete(HyperEdge::pair(u, v)));
    }
    for &(u, v) in pairs.iter().step_by(4) {
        out.push(Update::insert(HyperEdge::pair(u, v)));
    }
    out
}

/// Copies a checked-in fixture directory tree into a fresh temp dir, so
/// recovery never touches the repository's files.
fn copy_fixture(name: &str) -> std::path::PathBuf {
    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), target).unwrap();
            }
        }
    }
    let from = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let to = std::env::temp_dir().join(format!("dgs-fixture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&to);
    copy_dir(&from, &to);
    to
}

/// Snapshots written before the sparse-cell codec (SoA v1 sparse-recovery
/// frames, the original forest layout) still recover: the ladder starts
/// from the newest snapshot, replays the WAL tail, and lands bit-identical
/// to a fresh ingest of the same stream under the current codec.
#[test]
fn pre_v2_snapshot_directory_still_recovers_bit_identically() {
    // n = 6, starved L0 parameters, seed 15, snapshots every 10 updates
    // (only the newest, at offset 30, is kept), 8 records per WAL segment.
    let space = EdgeSpace::graph(6).unwrap();
    let params = ForestParams {
        l0: L0Params {
            sparsity: 2,
            rows: 2,
            level_independence: 2,
        },
        extra_rounds: 0,
    };
    let fresh_forest = || SpanningForestSketch::new_full(space.clone(), &SeedTree::new(15), params);
    let stream = fixture_stream();
    let dir = copy_fixture("pre_v2_snapshots");

    let store = CheckpointStore::open(dir.join("snap-forest"), 15).unwrap();
    let rec = RecoveryDriver::new(dir.join("wal"), store)
        .recover(|_, _| fresh_forest())
        .unwrap();
    assert_eq!(
        (rec.from_snapshot, rec.offset, rec.replayed),
        (Some(30), 32, 2)
    );
    assert!(
        rec.snapshot_defects.is_empty(),
        "{:?}",
        rec.snapshot_defects
    );
    let mut reference = fresh_forest();
    for u in &stream {
        reference.apply_update(u).unwrap();
    }
    assert_eq!(encoded(&rec.sketch), encoded(&reference));

    let store = CheckpointStore::open(dir.join("snap-hybrid"), 15).unwrap();
    let rec = RecoveryDriver::new(dir.join("wal"), store)
        .recover(|_, _| HybridConnectivitySketch::new(fresh_forest(), HybridConfig::default()))
        .unwrap();
    assert_eq!(
        (rec.from_snapshot, rec.offset, rec.replayed),
        (Some(30), 32, 2)
    );
    assert!(
        rec.snapshot_defects.is_empty(),
        "{:?}",
        rec.snapshot_defects
    );
    assert!(rec.sketch.is_resident());
    let mut reference = HybridConnectivitySketch::new(fresh_forest(), HybridConfig::default());
    for u in &stream {
        reference.apply_update(u).unwrap();
    }
    assert_eq!(encoded(&rec.sketch), encoded(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}
