//! The simultaneous communication model of Becker et al. (Section 2).
//!
//! `n` players `P_1 … P_n` each hold the edges incident to their vertex;
//! a referee `Q` must compute a graph property from one message per player.
//! Because every sketch in this crate is **vertex-based** (each linear
//! measurement is local to one vertex), player `i`'s message is simply its
//! vertex's sampler states — computable from `P_i`'s local input alone,
//! since an edge update only touches the samplers of its own endpoints.
//!
//! A player holds only [`PlayerMessage::new`]'s `O(polylog n)`-size state
//! and processes its incident insert/delete stream with
//! [`PlayerMessage::update`]; the referee reassembles the full sketch with
//! [`assemble_players`]. Tests verify bit-for-bit equality with a centrally
//! built sketch. Higher structures (k-skeletons, the Theorem 4/8/15/20
//! structures) expose their own message types composed from this one — see
//! `KSkeletonSketch::player_message` and the `dgs-core` structures.

use dgs_field::SeedTree;
use dgs_hypergraph::{EdgeSpace, HyperEdge, VertexId};
use dgs_sketch::{L0Sampler, SketchError, SketchResult};

use crate::forest::{vertex_samplers_for, ForestParams, SpanningForestSketch};
use crate::vector::incidence_coefficient;

/// One player's message for a (full-vertex-set) spanning-forest sketch:
/// its vertex id and per-round sampler states. This is also the unit other
/// structures' messages are built from.
#[derive(Clone, Debug)]
pub struct PlayerMessage {
    /// The player's vertex.
    pub vertex: VertexId,
    /// Sampler state per Borůvka round.
    pub samplers: Vec<L0Sampler>,
}

impl PlayerMessage {
    /// A fresh (zero) state for player `v` of a sketch over the full vertex
    /// set of `space` — bit-identical seeding to the central constructor,
    /// but holding only this vertex's `O(polylog)` share.
    pub fn new(space: &EdgeSpace, v: VertexId, seeds: &SeedTree, params: ForestParams) -> Self {
        Self::new_induced(space, space.n(), v, seeds, params)
    }

    /// Like [`new`](Self::new) for a sketch whose present vertex set has
    /// `present_count` vertices (the vertex-subsampled subgraphs of the
    /// Theorem 4/8 structure) — the count determines round and level
    /// budgets, and is publicly computable from the shared seeds.
    pub fn new_induced(
        space: &EdgeSpace,
        present_count: usize,
        v: VertexId,
        seeds: &SeedTree,
        params: ForestParams,
    ) -> Self {
        assert!((v as usize) < space.n(), "vertex {v} out of range");
        PlayerMessage {
            vertex: v,
            samplers: vertex_samplers_for(space, present_count, seeds, params),
        }
    }

    /// Fallible local stream element: a signed update of an edge incident
    /// to this player's vertex, applying only this vertex's incidence
    /// coefficient. Misrouted edges (not incident to the player), rank
    /// violations, and out-of-range vertices surface as
    /// [`SketchError::InvalidInput`].
    pub fn try_update(&mut self, space: &EdgeSpace, e: &HyperEdge, delta: i64) -> SketchResult<()> {
        if !e.contains(self.vertex) {
            return Err(SketchError::invalid(format!(
                "edge {e:?} not incident to player {}",
                self.vertex
            )));
        }
        if e.cardinality() > space.max_rank() {
            return Err(SketchError::invalid(format!(
                "edge of rank {} exceeds the space's rank bound {}",
                e.cardinality(),
                space.max_rank()
            )));
        }
        if let Some(&v) = e.vertices().iter().find(|&&v| (v as usize) >= space.n()) {
            return Err(SketchError::invalid(format!(
                "vertex {v} out of range for a {}-vertex edge space",
                space.n()
            )));
        }
        let idx = space.rank(e);
        let coeff = incidence_coefficient(e, self.vertex) * delta;
        for s in &mut self.samplers {
            s.update(idx, coeff)?;
        }
        Ok(())
    }

    /// Processes one local stream element.
    ///
    /// # Panics
    /// Panics if `e` is not incident to the player's vertex; see
    /// [`try_update`](Self::try_update).
    pub fn update(&mut self, space: &EdgeSpace, e: &HyperEdge, delta: i64) {
        if let Err(err) = self.try_update(space, e, delta) {
            panic!("{err}");
        }
    }

    /// Message length in bytes — the quantity the model minimizes.
    pub fn size_bytes(&self) -> usize {
        self.samplers.iter().map(|s| s.size_bytes()).sum()
    }
}

impl dgs_field::Codec for PlayerMessage {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_u64(self.vertex as u64);
        self.samplers.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let vertex = r.get_u64()?;
        if vertex > u32::MAX as u64 {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!("player vertex {vertex} exceeds the u32 id space"),
            });
        }
        Ok(PlayerMessage {
            vertex: vertex as VertexId,
            samplers: Vec::decode(r)?,
        })
    }
}

/// Builds player `v`'s message from its complete local input (convenience
/// over [`PlayerMessage::new`] + [`PlayerMessage::update`]).
///
/// # Panics
/// Panics if some listed edge is not incident to `v`.
pub fn player_sketch(
    space: &EdgeSpace,
    v: VertexId,
    incident_edges: &[HyperEdge],
    seeds: &SeedTree,
    params: ForestParams,
) -> PlayerMessage {
    let mut msg = PlayerMessage::new(space, v, seeds, params);
    for e in incident_edges {
        msg.update(space, e, 1);
    }
    msg
}

/// The referee: reassembles the full vertex-based sketch from all player
/// messages. Missing players keep zero samplers (isolated vertices).
pub fn assemble_players(
    space: &EdgeSpace,
    messages: Vec<PlayerMessage>,
    seeds: &SeedTree,
    params: ForestParams,
) -> SpanningForestSketch {
    let mut sk = SpanningForestSketch::new_full(space.clone(), seeds, params);
    for msg in messages {
        sk.set_vertex_samplers(msg.vertex, msg.samplers);
    }
    sk
}

/// Strict referee for untrusted transports: requires **exactly one**
/// message per vertex of the space and validates each message's shape and
/// seeding against the slot it fills. A missing player (dropped message), a
/// duplicate (retransmitted twice), an out-of-range vertex, or a corrupted
/// sampler state all surface as [`SketchError::InvalidInput`] — the lenient
/// [`assemble_players`] would silently read a dropped message as an
/// isolated vertex, which is a wrong answer, not a detected fault.
pub fn assemble_players_strict(
    space: &EdgeSpace,
    messages: Vec<PlayerMessage>,
    seeds: &SeedTree,
    params: ForestParams,
) -> SketchResult<SpanningForestSketch> {
    let mut sk = SpanningForestSketch::new_full(space.clone(), seeds, params);
    let mut seen = vec![false; space.n()];
    for msg in &messages {
        let v = msg.vertex as usize;
        if v >= space.n() {
            return Err(SketchError::invalid(format!(
                "player message for vertex {} outside the {}-vertex space",
                msg.vertex,
                space.n()
            )));
        }
        if seen[v] {
            return Err(SketchError::invalid(format!(
                "duplicate player message for vertex {}",
                msg.vertex
            )));
        }
        seen[v] = true;
    }
    if let Some(v) = seen.iter().position(|&s| !s) {
        return Err(SketchError::invalid(format!(
            "missing player message for vertex {v}"
        )));
    }
    for msg in messages {
        sk.try_set_vertex_samplers(msg.vertex, msg.samplers)?;
    }
    Ok(sk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_field::prng::*;
    use dgs_hypergraph::algo::hyper_component_count;
    use dgs_hypergraph::generators::random_mixed_hypergraph;
    use dgs_hypergraph::Hypergraph;
    use dgs_sketch::Profile;

    #[test]
    fn distributed_equals_central() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 12;
        let h = random_mixed_hypergraph(n, 3, 14, &mut rng);
        let space = EdgeSpace::new(n, 3).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(9000);

        // Central sketch.
        let mut central = SpanningForestSketch::new_full(space.clone(), &seeds, params);
        for e in h.edges() {
            central.update(e, 1);
        }

        // Each player sees only its incident edges.
        let messages: Vec<PlayerMessage> = (0..n as VertexId)
            .map(|v| {
                let incident: Vec<HyperEdge> = h
                    .edges()
                    .iter()
                    .filter(|e| e.contains(v))
                    .cloned()
                    .collect();
                player_sketch(&space, v, &incident, &seeds, params)
            })
            .collect();
        let assembled = assemble_players(&space, messages, &seeds, params);

        // The referee's decode must match the central decode exactly
        // (identical seeds, identical cell states).
        assert_eq!(central.decode(), assembled.decode());
        let (kept, labels) = assembled.decode_with_labels();
        assert_eq!(labels.component_count(), hyper_component_count(&h));
        let sub = Hypergraph::from_edges(n, kept);
        assert_eq!(hyper_component_count(&sub), hyper_component_count(&h));
    }

    #[test]
    fn players_process_deletions_locally() {
        let n = 8;
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(9005);
        // Player 3's local history: insert two edges, delete one.
        let e1 = HyperEdge::pair(3, 5);
        let e2 = HyperEdge::pair(1, 3);
        let mut msg = PlayerMessage::new(&space, 3, &seeds, params);
        msg.update(&space, &e1, 1);
        msg.update(&space, &e2, 1);
        msg.update(&space, &e1, -1);
        // Equivalent message built from the net input.
        let net = player_sketch(&space, 3, std::slice::from_ref(&e2), &seeds, params);
        // Cell states must agree: verify via assembly + decode with the
        // counterpart endpoints loaded.
        let mk = |m3: PlayerMessage| {
            let m1 = player_sketch(&space, 1, std::slice::from_ref(&e2), &seeds, params);
            assemble_players(&space, vec![m3, m1], &seeds, params).decode()
        };
        assert_eq!(mk(msg), mk(net));
    }

    #[test]
    fn missing_players_read_as_isolated() {
        let n = 6;
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(9001);
        // Only players 0 and 1 report, sharing edge {0,1}.
        let e = HyperEdge::pair(0, 1);
        let m0 = player_sketch(&space, 0, std::slice::from_ref(&e), &seeds, params);
        let m1 = player_sketch(&space, 1, std::slice::from_ref(&e), &seeds, params);
        let sk = assemble_players(&space, vec![m0, m1], &seeds, params);
        let (forest, labels) = sk.decode_with_labels();
        assert_eq!(forest, vec![e]);
        assert_eq!(labels.component_count(), 5);
    }

    #[test]
    fn message_size_is_the_per_vertex_cost() {
        let n = 10;
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let seeds = SeedTree::new(9002);
        let e = HyperEdge::pair(2, 3);
        let msg = player_sketch(&space, 2, std::slice::from_ref(&e), &seeds, params);
        let full = SpanningForestSketch::new_full(space, &seeds, params);
        assert_eq!(msg.size_bytes(), full.max_player_message_bytes());
        // n players' messages together equal the sketch size.
        assert_eq!(msg.size_bytes() * n, full.size_bytes());
    }

    #[test]
    #[should_panic(expected = "not incident")]
    fn foreign_edge_rejected() {
        let space = EdgeSpace::graph(5).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        let _ = player_sketch(
            &space,
            0,
            &[HyperEdge::pair(1, 2)],
            &SeedTree::new(1),
            params,
        );
    }
}
