//! Dynamic graph streams: sequences of hyperedge insertions and deletions.
//!
//! The dynamic graph stream model (Section 2 of the paper) presents the
//! input as a one-way sequence of updates; an algorithm sees each update
//! once. [`UpdateStream`] is that sequence plus the stream's declared
//! parameters `(n, max_rank)`, which every sketch needs up front to size its
//! index space. Strict application ([`UpdateStream::final_hypergraph`])
//! enforces 0/1 multiplicities — the paper's graphs are simple.

use std::collections::BTreeSet;

use crate::edge::HyperEdge;
use crate::graph::Graph;
use crate::hypergraph::Hypergraph;
use crate::{GraphError, VertexId};

/// An insertion or deletion. A deletion is a "negative insertion" for every
/// linear sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Edge enters the graph.
    Insert,
    /// Edge leaves the graph.
    Delete,
}

impl Op {
    /// The signed delta a linear sketch applies: +1 or -1.
    #[inline]
    pub fn delta(self) -> i64 {
        match self {
            Op::Insert => 1,
            Op::Delete => -1,
        }
    }
}

/// One stream element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Update {
    /// The affected hyperedge.
    pub edge: HyperEdge,
    /// Insert or delete.
    pub op: Op,
}

impl Update {
    /// Insertion of `e`.
    pub fn insert(e: HyperEdge) -> Update {
        Update {
            edge: e,
            op: Op::Insert,
        }
    }

    /// Deletion of `e`.
    pub fn delete(e: HyperEdge) -> Update {
        Update {
            edge: e,
            op: Op::Delete,
        }
    }
}

/// A hyperedge with the signed delta a linear sketch adds for it: a stream
/// [`Update`] (±1) or a net `(edge, multiplicity)` pair. Batch kernels take
/// a slice of either, so the ingestors hand them their update buffers
/// without copying.
pub trait SignedEdge {
    /// The affected hyperedge.
    fn edge(&self) -> &HyperEdge;
    /// The signed multiplicity change.
    fn delta(&self) -> i64;
}

impl SignedEdge for Update {
    fn edge(&self) -> &HyperEdge {
        &self.edge
    }
    fn delta(&self) -> i64 {
        self.op.delta()
    }
}

impl SignedEdge for (HyperEdge, i64) {
    fn edge(&self) -> &HyperEdge {
        &self.0
    }
    fn delta(&self) -> i64 {
        self.1
    }
}

/// A dynamic hypergraph stream with declared dimensions.
#[derive(Clone, Debug)]
pub struct UpdateStream {
    /// Number of vertices (fixed for the whole stream).
    pub n: usize,
    /// Upper bound on hyperedge cardinality (`r`; 2 for graph streams).
    pub max_rank: usize,
    /// The update sequence.
    pub updates: Vec<Update>,
}

impl UpdateStream {
    /// An empty stream.
    pub fn new(n: usize, max_rank: usize) -> UpdateStream {
        UpdateStream {
            n,
            max_rank,
            updates: Vec::new(),
        }
    }

    /// Insert-only stream materializing a hypergraph (edges in given order).
    pub fn inserts_of(h: &Hypergraph) -> UpdateStream {
        UpdateStream {
            n: h.n(),
            max_rank: h.max_rank().max(2),
            updates: h.edges().iter().cloned().map(Update::insert).collect(),
        }
    }

    /// Insert-only stream for a simple graph.
    pub fn inserts_of_graph(g: &Graph) -> UpdateStream {
        UpdateStream {
            n: g.n(),
            max_rank: 2,
            updates: g
                .edges()
                .map(|(u, v)| Update::insert(HyperEdge::pair(u, v)))
                .collect(),
        }
    }

    /// Appends an insertion.
    pub fn push_insert(&mut self, e: HyperEdge) {
        self.updates.push(Update::insert(e));
    }

    /// Appends a deletion.
    pub fn push_delete(&mut self, e: HyperEdge) {
        self.updates.push(Update::delete(e));
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True iff there are no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Fraction of updates that are deletions.
    pub fn deletion_fraction(&self) -> f64 {
        if self.updates.is_empty() {
            return 0.0;
        }
        let d = self.updates.iter().filter(|u| u.op == Op::Delete).count();
        d as f64 / self.updates.len() as f64
    }

    /// Validates and applies the stream: every insert must hit an absent
    /// edge, every delete a present one, cardinalities must respect
    /// `max_rank`, and vertices must be `< n`. Returns the final hypergraph.
    pub fn final_hypergraph(&self) -> Result<Hypergraph, GraphError> {
        let mut live: BTreeSet<&HyperEdge> = BTreeSet::new();
        for (i, u) in self.updates.iter().enumerate() {
            if u.edge.cardinality() > self.max_rank {
                return Err(GraphError::InvalidEdge(format!(
                    "update {i}: cardinality {} exceeds declared max_rank {}",
                    u.edge.cardinality(),
                    self.max_rank
                )));
            }
            let max_v = *u.edge.vertices().last().unwrap();
            if max_v as usize >= self.n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: max_v,
                    n: self.n,
                });
            }
            match u.op {
                Op::Insert => {
                    if !live.insert(&u.edge) {
                        return Err(GraphError::MultiplicityViolation(format!(
                            "update {i}: insert of present edge {:?}",
                            u.edge
                        )));
                    }
                }
                Op::Delete => {
                    if !live.remove(&u.edge) {
                        return Err(GraphError::MultiplicityViolation(format!(
                            "update {i}: delete of absent edge {:?}",
                            u.edge
                        )));
                    }
                }
            }
        }
        Ok(Hypergraph::from_edges(self.n, live.into_iter().cloned()))
    }

    /// The final graph of a rank-2 stream.
    pub fn final_graph(&self) -> Result<Graph, GraphError> {
        let h = self.final_hypergraph()?;
        let mut g = Graph::new(self.n);
        for e in h.edges() {
            let (u, v) = e.as_pair();
            g.add_edge(u, v);
        }
        Ok(g)
    }

    /// Convenience for building a graph stream update.
    pub fn pair_update(u: VertexId, v: VertexId, op: Op) -> Update {
        Update {
            edge: HyperEdge::pair(u, v),
            op,
        }
    }
}

// Binary codecs for stream elements — the unit of the write-ahead log
// (`crate::wal`). An update is `[op u8][cardinality u32][vertex u32]*`.

impl dgs_field::Codec for Op {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_u8(match self {
            Op::Insert => 0,
            Op::Delete => 1,
        });
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        match r.get_u8()? {
            0 => Ok(Op::Insert),
            1 => Ok(Op::Delete),
            other => Err(dgs_field::CodecError {
                offset: 0,
                message: format!("unknown op tag {other}"),
            }),
        }
    }
}

impl dgs_field::Codec for HyperEdge {
    fn encode(&self, w: &mut dgs_field::Writer) {
        w.put_u32(self.cardinality() as u32);
        for &v in self.vertices() {
            w.put_u32(v);
        }
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        let card = r.get_u32()?;
        if card > 1 << 16 {
            return Err(dgs_field::CodecError {
                offset: 0,
                message: format!("hyperedge cardinality {card} exceeds bound"),
            });
        }
        let mut vs = Vec::with_capacity(card as usize);
        for _ in 0..card {
            vs.push(r.get_u32()?);
        }
        HyperEdge::new(vs).map_err(|e| dgs_field::CodecError {
            offset: 0,
            message: format!("invalid hyperedge: {e}"),
        })
    }
}

impl dgs_field::Codec for Update {
    fn encode(&self, w: &mut dgs_field::Writer) {
        self.op.encode(w);
        self.edge.encode(w);
    }
    fn decode(r: &mut dgs_field::Reader<'_>) -> Result<Self, dgs_field::CodecError> {
        Ok(Update {
            op: Op::decode(r)?,
            edge: HyperEdge::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(u: u32, v: u32) -> HyperEdge {
        HyperEdge::pair(u, v)
    }

    #[test]
    fn insert_delete_cancels() {
        let mut s = UpdateStream::new(4, 2);
        s.push_insert(pair(0, 1));
        s.push_insert(pair(1, 2));
        s.push_delete(pair(0, 1));
        let g = s.final_graph().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(1, 2));
        assert!((s.deletion_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reinsert_after_delete_is_legal() {
        let mut s = UpdateStream::new(3, 2);
        s.push_insert(pair(0, 1));
        s.push_delete(pair(0, 1));
        s.push_insert(pair(0, 1));
        let g = s.final_graph().unwrap();
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn double_insert_rejected() {
        let mut s = UpdateStream::new(3, 2);
        s.push_insert(pair(0, 1));
        s.push_insert(pair(1, 0));
        assert!(matches!(
            s.final_hypergraph(),
            Err(GraphError::MultiplicityViolation(_))
        ));
    }

    #[test]
    fn delete_of_absent_rejected() {
        let mut s = UpdateStream::new(3, 2);
        s.push_delete(pair(0, 1));
        assert!(matches!(
            s.final_hypergraph(),
            Err(GraphError::MultiplicityViolation(_))
        ));
    }

    #[test]
    fn rank_and_range_validation() {
        let mut s = UpdateStream::new(3, 2);
        s.push_insert(HyperEdge::new(vec![0, 1, 2]).unwrap());
        assert!(matches!(
            s.final_hypergraph(),
            Err(GraphError::InvalidEdge(_))
        ));

        let mut s = UpdateStream::new(3, 3);
        s.push_insert(HyperEdge::new(vec![0, 1, 5]).unwrap());
        assert!(matches!(
            s.final_hypergraph(),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 3 })
        ));
    }

    #[test]
    fn inserts_of_round_trips() {
        let h = Hypergraph::from_edges(
            5,
            vec![
                HyperEdge::new(vec![0, 1, 2]).unwrap(),
                pair(3, 4),
                pair(0, 4),
            ],
        );
        let s = UpdateStream::inserts_of(&h);
        assert_eq!(s.max_rank, 3);
        let h2 = s.final_hypergraph().unwrap();
        assert_eq!(h2.edge_count(), 3);
        for e in h.edges() {
            assert!(h2.has_edge(e));
        }
    }

    #[test]
    fn op_deltas() {
        assert_eq!(Op::Insert.delta(), 1);
        assert_eq!(Op::Delete.delta(), -1);
    }

    #[test]
    fn update_codec_round_trips() {
        use dgs_field::{Codec, Reader, Writer};
        let updates = [
            Update::insert(HyperEdge::pair(0, 7)),
            Update::delete(HyperEdge::new(vec![3, 1, 9]).unwrap()),
        ];
        let mut w = Writer::new();
        for u in &updates {
            u.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for u in &updates {
            assert_eq!(&Update::decode(&mut r).unwrap(), u);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn update_codec_rejects_malformed_bytes() {
        use dgs_field::{Codec, Reader, Writer};
        // Unknown op tag.
        let mut w = Writer::new();
        w.put_u8(9);
        let bytes = w.into_bytes();
        assert!(Update::decode(&mut Reader::new(&bytes)).is_err());
        // Cardinality-1 edge (invalid by construction).
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32(1);
        w.put_u32(5);
        let bytes = w.into_bytes();
        assert!(Update::decode(&mut Reader::new(&bytes)).is_err());
        // Truncated vertex list.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u32(4);
        w.put_u32(5);
        let bytes = w.into_bytes();
        assert!(Update::decode(&mut Reader::new(&bytes)).is_err());
    }
}
