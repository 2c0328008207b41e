//! The three workloads. Sizes are per pass; a run repeats passes until its
//! time is up.

use crate::stream::WindowSpec;

/// Sketch backend behind the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `SpanningForestSketch` shards only.
    Forest,
    /// `HybridConnectivitySketch` shards (default `HybridConfig`).
    Hybrid,
}

/// How a workload reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reads {
    /// No reads while writing. After the write phase, [`READBACK_CYCLES`]
    /// cycles of {push one flush batch, refresh, [`READBACK_QUERIES`]
    /// closed-loop queries}.
    ReadBack,
    /// A view refresh every [`REFRESH_EVERY`] updates while writing, and
    /// open-loop queries at [`QUERY_RATE`] from a second thread.
    OpenLoop,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    /// Supervisor flush threads.
    pub threads: usize,
    /// Snapshots every [`SNAPSHOT_EVERY`] updates, or none.
    pub snapshots: bool,
    pub reads: Reads,
    pub stream: WindowSpec,
}

/// Vertices of every workload's graph.
pub const N: u32 = 64;
/// Boosted repetitions (= shards).
pub const REPETITIONS: usize = 5;
/// Supervisor flush batch (the `SupervisorConfig` default).
pub const BATCH: usize = 256;
/// Updates per timed round; rates are taken per round.
pub const ROUND: usize = 8192;
/// Timed rounds per pass.
pub const ROUNDS: usize = 4;
pub const SNAPSHOT_EVERY: u64 = 8192;
pub const REFRESH_EVERY: u64 = 1024;
/// Open-loop queries per second; below the capacity of `serve`.
pub const QUERY_RATE: f64 = 20.0;
pub const READBACK_CYCLES: usize = 32;
pub const READBACK_QUERIES: usize = 2;

pub const ALL: [Workload; 3] = [
    Workload {
        name: "ingest",
        backend: Backend::Forest,
        threads: 2,
        snapshots: true,
        reads: Reads::ReadBack,
        stream: WindowSpec {
            n: N,
            batch: 256,
            window: 4,
        },
    },
    Workload {
        name: "serve",
        backend: Backend::Forest,
        threads: 1,
        snapshots: false,
        reads: Reads::OpenLoop,
        stream: WindowSpec {
            n: N,
            batch: 256,
            window: 4,
        },
    },
    Workload {
        name: "sparse",
        backend: Backend::Hybrid,
        threads: 1,
        snapshots: true,
        reads: Reads::OpenLoop,
        // At most 512 live edges: support stays under the spill threshold.
        stream: WindowSpec {
            n: N,
            batch: 128,
            window: 4,
        },
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Updates in the timed write phase of one pass.
    pub fn write_updates(&self) -> usize {
        ROUND * ROUNDS
    }

    /// Updates the read-back pushes after the write phase.
    pub fn readback_updates(&self) -> usize {
        match self.reads {
            Reads::ReadBack => READBACK_CYCLES * BATCH,
            Reads::OpenLoop => 0,
        }
    }

    pub fn snapshot_every(&self) -> Option<u64> {
        self.snapshots.then_some(SNAPSHOT_EVERY)
    }
}
