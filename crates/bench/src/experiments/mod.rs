//! Experiments E1–E23 (see DESIGN.md's per-experiment index).
//!
//! E1–E15 each print one or more tables; E16–E23 each own a
//! [`Guard`](crate::baseline::Guard) and print the `BENCH_*.json` document
//! they write. `run_all` executes the suite in order. `quick` trims trial
//! counts and sweep grids for CI-speed runs.

use crate::baseline::Guard;

pub mod e01_vc_query;
pub mod e02_indexing;
pub mod e03_estimator;
pub mod e04_hyper_conn;
pub mod e05_skeleton;
pub mod e06_reconstruct;
pub mod e07_lemma16;
pub mod e08_sparsifier;
pub mod e09_sfst;
pub mod e10_scaling;
pub mod e11_ablation;
pub mod e12_eppstein;
pub mod e13_sampler_ablation;
pub mod e14_edge_conn;
pub mod e15_distributed;
pub mod e16_recovery;
pub mod e17_ingest;
pub mod e18_obs;
pub mod e19_query;
pub mod e20_chaos;
pub mod e21_service;
pub mod e22_trace;
pub mod e23_hybrid;
#[cfg(test)]
mod oracle;

/// All experiment ids, in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23",
];

/// Every CI guard, looked up by its `check-*` command.
pub const GUARDS: &[&Guard] = &[
    &e16_recovery::GUARD,
    &e17_ingest::GUARD,
    &e18_obs::GUARD,
    &e19_query::GUARD,
    &e20_chaos::GUARD,
    &e21_service::GUARD,
    &e22_trace::GUARD,
    &e23_hybrid::GUARD,
];

/// Runs one experiment by id. Returns false for an unknown id.
pub fn run(id: &str, quick: bool) -> bool {
    match id {
        "e1" => e01_vc_query::run(quick),
        "e2" => e02_indexing::run(quick),
        "e3" => e03_estimator::run(quick),
        "e4" => e04_hyper_conn::run(quick),
        "e5" => e05_skeleton::run(quick),
        "e6" => e06_reconstruct::run(quick),
        "e7" => e07_lemma16::run(quick),
        "e8" => e08_sparsifier::run(quick),
        "e9" => e09_sfst::run(quick),
        "e10" => e10_scaling::run(quick),
        "e11" => e11_ablation::run(quick),
        "e12" => e12_eppstein::run(quick),
        "e13" => e13_sampler_ablation::run(quick),
        "e14" => e14_edge_conn::run(quick),
        "e15" => e15_distributed::run(quick),
        "e16" => e16_recovery::GUARD.record(quick),
        "e17" => e17_ingest::GUARD.record(quick),
        "e18" => e18_obs::GUARD.record(quick),
        "e19" => e19_query::GUARD.record(quick),
        "e20" => e20_chaos::GUARD.record(quick),
        "e21" => e21_service::GUARD.record(quick),
        "e22" => e22_trace::GUARD.record(quick),
        "e23" => e23_hybrid::GUARD.record(quick),
        _ => return false,
    }
    true
}

/// Runs the whole suite.
pub fn run_all(quick: bool) {
    for id in ALL {
        let ok = run(id, quick);
        debug_assert!(ok);
    }
}
