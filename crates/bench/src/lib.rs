//! Experiment harness reproducing the paper's claims.
//!
//! The paper (PODS 2015 theory) has no tables or figures; DESIGN.md defines
//! experiments E1–E23. E1–E15 reproduce one theorem, lemma or lower bound
//! each and print tables; E16–E23 measure the system built around the
//! sketches and write `BENCH_*.json` baselines that CI guards through
//! [`baseline::Guard`] gate tables. All live in [`experiments`]; the
//! `experiments` binary dispatches on experiment id (`all` runs
//! everything) or `check-*` command.
//!
//! Support modules: [`baseline`] (the shared document schema and the one
//! gate evaluator), [`report`] (aligned text tables), [`stats`] (means,
//! rates), [`workloads`] (shared workload, sketch and soak builders, lean
//! sketch parameters sized so a full `all` run fits laptop memory, and
//! exact ground truth).

pub mod baseline;
pub mod experiments;
pub mod microbench;
pub mod report;
pub mod stats;
pub mod workloads;
