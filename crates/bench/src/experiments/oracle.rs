//! Verdict-equivalence oracle for the gate tables.
//!
//! Before the guards became data, each experiment stated its bounds as
//! hand-written predicates: the `pass` expressions its writer recorded, the
//! `acceptable()` method behind them, and a `check()` that judged the
//! checked-in file's text and a fresh quick run. Those predicates are kept
//! here, copied verbatim, and run side by side with the gate evaluator on
//! every checked-in `BENCH_*.json` and on copies where each gated field is
//! moved one unit (its last rendered decimal, ±1 for a count, a flipped
//! bool) to each side of its bound.
//!
//! A measurement is rebuilt from a document field by field, derived values
//! (ratios, totals) included, so a moved field reaches the old predicates
//! exactly as it reaches the gates. The oracle asserts that
//!
//! * every writer renders the checked-in document byte for byte from the
//!   measurement rebuilt out of it;
//! * the recorded `pass` flags are identical;
//! * each check verdict is identical or stricter, and every stricter case
//!   is one of the enumerated [`STRICTER`] predicates the old `check()`
//!   bodies had drifted from.

use crate::baseline::{Baseline, Bound, Cmp, Fields, Gate, Guard, Scope, Value, Verdict};

use super::{
    e16_recovery as e16, e17_ingest as e17, e18_obs as e18, e19_query as e19, e20_chaos as e20,
    e21_service as e21, e22_trace as e22, e23_hybrid as e23,
};

// ---------------------------------------------------------------------
// The pre-change text scanners, verbatim.

/// Extracts the first `"key": <number>` from a baseline document.
pub fn json_f64_field(s: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = s[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first `"key": true|false` from a baseline document.
pub fn json_bool_field(s: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\":");
    let at = s.find(&needle)? + needle.len();
    let rest = s[at..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The summary's overall `pass` verdict: the **last** `"pass"` in the
/// document (rows precede the summary, and `pass` is the summary's final
/// field).
pub fn summary_pass(s: &str) -> Option<bool> {
    let at = s.rfind("\"pass\":")?;
    json_bool_field(&s[at..], "pass")
}

// ---------------------------------------------------------------------
// The pre-change predicates, verbatim (bodies of `acceptable()`, the
// writers' `pass` expressions, and the `check()` conditions with their
// printing dropped). Methods that used to derive a value now read the
// rebuilt measurement's field of the same name.

impl e20::Measurement {
    fn availability(&self) -> f64 {
        self.availability
    }

    fn acceptable(&self) -> bool {
        self.silent_wrong == 0 && self.availability() >= 0.99 && self.bit_identical
    }
}

impl e21::Measurement {
    fn ingest_ratio(&self) -> f64 {
        self.ingest_ratio
    }

    fn rejected_total(&self) -> u64 {
        self.rejected_total
    }

    fn acceptable(&self) -> bool {
        self.silent_wrong == 0
            && self.deadline_overruns == 0
            && self.ingest_ratio() >= self.ingest_floor
            && self.max_queue_depth <= self.queue_capacity + self.workers + 1
            && self.attempted == self.admitted + self.rejected_total()
            && self.answered > 0
            && self.degraded > 0
            && self.rejected_quota > 0
    }
}

impl e22::Measurement {
    fn overhead_ratio(&self) -> f64 {
        self.overhead_ratio
    }

    fn expected_postmortems(&self) -> u64 {
        self.expected_postmortems
    }

    fn acceptable(&self) -> bool {
        self.request_roots == self.requests
            && self.distinct_trace_ids == self.requests
            && self.flush_roots > 0
            && self.orphans == 0
            && self.evicted == 0
            && self.torn == 0
            && self.exemplars > 0
            && self.dangling_exemplars == 0
            && self.quarantines >= 1
            && self.deadline_missed >= 1
            && self.breaker_trips >= 1
            && self.postmortems_written == self.expected_postmortems()
            && self.postmortems_readable == self.postmortems_written
            && self.postmortems_with_tree > 0
            && self.overhead_ratio() >= self.overhead_floor
    }
}

fn within_2x(r: &e18::RateRow) -> bool {
    r.observed <= 2.0 * r.bound
}

/// The old E23 `run_row` verdict.
fn e23_row_pass(r: &e23::RowOut) -> bool {
    const SPARSE_INGEST_FLOOR: f64 = 5.0;
    const SPARSE_DECODE_FLOOR: f64 = 10.0;
    let (label, resident_at_end) = (r.label, r.resident_at_end);
    let (ingest_speedup, decode_speedup) = (r.ingest_speedup, r.decode_speedup);
    let correct = r.answers_match && r.bytes_match && r.recovery_ok;
    if label == "sparse" {
        // Sparse rows must stay resident and clear the acceptance floors.
        correct
            && resident_at_end
            && ingest_speedup >= SPARSE_INGEST_FLOOR
            && decode_speedup >= SPARSE_DECODE_FLOOR
    } else {
        // Dense rows must have spilled (the floors don't apply there: the
        // hybrid is paying the sketch price plus tracking).
        correct && !resident_at_end
    }
}

/// Old recorded flags: each row's `pass`, then the summary's.
type Flags = (Vec<bool>, bool);

fn old_flags_e16(m: &e16::Measurement) -> Flags {
    let all_exact = m.rows.iter().all(|r| r.exact);
    (m.rows.iter().map(|r| r.exact).collect(), all_exact)
}

fn old_flags_e17(meas: &e17::Measurement) -> Flags {
    let all_exact = meas.rows.iter().all(|r| r.exact);
    (meas.rows.iter().map(|r| r.exact).collect(), all_exact)
}

fn old_flags_e18(meas: &e18::Measurement) -> Flags {
    let all_within = meas.rate_rows.iter().all(within_2x);
    (meas.rate_rows.iter().map(within_2x).collect(), all_within)
}

fn old_flags_e19(meas: &e19::Measurement) -> Flags {
    let all_exact = meas.rows.iter().all(|r| r.exact);
    (meas.rows.iter().map(|r| r.exact).collect(), all_exact)
}

fn old_flags_e20(meas: &e20::Measurement) -> Flags {
    (Vec::new(), meas.acceptable())
}

fn old_flags_e21(meas: &e21::Measurement) -> Flags {
    let rows = vec![
        meas.ingest_ratio() >= meas.ingest_floor,
        meas.attempted == meas.admitted + meas.rejected_total()
            && meas.max_queue_depth <= meas.queue_capacity + meas.workers + 1,
        meas.silent_wrong == 0 && meas.deadline_overruns == 0,
    ];
    (rows, meas.acceptable())
}

fn old_flags_e22(meas: &e22::Measurement) -> Flags {
    let rows = vec![
        meas.request_roots == meas.requests
            && meas.distinct_trace_ids == meas.requests
            && meas.flush_roots > 0,
        meas.orphans == 0
            && meas.evicted == 0
            && meas.torn == 0
            && meas.exemplars > 0
            && meas.dangling_exemplars == 0,
        meas.postmortems_written == meas.expected_postmortems()
            && meas.postmortems_readable == meas.postmortems_written
            && meas.expected_postmortems() > 0
            && meas.postmortems_with_tree > 0,
        meas.overhead_ratio() >= meas.overhead_floor,
    ];
    (rows, meas.acceptable())
}

fn old_flags_e23(meas: &e23::Measurement) -> Flags {
    let all_pass = meas.rows.iter().all(e23_row_pass);
    (meas.rows.iter().map(e23_row_pass).collect(), all_pass)
}

fn old_checked_in_e17(baseline: &str) -> bool {
    json_f64_field(baseline, "best_batched_updates_per_sec").is_some()
}

fn old_fresh_e17(meas: &e17::Measurement, baseline: &str) -> bool {
    const MAX_REGRESSION: f64 = 5.0;
    const CROSSOVER_BATCH: usize = 256;
    let Some(base_batched) = json_f64_field(baseline, "best_batched_updates_per_sec") else {
        return false;
    };
    let mut ok = true;
    for r in &meas.rows {
        if !r.exact {
            ok = false;
        }
    }
    let current = meas.best_batched_updates_per_sec;
    if current * MAX_REGRESSION < base_batched {
        ok = false;
    }
    if meas.host_cpus >= 2 {
        let batched = meas.row_ups("batched", Some(CROSSOVER_BATCH), 1);
        let striped = meas.row_ups("striped", Some(CROSSOVER_BATCH), 2);
        match (batched, striped) {
            (Some(b1), Some(s2)) => {
                if s2 <= b1 {
                    ok = false;
                }
            }
            _ => {
                ok = false;
            }
        }
    }
    ok
}

fn old_checked_in_e18(baseline: &str) -> bool {
    baseline.contains("\"all_within_2x\": true")
}

fn old_fresh_e18(meas: &e18::Measurement, _baseline: &str) -> bool {
    meas.rate_rows.iter().all(within_2x)
}

fn old_checked_in_e19(baseline: &str) -> bool {
    json_f64_field(baseline, "best_engine_decodes_per_sec").is_some()
}

fn old_fresh_e19(meas: &e19::Measurement, baseline: &str) -> bool {
    const MAX_REGRESSION: f64 = 5.0;
    const MIN_PAR4_SPEEDUP: f64 = 1.5;
    let Some(base_dps) = json_f64_field(baseline, "best_engine_decodes_per_sec") else {
        return false;
    };
    let mut ok = true;
    for r in &meas.rows {
        if !r.exact {
            ok = false;
        }
    }
    if meas.forest_par4_speedup < MIN_PAR4_SPEEDUP {
        ok = false;
    }
    if meas.best_engine_decodes_per_sec * MAX_REGRESSION < base_dps {
        ok = false;
    }
    ok
}

fn old_checked_in_e20(baseline: &str) -> bool {
    baseline.contains("\"acceptable\": true")
}

fn old_fresh_e20(meas: &e20::Measurement, _baseline: &str) -> bool {
    let mut ok = true;
    if meas.silent_wrong > 0 {
        ok = false;
    }
    if meas.availability() < 0.99 {
        ok = false;
    }
    if !meas.bit_identical {
        ok = false;
    }
    ok
}

fn old_checked_in_by_summary_pass(baseline: &str) -> bool {
    summary_pass(baseline) == Some(true)
}

fn old_fresh_e21(meas: &e21::Measurement, _baseline: &str) -> bool {
    let mut ok = true;
    if meas.silent_wrong > 0 {
        ok = false;
    }
    if meas.deadline_overruns > 0 {
        ok = false;
    }
    if meas.ingest_ratio() < meas.ingest_floor {
        ok = false;
    }
    if meas.max_queue_depth > meas.queue_capacity + meas.workers + 1 {
        ok = false;
    }
    if meas.degraded == 0 || meas.rejected_quota == 0 {
        ok = false;
    }
    ok
}

fn old_fresh_e22(meas: &e22::Measurement, _baseline: &str) -> bool {
    let mut ok = true;
    if meas.request_roots != meas.requests || meas.distinct_trace_ids != meas.requests {
        ok = false;
    }
    if meas.orphans > 0 || meas.evicted > 0 || meas.torn > 0 {
        ok = false;
    }
    if meas.postmortems_written != meas.expected_postmortems()
        || meas.postmortems_readable != meas.postmortems_written
    {
        ok = false;
    }
    if meas.expected_postmortems() == 0 || meas.postmortems_with_tree == 0 {
        ok = false;
    }
    if meas.overhead_ratio() < meas.overhead_floor {
        ok = false;
    }
    ok
}

fn old_checked_in_e23(baseline: &str) -> bool {
    const SPARSE_INGEST_FLOOR: f64 = 5.0;
    const SPARSE_DECODE_FLOOR: f64 = 10.0;
    let mut ok = true;
    if summary_pass(baseline) != Some(true) {
        ok = false;
    }
    if json_f64_field(baseline, "schema_version") != Some(1.0) {
        ok = false;
    }
    for key in ["min_sparse_ingest_speedup", "min_sparse_decode_speedup"] {
        match json_f64_field(baseline, key) {
            Some(v) => {
                let floor = if key.contains("ingest") {
                    SPARSE_INGEST_FLOOR
                } else {
                    SPARSE_DECODE_FLOOR
                };
                if v < floor {
                    ok = false;
                }
            }
            None => {
                ok = false;
            }
        }
    }
    if json_bool_field(baseline, "answers_match").is_none() {
        ok = false;
    }
    ok
}

fn old_fresh_e23(meas: &e23::Measurement, _baseline: &str) -> bool {
    meas.rows.iter().all(e23_row_pass)
}

// ---------------------------------------------------------------------
// Rebuilding measurements from documents.

fn num(f: &Fields, k: &str) -> f64 {
    f.get(k)
        .and_then(Value::number)
        .unwrap_or_else(|| panic!("no number `{k}`"))
}

fn int(f: &Fields, k: &str) -> u64 {
    num(f, k) as u64
}

fn count(f: &Fields, k: &str) -> usize {
    int(f, k) as usize
}

fn flag(f: &Fields, k: &str) -> bool {
    num(f, k) != 0.0
}

fn text(f: &Fields, k: &str) -> &'static str {
    match f.get(k) {
        Some(Value::Str(s)) => Box::leak(s.clone().into_boxed_str()),
        other => panic!("no string `{k}`: {other:?}"),
    }
}

fn opt(f: &Fields, k: &str) -> Option<u64> {
    match f.get(k) {
        Some(Value::Null) => None,
        _ => Some(int(f, k)),
    }
}

fn aspect<'a>(d: &'a Baseline, name: &str) -> &'a Fields {
    let want = Value::Str(name.to_string());
    d.rows
        .iter()
        .find(|r| r.get("aspect") == Some(&want))
        .unwrap_or_else(|| panic!("no {name} row"))
}

fn e16_from(d: &Baseline) -> e16::Measurement {
    e16::Measurement {
        n: count(&d.config, "n"),
        updates: count(&d.config, "updates"),
        crash_at: count(&d.config, "crash_at"),
        rows: d
            .rows
            .iter()
            .map(|r| e16::RowOut {
                interval: text(r, "label").to_string(),
                interval_updates: opt(r, "interval"),
                snapshots: count(r, "snapshots"),
                wal_bytes: int(r, "wal_bytes"),
                snap_bytes: int(r, "snapshot_bytes"),
                ingest_ms: num(r, "ingest_ms"),
                replayed: int(r, "replayed"),
                recovery_ms: num(r, "recovery_ms"),
                exact: flag(r, "exact"),
            })
            .collect(),
    }
}

fn e17_from(d: &Baseline) -> e17::Measurement {
    let s = &d.summary;
    e17::Measurement {
        n: count(&d.config, "n"),
        updates: count(&d.config, "updates"),
        stream_updates: count(&d.config, "stream_updates"),
        trials: count(&d.config, "trials"),
        host_cpus: count(s, "host_cpus"),
        scalar_updates_per_sec: num(s, "scalar_updates_per_sec"),
        best_batched_updates_per_sec: num(s, "best_batched_updates_per_sec"),
        crossover_threads: count(s, "striped_crossover_threads"),
        rows: d
            .rows
            .iter()
            .map(|r| e17::RowOut {
                mode: text(r, "mode"),
                batch: opt(r, "batch").map(|b| b as usize),
                threads: count(r, "threads"),
                updates_per_sec: num(r, "updates_per_sec"),
                speedup: num(r, "speedup"),
                exact: flag(r, "exact"),
            })
            .collect(),
    }
}

fn e18_from(d: &Baseline) -> e18::Measurement {
    e18::Measurement {
        trials: int(&d.config, "trials"),
        support: count(&d.config, "support"),
        churn: count(&d.config, "churn"),
        rate_rows: d
            .rows
            .iter()
            .map(|r| e18::RateRow {
                label: text(r, "structure"),
                rows: count(r, "rows"),
                sparsity: count(r, "sparsity"),
                repetitions: count(r, "repetitions"),
                attempts: int(r, "attempts"),
                failures: int(r, "failures"),
                observed: num(r, "observed"),
                bound: num(r, "bound"),
            })
            .collect(),
    }
}

fn e19_from(d: &Baseline) -> e19::Measurement {
    e19::Measurement {
        trials: count(&d.config, "trials"),
        forest_par4_speedup: num(&d.summary, "forest_par4_speedup"),
        best_engine_decodes_per_sec: num(&d.summary, "best_engine_decodes_per_sec"),
        rows: d
            .rows
            .iter()
            .map(|r| e19::RowOut {
                mode: text(r, "mode"),
                n: count(r, "n"),
                k: count(r, "k"),
                threads: count(r, "threads"),
                decode_ms: num(r, "decode_ms"),
                speedup: num(r, "speedup"),
                exact: flag(r, "exact"),
            })
            .collect(),
    }
}

fn e20_from(d: &Baseline) -> e20::Measurement {
    let (c, s) = (&d.config, &d.summary);
    e20::Measurement {
        n: count(c, "n"),
        repetitions: count(c, "repetitions"),
        updates: count(c, "updates"),
        events: count(c, "events"),
        queries: int(s, "queries"),
        answered: int(s, "answered"),
        degraded: int(s, "degraded"),
        unknown: int(s, "unknown"),
        deadline_missed: int(s, "deadline_missed"),
        silent_wrong: int(s, "silent_wrong"),
        quarantines: int(s, "quarantines"),
        rebuilds: int(s, "rebuilds"),
        scrub_mismatches: int(s, "scrub_mismatches"),
        torn_tail_resumes: int(s, "torn_tail_resumes"),
        rebuild_p50_ns: int(s, "rebuild_p50_ns"),
        rebuild_max_ns: int(s, "rebuild_max_ns"),
        worst_effective_delta: num(s, "worst_effective_delta"),
        bit_identical: flag(s, "bit_identical"),
        availability: num(s, "availability"),
        degraded_fraction: num(s, "degraded_fraction"),
    }
}

fn e21_from(d: &Baseline) -> e21::Measurement {
    let c = &d.config;
    let (ing, adm, hon) = (
        aspect(d, "ingest"),
        aspect(d, "admission"),
        aspect(d, "honesty"),
    );
    e21::Measurement {
        n: count(c, "n"),
        repetitions: count(c, "repetitions"),
        updates: count(c, "updates"),
        events: count(c, "events"),
        workers: count(c, "workers"),
        queue_capacity: count(c, "queue_capacity"),
        baseline_updates_per_sec: num(ing, "baseline_updates_per_sec"),
        loaded_updates_per_sec: num(ing, "loaded_updates_per_sec"),
        ingest_floor: num(ing, "floor"),
        attempted: int(adm, "attempted"),
        admitted: int(adm, "admitted"),
        rejected_queue_full: int(adm, "rejected_queue_full"),
        rejected_quota: int(adm, "rejected_quota"),
        rejected_circuit_open: int(adm, "rejected_circuit_open"),
        rejected_cost: int(adm, "rejected_cost"),
        answered: int(hon, "answered"),
        degraded: int(&d.summary, "degraded"),
        unknown: int(hon, "unknown"),
        deadline_honest: int(hon, "deadline_honest"),
        silent_wrong: int(hon, "silent_wrong"),
        deadline_overruns: int(hon, "deadline_overruns"),
        shed_repetitions: int(hon, "shed_repetitions"),
        worst_effective_delta: num(hon, "worst_effective_delta"),
        max_queue_depth: count(adm, "max_queue_depth"),
        queries_per_sec: num(adm, "queries_per_sec"),
        ingest_ratio: num(ing, "ingest_ratio"),
        rejected_total: int(&d.summary, "rejected_total"),
    }
}

fn e22_from(d: &Baseline) -> e22::Measurement {
    let c = &d.config;
    let (comp, integ, pm, ovh) = (
        aspect(d, "completeness"),
        aspect(d, "integrity"),
        aspect(d, "postmortems"),
        aspect(d, "overhead"),
    );
    e22::Measurement {
        n: count(c, "n"),
        repetitions: count(c, "repetitions"),
        updates: count(c, "updates"),
        events: count(c, "events"),
        requests: int(comp, "requests"),
        request_roots: int(comp, "request_roots"),
        distinct_trace_ids: int(comp, "distinct_trace_ids"),
        flush_roots: int(comp, "flush_roots"),
        orphans: int(integ, "orphans"),
        evicted: int(integ, "evicted"),
        torn: int(integ, "torn"),
        exemplars: int(integ, "exemplars"),
        dangling_exemplars: int(integ, "dangling_exemplars"),
        quarantines: int(pm, "quarantines"),
        deadline_missed: int(pm, "deadline_missed"),
        breaker_trips: int(pm, "breaker_trips"),
        postmortems_written: int(pm, "written"),
        postmortems_readable: int(pm, "readable"),
        postmortems_with_tree: int(pm, "with_tree"),
        untraced_updates_per_sec: num(ovh, "untraced_updates_per_sec"),
        traced_updates_per_sec: num(ovh, "traced_updates_per_sec"),
        overhead_floor: num(ovh, "floor"),
        overhead_ratio: num(ovh, "overhead_ratio"),
        expected_postmortems: int(pm, "expected"),
    }
}

fn e23_from(d: &Baseline) -> e23::Measurement {
    let c = &d.config;
    e23::Measurement {
        n: count(c, "n"),
        updates: count(c, "updates"),
        trials: count(c, "trials"),
        min_sparse_ingest_speedup: num(&d.summary, "min_sparse_ingest_speedup"),
        min_sparse_decode_speedup: num(&d.summary, "min_sparse_decode_speedup"),
        rows: d
            .rows
            .iter()
            .map(|r| e23::RowOut {
                label: text(r, "workload"),
                spill_threshold: count(r, "spill_threshold"),
                support: count(r, "support"),
                resident_at_end: flag(r, "resident_at_end"),
                hybrid_updates_per_sec: num(r, "hybrid_updates_per_sec"),
                sketch_updates_per_sec: num(r, "sketch_updates_per_sec"),
                ingest_speedup: num(r, "ingest_speedup"),
                hybrid_decode_us: num(r, "hybrid_decode_us"),
                sketch_decode_us: num(r, "sketch_decode_us"),
                decode_speedup: num(r, "decode_speedup"),
                answers_match: flag(r, "answers_match"),
                bytes_match: flag(r, "bytes_match"),
                recovery_ok: flag(r, "recovery_ok"),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// One experiment's old and new sides, over documents.

struct Case {
    guard: &'static Guard,
    /// `document(&rebuilt)`: the writer's output for the rebuilt
    /// measurement, without `pass` flags.
    rewrite: fn(&Baseline) -> Baseline,
    old_flags: fn(&Baseline) -> Flags,
    /// The old `check()`'s verdicts: on the checked-in text, and on a
    /// fresh measurement against the checked-in text. `None` for a guard
    /// that did not exist before.
    old_checked_in: Option<fn(&str) -> bool>,
    old_fresh: Option<fn(&Baseline, &str) -> bool>,
}

macro_rules! case {
    ($m:ident, $from:ident, $flags:ident, $checked:expr, $fresh:expr) => {
        Case {
            guard: &$m::GUARD,
            rewrite: |d| $m::document(&$from(d)),
            old_flags: |d| $flags(&$from(d)),
            old_checked_in: $checked,
            old_fresh: $fresh,
        }
    };
}

fn cases() -> Vec<Case> {
    vec![
        case!(e16, e16_from, old_flags_e16, None, None),
        case!(
            e17,
            e17_from,
            old_flags_e17,
            Some(old_checked_in_e17),
            Some(|d, b| old_fresh_e17(&e17_from(d), b))
        ),
        case!(
            e18,
            e18_from,
            old_flags_e18,
            Some(old_checked_in_e18),
            Some(|d, b| old_fresh_e18(&e18_from(d), b))
        ),
        case!(
            e19,
            e19_from,
            old_flags_e19,
            Some(old_checked_in_e19),
            Some(|d, b| old_fresh_e19(&e19_from(d), b))
        ),
        case!(
            e20,
            e20_from,
            old_flags_e20,
            Some(old_checked_in_e20),
            Some(|d, b| old_fresh_e20(&e20_from(d), b))
        ),
        case!(
            e21,
            e21_from,
            old_flags_e21,
            Some(old_checked_in_by_summary_pass),
            Some(|d, b| old_fresh_e21(&e21_from(d), b))
        ),
        case!(
            e22,
            e22_from,
            old_flags_e22,
            Some(old_checked_in_by_summary_pass),
            Some(|d, b| old_fresh_e22(&e22_from(d), b))
        ),
        case!(
            e23,
            e23_from,
            old_flags_e23,
            Some(old_checked_in_e23),
            Some(|d, b| old_fresh_e23(&e23_from(d), b))
        ),
    ]
}

/// Every case where a new verdict is stricter than the old one, as
/// `(command, verdict, moved field)`: predicates the old `check()` bodies
/// had drifted from (they sat in the recorded `pass` but not in the
/// check), and the checked-in verdict now reading the recorded summary
/// `pass` and its verdict field together.
const STRICTER: &[(&str, &str, &str)] = &[
    // check-trace's fresh run never enforced these recorded predicates.
    (
        "check-trace",
        "fresh",
        "rows[aspect=completeness].flush_roots",
    ),
    ("check-trace", "fresh", "rows[aspect=integrity].exemplars"),
    (
        "check-trace",
        "fresh",
        "rows[aspect=integrity].dangling_exemplars",
    ),
    (
        "check-trace",
        "fresh",
        "rows[aspect=postmortems].quarantines",
    ),
    (
        "check-trace",
        "fresh",
        "rows[aspect=postmortems].deadline_missed",
    ),
    (
        "check-trace",
        "fresh",
        "rows[aspect=postmortems].breaker_trips",
    ),
    // check-service's fresh run skipped the admission-accounting identity
    // and the answered > 0 coverage bar.
    ("check-service", "fresh", "rows[aspect=admission].attempted"),
    ("check-service", "fresh", "rows[aspect=honesty].answered"),
    // The checked-in verdict is the recorded summary `pass` plus its
    // verdict field; the old checks read one of the two, or neither.
    ("check-ingest", "checked-in", "summary.pass"),
    ("check-query", "checked-in", "summary.pass"),
    ("check-obs", "checked-in", "summary.pass"),
    ("check-chaos", "checked-in", "summary.pass"),
    ("check-service", "checked-in", "summary.acceptable"),
    ("check-trace", "checked-in", "summary.acceptable"),
];

fn passes(outcomes: &[crate::baseline::Outcome]) -> bool {
    !outcomes.iter().any(|o| o.failed())
}

fn checked_in_text(guard: &Guard) -> String {
    let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), guard.file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// New recorded flags for a document: stamp the writer's rebuilt output.
fn new_flags(case: &Case, doc: &Baseline) -> (Baseline, Flags) {
    let stamped = case.guard.stamp((case.rewrite)(doc));
    let rows = stamped.rows.iter().map(|r| flag(r, "pass")).collect();
    let summary = flag(&stamped.summary, "pass");
    (stamped, (rows, summary))
}

/// Sets the value at a single-row or top-level path.
fn set(doc: &mut Baseline, path: &str, row: Option<usize>, v: Value) {
    let key = path.rsplit('.').next().unwrap_or(path);
    let slot = match (row, path.split_once('.')) {
        (Some(i), _) => doc.rows[i].get_mut(key),
        (None, Some(("summary", _))) => doc.summary.get_mut(key),
        (None, Some(("config", _))) => doc.config.get_mut(key),
        (None, _) => Some(&mut doc.schema_version),
    };
    *slot.unwrap_or_else(|| panic!("cannot set {path}")) = v;
}

/// The values one unit around `threshold` (two on each side), in the
/// field's own rendering.
fn around(value: &Value, threshold: f64) -> Vec<Value> {
    let (unit, decimals) = match value {
        Value::Int(_) => (1.0, 0),
        Value::Float(_, d) => (10f64.powi(-(*d as i32)), *d),
        Value::Bool(b) => return vec![Value::Bool(!b)],
        _ => return Vec::new(),
    };
    let k = (threshold / unit).floor();
    (-1..=2)
        .map(|step| (k + step as f64) * unit)
        .filter(|v| *v >= 0.0)
        .map(|v| match value {
            Value::Int(_) => Value::Int(v.round() as u64),
            _ => {
                let rendered = format!("{v:.decimals$}");
                Value::Float(rendered.parse().expect("rendered float"), decimals)
            }
        })
        .collect()
}

/// The threshold a gate's bound puts on `row` of `doc`.
fn threshold(gate: &Gate, doc: &Baseline, row: Option<usize>) -> Option<f64> {
    let number = |p: &str| -> f64 {
        let picked = match row {
            Some(i) if !p.contains('.') => doc.rows[i].get(p).cloned(),
            _ => doc.resolve(p).ok().map(|v| v[0].1.clone()),
        };
        picked.and_then(|v| v.number()).expect("bound resolves")
    };
    match gate.bound {
        _ if gate.cmp == Cmp::Present => None,
        Bound::Num(v) => Some(v),
        Bound::Path(p, f) => Some(f * number(p)),
        Bound::Sum(ps, c) => Some(ps.iter().map(|p| number(p)).sum::<f64>() + c),
        Bound::Baseline(p, f) => Some(number(p) / f),
    }
}

/// Every one-unit move of every gated field, condition and recorded flag:
/// `(moved path, document)`.
fn mutations(guard: &Guard, base: &Baseline) -> Vec<(String, Baseline)> {
    let mut gates: Vec<Gate> = guard.gates.to_vec();
    for (path, cmp, value) in guard.gates.iter().filter_map(|g| g.when) {
        gates.push(Gate::fresh(path, cmp, Bound::Num(value)));
    }
    for path in guard.verdict_field.into_iter().chain(["summary.pass"]) {
        gates.push(Gate::checked_in(path, Cmp::Eq, Bound::TRUE));
    }
    let mut out = Vec::new();
    for gate in &gates {
        for (row, value) in base.resolve(gate.path).expect("gate resolves") {
            let Some(t) = threshold(gate, base, row).or(match value {
                Value::Bool(_) => Some(0.0),
                _ => None,
            }) else {
                continue;
            };
            for v in around(value, t) {
                let mut doc = base.clone();
                set(&mut doc, gate.path, row, v);
                out.push((gate.path.to_string(), doc));
            }
        }
    }
    out
}

#[test]
fn writers_render_the_checked_in_documents_byte_for_byte() {
    for case in cases() {
        let text = checked_in_text(case.guard);
        let doc = Baseline::parse(&text).expect("checked-in baseline parses");
        assert_eq!(
            doc.render(),
            text,
            "{} parse/render round trip",
            case.guard.file
        );
        let (stamped, _) = new_flags(&case, &doc);
        assert_eq!(stamped.render(), text, "{} rewritten", case.guard.file);
    }
}

#[test]
fn gates_match_the_pre_change_predicates_one_unit_either_side_of_every_bound() {
    let mut stricter_seen = Vec::new();
    for case in cases() {
        let name = case.guard.command;
        let base_text = checked_in_text(case.guard);
        let base = Baseline::parse(&base_text).expect("checked-in baseline parses");
        let mut docs = vec![("(unmoved)".to_string(), base.clone())];
        docs.extend(mutations(case.guard, &base));
        assert!(docs.len() > 2, "{name}: no mutations generated");
        for (moved, doc) in docs {
            let (stamped, flags) = new_flags(&case, &doc);
            assert_eq!(
                flags,
                (case.old_flags)(&doc),
                "{name}: flags moving {moved}"
            );

            let mut verdicts = Vec::new();
            if let Some(old) = case.old_checked_in {
                let new = passes(&case.guard.checked_in(&doc));
                verdicts.push(("checked-in", old(&doc.render()), new));
            }
            if let Some(old) = case.old_fresh {
                let new = passes(&case.guard.fresh(&stamped, &base));
                verdicts.push(("fresh", old(&doc, &base_text), new));
            }
            for (kind, old, new) in verdicts {
                assert!(
                    old || !new,
                    "{name} {kind}: looser than before moving {moved}"
                );
                if old && !new {
                    assert!(
                        STRICTER.contains(&(name, kind, moved.as_str())),
                        "{name} {kind}: unlisted stricter verdict moving {moved}"
                    );
                    stricter_seen.push((name, kind, moved.clone()));
                }
            }
        }
    }
    for listed in STRICTER {
        assert!(
            stricter_seen
                .iter()
                .any(|(n, k, m)| (*n, *k, m.as_str()) == *listed),
            "listed stricter case never observed: {listed:?}"
        );
    }
}

#[test]
fn every_gate_path_resolves_in_checked_in_and_quick_documents() {
    for case in cases() {
        let guard = case.guard;
        let checked_in = Baseline::parse(&checked_in_text(guard)).expect("parses");
        let quick = guard.stamp((guard.measure)(true));
        for (what, doc) in [("checked-in", &checked_in), ("quick", &quick)] {
            let scopes = [Scope::Row, Scope::Summary, Scope::Fresh, Scope::CheckedIn];
            for o in crate::baseline::evaluate(guard.gates, &scopes, doc, Some(&checked_in)) {
                if let Verdict::Fail(why) = &o.verdict {
                    assert!(
                        !why.contains("unresolved") && !why.contains("not a number"),
                        "{} {what}: {why}",
                        guard.command
                    );
                }
            }
            for path in guard.gates.iter().filter_map(|g| g.when.map(|w| w.0)) {
                assert!(
                    doc.resolve(path).is_ok(),
                    "{} {what}: {path}",
                    guard.command
                );
            }
        }
    }
}
