//! Probability amplification by independent repetition (`δ → δ^R`): the
//! ensemble layer every boosted structure shares.
//!
//! Every query in this workspace fails with some per-repetition
//! probability δ — the event surfaced as
//! [`SketchError::SketchFailure`]. Because failures are *detected* (the
//! typed-error invariant: a failed decode never masquerades as an answer),
//! the classic amplification argument applies directly: run `R`
//! structurally identical sketches seeded from **sibling seeds** of one
//! [`SeedTree`](dgs_field::SeedTree), ingest the same stream into each, and
//! answer from the first repetition whose decode certifies. The
//! repetitions are mutually independent, so the probability that *all*
//! fail is `δ^R`.
//!
//! One resolver answers every boosted query — [`BoostedQuery::query`] here,
//! and the supervised ensembles' live and frozen queries
//! ([`crate::SupervisedIngestor::query`], [`crate::FrozenEnsemble::query`]).
//! It consults repetitions in ascending index order under a
//! [`QueryBudget`] and a [`QueryPolicy`]:
//!
//! * [`QueryPolicy::FirstSuccess`] — stop at the first decode. Correct
//!   whenever failures are detected (the workspace invariant), which makes
//!   every success equally trustworthy; this is the paper's implicit
//!   "repeat `O(log n)` times" device.
//! * [`QueryPolicy::Majority`] — consult every repetition within budget and
//!   take the most frequent value; a tie goes to the value of the
//!   lowest-index repetition. Strictly more conservative: it also guards
//!   against *undetected* wrong answers (e.g. a silently diverged shard),
//!   at the cost of decoding every repetition.
//!
//! Both short-circuit on [`SketchError::InvalidInput`]: a malformed stream
//! poisons every repetition identically, so retrying is useless and the
//! outcome is [`QueryOutcome::Invalid`].
//!
//! Sharded ingestion: [`crate::ShardedIngestor`] stripes the `R`
//! repetitions across worker threads (each repetition's sketch is
//! independent, so no cross-thread merging is needed).

use std::time::{Duration, Instant};

use dgs_hypergraph::Update;
use dgs_obs::{Counter, Histogram, MetricsSink};
use dgs_sketch::{SketchError, SketchResult};

use crate::checkpoint::Recoverable;

/// The resolution of a boosted query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome<T> {
    /// A repetition produced a certified answer.
    Answer {
        /// The resolved answer.
        value: T,
        /// Repetitions that failed (retryably) before/while resolving.
        failed_repetitions: usize,
    },
    /// Every repetition failed retryably — the `δ^R` event. The caller
    /// knows it does *not* know; no silent wrong answer was emitted.
    Unknown {
        /// Number of failed repetitions (= `R`).
        failed_repetitions: usize,
    },
    /// The input itself is malformed; no amount of repetition helps.
    Invalid(SketchError),
}

/// How a query over an ensemble resolves multiple decodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPolicy {
    /// Stop at the first repetition that decodes (the paper's boosting).
    FirstSuccess,
    /// Consult every repetition (within budget) and take the majority
    /// value, a tie going to the lowest-index repetition's value; outvoted
    /// repetitions are reported as incidents — the only query-side defense
    /// against a silently diverged shard.
    Majority,
}

/// Per-query resource budget. `None` fields are unlimited.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryBudget {
    /// Wall-clock deadline for the whole query.
    pub deadline: Option<Duration>,
    /// Per-repetition decode deadline. A decode that succeeds late is still
    /// *used* (correctness first) but counts as an incident against the
    /// shard's decode budget.
    pub per_shard_deadline: Option<Duration>,
    /// Maximum repetitions consulted before resolving with what was seen.
    pub max_decode_steps: Option<usize>,
}

/// What went wrong (or looked wrong) at one shard during a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// Retryable decode failure (the expected δ event).
    Failure,
    /// Decode succeeded but blew its per-shard deadline.
    Slow,
    /// Decode succeeded but disagreed with the majority value.
    Outvoted,
}

/// One query-side incident, attributed to a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeIncident {
    /// The shard (repetition index) involved.
    pub shard: usize,
    /// What happened.
    pub kind: IncidentKind,
}

/// What [`resolve`] decided, before an ensemble adds its own reporting.
pub(crate) struct Resolution<T> {
    /// `Answer`, `Unknown` (nothing decoded) or `Invalid`.
    pub(crate) outcome: QueryOutcome<T>,
    /// The wall-clock deadline ran out before any repetition decoded.
    pub(crate) deadline_exceeded: bool,
    /// Per-shard incidents observed while resolving.
    pub(crate) incidents: Vec<DecodeIncident>,
    /// Repetitions actually consulted.
    pub(crate) consulted: usize,
}

/// The one query resolver: consults `reps` — `(repetition index, sketch)`
/// pairs in ascending index order — under `budget` and `policy` (see the
/// module docs). Out of wall clock, it resolves with the values decoded so
/// far, or reports the deadline when there are none; at the step cap it
/// resolves with what it has.
pub(crate) fn resolve<'a, S: 'a, T: PartialEq>(
    reps: impl IntoIterator<Item = (usize, &'a S)>,
    budget: &QueryBudget,
    policy: QueryPolicy,
    decode: impl Fn(usize, &S) -> SketchResult<T>,
) -> Resolution<T> {
    let start = Instant::now();
    let mut incidents = Vec::new();
    let mut consulted = 0usize;
    let mut failed = 0usize;
    let mut deadline_exceeded = false;
    let mut votes: Vec<(usize, T)> = Vec::new();
    for (shard, sketch) in reps {
        if budget
            .deadline
            .is_some_and(|limit| start.elapsed() >= limit)
        {
            deadline_exceeded = votes.is_empty();
            break;
        }
        if budget.max_decode_steps.is_some_and(|cap| consulted >= cap) {
            break;
        }
        consulted += 1;
        // Inert (a thread-local read) unless the caller holds an ambient
        // trace context — the span then records which shard was consulted
        // and how long its decode took.
        let span = dgs_trace::child("dgs_core_supervise_shard_decode");
        let timed = budget
            .per_shard_deadline
            .map(|limit| (limit, Instant::now()));
        let outcome = decode(shard, sketch);
        span.finish();
        if timed.is_some_and(|(limit, t)| t.elapsed() > limit) {
            incidents.push(DecodeIncident {
                shard,
                kind: IncidentKind::Slow,
            });
        }
        match outcome {
            Ok(value) => {
                votes.push((shard, value));
                if policy == QueryPolicy::FirstSuccess {
                    break;
                }
            }
            Err(e) if e.is_retryable() => {
                failed += 1;
                incidents.push(DecodeIncident {
                    shard,
                    kind: IncidentKind::Failure,
                });
            }
            Err(e) => {
                return Resolution {
                    outcome: QueryOutcome::Invalid(e),
                    deadline_exceeded: false,
                    incidents,
                    consulted,
                };
            }
        }
    }
    // The most frequent value; scanning in consultation order with a strict
    // `>` hands a tie to the lowest-index repetition. Under `FirstSuccess`
    // there is at most one vote.
    let mut winner: Option<(usize, usize)> = None;
    for (i, (_, candidate)) in votes.iter().enumerate() {
        let count = votes.iter().filter(|(_, v)| v == candidate).count();
        if winner.is_none_or(|(_, best)| count > best) {
            winner = Some((i, count));
        }
    }
    let outcome = match winner {
        Some((i, _)) => {
            let value = votes.remove(i).1;
            incidents.extend(
                votes
                    .iter()
                    .filter(|(_, v)| *v != value)
                    .map(|&(shard, _)| DecodeIncident {
                        shard,
                        kind: IncidentKind::Outvoted,
                    }),
            );
            QueryOutcome::Answer {
                value,
                failed_repetitions: failed,
            }
        }
        None => QueryOutcome::Unknown {
            failed_repetitions: failed,
        },
    };
    Resolution {
        outcome,
        deadline_exceeded,
        incidents,
        consulted,
    }
}

/// Metric handles for one boosted query; null (free) by default, shared
/// across clones.
#[derive(Clone, Debug, Default)]
struct BoostMetrics {
    /// Distribution of `1 + failed_repetitions` on answered queries — the
    /// geometric-ish "repetitions until success" the `δ^R` analysis governs.
    repetitions_until_success: Histogram,
    answers: Counter,
    unknowns: Counter,
    invalid: Counter,
}

impl BoostMetrics {
    fn resolve(sink: &MetricsSink) -> BoostMetrics {
        BoostMetrics {
            repetitions_until_success: sink.histogram("dgs_core_boost_repetitions_until_success"),
            answers: sink.counter("dgs_core_boost_answers"),
            unknowns: sink.counter("dgs_core_boost_unknowns"),
            invalid: sink.counter("dgs_core_boost_invalid"),
        }
    }
}

/// `R` independent same-structure repetitions resolving queries by
/// first-success or majority (see the module docs).
#[derive(Clone, Debug)]
pub struct BoostedQuery<S> {
    repetitions: Vec<S>,
    metrics: BoostMetrics,
}

impl<S> BoostedQuery<S> {
    /// Builds `r` repetitions via `build`, which is handed the repetition
    /// index — derive each repetition's randomness from a **sibling seed**
    /// (`seeds.child(i)`) so the repetitions are independent; identical
    /// seeds would make every repetition fail on the same streams and the
    /// amplification argument collapses (the Section 4.2 pitfall).
    pub fn new(r: usize, mut build: impl FnMut(usize) -> S) -> BoostedQuery<S> {
        assert!(r >= 1, "need at least one repetition");
        BoostedQuery {
            repetitions: (0..r).map(&mut build).collect(),
            metrics: BoostMetrics::default(),
        }
    }

    /// Wraps already-built repetitions (used by sharded ingestion).
    pub fn from_repetitions(repetitions: Vec<S>) -> BoostedQuery<S> {
        assert!(!repetitions.is_empty(), "need at least one repetition");
        BoostedQuery {
            repetitions,
            metrics: BoostMetrics::default(),
        }
    }

    /// Attach metric handles resolved from `sink` (`dgs_core_boost_*`:
    /// outcome counters and the repetitions-until-success distribution the
    /// `δ^R` bound governs). Only the query-resolution layer is
    /// instrumented here — to also observe the underlying sketches, set
    /// their sinks before wrapping them. Default is the null sink.
    pub fn set_sink(&mut self, sink: &MetricsSink) {
        self.metrics = BoostMetrics::resolve(sink);
    }

    /// Number of repetitions `R`.
    pub fn repetitions(&self) -> usize {
        self.repetitions.len()
    }

    /// Read access to the individual repetitions.
    pub fn sketches(&self) -> &[S] {
        &self.repetitions
    }

    /// Resolves a query over the repetitions by `policy` through the one
    /// resolver (see the module docs). Retryable failures are counted and
    /// skipped; `InvalidInput` short-circuits to [`QueryOutcome::Invalid`].
    pub fn query<T: PartialEq>(
        &self,
        policy: QueryPolicy,
        q: impl Fn(&S) -> SketchResult<T>,
    ) -> QueryOutcome<T> {
        // Inert without an ambient trace; under one, records how long the
        // boosted decode took end to end.
        let _span = dgs_trace::child("dgs_core_boost_decode");
        let reps = self.repetitions.iter().enumerate();
        let outcome = resolve(reps, &QueryBudget::default(), policy, |_, s| q(s)).outcome;
        match &outcome {
            QueryOutcome::Answer {
                failed_repetitions, ..
            } => {
                self.metrics.answers.inc();
                self.metrics
                    .repetitions_until_success
                    .record(*failed_repetitions as u64 + 1);
            }
            QueryOutcome::Unknown { .. } => self.metrics.unknowns.inc(),
            QueryOutcome::Invalid(_) => self.metrics.invalid.inc(),
        }
        outcome
    }
}

impl<S: Recoverable> BoostedQuery<S> {
    /// Applies one stream update to every repetition. A malformed element
    /// is rejected by the first repetition's validation before any later
    /// repetition is touched (all repetitions share one space and vertex
    /// set, so they accept or reject identically).
    #[must_use = "a dropped SketchResult hides a sketch failure"]
    pub fn try_update(&mut self, u: &Update) -> SketchResult<()> {
        for s in &mut self.repetitions {
            s.apply_update(u)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// A stub sketch whose query fails for repetition indices below the
    /// threshold — exercises the resolution policies deterministically.
    struct Stub {
        index: usize,
        answer: i64,
    }

    fn failing_below(threshold: usize) -> impl Fn(&Stub) -> SketchResult<i64> {
        move |s: &Stub| {
            if s.index < threshold {
                Err(SketchError::failure("stub", "sampler failed"))
            } else {
                Ok(s.answer)
            }
        }
    }

    fn boosted(r: usize) -> BoostedQuery<Stub> {
        BoostedQuery::new(r, |index| Stub { index, answer: 42 })
    }

    #[test]
    fn first_success_skips_failures() {
        let b = boosted(5);
        assert_eq!(
            b.query(QueryPolicy::FirstSuccess, failing_below(3)),
            QueryOutcome::Answer {
                value: 42,
                failed_repetitions: 3
            }
        );
    }

    #[test]
    fn all_failures_degrade_to_unknown() {
        let b = boosted(4);
        for policy in [QueryPolicy::FirstSuccess, QueryPolicy::Majority] {
            assert_eq!(
                b.query(policy, failing_below(10)),
                QueryOutcome::Unknown {
                    failed_repetitions: 4
                }
            );
        }
    }

    #[test]
    fn invalid_input_short_circuits() {
        let b = boosted(3);
        let out = b.query(QueryPolicy::Majority, |_s: &Stub| -> SketchResult<i64> {
            Err(SketchError::invalid("bad stream"))
        });
        assert!(matches!(out, QueryOutcome::Invalid(ref e) if !e.is_retryable()));
    }

    #[test]
    fn majority_prefers_the_common_answer() {
        let b = BoostedQuery::new(5, |index| Stub {
            index,
            answer: if index == 0 { 7 } else { 42 },
        });
        let out = b.query(QueryPolicy::Majority, |s| {
            if s.index == 3 {
                Err(SketchError::failure("stub", "one failure"))
            } else {
                Ok(s.answer)
            }
        });
        assert_eq!(
            out,
            QueryOutcome::Answer {
                value: 42,
                failed_repetitions: 1
            }
        );
    }

    #[test]
    fn majority_tie_goes_to_the_lowest_index_repetition() {
        // Votes 7, 42, 7, 42: a 2-2 tie, won by repetition 0's value.
        let b = BoostedQuery::new(4, |index| Stub {
            index,
            answer: if index % 2 == 0 { 7 } else { 42 },
        });
        let out = b.query(QueryPolicy::Majority, |s| Ok(s.answer));
        assert_eq!(
            out,
            QueryOutcome::Answer {
                value: 7,
                failed_repetitions: 0
            }
        );
        let r = resolve(
            b.sketches().iter().enumerate(),
            &QueryBudget::default(),
            QueryPolicy::Majority,
            |_, s| Ok(s.answer),
        );
        let outvoted: Vec<usize> = r.incidents.iter().map(|i| i.shard).collect();
        assert_eq!(outvoted, [1, 3]);
    }
}
