//! Per-static-branch execution statistics and frequency-based filtering.
//!
//! The paper reduces each benchmark to its most frequently executed static
//! conditional branches "to maintain reasonable time and space", keeping
//! ≥99.8% of all dynamic branches for every benchmark except gcc (93.7%) —
//! Table 1. [`FrequencyFilter`] reproduces that reduction; the coverage
//! numbers it reports are exactly Table 1's last three columns.

use crate::{BranchId, InstrCount, Trace};
use std::collections::HashSet;

/// Statistics for one static branch, accumulated over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Number of dynamic executions.
    pub executions: u64,
    /// Number of taken executions.
    pub taken: u64,
    /// Timestamp of the first execution.
    pub first_time: InstrCount,
    /// Timestamp of the last execution.
    pub last_time: InstrCount,
}

impl BranchStats {
    /// Counts one dynamic execution at `time`: the one per-record update
    /// behind every profile, stream and window.
    #[inline]
    pub fn record(&mut self, time: InstrCount, taken: bool) {
        if self.executions == 0 {
            self.first_time = time;
        }
        self.executions += 1;
        self.taken += u64::from(taken);
        self.last_time = time;
    }

    /// Fraction of executions that were taken, in `[0, 1]`.
    ///
    /// Returns 0 for a branch that never executed.
    pub fn taken_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.taken as f64 / self.executions as f64
        }
    }
}

/// Per-branch execution profile of a trace.
///
/// # Example
///
/// ```
/// use bwsa_trace::{profile::BranchProfile, TraceBuilder};
///
/// let mut b = TraceBuilder::new("p");
/// b.record(0x400, true, 5).record(0x400, false, 10).record(0x440, true, 15);
/// let trace = b.finish();
/// let prof = BranchProfile::from_trace(&trace);
///
/// assert_eq!(prof.total_dynamic(), 3);
/// let id = trace.table().id_of(0x400.into()).unwrap();
/// assert_eq!(prof.stats(id).executions, 2);
/// assert_eq!(prof.stats(id).taken_rate(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BranchProfile {
    stats: Vec<BranchStats>,
    total_dynamic: u64,
}

impl BranchProfile {
    /// Builds the profile of a trace in a single pass.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut stats = vec![BranchStats::default(); trace.static_branch_count()];
        for (id, rec) in trace.indexed_records() {
            stats[id.index()].record(rec.time, rec.is_taken());
        }
        BranchProfile {
            total_dynamic: trace.len() as u64,
            stats,
        }
    }

    /// Reassembles a profile from externally accumulated per-branch stats
    /// (indexed by [`BranchId`]) and the total dynamic branch count.
    ///
    /// This is the constructor used by streaming analyses, which
    /// accumulate [`BranchStats`] incrementally instead of holding the
    /// trace in memory. Feeding it the [`BranchStats::record`] updates
    /// that [`BranchProfile::from_trace`] performs yields an identical
    /// profile.
    pub fn from_parts(stats: Vec<BranchStats>, total_dynamic: u64) -> Self {
        BranchProfile {
            stats,
            total_dynamic,
        }
    }

    /// Statistics for one branch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the profiled trace.
    pub fn stats(&self, id: BranchId) -> &BranchStats {
        &self.stats[id.index()]
    }

    /// Total dynamic branches in the profiled trace.
    pub fn total_dynamic(&self) -> u64 {
        self.total_dynamic
    }

    /// Number of static branches profiled.
    pub fn static_count(&self) -> usize {
        self.stats.len()
    }

    /// Iterates `(id, stats)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, &BranchStats)> + '_ {
        self.stats
            .iter()
            .enumerate()
            .map(|(i, s)| (BranchId::new(i as u32), s))
    }

    /// Static branch ids sorted by descending execution count (ties broken
    /// by id for determinism).
    pub fn ids_by_frequency(&self) -> Vec<BranchId> {
        let mut ids: Vec<BranchId> = (0..self.stats.len())
            .map(|i| BranchId::new(i as u32))
            .collect();
        ids.sort_by_key(|id| (std::cmp::Reverse(self.stats[id.index()].executions), *id));
        ids
    }
}

/// Strategy for choosing which static branches to retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrequencyFilter {
    /// Keep the fewest top-frequency branches whose executions cover at
    /// least this fraction of all dynamic branches (e.g. `0.999`).
    Coverage(f64),
    /// Keep every branch executed at least this many times.
    MinExecutions(u64),
    /// Keep the `k` most frequently executed branches.
    TopK(usize),
}

/// Result of applying a [`FrequencyFilter`]: the retained set and the
/// Table-1 coverage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Retained static branch ids.
    pub kept: HashSet<BranchId>,
    /// Total dynamic branches in the source trace (Table 1 col. 3).
    pub total_dynamic: u64,
    /// Dynamic branches whose static branch was retained (Table 1 col. 4).
    pub analyzed_dynamic: u64,
}

impl FilterOutcome {
    /// Percentage of dynamic branches analyzed (Table 1 col. 5), in `[0, 100]`.
    pub fn analyzed_percent(&self) -> f64 {
        if self.total_dynamic == 0 {
            100.0
        } else {
            100.0 * self.analyzed_dynamic as f64 / self.total_dynamic as f64
        }
    }
}

impl FrequencyFilter {
    /// Applies the filter to a profile.
    ///
    /// # Panics
    ///
    /// Panics if a [`FrequencyFilter::Coverage`] fraction is not in `[0, 1]`.
    pub fn apply(&self, profile: &BranchProfile) -> FilterOutcome {
        let by_freq = profile.ids_by_frequency();
        let total = profile.total_dynamic();
        let mut kept = HashSet::new();
        let mut analyzed = 0u64;
        match *self {
            FrequencyFilter::Coverage(target) => {
                assert!(
                    (0.0..=1.0).contains(&target),
                    "coverage target must be in [0,1], got {target}"
                );
                let want = (target * total as f64).ceil() as u64;
                for id in by_freq {
                    if analyzed >= want {
                        break;
                    }
                    analyzed += profile.stats(id).executions;
                    kept.insert(id);
                }
            }
            FrequencyFilter::MinExecutions(min) => {
                for id in by_freq {
                    let n = profile.stats(id).executions;
                    if n >= min {
                        analyzed += n;
                        kept.insert(id);
                    } else {
                        break; // sorted descending: the rest are smaller
                    }
                }
            }
            FrequencyFilter::TopK(k) => {
                for id in by_freq.into_iter().take(k) {
                    analyzed += profile.stats(id).executions;
                    kept.insert(id);
                }
            }
        }
        FilterOutcome {
            kept,
            total_dynamic: total,
            analyzed_dynamic: analyzed,
        }
    }

    /// Applies the filter and returns the reduced trace together with the
    /// coverage accounting.
    pub fn filter_trace(&self, trace: &Trace) -> (Trace, FilterOutcome) {
        let profile = BranchProfile::from_trace(trace);
        let outcome = self.apply(&profile);
        let filtered = trace.filtered(|id| outcome.kept.contains(&id));
        (filtered, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    /// Trace where branch 0x400 runs 6×, 0x440 3×, 0x480 1×.
    fn skewed() -> Trace {
        let mut b = TraceBuilder::new("skew");
        let mut t = 0;
        for _ in 0..6 {
            t += 5;
            b.record(0x400, true, t);
        }
        for _ in 0..3 {
            t += 5;
            b.record(0x440, false, t);
        }
        t += 5;
        b.record(0x480, true, t);
        b.finish()
    }

    #[test]
    fn profile_counts_and_rates() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        assert_eq!(p.total_dynamic(), 10);
        assert_eq!(p.static_count(), 3);
        let a = t.table().id_of(0x400.into()).unwrap();
        assert_eq!(p.stats(a).executions, 6);
        assert_eq!(p.stats(a).taken_rate(), 1.0);
        let b = t.table().id_of(0x440.into()).unwrap();
        assert_eq!(p.stats(b).taken_rate(), 0.0);
    }

    #[test]
    fn first_and_last_times() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        let a = t.table().id_of(0x400.into()).unwrap();
        assert_eq!(p.stats(a).first_time.get(), 5);
        assert_eq!(p.stats(a).last_time.get(), 30);
    }

    #[test]
    fn ids_by_frequency_is_descending() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        let order = p.ids_by_frequency();
        let counts: Vec<u64> = order.iter().map(|id| p.stats(*id).executions).collect();
        assert_eq!(counts, [6, 3, 1]);
    }

    #[test]
    fn coverage_filter_stops_at_target() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        let out = FrequencyFilter::Coverage(0.6).apply(&p);
        assert_eq!(out.kept.len(), 1, "6/10 already covers 60%");
        assert_eq!(out.analyzed_dynamic, 6);
        assert!((out.analyzed_percent() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_one_keeps_everything() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        let out = FrequencyFilter::Coverage(1.0).apply(&p);
        assert_eq!(out.kept.len(), 3);
        assert_eq!(out.analyzed_percent(), 100.0);
    }

    #[test]
    fn min_executions_filter() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        let out = FrequencyFilter::MinExecutions(3).apply(&p);
        assert_eq!(out.kept.len(), 2);
        assert_eq!(out.analyzed_dynamic, 9);
    }

    #[test]
    fn top_k_filter() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        let out = FrequencyFilter::TopK(2).apply(&p);
        assert_eq!(out.kept.len(), 2);
        let out_all = FrequencyFilter::TopK(99).apply(&p);
        assert_eq!(out_all.kept.len(), 3, "k larger than population is fine");
    }

    #[test]
    fn filter_trace_reduces_records() {
        let t = skewed();
        let (reduced, out) = FrequencyFilter::TopK(1).filter_trace(&t);
        assert_eq!(reduced.len(), 6);
        assert_eq!(out.analyzed_dynamic, 6);
        assert_eq!(reduced.static_branch_count(), 1);
    }

    #[test]
    fn empty_trace_profile() {
        let t = Trace::new("empty");
        let p = BranchProfile::from_trace(&t);
        assert_eq!(p.total_dynamic(), 0);
        let out = FrequencyFilter::Coverage(0.999).apply(&p);
        assert_eq!(out.analyzed_percent(), 100.0);
        assert!(out.kept.is_empty());
    }

    #[test]
    #[should_panic(expected = "coverage target")]
    fn coverage_rejects_bad_fraction() {
        let t = skewed();
        let p = BranchProfile::from_trace(&t);
        FrequencyFilter::Coverage(1.5).apply(&p);
    }
}
