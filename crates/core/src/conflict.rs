//! Step 2: the branch conflict graph and its threshold refinement
//! (§4.1–4.2).

use crate::interleave::detect;
use crate::CoreError;
use bwsa_graph::ConflictGraph;
use bwsa_trace::Trace;

/// Configuration of conflict-graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictConfig {
    /// Minimum interleave count for an edge to survive (§4.2). The paper
    /// uses 100 and reports that 500 or 1000 "show no significant
    /// difference"; the `ablation_threshold` bench binary verifies that.
    pub threshold: u64,
}

impl Default for ConflictConfig {
    fn default() -> Self {
        ConflictConfig { threshold: 100 }
    }
}

impl ConflictConfig {
    /// A config with a custom threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `threshold` is zero (a
    /// zero threshold keeps every accidental one-off conflict and is
    /// never what the analysis wants; use 1 to keep everything).
    pub fn with_threshold(threshold: u64) -> Result<Self, CoreError> {
        if threshold == 0 {
            return Err(CoreError::config("threshold must be at least 1"));
        }
        Ok(ConflictConfig { threshold })
    }
}

/// The conflict graph of a trace, before and after thresholding.
///
/// Node `i` of either graph is the branch with
/// [`bwsa_trace::BranchId::index`] `i` in the analysed trace.
///
/// # Example
///
/// ```
/// use bwsa_core::conflict::{ConflictAnalysis, ConflictConfig};
/// use bwsa_trace::TraceBuilder;
///
/// let mut t = TraceBuilder::new("pair");
/// for i in 0..500u64 {
///     t.record(0x40 + (i % 2) * 4, true, i + 1);
/// }
/// let analysis = ConflictAnalysis::of_trace(&t.finish(), ConflictConfig::default());
/// assert_eq!(analysis.graph.edge_count(), 1);
/// assert!(analysis.graph.edge_weight(0, 1).unwrap() >= 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictAnalysis {
    /// The thresholded conflict graph used by all downstream analyses.
    pub graph: ConflictGraph,
    /// Edge count before thresholding (for reporting graph reduction).
    pub raw_edge_count: usize,
    /// Total interleave weight before thresholding.
    pub raw_total_weight: u64,
    /// The configuration used.
    pub config: ConflictConfig,
}

impl ConflictAnalysis {
    /// Runs interleaving analysis (step 1) and thresholding (step 2) on a
    /// trace.
    pub fn of_trace(trace: &Trace, config: ConflictConfig) -> Self {
        detect(trace).compile(config)
    }

    /// Thresholds an already-built raw interleave graph (used by the
    /// cumulative-profile path, where the raw graph comes from a merge).
    pub fn of_raw_graph(raw: ConflictGraph, config: ConflictConfig) -> Self {
        let raw_edge_count = raw.edge_count();
        let raw_total_weight = raw.total_weight();
        ConflictAnalysis {
            graph: raw.pruned(config.threshold),
            raw_edge_count,
            raw_total_weight,
            config,
        }
    }

    /// Fraction of raw edges eliminated by the threshold, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.raw_edge_count == 0 {
            0.0
        } else {
            1.0 - self.graph.edge_count() as f64 / self.raw_edge_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    /// Branches 0/1 interleave ~300 times; branch 2 brushes past once.
    fn trace_with_weak_edge() -> bwsa_trace::Trace {
        let mut t = TraceBuilder::new("weak");
        let mut time = 0;
        for _ in 0..300 {
            time += 1;
            t.record(0xa, true, time);
            time += 1;
            t.record(0xb, true, time);
        }
        time += 1;
        t.record(0xc, true, time);
        time += 1;
        t.record(0xa, true, time);
        time += 1;
        t.record(0xc, true, time);
        t.finish()
    }

    #[test]
    fn threshold_removes_incidental_conflicts() {
        let trace = trace_with_weak_edge();
        let a = ConflictAnalysis::of_trace(&trace, ConflictConfig::default());
        assert_eq!(a.graph.edge_count(), 1, "only the hot pair survives");
        assert!(a.raw_edge_count > 1);
        assert!(a.reduction() > 0.0);
    }

    #[test]
    fn threshold_one_keeps_everything() {
        let trace = trace_with_weak_edge();
        let cfg = ConflictConfig::with_threshold(1).unwrap();
        let a = ConflictAnalysis::of_trace(&trace, cfg);
        assert_eq!(a.graph.edge_count(), a.raw_edge_count);
        assert_eq!(a.reduction(), 0.0);
    }

    #[test]
    fn zero_threshold_is_rejected() {
        assert!(ConflictConfig::with_threshold(0).is_err());
    }

    #[test]
    fn default_threshold_is_the_papers() {
        assert_eq!(ConflictConfig::default().threshold, 100);
    }

    #[test]
    fn raw_totals_are_preserved() {
        let trace = trace_with_weak_edge();
        let a = ConflictAnalysis::of_trace(&trace, ConflictConfig::default());
        let raw = crate::interleave_counts(&trace).build();
        assert_eq!(a.raw_total_weight, raw.total_weight());
    }
}
