//! Branch classification (§5.2, after Chang et al., MICRO 1994).
//!
//! Branches that are highly biased towards one direction ("either greater
//! than 99% taken or less than 1% taken") can share a history register
//! without hurting prediction — "their histories would be the same
//! anyway". Classification therefore (a) removes conflict edges between
//! two branches of the same biased class, and (b) lets allocation reserve
//! just two BHT entries for all biased branches.

use bwsa_graph::ConflictGraph;
use bwsa_trace::{profile::BranchProfile, BranchId};

/// The bias class of a static branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiasClass {
    /// Taken rate at or above the taken threshold (default ≥ 99%).
    BiasedTaken,
    /// Taken rate at or below the not-taken threshold (default ≤ 1%).
    BiasedNotTaken,
    /// Everything else.
    Mixed,
}

/// Per-branch bias classes computed from a profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    classes: Vec<BiasClass>,
    taken_threshold: f64,
    not_taken_threshold: f64,
}

/// Classifies every profiled branch with the paper's thresholds
/// (≥ 99% taken → [`BiasClass::BiasedTaken`], ≤ 1% taken →
/// [`BiasClass::BiasedNotTaken`]).
///
/// # Example
///
/// ```
/// use bwsa_core::{classify, BiasClass};
/// use bwsa_trace::{profile::BranchProfile, BranchId, TraceBuilder};
///
/// let mut t = TraceBuilder::new("c");
/// for i in 0..200u64 {
///     t.record(0x100, true, 3 * i + 1);        // always taken
///     t.record(0x104, false, 3 * i + 2);       // never taken
///     t.record(0x108, i % 2 == 0, 3 * i + 3);  // 50/50
/// }
/// let profile = BranchProfile::from_trace(&t.finish());
/// let c = classify(&profile);
/// assert_eq!(c.class(BranchId::new(0)), BiasClass::BiasedTaken);
/// assert_eq!(c.class(BranchId::new(1)), BiasClass::BiasedNotTaken);
/// assert_eq!(c.class(BranchId::new(2)), BiasClass::Mixed);
/// ```
pub fn classify(profile: &BranchProfile) -> Classification {
    classify_with(profile, 0.99, 0.01)
}

/// Classifies with custom thresholds.
///
/// # Panics
///
/// Panics unless `0 <= not_taken_threshold < taken_threshold <= 1`.
pub fn classify_with(
    profile: &BranchProfile,
    taken_threshold: f64,
    not_taken_threshold: f64,
) -> Classification {
    assert!(
        (0.0..=1.0).contains(&taken_threshold)
            && (0.0..=1.0).contains(&not_taken_threshold)
            && not_taken_threshold < taken_threshold,
        "thresholds must satisfy 0 <= not_taken < taken <= 1"
    );
    let classes = profile
        .iter()
        .map(|(_, s)| {
            let r = s.taken_rate();
            if r >= taken_threshold {
                BiasClass::BiasedTaken
            } else if r <= not_taken_threshold {
                BiasClass::BiasedNotTaken
            } else {
                BiasClass::Mixed
            }
        })
        .collect();
    Classification {
        classes,
        taken_threshold,
        not_taken_threshold,
    }
}

impl Classification {
    /// The class of a branch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the classified profile.
    pub fn class(&self, id: BranchId) -> BiasClass {
        self.classes[id.index()]
    }

    /// Number of classified branches.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if no branches were classified.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Counts per class: `(biased_taken, biased_not_taken, mixed)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut t = 0;
        let mut n = 0;
        let mut m = 0;
        for c in &self.classes {
            match c {
                BiasClass::BiasedTaken => t += 1,
                BiasClass::BiasedNotTaken => n += 1,
                BiasClass::Mixed => m += 1,
            }
        }
        (t, n, m)
    }

    /// Returns `true` if the branch is in either biased class.
    pub fn is_biased(&self, id: BranchId) -> bool {
        self.class(id) != BiasClass::Mixed
    }

    /// Applies the §5.2 refinement to a conflict graph: edges between two
    /// branches of the *same* biased class are dropped ("we ignore the
    /// conflict even if it is above a threshold value").
    ///
    /// # Panics
    ///
    /// Panics if the graph's node count differs from the classification's.
    pub fn refine_graph(&self, graph: &ConflictGraph) -> ConflictGraph {
        assert_eq!(
            graph.node_count(),
            self.classes.len(),
            "graph/classification mismatch"
        );
        graph.without_edges(|a, b| self.is_harmless_pair(a, b))
    }

    /// Whether a conflict between branches `a` and `b` is one the
    /// refinement drops: both are in the same biased class.
    pub(crate) fn is_harmless_pair(&self, a: u32, b: u32) -> bool {
        let ca = self.classes[a as usize];
        ca != BiasClass::Mixed && ca == self.classes[b as usize]
    }

    /// The thresholds used: `(taken, not_taken)`.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.taken_threshold, self.not_taken_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_graph::GraphBuilder;
    use bwsa_trace::TraceBuilder;

    /// Branch 0: always taken; 1: always taken; 2: never taken; 3: mixed.
    fn sample_classification() -> Classification {
        let mut t = TraceBuilder::new("c");
        let mut time = 0;
        for i in 0..300u64 {
            for (pc, taken) in [
                (0x100, true),
                (0x104, true),
                (0x108, false),
                (0x10c, i % 3 == 0),
            ] {
                time += 1;
                t.record(pc, taken, time);
            }
        }
        classify(&BranchProfile::from_trace(&t.finish()))
    }

    #[test]
    fn counts_by_class() {
        let c = sample_classification();
        assert_eq!(c.counts(), (2, 1, 1));
        assert_eq!(c.len(), 4);
        assert!(c.is_biased(BranchId::new(0)));
        assert!(!c.is_biased(BranchId::new(3)));
    }

    #[test]
    fn refine_drops_only_same_biased_class_edges() {
        let c = sample_classification();
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 500) // taken–taken: dropped
            .add_edge(0, 2, 500) // taken–not-taken: kept
            .add_edge(0, 3, 500) // taken–mixed: kept
            .add_edge(2, 3, 500); // not-taken–mixed: kept
        let refined = c.refine_graph(&b.build());
        assert!(!refined.has_edge(0, 1));
        assert!(refined.has_edge(0, 2));
        assert!(refined.has_edge(0, 3));
        assert!(refined.has_edge(2, 3));
    }

    #[test]
    fn boundary_rates_use_inclusive_thresholds() {
        // Exactly 99% taken classifies as biased taken.
        let mut t = TraceBuilder::new("b");
        for i in 0..100u64 {
            t.record(0x100, i != 0, i + 1);
        }
        let c = classify(&BranchProfile::from_trace(&t.finish()));
        assert_eq!(c.class(BranchId::new(0)), BiasClass::BiasedTaken);
    }

    #[test]
    fn custom_thresholds() {
        let mut t = TraceBuilder::new("b");
        for i in 0..10u64 {
            t.record(0x100, i < 9, i + 1); // 90% taken
        }
        let p = BranchProfile::from_trace(&t.finish());
        assert_eq!(classify(&p).class(BranchId::new(0)), BiasClass::Mixed);
        assert_eq!(
            classify_with(&p, 0.9, 0.1).class(BranchId::new(0)),
            BiasClass::BiasedTaken
        );
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn inverted_thresholds_rejected() {
        let p = BranchProfile::from_trace(&bwsa_trace::Trace::new("e"));
        classify_with(&p, 0.1, 0.9);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn refine_checks_node_count() {
        let c = sample_classification();
        c.refine_graph(&GraphBuilder::new(2).build());
    }
}
