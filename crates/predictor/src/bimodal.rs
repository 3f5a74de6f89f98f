//! The Smith bimodal predictor: a pc-indexed table of two-bit counters.

use crate::{BranchPredictor, PatternHistoryTable};
use bwsa_trace::{BranchId, Direction, Pc};

/// Bimodal (Smith 1981) predictor: `(pc >> 2) mod size` indexes a table of
/// saturating two-bit counters.
///
/// # Example
///
/// ```
/// use bwsa_predictor::{simulate, Bimodal};
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("loop");
/// for i in 1..=1000u64 {
///     b.record(0x400, i % 10 != 0, i); // 10-trip loop back-edge
/// }
/// let trace = b.finish();
/// let r = simulate(&mut Bimodal::new(512), &trace);
/// // Bimodal mispredicts about once per loop exit.
/// assert!(r.misprediction_rate() < 0.15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bimodal {
    table: PatternHistoryTable,
}

impl Bimodal {
    /// Creates a bimodal predictor with `size` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        Bimodal {
            table: PatternHistoryTable::new(size),
        }
    }

    /// The counter table size.
    pub fn size(&self) -> usize {
        self.table.len()
    }
}

impl BranchPredictor for Bimodal {
    fn name(&self) -> String {
        format!("bimodal/{}", self.table.len())
    }

    fn predict(&mut self, pc: Pc, _id: BranchId) -> Direction {
        self.table.predict(pc.word_index())
    }

    fn update(&mut self, pc: Pc, _id: BranchId, outcome: Direction) {
        self.table.update(pc.word_index(), outcome);
    }

    fn observe(&mut self, pc: Pc, _id: BranchId, outcome: Direction) -> Direction {
        self.table.observe(pc.word_index(), outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_bias_quickly() {
        let mut p = Bimodal::new(16);
        let pc = Pc::new(0x400);
        let id = BranchId::new(0);
        p.update(pc, id, Direction::Taken);
        p.update(pc, id, Direction::Taken);
        assert!(p.predict(pc, id).is_taken());
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = Bimodal::new(16);
        let a = Pc::new(0x400);
        let b = Pc::new(0x404);
        for _ in 0..3 {
            p.update(a, BranchId::new(0), Direction::Taken);
            p.update(b, BranchId::new(1), Direction::NotTaken);
        }
        assert!(p.predict(a, BranchId::new(0)).is_taken());
        assert!(!p.predict(b, BranchId::new(1)).is_taken());
    }

    #[test]
    fn aliased_pcs_interfere() {
        let mut p = Bimodal::new(4);
        let a = Pc::new(0x0);
        let b = Pc::new(4 * 4); // same index mod 4
        for _ in 0..3 {
            p.update(a, BranchId::new(0), Direction::Taken);
        }
        for _ in 0..3 {
            p.update(b, BranchId::new(1), Direction::NotTaken);
        }
        assert!(
            !p.predict(a, BranchId::new(0)).is_taken(),
            "b overwrote a's counter"
        );
    }

    #[test]
    fn name_includes_size() {
        assert_eq!(Bimodal::new(512).name(), "bimodal/512");
    }
}
