//! gshare: global history XOR pc indexes the pattern table.

use crate::{BranchPredictor, HistoryRegister, PatternHistoryTable};
use bwsa_trace::{BranchId, Direction, Pc};

/// gshare (McFarling): the global history is XORed with low pc bits to
/// index a table of two-bit counters, decorrelating branches that share
/// history patterns.
///
/// # Example
///
/// ```
/// use bwsa_predictor::{simulate, Gshare};
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("two-loops");
/// for i in 0..3000u64 {
///     b.record(0x400 + (i % 3) * 4, i % 3 != 2, i + 1);
/// }
/// let r = simulate(&mut Gshare::new(10), &b.finish());
/// assert!(r.misprediction_rate() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gshare {
    history: HistoryRegister,
    pht: PatternHistoryTable,
}

impl Gshare {
    /// Creates a gshare with `history_bits` of global history and a
    /// `2^history_bits`-entry counter table.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is outside `1..=24`.
    pub fn new(history_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&history_bits),
            "history bits {history_bits} outside 1..=24"
        );
        let history = HistoryRegister::new(history_bits);
        let pht = PatternHistoryTable::new(history.pattern_count());
        Gshare { history, pht }
    }

    fn index(&self, pc: Pc) -> u64 {
        self.history.value() ^ (pc.word_index() & ((1 << self.history.width()) - 1))
    }
}

impl BranchPredictor for Gshare {
    fn name(&self) -> String {
        format!("gshare/{}", self.history.width())
    }

    fn predict(&mut self, pc: Pc, _id: BranchId) -> Direction {
        self.pht.predict(self.index(pc))
    }

    fn update(&mut self, pc: Pc, _id: BranchId, outcome: Direction) {
        self.pht.update(self.index(pc), outcome);
        self.history.push(outcome);
    }

    fn observe(&mut self, pc: Pc, _id: BranchId, outcome: Direction) -> Direction {
        // The global history is untouched between predict and update, so
        // the xor index is the same for both — compute it once.
        let predicted = self.pht.observe(self.index(pc), outcome);
        self.history.push(outcome);
        predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_mixes_pc_and_history() {
        let mut p = Gshare::new(8);
        let before = p.index(Pc::new(0x400));
        p.update(Pc::new(0x400), BranchId::new(0), Direction::Taken);
        let after = p.index(Pc::new(0x400));
        assert_ne!(before, after, "history change moves the index");
        assert_ne!(p.index(Pc::new(0x400)), p.index(Pc::new(0x404)));
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = Gshare::new(6);
        let pc = Pc::new(0x80);
        for _ in 0..20 {
            p.update(pc, BranchId::new(0), Direction::Taken);
        }
        assert!(p.predict(pc, BranchId::new(0)).is_taken());
    }

    #[test]
    fn name_reports_width() {
        assert_eq!(Gshare::new(14).name(), "gshare/14");
    }
}
