//! The agree predictor: counters vote on agreement with a per-branch
//! bias bit, converting destructive aliasing into constructive aliasing.

use crate::{BranchPredictor, HistoryRegister, SaturatingCounter};
use bwsa_trace::{BranchId, Direction, Pc};

/// Agree predictor (Sprangle et al., ISCA 1997 — reference \[18\] of the
/// paper): each branch carries a *bias bit* (set to its first observed
/// outcome); a gshare-indexed counter table predicts whether the branch
/// will **agree** with its bias. Two aliased branches that are both
/// usually right about their own bias now push the shared counter the
/// same way, neutralising negative interference — the hardware
/// counterpart of what branch allocation achieves by construction.
///
/// # Example
///
/// ```
/// use bwsa_predictor::{simulate, Agree};
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("biased");
/// for i in 0..2000u64 {
///     b.record(0x100 + (i % 8) * 4, i % 8 != 7, i + 1);
/// }
/// let r = simulate(&mut Agree::new(10, 1024), &b.finish());
/// assert!(r.misprediction_rate() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agree {
    history: HistoryRegister,
    counters: Vec<SaturatingCounter>,
    /// Bias bit per pc-hash bucket; `None` until first encounter.
    bias: Vec<Option<Direction>>,
}

impl Agree {
    /// Creates an agree predictor with `history_bits` of global history
    /// (a `2^history_bits` agreement-counter table) and a
    /// `bias_entries`-entry bias-bit table.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is outside `1..=24` or `bias_entries` is
    /// zero.
    pub fn new(history_bits: u32, bias_entries: usize) -> Self {
        assert!(
            (1..=24).contains(&history_bits),
            "history bits {history_bits} outside 1..=24"
        );
        assert!(bias_entries > 0, "bias table must be non-empty");
        let history = HistoryRegister::new(history_bits);
        Agree {
            counters: vec![SaturatingCounter::two_bit(); history.pattern_count()],
            bias: vec![None; bias_entries],
            history,
        }
    }

    fn counter_index(&self, pc: Pc) -> usize {
        let mask = (1u64 << self.history.width()) - 1;
        ((self.history.value() ^ (pc.word_index() & mask)) % self.counters.len() as u64) as usize
    }

    fn bias_index(&self, pc: Pc) -> usize {
        (pc.word_index() % self.bias.len() as u64) as usize
    }

    fn bias_of(&mut self, pc: Pc, fallback: Direction) -> Direction {
        self.bias[self.bias_index(pc)].unwrap_or(fallback)
    }
}

impl BranchPredictor for Agree {
    fn name(&self) -> String {
        format!("agree/{}", self.history.width())
    }

    fn predict(&mut self, pc: Pc, _id: BranchId) -> Direction {
        let agree = self.counters[self.counter_index(pc)].predict().is_taken();
        let bias = self.bias_of(pc, Direction::Taken);
        if agree {
            bias
        } else {
            bias.flipped()
        }
    }

    fn update(&mut self, pc: Pc, _id: BranchId, outcome: Direction) {
        let bias_idx = self.bias_index(pc);
        let bias = *self.bias[bias_idx].get_or_insert(outcome);
        let idx = self.counter_index(pc);
        self.counters[idx].update(Direction::from_taken(outcome == bias));
        self.history.push(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Gshare};
    use bwsa_trace::TraceBuilder;

    #[test]
    fn bias_bit_is_set_on_first_outcome() {
        let mut p = Agree::new(4, 8);
        let pc = Pc::new(0x40);
        p.update(pc, BranchId::new(0), Direction::NotTaken);
        assert_eq!(p.bias[p.bias_index(pc)], Some(Direction::NotTaken));
        // Counters start weakly "disagree"... prediction should flip the
        // not-taken bias only if the counter says disagree.
        let d = p.predict(pc, BranchId::new(0));
        assert!(d.is_taken() || !d.is_taken()); // total: just exercises the path
    }

    #[test]
    fn aliased_opposite_bias_branches_coexist() {
        // Two branches alias in the counter table but have opposite fixed
        // directions; agree converts both into "agree" updates.
        let mut b = TraceBuilder::new("alias");
        for i in 0..4000u64 {
            if i % 2 == 0 {
                b.record(0x100, true, i + 1);
            } else {
                b.record(0x104, false, i + 1);
            }
        }
        let trace = b.finish();
        let agree = simulate(&mut Agree::new(2, 1024), &trace);
        let gshare = simulate(&mut Gshare::new(2), &trace);
        assert!(
            agree.misprediction_rate() <= gshare.misprediction_rate(),
            "agree {} vs gshare {}",
            agree.misprediction_rate(),
            gshare.misprediction_rate()
        );
        assert!(agree.misprediction_rate() < 0.01);
    }

    #[test]
    fn name_reports_width() {
        assert_eq!(Agree::new(10, 64).name(), "agree/10");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_bias_table_rejected() {
        Agree::new(4, 0);
    }
}
