//! The two tables of a two-level predictor: the branch history table
//! (first level) and the pattern history table (second level).

use crate::{HistoryRegister, SaturatingCounter};
use bwsa_trace::Direction;

/// First-level table: one [`HistoryRegister`] per entry.
///
/// A [`crate::BhtIndexer`] decides which entry a branch uses; a
/// "per-branch" indexer makes the table grow on demand, modelling the
/// paper's interference-free 2M-entry BHT without allocating two million
/// registers up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchHistoryTable {
    entries: Vec<HistoryRegister>,
    width: u32,
    growable: bool,
}

impl BranchHistoryTable {
    /// Creates a fixed-size table of `size` history registers of
    /// `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `width` is outside `1..=63`.
    pub fn new(size: usize, width: u32) -> Self {
        assert!(size > 0, "BHT size must be positive");
        BranchHistoryTable {
            entries: vec![HistoryRegister::new(width); size],
            width,
            growable: false,
        }
    }

    /// Creates an empty table that grows to whatever index is touched —
    /// the interference-free configuration.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=63`.
    pub fn growable(width: u32) -> Self {
        // Validate width eagerly.
        let _probe = HistoryRegister::new(width);
        BranchHistoryTable {
            entries: Vec::new(),
            width,
            growable: true,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table currently has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// History register width.
    pub fn width(&self) -> u32 {
        self.width
    }

    fn ensure(&mut self, index: usize) {
        if self.growable && index >= self.entries.len() {
            self.entries
                .resize(index + 1, HistoryRegister::new(self.width));
        }
    }

    /// Reads the history value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for a fixed-size table.
    pub fn history(&mut self, index: usize) -> u64 {
        self.ensure(index);
        self.entries[index].value()
    }

    /// Shifts an outcome into the register at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for a fixed-size table.
    pub fn record(&mut self, index: usize, outcome: Direction) {
        self.ensure(index);
        self.entries[index].push(outcome);
    }

    /// Reads the history value at `index` and shifts `outcome` in — one
    /// bounds check and one `ensure` instead of the two a
    /// [`BranchHistoryTable::history`] / [`BranchHistoryTable::record`]
    /// pair costs on the simulation hot path. Returns the *pre-update*
    /// history value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for a fixed-size table.
    pub fn observe(&mut self, index: usize, outcome: Direction) -> u64 {
        self.ensure(index);
        let entry = &mut self.entries[index];
        let history = entry.value();
        entry.push(outcome);
        history
    }
}

/// Second-level table: saturating counters indexed by a pattern (history
/// value or hashed pc/history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHistoryTable {
    counters: Vec<SaturatingCounter>,
    /// `size - 1` when `size` is a power of two (the common `2^history`
    /// configuration), letting the pattern fold be a mask instead of a
    /// 64-bit division; `0` otherwise (a 1-entry table masks to 0 too,
    /// which is exactly right).
    mask: u64,
}

impl PatternHistoryTable {
    /// Creates a table of `size` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        PatternHistoryTable::with_bits(size, 2)
    }

    /// Creates a table of `size` n-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `bits` is outside `1..=8`.
    pub fn with_bits(size: usize, bits: u32) -> Self {
        assert!(size > 0, "PHT size must be positive");
        PatternHistoryTable {
            counters: vec![SaturatingCounter::new(bits); size],
            mask: if size.is_power_of_two() {
                size as u64 - 1
            } else {
                0
            },
        }
    }

    /// The counter index for `pattern`: a mask for power-of-two tables, a
    /// modulo otherwise. Always in range, so callers may index without a
    /// second bounds check.
    #[inline]
    fn slot(&self, pattern: u64) -> usize {
        if self.mask != 0 || self.counters.len() == 1 {
            (pattern & self.mask) as usize
        } else {
            (pattern % self.counters.len() as u64) as usize
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Returns `true` if the table has no counters (never: construction
    /// requires a positive size).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The prediction of the counter for `pattern` (taken modulo the
    /// table size).
    pub fn predict(&self, pattern: u64) -> Direction {
        self.counters[self.slot(pattern)].predict()
    }

    /// Trains the counter for `pattern` with an outcome.
    pub fn update(&mut self, pattern: u64, outcome: Direction) {
        let i = self.slot(pattern);
        self.counters[i].update(outcome);
    }

    /// Reads the prediction for `pattern` and trains the same counter
    /// with `outcome` — one index fold and one bounds check for the
    /// predict/update pair every simulated branch performs.
    pub fn observe(&mut self, pattern: u64, outcome: Direction) -> Direction {
        let i = self.slot(pattern);
        let counter = &mut self.counters[i];
        let predicted = counter.predict();
        counter.update(outcome);
        predicted
    }

    /// Read access to the counter for `pattern`.
    pub fn counter(&self, pattern: u64) -> &SaturatingCounter {
        &self.counters[self.slot(pattern)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bht_histories_are_independent() {
        let mut bht = BranchHistoryTable::new(2, 4);
        bht.record(0, Direction::Taken);
        bht.record(1, Direction::NotTaken);
        bht.record(0, Direction::Taken);
        assert_eq!(bht.history(0), 0b11);
        assert_eq!(bht.history(1), 0b0);
    }

    #[test]
    fn growable_bht_extends_on_demand() {
        let mut bht = BranchHistoryTable::growable(4);
        assert!(bht.is_empty());
        bht.record(10, Direction::Taken);
        assert_eq!(bht.len(), 11);
        assert_eq!(bht.history(10), 1);
        assert_eq!(bht.history(3), 0);
    }

    #[test]
    #[should_panic]
    fn fixed_bht_panics_out_of_range() {
        let mut bht = BranchHistoryTable::new(2, 4);
        bht.record(5, Direction::Taken);
    }

    #[test]
    fn pht_learns_per_pattern() {
        let mut pht = PatternHistoryTable::new(4);
        for _ in 0..2 {
            pht.update(1, Direction::Taken);
            pht.update(2, Direction::NotTaken);
        }
        assert!(pht.predict(1).is_taken());
        assert!(!pht.predict(2).is_taken());
    }

    #[test]
    fn pht_pattern_wraps_modulo() {
        let mut pht = PatternHistoryTable::new(4);
        pht.update(5, Direction::Taken);
        pht.update(5, Direction::Taken);
        assert!(pht.predict(1).is_taken(), "5 mod 4 == 1");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_pht_rejected() {
        PatternHistoryTable::new(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_bht_rejected() {
        BranchHistoryTable::new(0, 4);
    }
}
