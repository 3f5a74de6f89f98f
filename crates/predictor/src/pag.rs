//! PAg: per-address (first level) histories, global pattern table — the
//! paper's evaluation vehicle.

use crate::{BhtIndexer, BranchHistoryTable, BranchPredictor, PatternHistoryTable};
use bwsa_trace::{BranchId, Direction, Pc};

/// PAg two-level predictor (Yeh & Patt): a branch history table of
/// per-entry history registers feeds one shared pattern history table of
/// two-bit counters.
///
/// The [`BhtIndexer`] decides which history register a branch uses —
/// conventional pc-modulo, the paper's compiler allocation, or a private
/// per-branch register (interference-free). §5.3 evaluates exactly these
/// three on a 1024-entry BHT with a 4096-entry PHT (12 bits of history);
/// [`Pag::paper_baseline`] and friends build those configurations.
///
/// # Example
///
/// ```
/// use bwsa_predictor::{simulate, BhtIndexer, Pag};
/// use bwsa_trace::TraceBuilder;
///
/// // Two branches with colliding BHT entries corrupt each other's
/// // local history under pc-modulo indexing...
/// let mut b = TraceBuilder::new("collide");
/// for i in 0..4000u64 {
///     let pc = if i % 2 == 0 { 0x1000 } else { 0x1000 + 4 * 8 }; // same idx mod 8
///     b.record(pc, (i / 2) % 4 != 3, i + 1);
/// }
/// let trace = b.finish();
/// let collided = simulate(&mut Pag::new(BhtIndexer::pc_modulo(8), 8), &trace);
/// // ...while private histories capture the 4-periodic pattern exactly.
/// let private = simulate(&mut Pag::new(BhtIndexer::PerBranch, 8), &trace);
/// assert!(private.misprediction_rate() <= collided.misprediction_rate());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pag {
    indexer: BhtIndexer,
    bht: BranchHistoryTable,
    pht: PatternHistoryTable,
    /// `last_user[entry]` = id of the previous branch to update the entry.
    last_user: Vec<u32>,
    interference_events: u64,
}

impl Pag {
    /// Creates a PAg with the given first-level indexing scheme and
    /// `history_bits` of per-entry history; the PHT has
    /// `2^history_bits` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is outside `1..=24`.
    pub fn new(indexer: BhtIndexer, history_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&history_bits),
            "history bits {history_bits} outside 1..=24"
        );
        let bht = match indexer.table_size() {
            Some(size) => BranchHistoryTable::new(size, history_bits),
            None => BranchHistoryTable::growable(history_bits),
        };
        let pht = PatternHistoryTable::new(1 << history_bits);
        Pag {
            indexer,
            bht,
            pht,
            last_user: Vec::new(),
            interference_events: 0,
        }
    }

    /// Number of *interference events* observed so far: dynamic branches
    /// that found their BHT entry last written by a different static
    /// branch. This is the quantity branch allocation minimises; the
    /// conventional pc-indexed table accumulates them wherever low pc
    /// bits collide.
    pub fn interference_events(&self) -> u64 {
        self.interference_events
    }

    /// The paper's baseline: PAg, 1024-entry pc-indexed BHT, 4096-entry
    /// PHT (12 history bits).
    pub fn paper_baseline() -> Self {
        Pag::new(BhtIndexer::pc_modulo(1024), 12)
    }

    /// The paper's interference-free reference: a private history per
    /// static branch (standing in for the 2M-entry BHT), 4096-entry PHT.
    pub fn interference_free() -> Self {
        Pag::new(BhtIndexer::PerBranch, 12)
    }

    /// A paper-configured PAg with an arbitrary indexer (12 history bits,
    /// 4096-entry PHT).
    pub fn paper_with_indexer(indexer: BhtIndexer) -> Self {
        Pag::new(indexer, 12)
    }

    /// The first-level indexing scheme.
    pub fn indexer(&self) -> &BhtIndexer {
        &self.indexer
    }

    /// Interference bookkeeping shared by `update` and `observe`.
    #[inline]
    fn note_user(&mut self, entry: usize, id: BranchId) {
        const FREE: u32 = u32::MAX;
        if entry >= self.last_user.len() {
            self.last_user.resize(entry + 1, FREE);
        }
        let prev = self.last_user[entry];
        if prev != FREE && prev != id.as_u32() {
            self.interference_events += 1;
        }
        self.last_user[entry] = id.as_u32();
    }
}

impl BranchPredictor for Pag {
    fn name(&self) -> String {
        format!("PAg[{}]h{}", self.indexer.label(), self.bht.width())
    }

    fn predict(&mut self, pc: Pc, id: BranchId) -> Direction {
        let entry = self.indexer.index(pc, id);
        self.pht.predict(self.bht.history(entry))
    }

    fn update(&mut self, pc: Pc, id: BranchId, outcome: Direction) {
        let entry = self.indexer.index(pc, id);
        let history = self.bht.history(entry);
        self.pht.update(history, outcome);
        self.bht.record(entry, outcome);
        self.note_user(entry, id);
    }

    fn observe(&mut self, pc: Pc, id: BranchId, outcome: Direction) -> Direction {
        // predict + update share the entry index and the pre-update
        // history; compute each once.
        let entry = self.indexer.index(pc, id);
        let history = self.bht.observe(entry, outcome);
        let predicted = self.pht.observe(history, outcome);
        self.note_user(entry, id);
        predicted
    }

    fn interference_events(&self) -> Option<u64> {
        Some(self.interference_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use bwsa_trace::TraceBuilder;

    /// A 5-periodic loop branch: TTTT N repeating.
    fn loop_trace(pc: u64, n: u64) -> bwsa_trace::Trace {
        let mut b = TraceBuilder::new("loop5");
        for i in 0..n {
            b.record(pc, i % 5 != 4, i + 1);
        }
        b.finish()
    }

    #[test]
    fn pag_learns_loop_patterns_perfectly() {
        let trace = loop_trace(0x400, 5000);
        let r = simulate(&mut Pag::new(BhtIndexer::pc_modulo(64), 8), &trace);
        assert!(
            r.misprediction_rate() < 0.01,
            "rate {} should approach 0 after warmup",
            r.misprediction_rate()
        );
    }

    #[test]
    fn paper_configurations() {
        let base = Pag::paper_baseline();
        assert_eq!(base.name(), "PAg[pc-modulo/1024]h12");
        let inf = Pag::interference_free();
        assert_eq!(inf.name(), "PAg[per-branch]h12");
    }

    /// Interleaves a perfectly periodic branch A (period 4) with a
    /// pseudo-random branch B. Sharing one history register pollutes A's
    /// history with B's noise; a private (or allocated) register keeps A
    /// perfectly predictable.
    fn polluted_trace() -> bwsa_trace::Trace {
        let mut b = TraceBuilder::new("polluted");
        let mut lcg: u64 = 0x12345;
        for i in 0..6000u64 {
            if i % 2 == 0 {
                b.record(0x100, (i / 2) % 4 != 3, i + 1);
            } else {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b.record(0x104, (lcg >> 33) & 1 == 1, i + 1);
            }
        }
        b.finish()
    }

    /// Misprediction rate of branch id 0 (the periodic branch) only.
    fn periodic_rate(p: &mut Pag, trace: &bwsa_trace::Trace) -> f64 {
        let d = crate::simulate_detailed(p, trace);
        d.branch_rate(bwsa_trace::BranchId::new(0)).unwrap()
    }

    #[test]
    fn interference_free_beats_tiny_shared_table_under_aliasing() {
        let trace = polluted_trace();
        let shared = periodic_rate(&mut Pag::new(BhtIndexer::pc_modulo(1), 4), &trace);
        let private = periodic_rate(&mut Pag::new(BhtIndexer::PerBranch, 6), &trace);
        assert!(
            private + 0.05 < shared,
            "private {private} vs shared {shared}"
        );
        assert!(
            private < 0.02,
            "private branch A should be near-perfect: {private}"
        );
    }

    #[test]
    fn allocated_indexing_separates_colliding_branches() {
        use crate::AllocatedIndex;
        // Allocation sends the two ids to distinct entries of a 2-entry
        // table even though their pcs collide under pc-modulo-1.
        let trace = polluted_trace();
        let map = AllocatedIndex::new(2, vec![Some(0), Some(1)]).unwrap();
        let alloc = periodic_rate(&mut Pag::new(BhtIndexer::Allocated(map), 6), &trace);
        let shared = periodic_rate(&mut Pag::new(BhtIndexer::pc_modulo(1), 4), &trace);
        assert!(alloc + 0.05 < shared, "alloc {alloc} vs shared {shared}");
    }

    #[test]
    fn interference_events_count_entry_switches() {
        let trace = polluted_trace();
        // 1-entry table: every record after the first finds the other
        // branch's residue → n-1 events.
        let mut shared = Pag::new(BhtIndexer::pc_modulo(1), 4);
        let _ = simulate(&mut shared, &trace);
        assert_eq!(shared.interference_events(), trace.len() as u64 - 1);
        // Private entries: never any interference.
        let mut private = Pag::new(BhtIndexer::PerBranch, 4);
        let _ = simulate(&mut private, &trace);
        assert_eq!(private.interference_events(), 0);
    }

    #[test]
    fn interference_free_config_reports_zero_on_any_trace() {
        let trace = loop_trace(0x400, 500);
        let mut p = Pag::interference_free();
        let _ = simulate(&mut p, &trace);
        assert_eq!(p.interference_events(), 0);
    }

    #[test]
    fn growable_bht_only_allocates_touched_branches() {
        let trace = loop_trace(0x400, 100);
        let mut p = Pag::interference_free();
        let _ = simulate(&mut p, &trace);
        assert_eq!(p.bht.len(), 1, "one static branch, one history register");
    }
}
