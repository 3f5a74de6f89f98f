//! First-level-table indexing schemes — the heart of the paper.
//!
//! A conventional two-level predictor indexes its BHT with low-order pc
//! bits, colliding branches that share them (§5: "This leads to
//! contention among branches that share the same low order bits"). The
//! paper's *branch allocation* replaces that hash with a compiler-assigned
//! index carried by the (augmented) branch instruction. In this simulator
//! the assignment travels as an [`AllocatedIndex`] side table, which is
//! exactly how the paper's modified `sim-bpred` consumed it.

use crate::PredictorError;
use bwsa_trace::{BranchId, Pc};

/// A compiler-produced static branch → BHT entry assignment.
///
/// Entries are indexed by the dense [`BranchId`] of the analysed trace.
/// Branches outside the map (e.g. filtered-out cold branches) fall back to
/// conventional pc-modulo indexing, mirroring the paper's note that
/// un-annotated branches (library code) keep the old scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocatedIndex {
    table_size: usize,
    entries: Vec<Option<u32>>,
}

impl AllocatedIndex {
    /// Creates an assignment into a table of `table_size` entries.
    ///
    /// `entries[id] = Some(e)` sends branch `id` to entry `e`; `None`
    /// falls back to pc-modulo.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError`] if `table_size` is zero or any entry is
    /// out of range.
    pub fn new(table_size: usize, entries: Vec<Option<u32>>) -> Result<Self, PredictorError> {
        if table_size == 0 {
            return Err(PredictorError::InvalidTableSize {
                table: "BHT",
                size: 0,
            });
        }
        for e in entries.iter().flatten() {
            if *e as usize >= table_size {
                return Err(PredictorError::EntryOutOfRange {
                    entry: *e,
                    size: table_size,
                });
            }
        }
        Ok(AllocatedIndex {
            table_size,
            entries,
        })
    }

    /// The BHT size this assignment targets.
    pub fn table_size(&self) -> usize {
        self.table_size
    }

    /// The assigned entry for a branch, if any.
    pub fn entry(&self, id: BranchId) -> Option<u32> {
        self.entries.get(id.index()).copied().flatten()
    }

    /// Number of branches with explicit assignments.
    pub fn assigned_count(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Iterates `(branch id, entry)` over explicitly assigned branches.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, u32)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (BranchId::new(i as u32), e)))
    }
}

/// How a branch chooses its first-level-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BhtIndexer {
    /// Conventional hashing: `(pc >> 2) mod size`.
    PcModulo {
        /// Table size.
        size: usize,
    },
    /// The paper's branch allocation: compiler-assigned entries with
    /// pc-modulo fallback for unassigned branches.
    Allocated(AllocatedIndex),
    /// Interference-free: every static branch gets a private entry (the
    /// paper approximates this with a 2M-entry BHT).
    PerBranch,
}

impl BhtIndexer {
    /// Conventional pc-modulo indexing into `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn pc_modulo(size: usize) -> Self {
        assert!(size > 0, "BHT size must be positive");
        BhtIndexer::PcModulo { size }
    }

    /// The table entry for a branch.
    pub fn index(&self, pc: Pc, id: BranchId) -> usize {
        match self {
            BhtIndexer::PcModulo { size } => pc.table_index(*size),
            BhtIndexer::Allocated(map) => match map.entry(id) {
                Some(e) => e as usize,
                None => pc.table_index(map.table_size()),
            },
            BhtIndexer::PerBranch => id.index(),
        }
    }

    /// The fixed table size, or `None` for the growable per-branch table.
    pub fn table_size(&self) -> Option<usize> {
        match self {
            BhtIndexer::PcModulo { size } => Some(*size),
            BhtIndexer::Allocated(map) => Some(map.table_size()),
            BhtIndexer::PerBranch => None,
        }
    }

    /// A short label for experiment output.
    pub fn label(&self) -> String {
        match self {
            BhtIndexer::PcModulo { size } => format!("pc-modulo/{size}"),
            BhtIndexer::Allocated(map) => format!("allocated/{}", map.table_size()),
            BhtIndexer::PerBranch => "per-branch".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_modulo_uses_word_address() {
        let ix = BhtIndexer::pc_modulo(16);
        assert_eq!(ix.index(Pc::new(0x40), BranchId::new(0)), (0x40 >> 2) % 16);
        assert_eq!(ix.index(Pc::new(0x44), BranchId::new(1)), (0x44 >> 2) % 16);
        assert_eq!(ix.table_size(), Some(16));
    }

    #[test]
    fn allocated_uses_map_with_fallback() {
        let map = AllocatedIndex::new(8, vec![Some(3), None]).unwrap();
        let ix = BhtIndexer::Allocated(map);
        assert_eq!(ix.index(Pc::new(0x1000), BranchId::new(0)), 3);
        // Unassigned branch falls back to (0x1004 >> 2) % 8 = 0x401 % 8.
        assert_eq!(ix.index(Pc::new(0x1004), BranchId::new(1)), 0x401 % 8);
        // Branch beyond the map also falls back.
        assert_eq!(ix.index(Pc::new(0x1008), BranchId::new(9)), 0x402 % 8);
    }

    #[test]
    fn per_branch_is_identity_on_ids() {
        let ix = BhtIndexer::PerBranch;
        assert_eq!(ix.index(Pc::new(0xdead), BranchId::new(7)), 7);
        assert_eq!(ix.table_size(), None);
    }

    #[test]
    fn allocated_rejects_bad_entries() {
        assert_eq!(
            AllocatedIndex::new(4, vec![Some(4)]),
            Err(PredictorError::EntryOutOfRange { entry: 4, size: 4 })
        );
        assert!(AllocatedIndex::new(0, vec![]).is_err());
    }

    #[test]
    fn assigned_count_ignores_fallbacks() {
        let map = AllocatedIndex::new(8, vec![Some(1), None, Some(2)]).unwrap();
        assert_eq!(map.assigned_count(), 2);
    }

    #[test]
    fn labels_are_distinct() {
        let a = BhtIndexer::pc_modulo(1024).label();
        let b = BhtIndexer::Allocated(AllocatedIndex::new(1024, vec![]).unwrap()).label();
        let c = BhtIndexer::PerBranch.label();
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_pc_modulo_panics() {
        BhtIndexer::pc_modulo(0);
    }
}
