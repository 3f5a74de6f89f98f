//! In-memory branch traces and their construction.

use crate::{BranchId, BranchRecord, Direction, InstrCount, Pc, TraceError};
use std::collections::HashMap;
use std::fmt;

/// Interner mapping static branch program counters to dense [`BranchId`]s.
///
/// Ids are assigned in first-appearance order, so they are contiguous from
/// zero. Every downstream analysis indexes its per-branch state with them.
///
/// # Example
///
/// ```
/// use bwsa_trace::{BranchTable, Pc};
///
/// let mut table = BranchTable::new();
/// let a = table.intern(Pc::new(0x400));
/// let b = table.intern(Pc::new(0x500));
/// assert_ne!(a, b);
/// assert_eq!(table.intern(Pc::new(0x400)), a);
/// assert_eq!(table.pc_of(a), Pc::new(0x400));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchTable {
    by_pc: HashMap<Pc, BranchId>,
    pcs: Vec<Pc>,
}

impl BranchTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table whose ids are the positions of `pcs` — the bulk
    /// construction path used by the columnar (`BWSS3`) reader, which
    /// knows the full directory up front and interns each static branch
    /// exactly once instead of hashing per record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] if `pcs` contains a duplicate or
    /// more than `u32::MAX` entries.
    pub fn from_pcs(pcs: impl IntoIterator<Item = Pc>) -> Result<Self, TraceError> {
        let pcs: Vec<Pc> = pcs.into_iter().collect();
        if u32::try_from(pcs.len()).is_err() {
            return Err(TraceError::format("more than u32::MAX static branches"));
        }
        let mut by_pc = HashMap::with_capacity(pcs.len());
        for (i, &pc) in pcs.iter().enumerate() {
            if by_pc.insert(pc, BranchId::new(i as u32)).is_some() {
                return Err(TraceError::format(format!(
                    "duplicate pc {pc} in branch directory"
                )));
            }
        }
        Ok(BranchTable { by_pc, pcs })
    }

    /// Returns the id for `pc`, assigning a fresh one on first sight.
    pub fn intern(&mut self, pc: Pc) -> BranchId {
        if let Some(&id) = self.by_pc.get(&pc) {
            return id;
        }
        let id = BranchId::new(
            u32::try_from(self.pcs.len()).expect("more than u32::MAX static branches"),
        );
        self.pcs.push(pc);
        self.by_pc.insert(pc, id);
        id
    }

    /// Looks up an already-interned pc.
    pub fn id_of(&self, pc: Pc) -> Option<BranchId> {
        self.by_pc.get(&pc).copied()
    }

    /// Returns the pc of an interned branch.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn pc_of(&self, id: BranchId) -> Pc {
        self.pcs[id.index()]
    }

    /// Number of distinct static branches interned.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Returns `true` if no branch has been interned.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Iterates over `(id, pc)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, Pc)> + '_ {
        self.pcs
            .iter()
            .enumerate()
            .map(|(i, &pc)| (BranchId::new(i as u32), pc))
    }
}

/// Summary metadata describing how a trace was produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Human-readable name (benchmark / input-set label).
    pub name: String,
    /// Total instructions executed by the producing run (conditional
    /// branches included). Zero when unknown.
    pub total_instructions: u64,
}

/// An in-memory dynamic conditional-branch trace.
///
/// Records are stored in execution order with non-decreasing timestamps; a
/// parallel [`BranchId`] array (built while the trace is constructed) lets
/// hot analysis loops avoid a hash lookup per record.
///
/// Construct one with [`TraceBuilder`] or deserialise with [`crate::io`].
///
/// # Example
///
/// ```
/// use bwsa_trace::{Direction, TraceBuilder};
///
/// let mut b = TraceBuilder::new("demo");
/// for i in 0..4u64 {
///     b.record(0x400 + (i % 2) * 8, i % 2 == 0, 5 * (i + 1));
/// }
/// let t = b.finish();
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.static_branch_count(), 2);
/// let (id0, rec0) = t.indexed_records().next().unwrap();
/// assert_eq!(t.table().pc_of(id0), rec0.pc);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    meta: TraceMeta,
    records: Vec<BranchRecord>,
    ids: Vec<BranchId>,
    table: BranchTable,
}

impl Trace {
    /// Creates an empty trace with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            meta: TraceMeta {
                name: name.into(),
                total_instructions: 0,
            },
            ..Trace::default()
        }
    }

    /// Number of dynamic branch records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct static branches observed.
    pub fn static_branch_count(&self) -> usize {
        self.table.len()
    }

    /// The trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Mutable access to the metadata.
    pub fn meta_mut(&mut self) -> &mut TraceMeta {
        &mut self.meta
    }

    /// The pc ↔ id interner for this trace.
    pub fn table(&self) -> &BranchTable {
        &self.table
    }

    /// The raw records in execution order.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// The interned id of each record, parallel to [`Trace::records`].
    pub fn record_ids(&self) -> &[BranchId] {
        &self.ids
    }

    /// Iterates over records.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// Iterates over `(static id, record)` pairs in execution order.
    pub fn indexed_records(&self) -> impl Iterator<Item = (BranchId, &BranchRecord)> + '_ {
        self.ids.iter().copied().zip(self.records.iter())
    }

    /// Appends a record, interning its pc.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfOrder`] if `record.time` precedes the
    /// previous record's timestamp.
    pub fn push(&mut self, record: BranchRecord) -> Result<(), TraceError> {
        if let Some(last) = self.records.last() {
            if record.time < last.time {
                return Err(TraceError::OutOfOrder {
                    previous: last.time.get(),
                    found: record.time.get(),
                });
            }
        }
        let id = self.table.intern(record.pc);
        self.ids.push(id);
        self.records.push(record);
        if record.time.get() > self.meta.total_instructions {
            self.meta.total_instructions = record.time.get();
        }
        Ok(())
    }

    /// Assembles a trace from pre-interned columns in one shot — the bulk
    /// construction path for columnar (`BWSS3`) decode, which replaces the
    /// per-record hash/intern of [`Trace::push`] with flat validation
    /// scans over the finished arrays.
    ///
    /// `meta.total_instructions` is raised to the last record's timestamp
    /// when it falls short, matching [`Trace::push`] semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when `ids` and `records` disagree in
    /// length or an id does not map to its record's pc in `table`, and
    /// [`TraceError::OutOfOrder`] when timestamps regress.
    pub fn from_parts(
        mut meta: TraceMeta,
        table: BranchTable,
        ids: Vec<BranchId>,
        records: Vec<BranchRecord>,
    ) -> Result<Trace, TraceError> {
        if ids.len() != records.len() {
            return Err(TraceError::format(format!(
                "id column has {} entries for {} records",
                ids.len(),
                records.len()
            )));
        }
        // One fused flat scan validates both invariants — monotone
        // timestamps and id/directory agreement — touching each record
        // once; no hashing, bounds-check-free via zip.
        let mut prev_time = InstrCount::new(0);
        for (id, rec) in ids.iter().zip(records.iter()) {
            if rec.time < prev_time {
                return Err(TraceError::OutOfOrder {
                    previous: prev_time.get(),
                    found: rec.time.get(),
                });
            }
            prev_time = rec.time;
            if table.pcs.get(id.index()) != Some(&rec.pc) {
                return Err(TraceError::format(
                    "id column disagrees with the branch directory",
                ));
            }
        }
        if let Some(last) = records.last() {
            meta.total_instructions = meta.total_instructions.max(last.time.get());
        }
        Ok(Trace {
            meta,
            records,
            ids,
            table,
        })
    }

    /// Returns a new trace containing only records whose static branch is
    /// accepted by `keep`.
    ///
    /// Timestamps are preserved, so interleaving structure among retained
    /// branches is unchanged — this is how the paper restricts attention to
    /// the most frequent static branches (Table 1) without perturbing the
    /// analysis of the survivors.
    pub fn filtered(&self, mut keep: impl FnMut(BranchId) -> bool) -> Trace {
        let mut out = Trace::new(self.meta.name.clone());
        out.meta.total_instructions = self.meta.total_instructions;
        for (id, rec) in self.indexed_records() {
            if keep(id) {
                out.push(*rec).expect("source trace was ordered");
            }
        }
        out
    }

    /// Concatenates another trace onto this one, shifting its timestamps to
    /// start after this trace ends. Static branches with equal pcs are
    /// identified with each other.
    ///
    /// This implements the paper's §5.2 *cumulative profile* construction,
    /// where conflict graphs from several input sets are merged by analysing
    /// the concatenation of their runs.
    pub fn concat(&mut self, other: &Trace) {
        let base = self.meta.total_instructions;
        for rec in other.records() {
            let shifted = BranchRecord::new(
                rec.pc,
                rec.direction,
                InstrCount::new(base + rec.time.get()),
            );
            self.push(shifted).expect("shifted timestamps are ordered");
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace '{}': {} dynamic branches over {} static sites, {} instructions",
            self.meta.name,
            self.records.len(),
            self.table.len(),
            self.meta.total_instructions
        )
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Incremental [`Trace`] constructor used by trace producers.
///
/// Unlike [`Trace::push`] this panics on out-of-order timestamps, because a
/// producer generating its own clock has no legitimate way to go backwards;
/// readers of external data should use [`Trace::push`] and surface the
/// error.
///
/// # Example
///
/// ```
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("loop");
/// b.record(0x400, true, 5);
/// b.record(0x400, false, 10);
/// let t = b.finish();
/// assert_eq!(t.meta().total_instructions, 10);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Creates a builder for a named trace.
    pub fn new(name: impl Into<String>) -> Self {
        TraceBuilder {
            trace: Trace::new(name),
        }
    }

    /// Appends a dynamic branch instance.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous record's timestamp.
    pub fn record(&mut self, pc: u64, taken: bool, time: u64) -> &mut Self {
        self.push(BranchRecord::new(
            Pc::new(pc),
            Direction::from_taken(taken),
            InstrCount::new(time),
        ))
    }

    /// Appends an already-constructed record.
    ///
    /// # Panics
    ///
    /// Panics if the record's timestamp precedes the previous one's.
    pub fn push(&mut self, record: BranchRecord) -> &mut Self {
        self.trace
            .push(record)
            .expect("trace producer went backwards in time");
        self
    }

    /// Sets the total instruction count of the producing run.
    pub fn total_instructions(&mut self, n: u64) -> &mut Self {
        self.trace.meta.total_instructions = n;
        self
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finishes construction and returns the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Trace {
        let mut b = TraceBuilder::new("t");
        b.record(0x400, true, 5)
            .record(0x440, false, 10)
            .record(0x480, true, 15)
            .record(0x400, true, 20);
        b.finish()
    }

    #[test]
    fn builder_assigns_dense_ids_in_first_seen_order() {
        let t = small();
        let ids: Vec<u32> = t.record_ids().iter().map(|i| i.as_u32()).collect();
        assert_eq!(ids, [0, 1, 2, 0]);
        assert_eq!(t.static_branch_count(), 3);
    }

    #[test]
    fn push_rejects_time_travel() {
        let mut t = Trace::new("x");
        t.push(BranchRecord::from_raw(0x1, true, 10)).unwrap();
        let err = t.push(BranchRecord::from_raw(0x2, true, 5)).unwrap_err();
        assert!(matches!(
            err,
            TraceError::OutOfOrder {
                previous: 10,
                found: 5
            }
        ));
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut t = Trace::new("x");
        t.push(BranchRecord::from_raw(0x1, true, 10)).unwrap();
        t.push(BranchRecord::from_raw(0x2, true, 10)).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn total_instructions_tracks_last_timestamp() {
        let t = small();
        assert_eq!(t.meta().total_instructions, 20);
    }

    #[test]
    fn filtered_keeps_timestamps() {
        let t = small();
        let keep = t.table().id_of(Pc::new(0x400)).unwrap();
        let f = t.filtered(|id| id == keep);
        assert_eq!(f.len(), 2);
        assert_eq!(f.records()[0].time.get(), 5);
        assert_eq!(f.records()[1].time.get(), 20);
        assert_eq!(f.static_branch_count(), 1);
    }

    #[test]
    fn concat_shifts_and_identifies_shared_pcs() {
        let mut a = small();
        let b = small();
        a.concat(&b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.static_branch_count(), 3, "pcs shared, not duplicated");
        assert_eq!(a.records()[4].time.get(), 25, "shifted by 20");
        assert_eq!(a.meta().total_instructions, 40);
    }

    #[test]
    fn display_is_informative() {
        let t = small();
        let s = t.to_string();
        assert!(s.contains("4 dynamic") && s.contains("3 static"));
    }

    #[test]
    fn table_iter_matches_pc_of() {
        let t = small();
        for (id, pc) in t.table().iter() {
            assert_eq!(t.table().pc_of(id), pc);
            assert_eq!(t.table().id_of(pc), Some(id));
        }
    }
}
