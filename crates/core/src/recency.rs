//! Flat monotonic recency index — the hot data structure behind the
//! Figure 1 interleave detection.
//!
//! Trace timestamps are nondecreasing ([`bwsa_trace::Trace::push`] and
//! the stream reader both reject time travel), so the ordered set of
//! `(latest stamp, branch)` pairs the detection scans only ever gains
//! entries at its *tail*. [`RecencyRing`] exploits that: entries live in
//! one flat `Vec` sorted by stamp, an insert is a push, and each
//! detection is a `partition_point` binary search plus a forward scan —
//! no tree nodes, no rebalancing, no per-entry allocation.
//!
//! When a branch re-executes, its old entry is not removed (that would
//! shift the tail); it merely stops being the branch's *live* entry. An
//! entry at index `i` for branch `b` is live iff `slot[b] == i`, so
//! staleness is one array compare during the scan. Dead entries are
//! reclaimed by an amortised-O(1) compaction that runs whenever they
//! outnumber live ones, keeping every scan within `2 × live` slots — the
//! same asymptotic window the old `BTreeSet` walked, at a fraction of the
//! constant factor.
//!
//! Out-of-order stamps cannot arrive from any in-repo producer, but
//! [`crate::StreamingInterleave::push`] is a public API, so a regressing
//! stamp takes a correct (if slow) sorted-insert path rather than
//! corrupting the index. Equivalence with the previous tree-based engine
//! — including ties and stamps at `u64::MAX` — is property-tested in
//! `crates/core/tests/hotpath_prop.rs`.

/// Sentinel for "branch has no live entry".
const NO_SLOT: usize = usize::MAX;

/// Append-mostly index of each branch's latest execution stamp, ordered
/// by stamp. See the module docs for the representation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecencyRing {
    /// `(stamp, branch)` in nondecreasing stamp order; may contain dead
    /// entries awaiting compaction.
    entries: Vec<(u64, u32)>,
    /// `slot[b]` = index of branch `b`'s live entry, or [`NO_SLOT`].
    slot: Vec<usize>,
    /// Number of live entries (`entries.len() - live` are dead).
    live: usize,
}

impl RecencyRing {
    /// Rebuilds the index from per-branch latest stamps — the checkpoint
    /// resume path. Entry `(last_stamp[b], b)` exists for every executed
    /// branch, exactly the state an incremental run would hold.
    pub(crate) fn from_stamps(last_stamp: &[Option<u64>]) -> Self {
        let mut entries: Vec<(u64, u32)> = last_stamp
            .iter()
            .enumerate()
            .filter_map(|(b, stamp)| stamp.map(|t| (t, b as u32)))
            .collect();
        entries.sort_unstable();
        let mut slot = vec![NO_SLOT; last_stamp.len()];
        for (i, &(_, b)) in entries.iter().enumerate() {
            slot[b as usize] = i;
        }
        let live = entries.len();
        RecencyRing {
            entries,
            slot,
            live,
        }
    }

    /// Whether any entry is stamped after `prev`: `false` proves that a
    /// scan from `prev` finds nothing, as for a branch that re-executes
    /// back to back.
    pub(crate) fn any_after(&self, prev: u64) -> bool {
        self.entries.last().is_some_and(|&(last, _)| last > prev)
    }

    /// Calls `visit` with every branch whose latest stamp is *strictly
    /// greater* than `prev`, except `node` itself, in stamp order.
    ///
    /// Using a partition point instead of a `(prev + 1, _)..` range bound
    /// makes `prev == u64::MAX` a naturally empty scan rather than an
    /// integer overflow.
    pub(crate) fn for_each_after(&self, prev: u64, node: u32, mut visit: impl FnMut(u32)) {
        let start = self.entries.partition_point(|&(s, _)| s <= prev);
        for (i, &(_, b)) in self.entries.iter().enumerate().skip(start) {
            if b != node && self.slot[b as usize] == i {
                visit(b);
            }
        }
    }

    /// Records that `node`'s latest stamp is now `t`, superseding any
    /// previous entry for `node`.
    pub(crate) fn record(&mut self, node: u32, t: u64) {
        let b = node as usize;
        if b >= self.slot.len() {
            self.slot.resize(b + 1, NO_SLOT);
        }
        if self.slot[b] != NO_SLOT {
            self.live -= 1; // the old entry goes dead in place
        }
        match self.entries.last() {
            Some(&(last, _)) if t < last => self.insert_out_of_order(node, t),
            _ => {
                self.slot[b] = self.entries.len();
                self.entries.push((t, node));
            }
        }
        self.live += 1;
        self.maybe_compact();
    }

    /// Cold path: a stamp below the current tail. Sorted insert plus a
    /// slot fix-up for every shifted entry, O(n) — correctness backstop
    /// for callers that feed hand-built records.
    #[cold]
    fn insert_out_of_order(&mut self, node: u32, t: u64) {
        let pos = self.entries.partition_point(|&(s, _)| s <= t);
        self.entries.insert(pos, (t, node));
        // Every entry previously at index i >= pos now sits at i + 1.
        // Walk the shifted suffix tail-first so a branch with both a dead
        // and a live copy in the suffix never aliases mid-update.
        for i in (pos + 1..self.entries.len()).rev() {
            let shifted = self.entries[i].1 as usize;
            if self.slot[shifted] == i - 1 {
                self.slot[shifted] = i;
            }
        }
        self.slot[node as usize] = pos;
    }

    /// Drops dead entries in place once they outnumber live ones. The
    /// retained entries keep their relative (sorted) order, and each
    /// surviving branch's slot is rewritten to its new index.
    fn maybe_compact(&mut self) {
        if self.entries.len() < 64 || self.entries.len() < 2 * self.live {
            return;
        }
        let mut w = 0usize;
        for i in 0..self.entries.len() {
            let (s, b) = self.entries[i];
            if self.slot[b as usize] == i {
                self.entries[w] = (s, b);
                self.slot[b as usize] = w;
                w += 1;
            }
        }
        self.entries.truncate(w);
        debug_assert_eq!(w, self.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(ring: &RecencyRing, prev: u64, node: u32) -> Vec<u32> {
        let mut v = Vec::new();
        ring.for_each_after(prev, node, |b| v.push(b));
        v.sort_unstable();
        v
    }

    #[test]
    fn scan_returns_strictly_later_live_branches() {
        let mut r = RecencyRing::default();
        r.record(0, 5);
        r.record(1, 10);
        r.record(2, 15);
        assert_eq!(hits(&r, 5, 0), vec![1, 2]);
        assert_eq!(hits(&r, 10, 0), vec![2]);
        assert_eq!(hits(&r, 15, 0), Vec::<u32>::new());
    }

    #[test]
    fn reexecution_supersedes_the_old_entry() {
        let mut r = RecencyRing::default();
        r.record(0, 5);
        r.record(1, 10);
        r.record(0, 20);
        // Branch 0's live stamp is 20 now; its stale stamp-5 entry must
        // not satisfy a scan above 5.
        assert_eq!(hits(&r, 6, 1), vec![0]);
        assert_eq!(
            hits(&r, 2, 1),
            vec![0],
            "stale entry is skipped, live one found"
        );
    }

    #[test]
    fn max_stamp_scan_is_empty_not_overflowing() {
        let mut r = RecencyRing::default();
        r.record(0, u64::MAX);
        r.record(1, u64::MAX);
        assert_eq!(hits(&r, u64::MAX, 0), Vec::<u32>::new());
        assert_eq!(hits(&r, u64::MAX - 1, 0), vec![1]);
    }

    #[test]
    fn any_after_is_false_only_when_the_scan_is_empty() {
        let mut r = RecencyRing::default();
        assert!(!r.any_after(0));
        r.record(0, 5);
        r.record(1, 9);
        assert!(r.any_after(5));
        assert!(!r.any_after(9), "the tail is the latest stamp");
        assert_eq!(hits(&r, 9, 2), Vec::<u32>::new());
    }

    #[test]
    fn compaction_preserves_scan_results() {
        let mut r = RecencyRing::default();
        // Two branches alternating for long enough to trigger compaction
        // many times over.
        for i in 0..10_000u64 {
            r.record((i % 2) as u32, i + 1);
        }
        assert!(r.entries.len() <= 64.max(2 * r.live));
        assert_eq!(hits(&r, 9_999, 0), vec![1]);
        assert_eq!(hits(&r, 10_000, 0), Vec::<u32>::new());
    }

    #[test]
    fn out_of_order_insert_keeps_the_index_exact() {
        let mut r = RecencyRing::default();
        r.record(0, 10);
        r.record(1, 20);
        r.record(2, 30);
        r.record(3, 15); // regression: lands between 10 and 20
        assert_eq!(hits(&r, 12, 9), vec![1, 2, 3]);
        assert_eq!(hits(&r, 15, 9), vec![1, 2]);
        // Entries stay sorted so later appends still work.
        r.record(4, 40);
        assert_eq!(hits(&r, 29, 9), vec![2, 4]);
    }

    #[test]
    fn from_stamps_matches_incremental_construction() {
        let stamps = vec![Some(7u64), None, Some(3), Some(7), None, Some(12)];
        let rebuilt = RecencyRing::from_stamps(&stamps);
        let mut incremental = RecencyRing::default();
        incremental.record(2, 3);
        incremental.record(0, 7);
        incremental.record(3, 7);
        incremental.record(5, 12);
        for prev in [0, 3, 6, 7, 11, 12] {
            assert_eq!(
                hits(&rebuilt, prev, 99),
                hits(&incremental, prev, 99),
                "prev {prev}"
            );
        }
    }
}
