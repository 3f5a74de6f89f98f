//! Flat monotonic recency index — the hot data structure behind the
//! Figure 1 interleave detection.
//!
//! Trace timestamps are nondecreasing ([`bwsa_trace::Trace::push`] and
//! the stream reader both reject time travel), so the ordered set of
//! `(latest stamp, branch)` pairs the detection scans only ever gains
//! entries at its *tail*. [`RecencyRing`] keeps them in two flat columns
//! sorted by stamp, `stamps` and `ids`: an insert is a push onto each.
//!
//! When a branch re-executes, its old entry is not removed (that would
//! shift the tail); its id becomes [`TOMB`], so every other id is its
//! branch's one live entry, at `slot[b]`. Every branch stamped strictly
//! later than `b` sits after `b`'s slot, so [`RecencyRing::since_last`]
//! is the id slice from just past it and past any equal stamps: no
//! binary search, and no liveness compare, because a tombstone is an id
//! past the end of every counter row. Dead entries are reclaimed by an
//! amortised-O(1) compaction whenever they outnumber live ones, keeping
//! every scan within `2 × live` slots.
//!
//! Out-of-order stamps cannot arrive from any in-repo producer, but
//! [`crate::WindowedAnalysis::push`] is a public API that takes raw
//! stamps, so a regressing stamp takes a correct (if slow) sorted-insert
//! path rather than corrupting the index. Agreement with a linear-scan
//! oracle — including ties, backward steps and stamps at `u64::MAX` — is
//! property-tested in `crates/core/tests/hotpath_prop.rs`.

/// The id of a superseded entry. Ids are dense, so a branch id of
/// `u32::MAX` would need a 2^32-entry slot table: like `GraphBuilder`'s
/// empty-bucket key, it cannot collide (`Detector::pass` asserts it).
pub(crate) const TOMB: u32 = u32::MAX;

/// Sentinel for "branch has no live entry".
const NO_SLOT: usize = usize::MAX;

/// Append-mostly index of each branch's latest execution stamp, ordered
/// by stamp. See the module docs for the representation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecencyRing {
    /// Entry stamps in nondecreasing order.
    stamps: Vec<u64>,
    /// Entry branch ids, parallel to `stamps`; [`TOMB`] once superseded.
    ids: Vec<u32>,
    /// `slot[b]` = index of branch `b`'s live entry, or [`NO_SLOT`].
    slot: Vec<usize>,
    /// Number of live entries (`ids.len() - live` are tombstones).
    live: usize,
}

impl RecencyRing {
    /// The ids of every branch stamped *strictly* later than `node`, in
    /// stamp order, among [`TOMB`]s and never `node` itself; empty when
    /// `node` never ran or nothing ran since. Starting past `node`'s slot,
    /// not at `(prev + 1, _)`, cannot overflow at a stamp of `u64::MAX`.
    #[inline]
    pub(crate) fn since_last(&self, node: u32) -> &[u32] {
        let Some(&at) = self.slot.get(node as usize).filter(|&&at| at != NO_SLOT) else {
            return &[];
        };
        let prev = self.stamps[at]; // equal stamps ran at once, not since
        let ties = self.stamps[at + 1..].iter().take_while(|&&s| s == prev);
        &self.ids[at + 1 + ties.count()..]
    }

    /// Records that `node`'s latest stamp is now `t`, superseding any
    /// previous entry for `node`.
    #[inline]
    pub(crate) fn record(&mut self, node: u32, t: u64) {
        let b = node as usize;
        if b >= self.slot.len() {
            self.slot.resize(b + 1, NO_SLOT);
        }
        if self.slot[b] != NO_SLOT {
            self.ids[self.slot[b]] = TOMB;
            self.live -= 1;
        }
        match self.stamps.last() {
            Some(&last) if t < last => self.insert_out_of_order(node, t),
            _ => {
                self.slot[b] = self.ids.len();
                self.stamps.push(t);
                self.ids.push(node);
            }
        }
        self.live += 1;
        self.maybe_compact();
    }

    /// Cold path: a stamp below the current tail. Sorted insert into both
    /// columns plus a slot fix-up for every shifted live entry, O(n) —
    /// correctness backstop for callers that feed hand-built records.
    #[cold]
    fn insert_out_of_order(&mut self, node: u32, t: u64) {
        let pos = self.stamps.partition_point(|&s| s <= t);
        self.stamps.insert(pos, t);
        self.ids.insert(pos, node);
        for (i, &b) in self.ids.iter().enumerate().skip(pos) {
            if b != TOMB {
                self.slot[b as usize] = i;
            }
        }
    }

    /// Drops tombstones in place once they outnumber live entries. The
    /// retained entries keep their relative (sorted) order, and each
    /// surviving branch's slot is rewritten to its new index.
    fn maybe_compact(&mut self) {
        if self.ids.len() < 64 || self.ids.len() < 2 * self.live {
            return;
        }
        let mut kept = self.ids.iter().map(|&b| b != TOMB);
        self.stamps.retain(|_| kept.next() == Some(true)); // visited in order
        self.ids.retain(|&b| b != TOMB);
        for (i, &b) in self.ids.iter().enumerate() {
            self.slot[b as usize] = i;
        }
        debug_assert_eq!(self.ids.len(), self.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branches `since_last(node)` yields, sorted, tombstones dropped.
    fn hits(ring: &RecencyRing, node: u32) -> Vec<u32> {
        let mut v: Vec<u32> = ring
            .since_last(node)
            .iter()
            .copied()
            .filter(|&b| b != TOMB)
            .collect();
        v.sort_unstable();
        v
    }

    /// The ring's invariants: every recorded branch has exactly one
    /// non-[`TOMB`] id, at its slot; stamps stay sorted; `live` counts
    /// the non-`TOMB` ids; and `since_last(node)` yields exactly the
    /// branches stamped strictly later than `node`, never `node` itself.
    fn assert_exact(ring: &RecencyRing, latest: &[Option<u64>]) {
        assert!(ring.stamps.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert_eq!(ring.stamps.len(), ring.ids.len());
        let live: Vec<usize> = (0..ring.ids.len())
            .filter(|&i| ring.ids[i] != TOMB)
            .collect();
        assert_eq!(live.len(), ring.live);
        for (b, stamp) in latest.iter().enumerate() {
            let copies = ring.ids.iter().filter(|&&id| id as usize == b).count();
            match *stamp {
                Some(t) => {
                    assert_eq!(copies, 1, "branch {b} has one live id");
                    assert_eq!(ring.ids[ring.slot[b]] as usize, b, "branch {b}'s slot");
                    assert_eq!(ring.stamps[ring.slot[b]], t, "branch {b}'s stamp");
                }
                None => {
                    assert_eq!(copies, 0, "branch {b} never ran");
                    let slot = ring.slot.get(b).copied().unwrap_or(NO_SLOT);
                    assert_eq!(slot, NO_SLOT, "branch {b} has no slot");
                }
            }
        }
        assert!(ring.slot.len() <= latest.len(), "no slot past the branches");
        for (node, stamp) in latest.iter().enumerate() {
            let expected: Vec<u32> = match *stamp {
                Some(prev) => (0..latest.len() as u32)
                    .filter(|&b| b as usize != node && latest[b as usize] > Some(prev))
                    .collect(),
                None => Vec::new(),
            };
            assert_eq!(hits(ring, node as u32), expected, "since_last({node})");
        }
    }

    #[test]
    fn scan_returns_strictly_later_live_branches() {
        let mut r = RecencyRing::default();
        r.record(0, 5);
        r.record(1, 10);
        r.record(2, 15);
        assert_eq!(hits(&r, 0), vec![1, 2]);
        assert_eq!(hits(&r, 1), vec![2]);
        assert_eq!(hits(&r, 2), Vec::<u32>::new());
        assert!(r.since_last(2).is_empty(), "nothing ran since the tail");
        assert!(r.since_last(7).is_empty(), "never recorded");
    }

    #[test]
    fn reexecution_tombstones_the_old_entry() {
        let mut r = RecencyRing::default();
        r.record(0, 5);
        r.record(1, 10);
        r.record(0, 20);
        assert_eq!(r.ids, vec![TOMB, 1, 0], "the stamp-5 entry is a tombstone");
        assert_eq!(r.since_last(1), &[0], "the live stamp-20 entry is found");
        assert!(r.since_last(0).is_empty());
    }

    #[test]
    fn equal_stamps_are_skipped_and_max_stamps_do_not_overflow() {
        let mut r = RecencyRing::default();
        r.record(0, 7);
        r.record(1, 7);
        r.record(2, 8);
        assert_eq!(r.since_last(0), &[2], "branch 1 ran at the same stamp");
        r.record(3, u64::MAX);
        r.record(4, u64::MAX);
        assert!(r.since_last(3).is_empty());
        assert_eq!(hits(&r, 2), vec![3, 4]);
    }

    #[test]
    fn compaction_drops_tombstones_and_preserves_scan_results() {
        let mut r = RecencyRing::default();
        // Two branches alternating for long enough to trigger compaction
        // many times over.
        for i in 0..10_000u64 {
            r.record((i % 2) as u32, i + 1);
        }
        assert!(r.ids.len() <= 64.max(2 * r.live));
        assert_exact(&r, &[Some(9_999), Some(10_000)]);
    }

    #[test]
    fn out_of_order_insert_keeps_the_index_exact() {
        let mut r = RecencyRing::default();
        r.record(0, 10);
        r.record(1, 20);
        r.record(2, 30);
        r.record(3, 15); // regression: lands between 10 and 20
        r.record(1, 12); // a live entry moves back past a tombstone
        assert_exact(&r, &[Some(10), Some(12), Some(30), Some(15)]);
        // Entries stay sorted so later appends still work.
        r.record(4, 40);
        assert_exact(&r, &[Some(10), Some(12), Some(30), Some(15), Some(40)]);
    }

    #[test]
    fn any_record_sequence_keeps_one_live_id_per_branch() {
        // Mostly rising stamps with ties, backward steps and the top of
        // the range, over few enough branches to re-execute often and
        // compact many times.
        let mut lcg: u64 = 11;
        for run in 0..40u64 {
            let mut latest = vec![None; 9];
            let mut r = RecencyRing::default();
            let mut t = if run % 4 == 0 { u64::MAX - 300 } else { 1 };
            for _ in 0..300 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = (lcg >> 40) as usize % latest.len();
                t = match (lcg >> 20) % 16 {
                    0 => t.saturating_sub((lcg >> 8) % 20), // backward
                    1..=3 => t,                             // tie
                    _ => t.saturating_add((lcg >> 12) % 3 + 1),
                };
                r.record(b as u32, t);
                latest[b] = Some(t);
                assert_exact(&r, &latest);
            }
        }
    }
}
