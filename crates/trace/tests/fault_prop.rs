//! Property-based durability tests: the salvage reader against the fault
//! injection harness.
//!
//! Invariants proved here:
//!
//! * salvage never panics, whatever the corruption;
//! * salvage never invents records — its output is always a subsequence
//!   of what was written (bit flips, truncation, and replayed chunks
//!   included);
//! * an undamaged stream round-trips bit-identically;
//! * a single flipped bit costs at most the one chunk it lands in, and
//!   the loss is chunk-aligned;
//! * truncation inside the trailer loses no records, only the
//!   instruction total.

use bwsa_resilience::fault::{Fault, FaultPlan, FaultyReader};
use bwsa_trace::stream::{body_offset, RecoveryPolicy, StreamReader, StreamWriter};
use bwsa_trace::BranchRecord;
use proptest::prelude::*;

const CHUNK: usize = 8;

fn arb_records() -> impl Strategy<Value = Vec<BranchRecord>> {
    prop::collection::vec((0u64..1 << 40, any::<bool>(), 0u64..50), 0..300).prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(pc, taken, dt)| {
                t += dt;
                BranchRecord::from_raw(pc, taken, t)
            })
            .collect()
    })
}

/// Encodes `records` as a BWSS2 stream with small (8-record) chunks so
/// faults land in interesting places.
fn encode(records: &[BranchRecord], total: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = StreamWriter::new(&mut buf, "fault")
        .unwrap()
        .with_chunk_records(CHUNK);
    for r in records {
        w.push(*r).unwrap();
    }
    w.finish(total).unwrap();
    buf
}

/// Reads `bytes` in salvage mode, returning the recovered records and the
/// trailer total (`None` when it was lost).
fn salvage(bytes: &[u8]) -> (Vec<BranchRecord>, Option<u64>) {
    let mut reader = StreamReader::with_recovery(bytes, RecoveryPolicy::Salvage).unwrap();
    let records: Vec<BranchRecord> = reader.by_ref().filter_map(|r| r.ok()).collect();
    let total = reader.total_instructions();
    (records, total)
}

fn is_subsequence(sub: &[BranchRecord], full: &[BranchRecord]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|r| it.any(|f| f == r))
}

proptest! {
    #[test]
    fn salvage_never_panics_and_never_invents_records(
        records in arb_records(),
        seed in any::<u64>(),
        faults in 1usize..4,
    ) {
        let buf = encode(&records, 99);
        let protect = body_offset(&buf).unwrap();
        let plan = FaultPlan::random(seed, faults);
        let faulty = FaultyReader::new(&buf[..], plan, protect).unwrap();
        let mut reader = StreamReader::with_recovery(faulty, RecoveryPolicy::Salvage).unwrap();
        let recovered: Vec<BranchRecord> = reader.by_ref().filter_map(|r| r.ok()).collect();
        prop_assert!(
            is_subsequence(&recovered, &records),
            "salvage produced records that were never written"
        );
        let report = reader.salvage_report();
        prop_assert_eq!(report.records_recovered as usize, recovered.len());
    }

    #[test]
    fn clean_streams_round_trip_bit_identically(records in arb_records(), total in any::<u64>()) {
        let buf = encode(&records, total);
        let faulty = FaultyReader::new(&buf[..], FaultPlan::new(), 0).unwrap();
        prop_assert_eq!(faulty.bytes(), &buf[..]);
        let mut reader = StreamReader::with_recovery(faulty, RecoveryPolicy::Salvage).unwrap();
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        prop_assert_eq!(out, records);
        prop_assert_eq!(reader.total_instructions(), Some(total));
        let report = reader.salvage_report();
        prop_assert_eq!(report.chunks_dropped, 0);
        prop_assert!(report.first_error.is_none());
    }

    #[test]
    fn one_bit_flip_costs_at_most_one_aligned_chunk(
        records in arb_records(),
        position in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let buf = encode(&records, 42);
        let protect = body_offset(&buf).unwrap();
        let plan = FaultPlan::new().with(Fault::BitFlip { position, bit });
        let faulty = FaultyReader::new(&buf[..], plan, protect).unwrap();
        let (recovered, _) = salvage(faulty.bytes());

        if recovered.len() == records.len() {
            // The flip hit the trailer; every data chunk survived.
            prop_assert_eq!(recovered, records);
        } else {
            // Exactly one chunk was dropped, on a chunk boundary.
            let k = recovered
                .iter()
                .zip(&records)
                .position(|(a, b)| a != b)
                .unwrap_or(recovered.len());
            prop_assert_eq!(k % CHUNK, 0);
            let dropped = CHUNK.min(records.len() - k);
            prop_assert_eq!(records.len() - recovered.len(), dropped);
            prop_assert_eq!(&recovered[..k], &records[..k]);
            prop_assert_eq!(&recovered[k..], &records[k + dropped..]);
        }
    }

    #[test]
    fn truncation_inside_the_trailer_loses_only_the_total(
        records in arb_records(),
        cut in 1usize..40,
    ) {
        let buf = encode(&records, 1234);
        let truncated = &buf[..buf.len() - cut];
        let (recovered, total) = salvage(truncated);
        prop_assert_eq!(recovered, records);
        prop_assert_eq!(total, None);
    }
}
