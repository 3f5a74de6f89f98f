//! Property-based tests for the trace crate.

use bwsa_trace::stream::RecoveryPolicy;
use bwsa_trace::{decode, io as trace_io, profile::BranchProfile, Trace, TraceBuilder};
use proptest::prelude::*;

/// Strategy producing a valid trace: pcs from a small pool, strictly
/// increasing timestamps.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec((0u8..32, any::<bool>(), 1u64..20), 0..200),
        "[a-z]{1,8}",
    )
        .prop_map(|(steps, name)| {
            let mut b = TraceBuilder::new(name);
            let mut t = 0u64;
            for (slot, taken, dt) in steps {
                t += dt;
                b.record(0x1000 + u64::from(slot) * 4, taken, t);
            }
            b.finish()
        })
}

proptest! {
    #[test]
    fn binary_roundtrip(trace in arb_trace()) {
        let bytes = trace_io::encode_binary(&trace);
        let back = trace_io::decode_binary(&bytes).unwrap();
        prop_assert_eq!(back.records(), trace.records());
        prop_assert_eq!(&back.meta().name, &trace.meta().name);
    }

    #[test]
    fn damaged_binary_never_panics_decode(
        trace in arb_trace(),
        position in 0usize..1 << 12,
        mask in 1u8..=255,
        cut in 0usize..1 << 12,
    ) {
        let bytes = trace_io::encode_binary(&trace);
        let (back, report) = decode(&bytes, RecoveryPolicy::Strict).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(report.records_recovered, trace.len() as u64);
        // A flipped byte decodes to some trace or a typed error under
        // either policy, never a panic.
        let mut flipped = bytes.clone();
        let at = position % flipped.len();
        flipped[at] ^= mask;
        for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
            let _ = decode(&flipped, policy);
        }
        // BWST has no chunks to salvage by: every cut is an error.
        let torn = &bytes[..cut % bytes.len()];
        for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
            prop_assert!(decode(torn, policy).is_err());
        }
    }

    #[test]
    fn profile_counts_sum_to_len(trace in arb_trace()) {
        let p = BranchProfile::from_trace(&trace);
        let sum: u64 = p.iter().map(|(_, s)| s.executions).sum();
        prop_assert_eq!(sum, trace.len() as u64);
        let taken: u64 = p.iter().map(|(_, s)| s.taken).sum();
        let actual_taken = trace.iter().filter(|r| r.is_taken()).count() as u64;
        prop_assert_eq!(taken, actual_taken);
    }

    #[test]
    fn record_ids_are_consistent_with_table(trace in arb_trace()) {
        for (id, rec) in trace.indexed_records() {
            prop_assert_eq!(trace.table().pc_of(id), rec.pc);
            prop_assert_eq!(trace.table().id_of(rec.pc), Some(id));
        }
    }

    #[test]
    fn concat_preserves_order_and_counts(a in arb_trace(), b in arb_trace()) {
        let mut merged = a.clone();
        merged.concat(&b);
        prop_assert_eq!(merged.len(), a.len() + b.len());
        let mut prev = 0u64;
        for rec in merged.records() {
            prop_assert!(rec.time.get() >= prev);
            prev = rec.time.get();
        }
    }

    #[test]
    fn filtered_is_a_subsequence(trace in arb_trace()) {
        let f = trace.filtered(|id| id.index() % 2 == 0);
        // Every filtered record appears in the original, in order.
        let mut it = trace.records().iter();
        for rec in f.records() {
            prop_assert!(it.any(|r| r == rec));
        }
    }
}
