//! Property-based tests for the streaming trace format.

use bwsa_trace::stream::{RecoveryPolicy, StreamReader, StreamWriter};
use bwsa_trace::{decode, BranchRecord};
use proptest::prelude::*;

/// [`decode`], the entry point every front end reads traces through,
/// meets any bytes with a trace or a typed error under either policy —
/// never a panic.
fn decode_never_panics(bytes: &[u8]) {
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
        let _ = decode(bytes, policy);
    }
}

fn arb_records() -> impl Strategy<Value = Vec<BranchRecord>> {
    prop::collection::vec((0u64..1 << 40, any::<bool>(), 0u64..50), 0..600).prop_map(|raw| {
        let mut t = 0u64;
        raw.into_iter()
            .map(|(pc, taken, dt)| {
                t += dt;
                BranchRecord::from_raw(pc, taken, t)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn stream_roundtrip(records in arb_records(), total in any::<u64>(), name in "[ -~]{0,40}") {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, &name).unwrap();
        for r in &records {
            w.push(*r).unwrap();
        }
        w.finish(total).unwrap();

        let mut reader = StreamReader::new(&buf[..]).unwrap();
        prop_assert_eq!(reader.name(), name.as_str());
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        prop_assert_eq!(out, records);
        prop_assert_eq!(reader.total_instructions(), Some(total));
    }

    #[test]
    fn stream_and_buffer_formats_agree(records in arb_records()) {
        use bwsa_trace::{io as tio, TraceBuilder};
        let mut builder = TraceBuilder::new("agree");
        for r in &records {
            builder.push(*r);
        }
        let trace = builder.finish();
        let whole = tio::decode_binary(&tio::encode_binary(&trace)).unwrap();

        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "agree").unwrap();
        for r in &records {
            w.push(*r).unwrap();
        }
        w.finish(0).unwrap();
        let streamed: Vec<BranchRecord> =
            StreamReader::new(&buf[..]).unwrap().map(|r| r.unwrap()).collect();
        prop_assert_eq!(streamed.as_slice(), whole.records());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        // Fuzz the whole surface: header parsing and record iteration on
        // completely arbitrary input must reject via `TraceError`, never
        // unwind. The take() bound fuses any hypothetical runaway
        // iterator.
        if let Ok(reader) = StreamReader::new(&bytes[..]) {
            for item in reader.take(10_000) {
                if item.is_err() {
                    break;
                }
            }
        }
        decode_never_panics(&bytes);
    }

    #[test]
    fn corrupted_streams_never_panic(
        records in arb_records(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        // Unlike pure noise, a bit-flipped *valid* stream gets deep into
        // the decode path: framing checks, checksums, varint decoding.
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "flip").unwrap();
        for r in &records {
            w.push(*r).unwrap();
        }
        w.finish(7).unwrap();
        for &(pos, xor) in &flips {
            let n = buf.len();
            buf[pos % n] ^= xor;
        }
        if let Ok(reader) = StreamReader::new(&buf[..]) {
            for item in reader.take(records.len() + 10_000) {
                if item.is_err() {
                    break;
                }
            }
        }
        decode_never_panics(&buf);
    }

    #[test]
    fn truncated_streams_never_panic(records in arb_records(), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "cut").unwrap();
        for r in &records {
            w.push(*r).unwrap();
        }
        w.finish(7).unwrap();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let truncated = &buf[..cut];
        // Either header parsing fails or iteration ends (cleanly or with
        // an error) — but nothing panics and the iterator fuses.
        if let Ok(mut reader) = StreamReader::new(truncated) {
            let mut iter_count = 0usize;
            for item in reader.by_ref() {
                iter_count += 1;
                prop_assert!(iter_count <= records.len() + 1);
                if item.is_err() {
                    break;
                }
            }
            prop_assert!(reader.next().is_none() || reader.total_instructions().is_some());
        }
        decode_never_panics(truncated);
        // What salvage recovers from a torn stream is a prefix of what
        // was written.
        if let Ok((trace, _)) = decode(truncated, RecoveryPolicy::Salvage) {
            prop_assert_eq!(trace.records(), &records[..trace.len()]);
        }
    }
}
