//! Deprecated `BWSS3` entry points, kept for callers outside the
//! workspace until they move to the public ones.
//!
//! A serial [`Session`] over [`Source::File`] streams a `BWSS3` file's
//! blocks into the record accumulator without materialising the trace; a
//! whole-trace decode is [`bwsa_trace::decode`] (or [`read_columnar`]).

use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::{Error, Session, Source};
use bwsa_obs::Obs;
use bwsa_trace::columnar::read_columnar;
use bwsa_trace::stream::{RecoveryPolicy, SalvageReport};
use bwsa_trace::{Trace, TraceError};

/// Decodes a `BWSS3` buffer into a [`Trace`]; `jobs` is ignored.
///
/// # Errors
///
/// Those of [`read_columnar`].
#[deprecated(note = "use `bwsa_trace::decode` or `bwsa_trace::columnar::read_columnar`")]
pub fn decode_columnar(
    bytes: &[u8],
    policy: RecoveryPolicy,
    _jobs: usize,
) -> Result<(Trace, SalvageReport), TraceError> {
    read_columnar(bytes, policy)
}

/// A serial [`Session`] over `bytes`: a `BWSS3` file's surviving blocks
/// go into the record accumulator, with ids renumbered by first
/// appearance, so the result is bit-identical to decoding the whole
/// trace and running [`AnalysisPipeline::run_observed`] over it.
///
/// # Errors
///
/// Decode errors per `policy`, exactly as
/// [`bwsa_trace::columnar::read_columnar`] raises them.
#[deprecated(note = "use `Session::over(Source::File { .. })`")]
pub fn analyze_columnar_stream(
    pipeline: &AnalysisPipeline,
    bytes: &[u8],
    policy: RecoveryPolicy,
    obs: &Obs,
) -> Result<(Analysis, SalvageReport), TraceError> {
    let session = Session::over(Source::File { bytes, policy })
        .with_pipeline(*pipeline)
        .with_observer(obs.clone());
    let analysis = session.run().map_err(|e| match e {
        Error::Trace(e) => e,
        e => TraceError::format(e.to_string()),
    })?;
    let salvage = session.ingested().map(|i| i.salvage.clone());
    Ok((analysis.clone(), salvage.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, deprecated)]

    use super::*;
    use bwsa_trace::columnar::{ColumnarFile, ColumnarWriter};
    use bwsa_trace::TraceBuilder;

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 99;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x4000 + (lcg >> 44) % 17 * 4, (lcg >> 21) & 1 == 1, i + 1);
        }
        b.finish()
    }

    fn encode(trace: &Trace, block_records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, &trace.meta().name)
            .unwrap()
            .with_block_records(block_records);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(trace.meta().total_instructions).unwrap();
        buf
    }

    #[test]
    fn streamed_analysis_matches_in_memory_pipeline() {
        let trace = busy_trace(1500);
        let buf = encode(&trace, 128);
        let pipeline = AnalysisPipeline::new();
        let expected = pipeline.run_observed(&trace, &Obs::noop());
        let (streamed, report) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Strict, &Obs::noop()).unwrap();
        assert!(report.clean());
        assert_eq!(report.records_recovered, 1500);
        assert_eq!(streamed, expected);
    }

    #[test]
    fn torn_file_streams_the_prefix_under_salvage() {
        let trace = busy_trace(200);
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, "busy")
            .unwrap()
            .with_block_records(32);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        drop(w); // torn: no footer
        let pipeline = AnalysisPipeline::new();
        assert!(
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Strict, &Obs::noop()).is_err()
        );
        let (streamed, report) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Salvage, &Obs::noop())
                .unwrap();
        assert_eq!(report.records_recovered, 192); // 6 complete blocks
        let mut b = TraceBuilder::new("busy");
        for r in &trace.records()[..192] {
            b.record(r.pc.addr(), r.is_taken(), r.time.get());
        }
        let expected = pipeline.run_observed(&b.finish(), &Obs::noop());
        assert_eq!(streamed, expected);
    }

    /// `n` records in blocks of `block`, five branches cycling, where
    /// block `victim` holds the only records of one branch and the first
    /// of another that runs again every 50 records afterwards. Returns
    /// the file with that block's payload damaged, and the trace of the
    /// records that survive it.
    fn damaged_middle_block(n: u64, block: u64, victim: u64) -> (Vec<u8>, Trace) {
        let mut all = TraceBuilder::new("remap");
        let mut survivors = TraceBuilder::new("remap");
        for i in 0..n {
            let in_victim = i / block == victim;
            let pc = match i % block {
                0 if in_victim => 0x9000,
                1 if in_victim => 0x9004,
                _ if i / block > victim && i % 50 == 0 => 0x9004,
                _ => 0x4000 + (i * 7 % 5) * 4,
            };
            all.record(pc, i % 3 == 0, 2 * i + 1);
            if !in_victim {
                survivors.record(pc, i % 3 == 0, 2 * i + 1);
            }
        }
        let mut buf = encode(&all.finish(), block as usize);
        let offset = ColumnarFile::parse(&buf).unwrap().footer().unwrap().blocks[victim as usize].0;
        buf[offset as usize + 40] ^= 0x40; // a payload byte: the block CRC fails
        (buf, survivors.finish())
    }

    #[test]
    fn a_dropped_block_renumbers_the_surviving_branches_by_first_appearance() {
        let (buf, survivors) = damaged_middle_block(3000, 256, 4);
        let pipeline = AnalysisPipeline {
            conflict: crate::ConflictConfig::with_threshold(2).unwrap(),
            ..AnalysisPipeline::new()
        };
        let expected = pipeline.run_observed(&survivors, &Obs::noop());
        let (streamed, report) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Salvage, &Obs::noop())
                .unwrap();
        assert_eq!(report.chunks_dropped, 1);
        assert_eq!(
            streamed.conflict.graph.node_count(),
            survivors.static_branch_count()
        );
        assert_eq!(streamed, expected);
        // The in-memory decode numbers the survivors the same way.
        let (decoded, _) = read_columnar(&buf, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(decoded.records(), survivors.records());
        assert_eq!(decoded.record_ids(), survivors.record_ids());
        assert_eq!(decoded.table(), survivors.table());
        assert_eq!(pipeline.run_observed(&decoded, &Obs::noop()), expected);
    }
}
