//! Columnar (`BWSS3`) ingest for the analysis engines: footer-driven
//! shard planning and parallel block-range decode.
//!
//! A `BWSS2` stream must be scanned end to end before it can be split
//! for parallel work, so on ingest-bound corpora extra workers used to
//! *lose* time — every worker still paid the full per-record decode.
//! The `BWSS3` footer ([`bwsa_trace::columnar::Footer`]) carries a block
//! index (offset + record count per block), which makes shard planning
//! O(1) seeks: [`plan_block_shards`] balances contiguous block ranges by
//! record count without touching the data, and [`decode_columnar`] fans
//! the ranges out over [`parallel_map`], each worker decoding its blocks
//! independently (ids are pre-interned against the footer directory).
//! The assembled [`Trace`] is byte-identical to a serial decode.
//!
//! [`analyze_columnar_stream`] is the constant-memory alternative: it
//! walks blocks through [`bwsa_trace::columnar::BlockDecoder`]'s
//! reusable SoA scratch and feeds their columns to the record
//! accumulator, never materialising the trace.

use crate::interleave::Accumulator;
use crate::parallel::parallel_map;
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_obs::Obs;
use bwsa_trace::columnar::{ColumnarFile, FirstSeen, Footer};
use bwsa_trace::stream::{RecoveryPolicy, SalvageReport};
use bwsa_trace::{BranchId, BranchRecord, BranchTable, Pc, Trace, TraceError, TraceMeta};
use std::ops::Range;

/// Record count below which [`decode_columnar`] decodes serially even
/// when asked for more jobs: fanning out a sub-128k-record file loses
/// more to worker setup and shard stitching than the decode costs.
pub const PARALLEL_DECODE_MIN_RECORDS: u64 = 1 << 17;

/// Splits `blocks` (the footer's per-block record counts) into at most
/// `shards` contiguous ranges of near-equal record count.
///
/// Planning is O(blocks) arithmetic over the index — no trace bytes are
/// read. Every block lands in exactly one range and ranges preserve
/// order, so concatenating the decoded ranges reproduces the serial
/// record sequence.
///
/// # Example
///
/// ```
/// let blocks = [(0u64, 10u32), (0, 10), (0, 10), (0, 10)];
/// let plan = bwsa_core::columnar::plan_block_shards(&blocks, 2);
/// assert_eq!(plan, vec![0..2, 2..4]);
/// ```
pub fn plan_block_shards(blocks: &[(u64, u32)], shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    if blocks.is_empty() {
        return Vec::new();
    }
    let total: u64 = blocks.iter().map(|&(_, c)| u64::from(c)).sum();
    let target = total.div_ceil(shards as u64).max(1);
    let mut plan = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut in_range = 0u64;
    for (i, &(_, count)) in blocks.iter().enumerate() {
        in_range += u64::from(count);
        let ranges_left = shards - plan.len();
        let blocks_left = blocks.len() - i - 1;
        // Close the range at the target, but never strand more tail
        // blocks than there are ranges to hold them.
        if (in_range >= target && ranges_left > 1) || blocks_left + 1 == ranges_left {
            plan.push(start..i + 1);
            start = i + 1;
            in_range = 0;
        }
    }
    if start < blocks.len() {
        plan.push(start..blocks.len());
    }
    plan
}

/// Decodes a `BWSS3` buffer into a [`Trace`], fanning block ranges out
/// over `jobs` workers when the footer's block index allows it.
///
/// Footerless (torn) files and `jobs <= 1` fall back to the serial
/// decoder under the given policy. The parallel path requires an intact
/// footer and decodes every block strictly: a damaged block fails a
/// strict decode, as the serial decoder would, and sends a salvage
/// decode back to the serial decoder, which skips the damaged blocks and
/// renumbers the surviving branches. The result is identical to
/// [`bwsa_trace::columnar::read_columnar`] for every job count.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for structural damage and
/// [`TraceError::Corrupt`] for a damaged block in strict mode.
pub fn decode_columnar(
    bytes: &[u8],
    policy: RecoveryPolicy,
    jobs: usize,
) -> Result<(Trace, SalvageReport), TraceError> {
    let file = ColumnarFile::parse(bytes)?;
    let Some(footer) = file.footer() else {
        return file.decode(policy);
    };
    // Below ~128k records the fan-out setup costs more wall-clock than
    // the decode itself (measured in corpus_bench's ingest phase), so
    // small files demote to the serial decoder — same records, and the
    // same rule the corpus runner applies to whole-entry fan-out.
    if jobs <= 1 || footer.blocks.len() < 2 || footer.record_count < PARALLEL_DECODE_MIN_RECORDS {
        return file.decode(policy);
    }
    match decode_in_parallel(&file, footer, jobs) {
        Err(_) if policy == RecoveryPolicy::Salvage => file.decode(policy),
        decoded => decoded,
    }
}

/// The strict block-parallel decode of a file with an intact footer.
fn decode_in_parallel(
    file: &ColumnarFile<'_>,
    footer: &Footer,
    jobs: usize,
) -> Result<(Trace, SalvageReport), TraceError> {
    let plan = plan_block_shards(&footer.blocks, jobs);
    let decoded = parallel_map(plan, jobs, |_, range| {
        let span: usize = footer.blocks[range.clone()]
            .iter()
            .map(|&(_, c)| c as usize)
            .sum();
        let mut ids: Vec<BranchId> = Vec::with_capacity(span);
        let mut records: Vec<BranchRecord> = Vec::with_capacity(span);
        file.decode_range(range, &mut ids, &mut records)
            .map(|()| (ids, records))
    });
    let mut ids: Vec<BranchId> = Vec::with_capacity(footer.record_count as usize);
    let mut records: Vec<BranchRecord> = Vec::with_capacity(footer.record_count as usize);
    let mut report = SalvageReport {
        chunks_ok: footer.blocks.len() as u64,
        ..SalvageReport::default()
    };
    for shard in decoded {
        let (mut shard_ids, mut shard_records) = shard?;
        ids.append(&mut shard_ids);
        records.append(&mut shard_records);
    }
    report.records_recovered = records.len() as u64;
    if report.records_recovered != footer.record_count {
        return Err(TraceError::format(format!(
            "footer promises {} records, blocks held {}",
            footer.record_count, report.records_recovered
        )));
    }
    let table = BranchTable::from_pcs(footer.pcs.iter().map(|&pc| Pc::new(pc)))?;
    let meta = TraceMeta {
        name: file.name().to_string(),
        total_instructions: footer.total_instructions,
    };
    Ok((Trace::from_parts(meta, table, ids, records)?, report))
}

/// Runs the full analysis pipeline over a `BWSS3` buffer block-at-a-time
/// without materialising the trace: each block is decoded into reusable
/// SoA scratch and its id, time and taken columns go straight into the
/// record accumulator. No per-record struct is built and no pc is
/// hashed: ids are renumbered by first appearance ([`FirstSeen`]), which
/// is the writer's own numbering on an undamaged file and the numbering
/// of a trace of the surviving records after a dropped block.
///
/// Memory stays bounded by one block plus the engine state. The result
/// is bit-identical to decoding the whole trace and running
/// [`AnalysisPipeline::run_observed`] over it.
///
/// # Errors
///
/// Propagates decode errors per `policy` exactly as
/// [`bwsa_trace::columnar::read_columnar`] does; under salvage the
/// analysis covers whatever the salvage decode would recover.
pub fn analyze_columnar_stream(
    pipeline: &AnalysisPipeline,
    bytes: &[u8],
    policy: RecoveryPolicy,
    obs: &Obs,
) -> Result<(Analysis, SalvageReport), TraceError> {
    let file = ColumnarFile::parse(bytes)?;
    let mut acc = Accumulator::new(0);
    let mut first_seen = FirstSeen::default();
    let (report, _) = {
        let _span = obs.span("ingest");
        file.walk(policy, |view| {
            for ((&id, &taken), &time) in view.ids.iter().zip(view.taken).zip(view.times) {
                acc.push(first_seen.id(id), time, taken);
            }
        })?
    };
    obs.add("trace.records_read", report.records_recovered);
    obs.add("trace.chunks_ok", report.chunks_ok);
    Ok((acc.into_analysis(pipeline, obs), report))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use bwsa_trace::columnar::{read_columnar, ColumnarWriter};
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
    fn plan_covers_every_block_exactly_once() {
        let blocks: Vec<(u64, u32)> = (0..23).map(|i| (i, 10 + (i as u32 % 5))).collect();
        for shards in [1, 2, 3, 7, 23, 50] {
            let plan = plan_block_shards(&blocks, shards);
            assert!(plan.len() <= shards, "shards {shards}: {plan:?}");
            let mut next = 0usize;
            for range in &plan {
                assert_eq!(range.start, next, "shards {shards}: {plan:?}");
                assert!(range.end > range.start);
                next = range.end;
            }
            assert_eq!(next, blocks.len(), "shards {shards}: {plan:?}");
        }
        assert!(plan_block_shards(&[], 4).is_empty());
    }

    #[test]
    fn parallel_decode_is_identical_to_serial_for_any_jobs() {
        let trace = busy_trace(2000);
        let buf = encode(&trace, 64);
        let (serial, serial_report) = read_columnar(&buf, RecoveryPolicy::Strict).unwrap();
        assert_eq!(serial, trace);
        for jobs in [1, 2, 3, 8, 64] {
            let (parallel, report) = decode_columnar(&buf, RecoveryPolicy::Strict, jobs).unwrap();
            assert_eq!(parallel, serial, "jobs {jobs}");
            assert_eq!(
                report.records_recovered, serial_report.records_recovered,
                "jobs {jobs}"
            );
        }
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

    #[test]
    fn parallel_salvage_of_a_damaged_block_falls_back_to_serial_salvage() {
        let (buf, survivors) = damaged_middle_block(PARALLEL_DECODE_MIN_RECORDS + 4096, 4096, 5);
        assert!(decode_columnar(&buf, RecoveryPolicy::Strict, 2).is_err());
        let serial = read_columnar(&buf, RecoveryPolicy::Salvage).unwrap();
        let (parallel, report) = decode_columnar(&buf, RecoveryPolicy::Salvage, 2).unwrap();
        assert_eq!(report, serial.1);
        assert_eq!(report.chunks_dropped, 1);
        assert_eq!(parallel, serial.0);
        assert_eq!(
            parallel.static_branch_count(),
            survivors.static_branch_count()
        );
    }

    #[test]
    fn parallel_decode_of_torn_file_falls_back_to_serial_salvage() {
        let trace = busy_trace(100);
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, "busy")
            .unwrap()
            .with_block_records(16);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        drop(w);
        let (salvaged, report) = decode_columnar(&buf, RecoveryPolicy::Salvage, 8).unwrap();
        assert_eq!(salvaged.len(), 96);
        assert_eq!(report.chunks_ok, 6);
    }
}
