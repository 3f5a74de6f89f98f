//! Resumable streaming analysis: run the paper's pipeline over a record
//! stream with periodic checkpoints, so a multi-hour profiling analysis
//! survives being killed.
//!
//! [`StreamingAnalysis`] accumulates exactly the state the in-memory
//! pipeline derives from a trace — the pc interner, per-branch execution
//! statistics, the interleave edge counts, and each branch's latest
//! timestamp — one record at a time. [`StreamingAnalysis::save`] freezes
//! that state into a self-validating byte blob (magic `BWCK`, version,
//! kind 2, CRC32 trailer; simulation checkpoints use kind 1, see
//! [`bwsa_predictor::SimCheckpoint`]); [`StreamingAnalysis::load`] rebuilds
//! the engine from it. Feeding the remaining records afterwards yields an
//! [`Analysis`] bit-identical to an uninterrupted run. The edge counts are
//! saved merged, in increasing `(a, b)` order, and restored into the
//! detector's spill table. The latest timestamps are read from the recency
//! index, which is not saved: it is fully derivable from them.
//! [`write_checkpoint`] is the one rotating checkpoint writer.

use crate::error::CoreError;
use crate::interleave::Accumulator;
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_graph::GraphBuilder;
use bwsa_trace::codec::{self, Cursor};
use bwsa_trace::profile::BranchStats;
use bwsa_trace::{BranchRecord, BranchTable, TraceError};
use std::path::{Path, PathBuf};

/// Magic prefix shared by all checkpoint files in the workspace.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BWCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;
/// Kind byte for analysis checkpoints (simulation checkpoints use 1).
pub const CHECKPOINT_KIND_ANALYSIS: u8 = 2;

/// An incremental, checkpointable run of the full analysis pipeline.
///
/// # Example
///
/// ```
/// use bwsa_core::{pipeline::AnalysisPipeline, StreamingAnalysis};
/// use bwsa_trace::{BranchRecord, TraceBuilder};
///
/// let mut t = TraceBuilder::new("demo");
/// for i in 0..1000u64 {
///     t.record(0x100 + (i % 3) * 4, i % 2 == 0, i + 1);
/// }
/// let trace = t.finish();
/// let pipeline = AnalysisPipeline::new();
///
/// // Stream half the records, "crash", resume from the checkpoint.
/// let mut first = StreamingAnalysis::new("demo");
/// for r in &trace.records()[..500] {
///     first.push(r);
/// }
/// let blob = first.save();
///
/// let mut resumed = StreamingAnalysis::load(&blob).unwrap();
/// assert_eq!(resumed.records_consumed(), 500);
/// for r in &trace.records()[500..] {
///     resumed.push(r);
/// }
/// let direct = pipeline.run_observed(&trace, &bwsa_obs::Obs::noop());
/// assert_eq!(resumed.finish(&pipeline), direct);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingAnalysis {
    pub(crate) trace_name: String,
    /// The pc interner: ids in first-appearance order.
    pub(crate) table: BranchTable,
    pub(crate) acc: Accumulator,
}

impl StreamingAnalysis {
    /// Creates an empty analysis for the named trace.
    pub fn new(trace_name: impl Into<String>) -> Self {
        StreamingAnalysis {
            trace_name: trace_name.into(),
            table: BranchTable::new(),
            acc: Accumulator::new(0),
        }
    }

    /// Name of the trace being analysed (from the stream header).
    pub fn trace_name(&self) -> &str {
        &self.trace_name
    }

    /// Dynamic branches consumed so far.
    pub fn records_consumed(&self) -> u64 {
        self.acc.records
    }

    /// Consumes one dynamic branch record: interns its pc and counts it
    /// exactly as [`AnalysisPipeline::run_observed`] counts a trace's.
    pub fn push(&mut self, rec: &BranchRecord) {
        let id = self.table.intern(rec.pc);
        self.acc.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }

    /// Completes the pipeline on everything consumed so far, producing the
    /// same [`Analysis`] that [`AnalysisPipeline::run_observed`] computes
    /// from an in-memory trace of the same records.
    pub fn finish(self, pipeline: &AnalysisPipeline) -> Analysis {
        self.finish_observed(pipeline, &bwsa_obs::Obs::noop())
    }

    /// [`StreamingAnalysis::finish`] with stage timings and graph
    /// counters reported into `obs`. The result is bit-identical either
    /// way.
    pub fn finish_observed(self, pipeline: &AnalysisPipeline, obs: &bwsa_obs::Obs) -> Analysis {
        self.acc.into_analysis(pipeline, obs)
    }

    /// [`StreamingAnalysis::save`] with the serialisation time recorded
    /// as a `checkpoint_save` span.
    pub fn save_observed(&self, obs: &bwsa_obs::Obs) -> Vec<u8> {
        let _span = obs.span("checkpoint_save");
        self.save()
    }

    /// [`StreamingAnalysis::load`] with the restore time recorded as a
    /// `checkpoint_restore` span.
    ///
    /// # Errors
    ///
    /// Exactly those of [`StreamingAnalysis::load`].
    pub fn load_observed(bytes: &[u8], obs: &bwsa_obs::Obs) -> Result<Self, CoreError> {
        let _span = obs.span("checkpoint_restore");
        Self::load(bytes)
    }

    /// Serialises the analysis state, appending a CRC32 of everything
    /// before it.
    pub fn save(&self) -> Vec<u8> {
        bwsa_resilience::failpoint!("core.checkpoint_save");
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        buf.push(CHECKPOINT_KIND_ANALYSIS);
        codec::put_varint(&mut buf, self.trace_name.len() as u64);
        buf.extend_from_slice(self.trace_name.as_bytes());
        codec::put_varint(&mut buf, self.acc.records);
        // Interned pcs in id order — interning them again in this order
        // reproduces the table.
        codec::put_varint(&mut buf, self.table.len() as u64);
        for (_, pc) in self.table.iter() {
            codec::put_varint(&mut buf, pc.addr());
        }
        // Per-branch statistics, parallel to the table.
        codec::put_varint(&mut buf, self.acc.stats.len() as u64);
        for s in &self.acc.stats {
            codec::put_varint(&mut buf, s.executions);
            codec::put_varint(&mut buf, s.taken);
            codec::put_varint(&mut buf, s.first_time.get());
            codec::put_varint(&mut buf, s.last_time.get());
        }
        // Latest stamp per branch; stamp+1 so 0 encodes "never executed".
        // A stamp of u64::MAX wraps to 0 too: `load` reads it back from
        // the branch's `last_time`, which is every executed branch's
        // latest stamp.
        let detector = &self.acc.detector;
        codec::put_varint(&mut buf, detector.latest_stamps().len() as u64);
        for stamp in detector.latest_stamps() {
            codec::put_varint(&mut buf, stamp.map_or(0, |t| t.wrapping_add(1)));
        }
        // Accumulated interleave edges in increasing (a, b) order, for a
        // deterministic encoding.
        let spill = detector.sorted_spill();
        let edges = detector.sorted_edges(&spill);
        codec::put_varint(&mut buf, edges.clone().count() as u64);
        for (a, b, w) in edges {
            codec::put_varint(&mut buf, u64::from(a));
            codec::put_varint(&mut buf, u64::from(b));
            codec::put_varint(&mut buf, w);
        }
        let crc = codec::crc32(&buf);
        codec::put_u32_le(&mut buf, crc);
        buf
    }

    /// Rebuilds an analysis from bytes produced by
    /// [`StreamingAnalysis::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on a bad magic, unsupported
    /// version, wrong kind, CRC mismatch, or malformed payload.
    pub fn load(bytes: &[u8]) -> Result<Self, CoreError> {
        bwsa_resilience::failpoint!("core.checkpoint_restore");
        fn malformed(e: TraceError) -> CoreError {
            CoreError::checkpoint(format!("malformed state: {e}"))
        }
        fn get_len(cur: &mut Cursor<'_>, what: &str) -> Result<usize, CoreError> {
            let len = cur.get_varint().map_err(malformed)? as usize;
            if len > cur.remaining() {
                return Err(CoreError::checkpoint(format!(
                    "checkpoint claims {len} {what} but only {} bytes remain",
                    cur.remaining()
                )));
            }
            Ok(len)
        }
        if bytes.len() < CHECKPOINT_MAGIC.len() + 2 + 4 {
            return Err(CoreError::checkpoint("checkpoint too short to be valid"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split_at(len-4)"));
        if codec::crc32(body) != stored {
            return Err(CoreError::checkpoint(
                "checkpoint CRC mismatch — file is corrupt or truncated",
            ));
        }
        let mut cur = Cursor::new(body);
        let magic = cur.take(4).map_err(malformed)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CoreError::checkpoint("not a checkpoint file (bad magic)"));
        }
        let version = cur.get_u8().map_err(malformed)?;
        if version != CHECKPOINT_VERSION {
            return Err(CoreError::checkpoint(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let kind = cur.get_u8().map_err(malformed)?;
        if kind != CHECKPOINT_KIND_ANALYSIS {
            return Err(CoreError::checkpoint(format!(
                "checkpoint kind {kind} is not an analysis checkpoint"
            )));
        }
        let name_len = get_len(&mut cur, "name bytes")?;
        let trace_name = String::from_utf8(cur.take(name_len).map_err(malformed)?.to_vec())
            .map_err(|e| CoreError::checkpoint(format!("trace name is not utf-8: {e}")))?;
        let records_consumed = cur.get_varint().map_err(malformed)?;

        let n_pcs = get_len(&mut cur, "pcs")?;
        let mut table = BranchTable::new();
        for _ in 0..n_pcs {
            let pc = cur.get_varint().map_err(malformed)?;
            table.intern(pc.into());
        }
        if table.len() != n_pcs {
            return Err(CoreError::checkpoint("duplicate pc in checkpoint table"));
        }

        let n_stats = get_len(&mut cur, "stat entries")?;
        if n_stats != n_pcs {
            return Err(CoreError::checkpoint(format!(
                "checkpoint has {n_stats} stat entries for {n_pcs} branches"
            )));
        }
        let mut stats = Vec::with_capacity(n_stats);
        for _ in 0..n_stats {
            let executions = cur.get_varint().map_err(malformed)?;
            let taken = cur.get_varint().map_err(malformed)?;
            let first_time = cur.get_varint().map_err(malformed)?;
            let last_time = cur.get_varint().map_err(malformed)?;
            if taken > executions {
                return Err(CoreError::checkpoint(
                    "stat entry has more taken than executed",
                ));
            }
            stats.push(BranchStats {
                executions,
                taken,
                first_time: first_time.into(),
                last_time: last_time.into(),
            });
        }

        let n_stamps = get_len(&mut cur, "stamps")?;
        if n_stamps != n_pcs {
            return Err(CoreError::checkpoint(format!(
                "checkpoint has {n_stamps} stamps for {n_pcs} branches"
            )));
        }
        let mut last_stamp = Vec::with_capacity(n_stamps);
        for s in &stats {
            let raw = cur.get_varint().map_err(malformed)?;
            let wrapped = (s.executions > 0).then_some(s.last_time.get());
            last_stamp.push(raw.checked_sub(1).or(wrapped));
        }

        let n_edges = get_len(&mut cur, "edges")?;
        let mut builder = GraphBuilder::new(n_pcs as u32);
        for _ in 0..n_edges {
            let a = cur.get_varint().map_err(malformed)?;
            let b = cur.get_varint().map_err(malformed)?;
            let w = cur.get_varint().map_err(malformed)?;
            let (a, b) = (
                u32::try_from(a).map_err(|_| CoreError::checkpoint("edge endpoint exceeds u32"))?,
                u32::try_from(b).map_err(|_| CoreError::checkpoint("edge endpoint exceeds u32"))?,
            );
            if a as usize >= n_pcs || b as usize >= n_pcs {
                return Err(CoreError::checkpoint(format!(
                    "edge ({a}, {b}) outside the {n_pcs}-branch table"
                )));
            }
            builder
                .try_add_edge(a, b, w)
                .map_err(|e| CoreError::checkpoint(format!("bad checkpoint edge: {e}")))?;
        }
        if !cur.is_empty() {
            return Err(CoreError::checkpoint(format!(
                "{} trailing bytes after analysis state",
                cur.remaining()
            )));
        }
        Ok(StreamingAnalysis {
            trace_name,
            table,
            acc: Accumulator::resume(last_stamp, builder, stats, records_consumed),
        })
    }
}

/// Writes checkpoint bytes via a temporary file and rename, so a crash
/// mid-write never leaves a torn checkpoint at `path`. The checkpoint
/// being replaced is rotated to `FILE.prev` first, so one good ancestor
/// survives to resume from even if the newest file is later damaged.
///
/// # Errors
///
/// The failed write or rename, naming its paths.
pub fn write_checkpoint(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let sibling = |suffix: &str| {
        let mut name = path.as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    };
    let (tmp, prev) = (sibling(".tmp"), sibling(".prev"));
    let fail = |what: String| {
        move |e: std::io::Error| std::io::Error::new(e.kind(), format!("{what}: {e}"))
    };
    std::fs::write(&tmp, bytes).map_err(fail(format!("cannot write {}", tmp.display())))?;
    if path.exists() {
        let rotate = format!("cannot rotate {} to {}", path.display(), prev.display());
        std::fs::rename(path, &prev).map_err(fail(rotate))?;
    }
    let rename = format!("cannot rename {} to {}", tmp.display(), path.display());
    std::fs::rename(&tmp, path).map_err(fail(rename))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::{Trace, TraceBuilder};

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

    /// Threshold 1 keeps every edge, so an analysis' graph is its raw
    /// graph and equal analyses have equal interleave counts.
    fn keep_all() -> AnalysisPipeline {
        AnalysisPipeline {
            conflict: crate::ConflictConfig::with_threshold(1).unwrap(),
            ..AnalysisPipeline::new()
        }
    }

    fn run_streaming(trace: &Trace, split: usize, pipeline: &AnalysisPipeline) -> Analysis {
        let mut first = StreamingAnalysis::new(&trace.meta().name);
        for r in &trace.records()[..split] {
            first.push(r);
        }
        let blob = first.save();
        let mut resumed = StreamingAnalysis::load(&blob).expect("checkpoint loads");
        assert_eq!(resumed.records_consumed(), split as u64);
        assert_eq!(resumed.trace_name(), trace.meta().name);
        for r in &trace.records()[split..] {
            resumed.push(r);
        }
        resumed.finish(pipeline)
    }

    #[test]
    fn checkpointed_run_matches_in_memory_pipeline_at_any_split() {
        let trace = busy_trace(800);
        let pipeline = AnalysisPipeline::new();
        let expected = pipeline.run_observed(&trace, &bwsa_obs::Obs::noop());
        for split in [0, 1, 399, 400, 799, 800] {
            assert_eq!(
                run_streaming(&trace, split, &pipeline),
                expected,
                "split {split}"
            );
        }
    }

    #[test]
    fn suspended_and_resumed_engine_matches_straight_run() {
        let mut t = TraceBuilder::new("resume");
        let pcs = [0xa, 0xb, 0xa, 0xc, 0xb, 0xa, 0xd, 0xc, 0xa, 0xb, 0xc, 0xd];
        for (i, pc) in pcs.into_iter().enumerate() {
            t.record(pc, i % 2 == 0, (i as u64 + 1) * 3);
        }
        let trace = t.finish();
        let expected = keep_all().run_observed(&trace, &bwsa_obs::Obs::noop());
        assert!(expected.conflict.graph.edge_count() > 0);
        for split in 0..=trace.len() {
            assert_eq!(
                run_streaming(&trace, split, &keep_all()),
                expected,
                "split at {split}"
            );
        }
    }

    #[test]
    fn streaming_push_handles_max_stamp_reexecution() {
        let mut a = StreamingAnalysis::new("max");
        for (pc, t) in [(0xa, u64::MAX), (0xb, u64::MAX), (0xa, u64::MAX)] {
            a.push(&BranchRecord::from_raw(pc, true, t));
        }
        let analysis = a.finish(&keep_all());
        assert_eq!(
            analysis.conflict.raw_edge_count, 0,
            "equal stamps never interleave"
        );
        assert_eq!(analysis.profile.total_dynamic(), 3);
    }

    #[test]
    fn a_max_stamp_survives_a_checkpoint() {
        let records = [(0xa, 5), (0xb, u64::MAX), (0xc, u64::MAX), (0xa, u64::MAX)];
        let mut straight = StreamingAnalysis::new("max");
        let mut first = StreamingAnalysis::new("max");
        for (pc, t) in records {
            straight.push(&BranchRecord::from_raw(pc, true, t));
        }
        for (pc, t) in &records[..3] {
            first.push(&BranchRecord::from_raw(*pc, true, *t));
        }
        let mut resumed = StreamingAnalysis::load(&first.save()).expect("checkpoint loads");
        resumed.push(&BranchRecord::from_raw(0xa, true, u64::MAX));
        let resumed = resumed.finish(&keep_all());
        assert_eq!(resumed, straight.finish(&keep_all()));
        assert_eq!(resumed.conflict.raw_edge_count, 2, "a saw b and c after 5");
    }

    #[test]
    fn write_checkpoint_rotates_the_previous_file() {
        let dir = std::env::temp_dir().join(format!("bwsa-ck-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bwck");
        write_checkpoint(&path, b"one").unwrap();
        write_checkpoint(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert_eq!(std::fs::read(dir.join("a.bwck.prev")).unwrap(), b"one");
        assert!(!dir.join("a.bwck.tmp").exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_analysis_round_trips() {
        let a = StreamingAnalysis::new("empty");
        let b = StreamingAnalysis::load(&a.save()).unwrap();
        assert_eq!(b.records_consumed(), 0);
        assert_eq!(b.table.len(), 0);
        assert_eq!(b.trace_name(), "empty");
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let trace = busy_trace(120);
        let mut a = StreamingAnalysis::new("busy");
        for r in trace.records() {
            a.push(r);
        }
        let blob = a.save();
        assert!(StreamingAnalysis::load(&blob).is_ok());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(StreamingAnalysis::load(&bad).is_err(), "flip at byte {i}");
        }
        for cut in 0..blob.len() {
            assert!(
                StreamingAnalysis::load(&blob[..cut]).is_err(),
                "truncated to {cut}"
            );
        }
    }

    #[test]
    fn sim_and_analysis_checkpoints_reject_each_other() {
        let analysis_blob = StreamingAnalysis::new("t").save();
        let err = bwsa_predictor::SimCheckpoint::from_bytes(&analysis_blob).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");

        let sim_blob = bwsa_predictor::SimCheckpoint {
            predictor: "bimodal/64".into(),
            trace: "t".into(),
            records_consumed: 0,
            mispredictions: 0,
            predictor_state: Vec::new(),
        }
        .to_bytes();
        let err = StreamingAnalysis::load(&sim_blob).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn save_is_deterministic() {
        let trace = busy_trace(250);
        let mut a = StreamingAnalysis::new("busy");
        let mut b = StreamingAnalysis::new("busy");
        for r in trace.records() {
            a.push(r);
            b.push(r);
        }
        assert_eq!(a.save(), b.save(), "same state must encode identically");
        let reloaded = StreamingAnalysis::load(&a.save()).unwrap();
        assert_eq!(reloaded.save(), a.save(), "load/save round-trips bytes");
    }
}
