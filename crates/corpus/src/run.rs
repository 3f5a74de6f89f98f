//! Opening a corpus and fanning supervised [`Session`]s across it.
//!
//! [`Corpus::open`] validates the manifest up front (parse, duplicate
//! paths, dangling entries) so a batch never starts against a corpus
//! that cannot finish. [`CorpusSession::run_all`] then runs one
//! supervised session per entry via [`parallel_map`] and folds the
//! per-entry records into a [`FleetSummary`].
//!
//! Each entry gets its own degradation ladder, so one corrupt trace
//! never sinks the batch:
//!
//! 1. **Ingest** decodes every trace format with [`bwsa_trace::decode`]
//!    under [`RecoveryPolicy::Salvage`] — damaged chunks or blocks are
//!    dropped and counted, not fatal.
//! 2. **Analysis** runs under the session supervisor (configurable via
//!    [`CorpusSession::with_supervisor`]): retried serial runs, each
//!    under the deadline.
//! 3. The whole entry is wrapped in [`supervisor::catch`]: even a
//!    panic is contained to a `failed` row in the summary.

use std::path::{Path, PathBuf};

use bwsa_core::parallel::parallel_map;
use bwsa_core::{AnalysisPipeline, Classified, ConflictConfig, Session, SupervisorConfig};
use bwsa_obs::Obs;
use bwsa_resilience::supervisor;
use bwsa_trace::codec;
use bwsa_trace::stream::RecoveryPolicy;
use bwsa_trace::Trace;

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::error::CorpusError;
use crate::failpoints;
use crate::fleet::{EntryRecord, EntryStatus, FanOutDecision, FleetAccumulator, FleetSummary};
use crate::manifest::{Manifest, ManifestEntry};

/// Below this per-entry file size the batch runs serially even when
/// `with_jobs` asked for more: for sub-megabyte traces the worker-thread
/// spawn and queue handoff cost more than the decode+analysis they
/// parallelise, so fan-out *loses* wall-clock (the corpus bench showed
/// `--jobs 4` slower than serial on 74 KiB traces). The gate keys on the
/// **largest** entry — one big trace is enough to make fan-out pay.
pub const PARALLEL_BYTE_THRESHOLD: u64 = 1 << 20;

/// An opened, validated corpus — the root object of the batch API.
///
/// ```no_run
/// use bwsa_corpus::Corpus;
///
/// let summary = Corpus::open("corpus.toml".as_ref())?
///     .session()
///     .with_jobs(4)
///     .run_all();
/// println!("{}", summary.to_json().to_pretty_string());
/// # Ok::<(), bwsa_corpus::CorpusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    manifest: Manifest,
}

impl Corpus {
    /// Loads and fully validates a manifest file.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the manifest cannot be read,
    /// [`CorpusError::Manifest`]/[`CorpusError::DuplicatePath`] for
    /// malformed documents, and [`CorpusError::DanglingEntry`] when an
    /// entry's trace file does not exist.
    pub fn open(manifest_path: &Path) -> Result<Corpus, CorpusError> {
        Corpus::from_manifest(Manifest::load(manifest_path)?)
    }

    /// Wraps an already-parsed manifest, running the on-disk checks.
    ///
    /// # Errors
    ///
    /// [`CorpusError::DanglingEntry`] when an entry's file is missing.
    pub fn from_manifest(manifest: Manifest) -> Result<Corpus, CorpusError> {
        manifest.check_entries_exist()?;
        Ok(Corpus { manifest })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Starts configuring a batch run, mirroring the
    /// [`Session`] builder idiom.
    pub fn session(&self) -> CorpusSession<'_> {
        CorpusSession {
            corpus: self,
            jobs: 1,
            threshold: None,
            supervisor: None,
            obs: Obs::noop(),
            cache_dir: None,
        }
    }
}

/// A configured batch run over one [`Corpus`].
#[derive(Debug, Clone)]
pub struct CorpusSession<'c> {
    corpus: &'c Corpus,
    jobs: usize,
    threshold: Option<u64>,
    supervisor: Option<SupervisorConfig>,
    obs: Obs,
    cache_dir: Option<PathBuf>,
}

impl CorpusSession<'_> {
    /// Worker threads to fan entries across (clamped to at least 1).
    /// The default is 1 — serial, the reference schedule the parallel
    /// one is proven bit-identical to.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides every entry's conflict threshold for this run.
    #[must_use]
    pub fn with_threshold(mut self, threshold: u64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Supervises each entry's analysis with the given retry/downgrade
    /// policy.
    #[must_use]
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Self {
        self.supervisor = Some(config);
        self
    }

    /// Attaches an observer; per-entry sessions inherit clones of it,
    /// and the batch feeds `corpus.*` counters into it.
    #[must_use]
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Enables the content-addressed result cache in `dir` (typically
    /// `.bwsa-cache/` beside the manifest): entries whose trace
    /// content, config, and engine version match a verified cell are
    /// served from disk instead of re-analyzed, and fresh results are
    /// written back. Cached and fresh runs produce byte-identical
    /// summaries — the cell codec round-trips [`EntryRecord`] exactly.
    #[must_use]
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Runs every entry and folds the results into a [`FleetSummary`].
    ///
    /// Infallible by design: corpus-level validation already happened
    /// in [`Corpus::open`], and every per-entry failure mode — corrupt
    /// file, analysis error, even a panic — is contained to that
    /// entry's `failed` row.
    pub fn run_all(&self) -> FleetSummary {
        let _span = self.obs.span("corpus_run");
        let entries = self.corpus.manifest.entries.clone();
        let cache = self
            .cache_dir
            .as_ref()
            .map(|dir| ResultCache::open(dir.clone()));
        let fan_out = self.plan_fan_out(&entries);
        if fan_out.effective_jobs < self.jobs {
            self.obs.add("corpus.fan_out_demoted", 1);
        }
        let records = parallel_map(entries, fan_out.effective_jobs, |_i, entry| {
            self.run_entry(&entry, cache.as_ref())
        });
        for r in &records {
            self.obs.add("corpus.entries", 1);
            match r.status {
                EntryStatus::Ok => self.obs.add("corpus.entries_ok", 1),
                EntryStatus::Degraded => self.obs.add("corpus.entries_degraded", 1),
                EntryStatus::Failed => self.obs.add("corpus.entries_failed", 1),
            }
            self.obs.add("corpus.records", r.records);
        }
        let mut cache_stats = CacheStats::default();
        if let Some(cache) = &cache {
            cache.evict_to_budget();
            cache_stats = cache.stats();
            self.obs.add("corpus.cache_hits", cache_stats.hits);
            self.obs.add("corpus.cache_misses", cache_stats.misses);
            self.obs
                .add("corpus.cache_evictions", cache_stats.evictions);
            self.obs.add("corpus.cache_corrupt", cache_stats.corrupt);
        }
        let mut summary = records
            .into_iter()
            .collect::<FleetAccumulator>()
            .finish(&self.corpus.manifest.name);
        summary.cache = cache_stats;
        summary.fan_out = fan_out;
        summary
    }

    /// Decides serial vs parallel fan-out for this batch: requested jobs
    /// are demoted to 1 when every entry's file is smaller than
    /// [`PARALLEL_BYTE_THRESHOLD`]. Files whose size cannot be read are
    /// treated as above-threshold (they will surface their error in the
    /// per-entry record, not here).
    fn plan_fan_out(&self, entries: &[ManifestEntry]) -> FanOutDecision {
        let largest = entries
            .iter()
            .map(|e| match std::fs::metadata(&e.path) {
                Ok(meta) => meta.len(),
                Err(_) => u64::MAX,
            })
            .max()
            .unwrap_or(0);
        let effective = if self.jobs > 1 && largest < PARALLEL_BYTE_THRESHOLD {
            1
        } else {
            self.jobs
        };
        FanOutDecision {
            requested_jobs: self.jobs,
            effective_jobs: effective,
            largest_entry_bytes: largest,
            threshold_bytes: PARALLEL_BYTE_THRESHOLD,
        }
    }

    /// Runs one entry through the full ladder; never propagates an
    /// error or a panic.
    fn run_entry(&self, entry: &ManifestEntry, cache: Option<&ResultCache>) -> EntryRecord {
        let threshold = self.threshold.unwrap_or(entry.threshold);
        let outcome = match cache {
            Some(cache) => supervisor::catch(|| self.run_entry_cached(entry, threshold, cache)),
            None => supervisor::catch(|| self.run_entry_inner(entry, threshold)),
        };
        outcome.unwrap_or_else(|fault| {
            EntryRecord::failed(&entry.key, &entry.class, fault.to_string())
        })
    }

    /// The cached entry path: digest the trace bytes, try the cell,
    /// analyze and write back on a miss.
    fn run_entry_cached(
        &self,
        entry: &ManifestEntry,
        threshold: u64,
        cache: &ResultCache,
    ) -> EntryRecord {
        let bytes = match std::fs::read(&entry.path) {
            Ok(bytes) => bytes,
            Err(e) => {
                let message = format!("cannot read {}: {e}", entry.path.display());
                return EntryRecord::failed(&entry.key, &entry.class, message);
            }
        };
        let key = CacheKey::for_entry(
            codec::content_digest(&bytes),
            &entry.key,
            &entry.class,
            threshold,
            entry.baseline,
        );
        if let Some(record) = cache.load(key, &entry.key) {
            return record;
        }
        let record = self.run_entry_bytes(entry, threshold, &bytes);
        cache.store(key, &record);
        record
    }

    fn run_entry_inner(&self, entry: &ManifestEntry, threshold: u64) -> EntryRecord {
        let bytes = match std::fs::read(&entry.path) {
            Ok(bytes) => bytes,
            Err(e) => {
                let message = format!("cannot read {}: {e}", entry.path.display());
                return EntryRecord::failed(&entry.key, &entry.class, message);
            }
        };
        self.run_entry_bytes(entry, threshold, &bytes)
    }

    fn run_entry_bytes(&self, entry: &ManifestEntry, threshold: u64, bytes: &[u8]) -> EntryRecord {
        let fail = |e: String| EntryRecord::failed(&entry.key, &entry.class, e);
        let (trace, chunks_dropped) = match load_trace_bytes(bytes, &entry.path) {
            Ok(loaded) => loaded,
            Err(e) => return fail(e),
        };
        if trace.is_empty() {
            return fail("trace holds no records".to_owned());
        }
        let conflict = match ConflictConfig::with_threshold(threshold) {
            Ok(c) => c,
            Err(e) => return fail(e.to_string()),
        };
        let pipeline = AnalysisPipeline {
            conflict,
            ..AnalysisPipeline::default()
        };
        let mut session = Session::new(&trace)
            .with_pipeline(pipeline)
            .with_observer(self.obs.clone());
        if let Some(cfg) = self.supervisor {
            session = session.with_supervisor(cfg);
        }
        let analysis = match session.run() {
            Ok(a) => a,
            Err(e) => return fail(e.to_string()),
        };
        let ws = analysis.working_sets.report;
        let required = match session.required_bht_size(Classified(false), entry.baseline as usize) {
            Ok(r) => r,
            Err(e) => return fail(e.to_string()),
        };
        let (retries, downgrades) = match session.resilience_summary() {
            Some(s) => (s.retries, s.downgrades.len() as u64),
            None => (0, 0),
        };
        let status = if chunks_dropped > 0 || downgrades > 0 {
            EntryStatus::Degraded
        } else {
            EntryStatus::Ok
        };
        EntryRecord {
            key: entry.key.clone(),
            class: entry.class.clone(),
            status,
            error: None,
            records: trace.len() as u64,
            chunks_dropped,
            retries,
            downgrades,
            total_sets: ws.total_sets as u64,
            max_set: ws.max_size as u64,
            avg_dynamic_size: ws.avg_dynamic_size,
            avg_static_size: ws.avg_static_size,
            required_size: required.size as u64,
            baseline: entry.baseline,
        }
    }
}

/// Decodes one trace's bytes in whichever format they hold, salvaging
/// damaged stream chunks or columnar blocks. Returns the trace and the
/// number of chunks/blocks salvage had to drop. The caller reads the
/// file once; with a cache enabled the same bytes also feed the content
/// digest.
fn load_trace_bytes(bytes: &[u8], path: &Path) -> Result<(Trace, u64), String> {
    bwsa_resilience::failpoint!(failpoints::INGEST_DECODE);
    let (trace, report) = bwsa_trace::decode(bytes, RecoveryPolicy::Salvage)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok((trace, report.chunks_dropped))
}
