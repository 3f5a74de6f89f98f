//! Cross-run aggregation: folding per-entry results into a versioned
//! [`FleetSummary`].
//!
//! The fold is designed so the summary is **bit-identical** no matter
//! how the corpus was scheduled. [`FleetAccumulator`] is a commutative
//! monoid — `merge` concatenates keyed entry records, `empty` is the
//! identity — and every statistic is computed only in
//! [`FleetAccumulator::finish`], *after* the records are sorted by
//! their unique manifest key. Floating-point sums therefore always run
//! in the same (canonical) order, percentile selection always indexes
//! the same sorted vector, and serial vs parallel fan-out or any input
//! permutation produce the same JSON bytes. Property tests in
//! `tests/fleet_prop.rs` pin this: associativity + canonical finish ⇒
//! schedule-independence.
//!
//! Nothing time- or host-dependent goes into a summary (no wall times,
//! no RSS); throughput lives in `corpus_bench` instead.

use bwsa_obs::json::Json;

use crate::cache::CacheStats;

/// Version stamp of the `FleetSummary` JSON document. Bump when the
/// shape changes and regenerate `tests/golden/fleet_summary.schema`.
pub const FLEET_SUMMARY_VERSION: u64 = 1;

/// How far one corpus entry got down the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// Clean ingest, clean analysis.
    Ok,
    /// The batch kept going, but this entry needed help: salvage
    /// dropped damaged chunks, or the supervisor downgraded engines.
    Degraded,
    /// The entry produced no analysis (unreadable file, empty trace,
    /// contained panic). Its metrics are zero and excluded from
    /// distributions.
    Failed,
}

impl EntryStatus {
    /// The status as it appears in summary JSON.
    pub fn label(self) -> &'static str {
        match self {
            EntryStatus::Ok => "ok",
            EntryStatus::Degraded => "degraded",
            EntryStatus::Failed => "failed",
        }
    }
}

/// Everything the fold needs to know about one analyzed corpus entry.
///
/// `key` must be unique across the corpus (the manifest loader enforces
/// this); it is the sort key that makes the fold canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryRecord {
    /// The entry's manifest key (path as written).
    pub key: String,
    /// Workload-class tag.
    pub class: String,
    /// Ladder outcome.
    pub status: EntryStatus,
    /// Rendered error for a failed entry.
    pub error: Option<String>,
    /// Dynamic branch records analyzed.
    pub records: u64,
    /// Damaged chunks salvage dropped during ingest.
    pub chunks_dropped: u64,
    /// Supervisor retries granted.
    pub retries: u64,
    /// Supervisor engine downgrades.
    pub downgrades: u64,
    /// Working sets found (Table 2's row count input).
    pub total_sets: u64,
    /// Largest working set.
    pub max_set: u64,
    /// Execution-weighted mean working-set size.
    pub avg_dynamic_size: f64,
    /// Static mean working-set size.
    pub avg_static_size: f64,
    /// Smallest allocated BHT that beats the conventional baseline.
    pub required_size: u64,
    /// The conventional baseline it had to beat.
    pub baseline: u64,
}

impl EntryRecord {
    /// A record for an entry that produced no analysis.
    pub fn failed(key: &str, class: &str, error: impl Into<String>) -> Self {
        EntryRecord {
            key: key.to_owned(),
            class: class.to_owned(),
            status: EntryStatus::Failed,
            error: Some(error.into()),
            records: 0,
            chunks_dropped: 0,
            retries: 0,
            downgrades: 0,
            total_sets: 0,
            max_set: 0,
            avg_dynamic_size: 0.0,
            avg_static_size: 0.0,
            required_size: 0,
            baseline: 0,
        }
    }

    /// Allocation win: how many times smaller the allocated BHT is than
    /// the conventional baseline (`baseline / required_size`). Zero for
    /// failed entries.
    pub fn win(&self) -> f64 {
        if self.required_size == 0 {
            0.0
        } else {
            self.baseline as f64 / self.required_size as f64
        }
    }

    fn analyzed(&self) -> bool {
        self.status != EntryStatus::Failed
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("path", Json::from(self.key.clone())),
            ("class", Json::from(self.class.clone())),
            ("status", Json::from(self.status.label())),
            (
                "error",
                match &self.error {
                    Some(e) => Json::from(e.clone()),
                    None => Json::Null,
                },
            ),
            ("records", Json::UInt(self.records)),
            ("chunks_dropped", Json::UInt(self.chunks_dropped)),
            ("retries", Json::UInt(self.retries)),
            ("downgrades", Json::UInt(self.downgrades)),
            ("total_sets", Json::UInt(self.total_sets)),
            ("max_set", Json::UInt(self.max_set)),
            ("avg_dynamic_size", Json::Float(self.avg_dynamic_size)),
            ("avg_static_size", Json::Float(self.avg_static_size)),
            ("required_size", Json::UInt(self.required_size)),
            ("baseline", Json::UInt(self.baseline)),
            ("win", Json::Float(self.win())),
        ])
    }
}

/// How `run_all` scheduled the batch: the fan-out mode it chose and the
/// byte evidence behind the choice (see
/// [`crate::CorpusSession::with_jobs`] and the per-entry size threshold
/// in `run.rs`).
///
/// Like [`CacheStats`], this is run-shaped telemetry, deliberately
/// excluded from [`FleetSummary::to_json`]: the JSON bytes are the
/// bit-identity contract and must not depend on how the run was
/// scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FanOutDecision {
    /// Worker threads the caller asked for.
    pub requested_jobs: usize,
    /// Worker threads actually used (1 when demoted to serial).
    pub effective_jobs: usize,
    /// Size of the largest entry file in the batch.
    pub largest_entry_bytes: u64,
    /// The per-entry size below which fan-out is demoted.
    pub threshold_bytes: u64,
}

impl FanOutDecision {
    /// `true` when the batch ran on one thread.
    pub fn serial(&self) -> bool {
        self.effective_jobs <= 1
    }

    /// The chosen mode as a label (`"serial"` / `"parallel"`).
    pub fn mode(&self) -> &'static str {
        if self.serial() {
            "serial"
        } else {
            "parallel"
        }
    }
}

/// The fold state: a bag of keyed entry records.
///
/// `merge` is associative and commutative with [`FleetAccumulator::empty`]
/// as identity, because it only concatenates; all order-sensitive work
/// waits for the canonical sort in [`FleetAccumulator::finish`].
#[derive(Debug, Clone, Default)]
pub struct FleetAccumulator {
    entries: Vec<EntryRecord>,
}

impl FleetAccumulator {
    /// The monoid identity.
    pub fn empty() -> Self {
        FleetAccumulator::default()
    }

    /// Folds one entry in.
    pub fn absorb(&mut self, record: EntryRecord) {
        self.entries.push(record);
    }

    /// Combines two partial folds (associative, commutative).
    #[must_use]
    pub fn merge(mut self, other: FleetAccumulator) -> FleetAccumulator {
        self.entries.extend(other.entries);
        self
    }

    /// Number of records absorbed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonicalizes (sort by key) and computes every fleet statistic.
    pub fn finish(mut self, corpus_name: &str) -> FleetSummary {
        self.entries.sort_by(|a, b| a.key.cmp(&b.key));
        let entries = self.entries;

        let mut ok = 0u64;
        let mut degraded = 0u64;
        let mut failed = 0u64;
        let mut records = 0u64;
        let mut retries = 0u64;
        let mut downgrades = 0u64;
        let mut chunks_dropped = 0u64;
        for e in &entries {
            match e.status {
                EntryStatus::Ok => ok += 1,
                EntryStatus::Degraded => degraded += 1,
                EntryStatus::Failed => failed += 1,
            }
            records += e.records;
            retries += e.retries;
            downgrades += e.downgrades;
            chunks_dropped += e.chunks_dropped;
        }

        let analyzed: Vec<&EntryRecord> = entries.iter().filter(|e| e.analyzed()).collect();
        let total_sets = Percentiles::of(analyzed.iter().map(|e| e.total_sets as f64));
        let max_size = Percentiles::of(analyzed.iter().map(|e| e.max_set as f64));
        let avg_dynamic = Percentiles::of(analyzed.iter().map(|e| e.avg_dynamic_size));
        let histogram = pow2_histogram(analyzed.iter().map(|e| e.max_set));

        // Per-class allocation wins. The iteration order is the
        // canonical entry order, so per-class float sums are
        // deterministic too.
        let mut classes: Vec<ClassWin> = Vec::new();
        for e in &analyzed {
            let win = e.win();
            match classes.iter_mut().find(|c| c.class == e.class) {
                Some(c) => {
                    c.entries += 1;
                    c.win_sum += win;
                    c.min_win = c.min_win.min(win);
                    c.max_win = c.max_win.max(win);
                }
                None => classes.push(ClassWin {
                    class: e.class.clone(),
                    entries: 1,
                    win_sum: win,
                    min_win: win,
                    max_win: win,
                }),
            }
        }
        classes.sort_by(|a, b| a.class.cmp(&b.class));

        FleetSummary {
            name: corpus_name.to_owned(),
            entries,
            ok,
            degraded,
            failed,
            records,
            retries,
            downgrades,
            chunks_dropped,
            total_sets,
            max_size,
            avg_dynamic,
            histogram,
            classes,
            cache: CacheStats::default(),
            fan_out: FanOutDecision::default(),
        }
    }
}

impl FromIterator<EntryRecord> for FleetAccumulator {
    fn from_iter<I: IntoIterator<Item = EntryRecord>>(iter: I) -> Self {
        FleetAccumulator {
            entries: iter.into_iter().collect(),
        }
    }
}

/// Nearest-rank percentiles over one per-entry metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Percentiles {
    /// Computes nearest-rank percentiles; all-zero when `values` is
    /// empty. Inputs must be finite (they come from counts and means).
    pub fn of(values: impl IntoIterator<Item = f64>) -> Percentiles {
        let mut v: Vec<f64> = values.into_iter().collect();
        if v.is_empty() {
            return Percentiles {
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite metric values"));
        let rank = |p: f64| -> f64 {
            let idx = ((p / 100.0 * v.len() as f64).ceil() as usize).max(1) - 1;
            v[idx.min(v.len() - 1)]
        };
        Percentiles {
            p50: rank(50.0),
            p90: rank(90.0),
            p99: rank(99.0),
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    fn to_json(self) -> Json {
        Json::object([
            ("p50", Json::Float(self.p50)),
            ("p90", Json::Float(self.p90)),
            ("p99", Json::Float(self.p99)),
            ("min", Json::Float(self.min)),
            ("max", Json::Float(self.max)),
        ])
    }
}

/// Power-of-two histogram bucket: `count` entries with value ≤ `le`
/// (and above the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Inclusive upper bound (1, 2, 4, 8, …).
    pub le: u64,
    /// Entries in this bucket.
    pub count: u64,
}

fn pow2_histogram(values: impl IntoIterator<Item = u64>) -> Vec<HistogramBucket> {
    let values: Vec<u64> = values.into_iter().collect();
    let top = match values.iter().max() {
        None => return Vec::new(),
        Some(&m) => m,
    };
    let mut buckets = Vec::new();
    let mut lo = 0u64; // exclusive
    let mut le = 1u64;
    loop {
        let count = values.iter().filter(|&&v| v > lo && v <= le).count() as u64;
        buckets.push(HistogramBucket { le, count });
        if le >= top {
            break;
        }
        lo = le;
        le = le.saturating_mul(2);
    }
    // Values of zero (degenerate but possible: an analyzed trace whose
    // graph produced no sets) would escape every bucket; fold them into
    // the first so counts always sum to the input length.
    let zeros = values.iter().filter(|&&v| v == 0).count() as u64;
    buckets[0].count += zeros;
    buckets
}

/// Per-workload-class allocation-win aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassWin {
    /// The class tag.
    pub class: String,
    /// Analyzed entries carrying it.
    pub entries: u64,
    win_sum: f64,
    /// Smallest win in the class.
    pub min_win: f64,
    /// Largest win in the class.
    pub max_win: f64,
}

impl ClassWin {
    /// Mean allocation win across the class.
    pub fn mean_win(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.win_sum / self.entries as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("class", Json::from(self.class.clone())),
            ("entries", Json::UInt(self.entries)),
            ("mean_win", Json::Float(self.mean_win())),
            ("min_win", Json::Float(self.min_win)),
            ("max_win", Json::Float(self.max_win)),
        ])
    }
}

/// The versioned cross-run summary of one corpus run.
///
/// Produced only by [`FleetAccumulator::finish`]; entries are in
/// canonical (key-sorted) order and every statistic is a deterministic
/// function of that sorted list.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Corpus name from the manifest.
    pub name: String,
    /// Per-entry outcomes, sorted by manifest key.
    pub entries: Vec<EntryRecord>,
    /// Entries that analyzed cleanly.
    pub ok: u64,
    /// Entries that needed salvage or an engine downgrade.
    pub degraded: u64,
    /// Entries that produced no analysis.
    pub failed: u64,
    /// Total dynamic branch records analyzed.
    pub records: u64,
    /// Total supervisor retries.
    pub retries: u64,
    /// Total engine downgrades.
    pub downgrades: u64,
    /// Total salvage-dropped chunks.
    pub chunks_dropped: u64,
    /// Distribution of per-entry working-set counts.
    pub total_sets: Percentiles,
    /// Distribution of per-entry largest-set sizes.
    pub max_size: Percentiles,
    /// Distribution of per-entry dynamic mean set sizes.
    pub avg_dynamic: Percentiles,
    /// Power-of-two histogram of largest-set sizes.
    pub histogram: Vec<HistogramBucket>,
    /// Allocation win per workload class, sorted by class.
    pub classes: Vec<ClassWin>,
    /// Result-cache counters for the run that produced this summary.
    /// All-zero without a cache. Deliberately excluded from
    /// [`FleetSummary::to_json`]: the JSON bytes are the bit-identity
    /// contract, and a warm run must render identically to a cold one.
    pub cache: CacheStats,
    /// The fan-out schedule the run chose. Excluded from
    /// [`FleetSummary::to_json`] for the same reason as `cache`: a
    /// serial and a parallel run must render identical bytes.
    pub fan_out: FanOutDecision,
}

impl FleetSummary {
    /// Fraction of entries that did not analyze cleanly.
    pub fn degradation_rate(&self) -> f64 {
        let total = self.entries.len() as u64;
        if total == 0 {
            0.0
        } else {
            (self.degraded + self.failed) as f64 / total as f64
        }
    }

    /// The summary as its versioned JSON document — the bytes the
    /// bit-identity contract is stated over.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("fleet_summary_version", Json::UInt(FLEET_SUMMARY_VERSION)),
            (
                "corpus",
                Json::object([
                    ("name", Json::from(self.name.clone())),
                    ("entries", Json::UInt(self.entries.len() as u64)),
                    ("records", Json::UInt(self.records)),
                ]),
            ),
            (
                "resilience",
                Json::object([
                    ("ok", Json::UInt(self.ok)),
                    ("degraded", Json::UInt(self.degraded)),
                    ("failed", Json::UInt(self.failed)),
                    ("degradation_rate", Json::Float(self.degradation_rate())),
                    ("retries", Json::UInt(self.retries)),
                    ("downgrades", Json::UInt(self.downgrades)),
                    ("chunks_dropped", Json::UInt(self.chunks_dropped)),
                ]),
            ),
            (
                "working_sets",
                Json::object([
                    ("total_sets", self.total_sets.to_json()),
                    ("max_size", self.max_size.to_json()),
                    ("avg_dynamic_size", self.avg_dynamic.to_json()),
                    (
                        "max_size_histogram",
                        Json::Array(
                            self.histogram
                                .iter()
                                .map(|b| {
                                    Json::object([
                                        ("le", Json::UInt(b.le)),
                                        ("count", Json::UInt(b.count)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "allocation",
                Json::object([(
                    "classes",
                    Json::Array(self.classes.iter().map(ClassWin::to_json).collect()),
                )]),
            ),
            (
                "entries",
                Json::Array(self.entries.iter().map(EntryRecord::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, class: &str, max_set: u64) -> EntryRecord {
        EntryRecord {
            key: key.to_owned(),
            class: class.to_owned(),
            status: EntryStatus::Ok,
            error: None,
            records: 100,
            chunks_dropped: 0,
            retries: 0,
            downgrades: 0,
            total_sets: 4,
            max_set,
            avg_dynamic_size: 2.5,
            avg_static_size: 2.0,
            required_size: 64,
            baseline: 1024,
        }
    }

    #[test]
    fn merge_is_order_insensitive_after_finish() {
        let a = rec("a", "x", 3);
        let b = rec("b", "y", 9);
        let c = EntryRecord::failed("c", "x", "boom");
        let fwd: FleetAccumulator = vec![a.clone(), b.clone(), c.clone()].into_iter().collect();
        let rev: FleetAccumulator = vec![c, b, a].into_iter().collect();
        let fwd = fwd.finish("n").to_json().to_pretty_string();
        let rev = rev.finish("n").to_json().to_pretty_string();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn percentiles_match_nearest_rank() {
        let p = Percentiles::of((1..=100).map(|v| v as f64));
        assert_eq!((p.p50, p.p90, p.p99), (50.0, 90.0, 99.0));
        assert_eq!((p.min, p.max), (1.0, 100.0));
        let single = Percentiles::of([7.0]);
        assert_eq!((single.p50, single.p99), (7.0, 7.0));
        let empty = Percentiles::of([]);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn histogram_buckets_cover_every_value() {
        let h = pow2_histogram([0, 1, 2, 3, 5, 16]);
        let total: u64 = h.iter().map(|b| b.count).sum();
        assert_eq!(total, 6);
        assert_eq!(h.last().expect("nonempty").le, 16);
        // 0 and 1 share the first bucket; 3 and 5 land in (2,4] and (4,8].
        assert_eq!(h[0], HistogramBucket { le: 1, count: 2 });
        assert_eq!(h[2], HistogramBucket { le: 4, count: 1 });
    }

    #[test]
    fn degradation_rate_counts_degraded_and_failed() {
        let mut d = rec("d", "x", 2);
        d.status = EntryStatus::Degraded;
        let acc: FleetAccumulator = vec![rec("a", "x", 2), d, EntryRecord::failed("f", "x", "e")]
            .into_iter()
            .collect();
        let summary = acc.finish("n");
        assert_eq!((summary.ok, summary.degraded, summary.failed), (1, 1, 1));
        assert!((summary.degradation_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Failed entries are excluded from distributions.
        assert_eq!(summary.total_sets.min, 4.0);
        // Wins group by class in canonical order.
        assert_eq!(summary.classes.len(), 1);
        assert_eq!(summary.classes[0].entries, 2);
        assert!((summary.classes[0].mean_win() - 16.0).abs() < 1e-12);
    }
}
