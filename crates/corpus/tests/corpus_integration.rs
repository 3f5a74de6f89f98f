//! End-to-end corpus runs against real traces on disk: the serial ==
//! parallel bit-identity contract, manifest-order invariance, TOML/JSON
//! equivalence, and the salvage ladder (one corrupted BWSS2 member
//! degrades its own entry, never the batch).

use std::fs;
use std::path::{Path, PathBuf};

use bwsa_corpus::{Corpus, CorpusError, EntryStatus, Manifest, FLEET_SUMMARY_VERSION};
use bwsa_trace::stream::{frame_spans, StreamWriter};
use bwsa_trace::Trace;
use bwsa_workload::suite::{Benchmark, InputSet};

/// A fresh per-test directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bwsa_corpus_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Encodes a trace as a BWSS2 stream with small chunks (so corruption
/// tests have several frames to damage).
fn write_bwss(trace: &Trace, path: &Path) {
    let mut buf = Vec::new();
    {
        let mut w = StreamWriter::new(&mut buf, &trace.meta().name)
            .expect("stream header")
            .with_chunk_records(64);
        for rec in trace.iter() {
            w.push(*rec).expect("stream record");
        }
        w.finish(trace.meta().total_instructions).expect("finish");
    }
    fs::write(path, buf).expect("write trace file");
}

/// Three small, distinct benchmark traces plus a manifest naming them.
fn build_corpus(dir: &Path) -> PathBuf {
    for (bench, name) in [
        (Benchmark::Compress, "compress_a.bwss"),
        (Benchmark::Pgp, "pgp_a.bwss"),
        (Benchmark::Li, "li_a.bwss"),
    ] {
        write_bwss(&bench.generate_scaled(InputSet::A, 0.01), &dir.join(name));
    }
    let manifest = dir.join("corpus.toml");
    fs::write(
        &manifest,
        r#"name = "itest"

[defaults]
threshold = 10
class = "integer"

[[trace]]
path = "compress_a.bwss"

[[trace]]
path = "pgp_a.bwss"
class = "crypto"

[[trace]]
path = "li_a.bwss"
class = "interp"
"#,
    )
    .expect("write manifest");
    manifest
}

fn summary_bytes(manifest: &Path, jobs: usize) -> String {
    Corpus::open(manifest)
        .expect("open corpus")
        .session()
        .with_jobs(jobs)
        .run_all()
        .to_json()
        .to_pretty_string()
}

#[test]
fn serial_and_parallel_runs_are_bit_identical() {
    let dir = scratch("serpar");
    let manifest = build_corpus(&dir);
    let serial = summary_bytes(&manifest, 1);
    for jobs in [2, 3, 8] {
        assert_eq!(summary_bytes(&manifest, jobs), serial, "jobs={jobs}");
    }
    assert!(serial.contains(&format!(
        "\"fleet_summary_version\": {FLEET_SUMMARY_VERSION}"
    )));
}

#[test]
fn manifest_entry_order_does_not_change_the_summary() {
    let dir = scratch("order");
    let manifest = build_corpus(&dir);
    let baseline = summary_bytes(&manifest, 2);
    // Same corpus, entries listed in reverse.
    let reversed = dir.join("reversed.toml");
    fs::write(
        &reversed,
        r#"name = "itest"

[defaults]
threshold = 10
class = "integer"

[[trace]]
path = "li_a.bwss"
class = "interp"

[[trace]]
path = "pgp_a.bwss"
class = "crypto"

[[trace]]
path = "compress_a.bwss"
"#,
    )
    .expect("write manifest");
    assert_eq!(summary_bytes(&reversed, 2), baseline);
}

#[test]
fn json_manifest_is_equivalent_to_toml() {
    let dir = scratch("json");
    let manifest = build_corpus(&dir);
    let json = dir.join("corpus.json");
    fs::write(
        &json,
        r#"{"name": "itest",
            "defaults": {"threshold": 10, "class": "integer"},
            "traces": [
              {"path": "compress_a.bwss"},
              {"path": "pgp_a.bwss", "class": "crypto"},
              {"path": "li_a.bwss", "class": "interp"}
            ]}"#,
    )
    .expect("write manifest");
    assert_eq!(summary_bytes(&json, 2), summary_bytes(&manifest, 2));
}

#[test]
fn corrupted_member_degrades_without_sinking_the_batch() {
    let dir = scratch("salvage");
    let manifest = build_corpus(&dir);
    // Damage one payload byte inside a middle frame of pgp_a.bwss: the
    // chunk CRC fails, salvage drops that chunk, the stream resyncs.
    let victim = dir.join("pgp_a.bwss");
    let mut bytes = fs::read(&victim).expect("read victim");
    let spans = frame_spans(&bytes).expect("intact stream");
    assert!(spans.len() > 2, "need several frames, got {}", spans.len());
    let mid = spans[spans.len() / 2];
    bytes[mid.offset + mid.len / 2] ^= 0xff;
    fs::write(&victim, &bytes).expect("rewrite victim");

    let summary = Corpus::open(&manifest)
        .expect("open corpus")
        .session()
        .with_jobs(2)
        .run_all();
    assert_eq!(summary.entries.len(), 3, "batch completed all entries");
    let victim_row = summary
        .entries
        .iter()
        .find(|e| e.key == "pgp_a.bwss")
        .expect("victim row present");
    assert_eq!(victim_row.status, EntryStatus::Degraded);
    assert!(victim_row.chunks_dropped > 0);
    assert_eq!(victim_row.error, None);
    // The other two entries are untouched.
    assert_eq!(summary.ok, 2);
    assert_eq!(summary.degraded, 1);
    assert!(summary.degradation_rate() > 0.0);
}

#[test]
fn unreadable_member_fails_its_entry_only() {
    let dir = scratch("failed");
    let manifest = build_corpus(&dir);
    // Garbage with a BWSS magic: not salvageable at all.
    fs::write(dir.join("li_a.bwss"), b"BWSS\xff\xff garbage").expect("overwrite");
    let summary = Corpus::open(&manifest)
        .expect("open corpus")
        .session()
        .with_jobs(2)
        .run_all();
    assert_eq!(summary.entries.len(), 3);
    let row = summary
        .entries
        .iter()
        .find(|e| e.key == "li_a.bwss")
        .expect("row present");
    assert_eq!(row.status, EntryStatus::Failed);
    assert!(row.error.is_some());
    assert_eq!(summary.ok, 2);
    assert_eq!(summary.failed, 1);
}

#[test]
fn open_rejects_dangling_and_duplicate_entries() {
    let dir = scratch("reject");
    let manifest = build_corpus(&dir);
    fs::remove_file(dir.join("li_a.bwss")).expect("remove trace");
    match Corpus::open(&manifest) {
        Err(CorpusError::DanglingEntry { path }) => assert!(path.ends_with("li_a.bwss")),
        other => panic!("expected DanglingEntry, got {other:?}"),
    }
    let dup = dir.join("dup.toml");
    fs::write(
        &dup,
        "[[trace]]\npath = \"compress_a.bwss\"\n[[trace]]\npath = \"compress_a.bwss\"\n",
    )
    .expect("write manifest");
    assert!(matches!(
        Corpus::open(&dup),
        Err(CorpusError::DuplicatePath { .. })
    ));
}

#[test]
fn warm_cache_rerun_is_byte_identical_with_zero_analyses() {
    let dir = scratch("warmcache");
    let manifest = build_corpus(&dir);
    let cache_dir = dir.join(".bwsa-cache");
    let corpus = Corpus::open(&manifest).expect("open corpus");
    let cold = corpus.session().with_cache(&cache_dir).run_all();
    assert_eq!(
        (cold.cache.hits, cold.cache.misses),
        (0, 3),
        "cold run misses every entry"
    );
    let obs = bwsa_obs::Obs::recording();
    let warm = corpus
        .session()
        .with_jobs(2)
        .with_cache(&cache_dir)
        .with_observer(obs.clone())
        .run_all();
    assert_eq!(
        warm.to_json().to_pretty_string(),
        cold.to_json().to_pretty_string(),
        "warm and cold summaries must be byte-identical"
    );
    assert_eq!(
        (warm.cache.hits, warm.cache.misses, warm.cache.corrupt),
        (3, 0, 0),
        "warm rerun performs zero trace analyses"
    );
    let metrics = obs.snapshot().expect("recording observer");
    assert_eq!(metrics.counter("corpus.cache_hits"), 3);
    assert_eq!(metrics.counter("corpus.cache_misses"), 0);
}

#[test]
fn cached_subset_matches_all_fresh_under_permutation_and_jobs() {
    let dir = scratch("subsetcache");
    let manifest = build_corpus(&dir);
    let cache_dir = dir.join(".bwsa-cache");
    let corpus = Corpus::open(&manifest).expect("open corpus");
    let fresh = corpus.session().with_jobs(3).run_all();
    // Populate the cache, then drop an arbitrary subset of cells so the
    // next run mixes cache hits with fresh analyses.
    corpus.session().with_cache(&cache_dir).run_all();
    let mut cells: Vec<_> = fs::read_dir(&cache_dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("cell"))
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 3);
    fs::remove_file(&cells[1]).expect("drop one cell");
    let mixed = corpus
        .session()
        .with_jobs(2)
        .with_cache(&cache_dir)
        .run_all();
    assert_eq!((mixed.cache.hits, mixed.cache.misses), (2, 1));
    assert_eq!(
        mixed.to_json().to_pretty_string(),
        fresh.to_json().to_pretty_string(),
        "a cache-hit/fresh mix must fold to the all-fresh bytes"
    );
}

#[test]
fn threshold_override_addresses_different_cache_cells() {
    let dir = scratch("cachekeys");
    let manifest = build_corpus(&dir);
    let cache_dir = dir.join(".bwsa-cache");
    let corpus = Corpus::open(&manifest).expect("open corpus");
    corpus.session().with_cache(&cache_dir).run_all();
    // Same corpus, different effective threshold: the cache must not
    // serve the threshold-10 results.
    let overridden = corpus
        .session()
        .with_cache(&cache_dir)
        .with_threshold(1)
        .run_all();
    assert_eq!(
        (overridden.cache.hits, overridden.cache.misses),
        (0, 3),
        "a config change misses every cell"
    );
    // And rerunning with the override hits the new cells.
    let warm = corpus
        .session()
        .with_cache(&cache_dir)
        .with_threshold(1)
        .run_all();
    assert_eq!((warm.cache.hits, warm.cache.misses), (3, 0));
}

#[test]
fn threshold_override_and_observer_counters_flow_through() {
    let dir = scratch("knobs");
    let manifest = build_corpus(&dir);
    let corpus = Corpus::open(&manifest).expect("open corpus");
    let obs = bwsa_obs::Obs::recording();
    let summary = corpus
        .session()
        .with_threshold(1)
        .with_observer(obs.clone())
        .run_all();
    let loose = Manifest::load(&manifest).expect("manifest reloads");
    assert_eq!(loose.entries.len(), summary.entries.len());
    // A threshold of 1 keeps every conflict edge, so working sets can
    // only grow (or stay) relative to threshold 10.
    let tight = corpus.session().run_all();
    for (a, b) in summary.entries.iter().zip(tight.entries.iter()) {
        assert!(
            a.max_set >= b.max_set,
            "{}: {} < {}",
            a.key,
            a.max_set,
            b.max_set
        );
    }
    let metrics = obs.snapshot().expect("recording observer");
    assert_eq!(metrics.counter("corpus.entries"), 3);
}
