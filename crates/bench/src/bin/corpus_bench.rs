//! Corpus batch-analytics benchmark: a pinned synthetic trace corpus on
//! disk — encoded once as `BWSS2` streams and once as `BWSS3` columnar
//! files with identical names — ingested and folded into fleet
//! summaries.
//!
//! ```text
//! cargo run --release -p bwsa-bench --bin corpus_bench -- \
//!     [--traces N] [--jobs N] [--quick] [--out FILE]
//! cargo run --release -p bwsa-bench --bin corpus_bench -- --validate FILE
//! ```
//!
//! Five phases over the same generated corpus:
//!
//! * **ingest** — cold decode-only throughput per format: every `BWSS2`
//!   file through the stream reader vs every `BWSS3` file through the
//!   mmap'd columnar decoder (and once more fully buffered, isolating
//!   the mmap-vs-`read(2)` delta). Asserts the `BWSS3` mmap path
//!   ingests at least 3x the `BWSS2` records/sec — the format's reason
//!   to exist, measured where it is cheapest to regress.
//! * **identity** — the cross-format contract: the analysis, windowed,
//!   corpus, and predictor paths each run over both encodings of the
//!   same records and must render byte-identical results.
//! * **batch** — `Corpus::open(..).session().run_all()` serial and at
//!   `--jobs` width; reports end-to-end wall time, ingest throughput,
//!   the fan-out decision (small corpora demote to serial), and asserts
//!   the serial and parallel summaries are byte-identical.
//! * **aggregation** — the pure fold in isolation: the batch's entry
//!   records absorbed into a fresh accumulator and `finish`ed repeatedly.
//! * **cache** — the content-addressed result cache: a cold run that
//!   fills it vs a warm rerun that replays every entry (zero analyses).
//!
//! `--out` writes `BENCH_corpus.json` (schema `bwsa-bench-corpus/3`) and
//! refuses to run in a debug build. `--validate` re-parses a written
//! report and checks the invariants (the CI smoke step).

use bwsa_core::{AnalysisPipeline, WindowConfig, WindowedAnalysis};
use bwsa_corpus::{Corpus, EntryStatus, FleetAccumulator, FleetSummary};
use bwsa_obs::json::Json;
use bwsa_obs::Obs;
use bwsa_predictor::{simulate, BhtIndexer, Pag};
use bwsa_trace::columnar::{read_columnar, write_columnar};
use bwsa_trace::mmap::TraceBytes;
use bwsa_trace::stream::{RecoveryPolicy, StreamReader, StreamWriter};
use bwsa_trace::Trace;
use bwsa_workload::suite::{Benchmark, InputSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    traces: usize,
    jobs: usize,
    quick: bool,
    out: Option<String>,
    validate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        traces: 8,
        jobs: 4,
        quick: false,
        out: None,
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--traces" => {
                let v = it.next().ok_or("--traces needs a value")?;
                args.traces = v.parse().map_err(|_| format!("bad --traces {v:?}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| format!("bad --jobs {v:?}"))?;
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--validate" => args.validate = Some(it.next().ok_or("--validate needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.traces == 0 || args.jobs == 0 {
        return Err("--traces and --jobs must be positive".into());
    }
    Ok(args)
}

/// The workload rotation the synthetic corpus draws from, with the
/// class tag each benchmark carries in the manifest.
const ROTATION: [(Benchmark, &str); 4] = [
    (Benchmark::Compress, "integer"),
    (Benchmark::Pgp, "crypto"),
    (Benchmark::Li, "interp"),
    (Benchmark::Perl, "interp"),
];

/// The generated corpus, encoded twice: sibling directories with
/// identical file names and manifest text, so entry keys — and
/// therefore fleet summaries — can only differ if the formats decode
/// differently.
struct CorpusPair {
    bwss_manifest: PathBuf,
    bws3_manifest: PathBuf,
    bwss_bytes: u64,
    bws3_bytes: u64,
    records: u64,
}

/// Generates the corpus on disk in both formats.
fn build_corpus(dir: &Path, traces: usize, quick: bool) -> CorpusPair {
    let scale = if quick { 0.005 } else { 0.05 };
    let bwss_dir = dir.join("bwss");
    let bws3_dir = dir.join("bws3");
    std::fs::create_dir_all(&bwss_dir).expect("create corpus dir");
    std::fs::create_dir_all(&bws3_dir).expect("create corpus dir");
    let mut manifest = String::from("name = \"bench\"\n\n[defaults]\nthreshold = 100\n");
    let mut pair = CorpusPair {
        bwss_manifest: bwss_dir.join("corpus.toml"),
        bws3_manifest: bws3_dir.join("corpus.toml"),
        bwss_bytes: 0,
        bws3_bytes: 0,
        records: 0,
    };
    for i in 0..traces {
        let (bench, class) = ROTATION[i % ROTATION.len()];
        // Alternate input sets so repeated benchmarks still differ.
        let input = if (i / ROTATION.len()).is_multiple_of(2) {
            InputSet::A
        } else {
            InputSet::B
        };
        let trace = bench.generate_scaled(input, scale);
        pair.records += trace.len() as u64;
        let name = format!("t{i:03}.trace");

        let mut bwss = Vec::new();
        let mut writer = StreamWriter::new(&mut bwss, &trace.meta().name).expect("encode trace");
        for record in trace.records() {
            writer.push(*record).expect("encode trace");
        }
        writer
            .finish(trace.meta().total_instructions)
            .expect("encode trace");
        pair.bwss_bytes += bwss.len() as u64;
        std::fs::write(bwss_dir.join(&name), &bwss).expect("write trace");

        let mut bws3 = Vec::new();
        write_columnar(&trace, &mut bws3).expect("encode trace");
        pair.bws3_bytes += bws3.len() as u64;
        std::fs::write(bws3_dir.join(&name), &bws3).expect("write trace");

        manifest.push_str(&format!(
            "\n[[trace]]\npath = \"{name}\"\nclass = \"{class}\"\n"
        ));
    }
    std::fs::write(&pair.bwss_manifest, &manifest).expect("write manifest");
    std::fs::write(&pair.bws3_manifest, &manifest).expect("write manifest");
    pair
}

/// Decodes one BWSS2 stream file the way the corpus runner does.
fn decode_bwss(path: &Path) -> Trace {
    let bytes = std::fs::read(path).expect("read trace");
    let mut reader = StreamReader::new(&bytes[..]).expect("open stream");
    let mut trace = Trace::new(reader.name().to_owned());
    for item in reader.by_ref() {
        trace
            .push(item.expect("decode record"))
            .expect("push record");
    }
    if let Some(total) = reader.total_instructions() {
        trace.meta_mut().total_instructions = total;
    }
    trace
}

/// Lists the trace files of one corpus directory, in name order.
fn trace_files(manifest: &Path) -> Vec<PathBuf> {
    let dir = manifest.parent().expect("manifest has a parent");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    files.sort();
    files
}

/// Best-of-N wall time for `f`, returning (ns, records decoded in one
/// pass). Cold-cache honesty is impossible in-process; best-of-N at
/// least pins the decode cost rather than first-touch noise.
fn time_decode(iters: usize, mut f: impl FnMut() -> u64) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut records = 0;
    for _ in 0..iters {
        let started = Instant::now();
        records = f();
        best = best.min(started.elapsed().as_nanos().max(1) as u64);
    }
    (best, records)
}

/// Minimum BWSS3-over-BWSS2 cold-ingest speedup the report asserts.
fn ingest_floor(quick: bool) -> f64 {
    if quick {
        2.0
    } else {
        3.0
    }
}

/// Phase 1: cold decode-only ingest, BWSS2 stream vs BWSS3 columnar
/// (mmap'd and buffered).
fn bench_ingest(pair: &CorpusPair, quick: bool) -> Json {
    let bwss_files = trace_files(&pair.bwss_manifest);
    let bws3_files = trace_files(&pair.bws3_manifest);
    let iters = if quick { 3 } else { 5 };

    let (bwss_ns, bwss_records) = time_decode(iters, || {
        bwss_files.iter().map(|p| decode_bwss(p).len() as u64).sum()
    });
    let (mmap_ns, mmap_records) = time_decode(iters, || {
        bws3_files
            .iter()
            .map(|p| {
                let bytes = TraceBytes::open(p).expect("mmap trace");
                let (trace, _) =
                    read_columnar(&bytes, RecoveryPolicy::Strict).expect("decode columnar");
                trace.len() as u64
            })
            .sum()
    });
    let (buffered_ns, buffered_records) = time_decode(iters, || {
        bws3_files
            .iter()
            .map(|p| {
                let bytes = TraceBytes::from_vec(std::fs::read(p).expect("read trace"));
                let (trace, _) =
                    read_columnar(&bytes, RecoveryPolicy::Strict).expect("decode columnar");
                trace.len() as u64
            })
            .sum()
    });
    assert_eq!(
        (bwss_records, mmap_records, buffered_records),
        (pair.records, pair.records, pair.records),
        "every ingest path must decode the whole corpus"
    );

    let rps = |ns: u64| pair.records as f64 / (ns as f64 / 1e9);
    let bwss_rps = rps(bwss_ns);
    let mmap_rps = rps(mmap_ns);
    let buffered_rps = rps(buffered_ns);
    let speedup = mmap_rps / bwss_rps;
    let mmap_vs_buffered = buffered_ns as f64 / mmap_ns as f64;
    eprintln!(
        "[ingest] {} records: bwss2 {:.1}M rec/s, bws3 mmap {:.1}M rec/s ({speedup:.1}x), \
         bws3 buffered {:.1}M rec/s (mmap {mmap_vs_buffered:.2}x buffered)",
        pair.records,
        bwss_rps / 1e6,
        mmap_rps / 1e6,
        buffered_rps / 1e6,
    );
    // The published floor is 3x; a --quick smoke corpus is too small to
    // amortise per-file costs, so it gets a looser 2x sanity floor.
    let floor = ingest_floor(quick);
    assert!(
        speedup >= floor,
        "BWSS3 mmap cold ingest must be >= {floor}x BWSS2 records/sec, got {speedup:.2}x"
    );
    Json::object([
        ("records", Json::from(pair.records)),
        ("bwss_bytes", Json::from(pair.bwss_bytes)),
        ("bws3_bytes", Json::from(pair.bws3_bytes)),
        ("bwss2_ns", Json::from(bwss_ns)),
        ("bws3_mmap_ns", Json::from(mmap_ns)),
        ("bws3_buffered_ns", Json::from(buffered_ns)),
        ("bwss2_records_per_sec", Json::from(bwss_rps)),
        ("bws3_mmap_records_per_sec", Json::from(mmap_rps)),
        ("bws3_buffered_records_per_sec", Json::from(buffered_rps)),
        ("bws3_speedup", Json::from(speedup)),
        ("mmap_vs_buffered", Json::from(mmap_vs_buffered)),
    ])
}

/// Phase 2: the cross-format identity contract — every downstream path
/// must render byte-identical results over both encodings.
fn bench_identity(pair: &CorpusPair) -> Json {
    let bwss_files = trace_files(&pair.bwss_manifest);
    let bws3_files = trace_files(&pair.bws3_manifest);
    let path_pairs: Vec<(Trace, Trace)> = bwss_files
        .iter()
        .zip(&bws3_files)
        .map(|(s, c)| {
            let bytes = TraceBytes::open(c).expect("mmap trace");
            let (columnar, _) =
                read_columnar(&bytes, RecoveryPolicy::Strict).expect("decode columnar");
            (decode_bwss(s), columnar)
        })
        .collect();

    let pipeline = AnalysisPipeline::new();
    let analysis = path_pairs.iter().all(|(s, c)| {
        let a = pipeline.run_observed(s, &Obs::noop()).summary_json();
        let b = pipeline.run_observed(c, &Obs::noop()).summary_json();
        a.to_pretty_string() == b.to_pretty_string()
    });
    let windowed = path_pairs.iter().all(|(s, c)| {
        let run = |t: &Trace| {
            let config = WindowConfig::branches(1000).expect("window config");
            let mut engine = WindowedAnalysis::new(config, AnalysisPipeline::new());
            for (id, r) in t.indexed_records() {
                engine.push(id.as_u32(), r.time.get(), r.is_taken());
            }
            engine.finish().to_json().to_pretty_string()
        };
        run(s) == run(c)
    });
    let predictor = path_pairs.iter().all(|(s, c)| {
        let run = |t: &Trace| {
            let mut pag = Pag::new(BhtIndexer::pc_modulo(1024), 10);
            let r = simulate(&mut pag, t);
            (r.total, r.mispredictions)
        };
        run(s) == run(c)
    });
    let corpus_run = |manifest: &Path| {
        Corpus::open(manifest)
            .expect("open bench corpus")
            .session()
            .run_all()
            .to_json()
            .to_pretty_string()
    };
    let corpus = corpus_run(&pair.bwss_manifest) == corpus_run(&pair.bws3_manifest);
    eprintln!(
        "[identity] analysis {analysis}, windowed {windowed}, corpus {corpus}, \
         predictor {predictor} across {} trace pairs",
        path_pairs.len()
    );
    assert!(
        analysis && windowed && corpus && predictor,
        "a result diverged between the BWSS2 and BWSS3 encodings"
    );
    Json::object([
        ("analysis", Json::from(analysis)),
        ("windowed", Json::from(windowed)),
        ("corpus", Json::from(corpus)),
        ("predictor", Json::from(predictor)),
    ])
}

fn run_at(manifest: &Path, jobs: usize) -> (FleetSummary, u64) {
    let started = Instant::now();
    let summary = Corpus::open(manifest)
        .expect("open bench corpus")
        .session()
        .with_jobs(jobs)
        .run_all();
    (summary, started.elapsed().as_nanos().max(1) as u64)
}

/// Phase 3: end-to-end batch runs, serial vs fanned.
fn bench_batch(args: &Args, manifest: &Path, corpus_bytes: u64) -> (Json, FleetSummary) {
    let (serial, serial_ns) = run_at(manifest, 1);
    let (parallel, parallel_ns) = run_at(manifest, args.jobs);
    let identical = serial.to_json().to_pretty_string() == parallel.to_json().to_pretty_string();
    assert!(
        identical,
        "fleet summaries diverged between jobs=1 and jobs={}",
        args.jobs
    );
    assert!(
        serial.entries.iter().all(|e| e.status == EntryStatus::Ok),
        "a synthetic corpus entry failed: {:?}",
        serial.entries
    );
    let records = serial.records;
    let best_ns = serial_ns.min(parallel_ns);
    let ingest_bytes_per_sec = corpus_bytes as f64 / (best_ns as f64 / 1e9);
    let records_per_sec = records as f64 / (best_ns as f64 / 1e9);
    let fan_out = parallel.fan_out;
    eprintln!(
        "[batch] {} traces, {} records: serial {:.3}s, jobs={} {:.3}s \
         ({:.1} MB/s ingest, fan-out {})",
        serial.entries.len(),
        records,
        serial_ns as f64 / 1e9,
        args.jobs,
        parallel_ns as f64 / 1e9,
        ingest_bytes_per_sec / 1e6,
        fan_out.mode(),
    );
    let doc = Json::object([
        ("traces", Json::from(serial.entries.len() as u64)),
        ("records", Json::from(records)),
        ("corpus_bytes", Json::from(corpus_bytes)),
        ("serial_ns", Json::from(serial_ns)),
        ("jobs", Json::from(args.jobs as u64)),
        ("parallel_ns", Json::from(parallel_ns)),
        ("identical", Json::from(identical)),
        ("fan_out_mode", Json::from(fan_out.mode())),
        (
            "fan_out_effective_jobs",
            Json::from(fan_out.effective_jobs as u64),
        ),
        (
            "largest_entry_bytes",
            Json::from(fan_out.largest_entry_bytes),
        ),
        ("ingest_bytes_per_sec", Json::from(ingest_bytes_per_sec)),
        ("records_per_sec", Json::from(records_per_sec)),
    ]);
    (doc, serial)
}

/// Phase 4: the pure fold, isolated from analysis cost.
fn bench_aggregation(summary: &FleetSummary) -> Json {
    let iters = 200usize;
    let started = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..iters {
        let folded: FleetAccumulator = summary.entries.iter().cloned().collect();
        let result = folded.finish(&summary.name);
        checksum = checksum.wrapping_add(result.records);
    }
    let elapsed = started.elapsed().as_nanos().max(1) as u64;
    let mean_ns = elapsed / iters as u64;
    eprintln!(
        "[aggregation] {iters} folds of {} entries: {mean_ns} ns/fold (checksum {checksum})",
        summary.entries.len()
    );
    Json::object([
        ("iters", Json::from(iters as u64)),
        ("entries", Json::from(summary.entries.len() as u64)),
        ("mean_fold_ns", Json::from(mean_ns.max(1))),
    ])
}

/// Phase 5: the result cache — one cold run filling a fresh cache, one
/// warm rerun replaying every entry from it without re-analysis.
fn bench_cache(manifest: &Path, corpus_bytes: u64) -> Json {
    let cache_dir = manifest
        .parent()
        .expect("manifest has a parent")
        .join("bench-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = || {
        let started = Instant::now();
        let summary = Corpus::open(manifest)
            .expect("open bench corpus")
            .session()
            .with_cache(&cache_dir)
            .run_all();
        (summary, started.elapsed().as_nanos().max(1) as u64)
    };
    let (cold, cold_ns) = run();
    let (warm, warm_ns) = run();
    assert_eq!(
        cold.to_json().to_pretty_string(),
        warm.to_json().to_pretty_string(),
        "warm cache summary diverged from the cold run"
    );
    let entries = cold.entries.len() as u64;
    assert_eq!(
        (warm.cache.hits, warm.cache.misses),
        (entries, 0),
        "a warm rerun must replay every entry from the cache"
    );
    let speedup = cold_ns as f64 / warm_ns as f64;
    let warm_bytes_per_sec = corpus_bytes as f64 / (warm_ns as f64 / 1e9);
    eprintln!(
        "[cache] cold {:.3}s, warm {:.3}s ({speedup:.1}x, {:.1} MB/s warm ingest, {} hits)",
        cold_ns as f64 / 1e9,
        warm_ns as f64 / 1e9,
        warm_bytes_per_sec / 1e6,
        warm.cache.hits,
    );
    Json::object([
        ("cold_ns", Json::from(cold_ns)),
        ("warm_ns", Json::from(warm_ns)),
        ("speedup", Json::from(speedup)),
        ("warm_hits", Json::from(warm.cache.hits)),
        ("warm_misses", Json::from(warm.cache.misses)),
        ("warm_bytes_per_sec", Json::from(warm_bytes_per_sec)),
    ])
}

/// Validates a previously written report's schema and invariants.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bwsa-bench-corpus/3" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let u = |node: &Json, field: &str| -> Result<u64, String> {
        node.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing {field}"))
    };
    let quick = matches!(doc.get("quick"), Some(Json::Bool(true)));
    let ingest = doc.get("ingest").ok_or("missing ingest phase")?;
    if u(ingest, "records")? == 0 {
        return Err("ingest phase decoded nothing".into());
    }
    if u(ingest, "bwss2_ns")? == 0
        || u(ingest, "bws3_mmap_ns")? == 0
        || u(ingest, "bws3_buffered_ns")? == 0
    {
        return Err("ingest wall times must be positive".into());
    }
    let floor = ingest_floor(quick);
    let fast_enough = matches!(
        ingest.get("bws3_speedup"),
        Some(Json::Float(s)) if *s >= floor
    );
    if !fast_enough {
        return Err(format!(
            "ingest.bws3_speedup must be >= {floor} (BWSS3 mmap vs BWSS2 cold ingest)"
        ));
    }
    if !matches!(ingest.get("mmap_vs_buffered"), Some(Json::Float(r)) if *r > 0.0) {
        return Err("ingest.mmap_vs_buffered must be positive".into());
    }
    let identity = doc.get("identity").ok_or("missing identity phase")?;
    for field in ["analysis", "windowed", "corpus", "predictor"] {
        if !matches!(identity.get(field), Some(Json::Bool(true))) {
            return Err(format!(
                "identity.{field} must be true (BWSS2 and BWSS3 results byte-identical)"
            ));
        }
    }
    let batch = doc.get("batch").ok_or("missing batch phase")?;
    if u(batch, "traces")? == 0 || u(batch, "records")? == 0 || u(batch, "corpus_bytes")? == 0 {
        return Err("batch phase analyzed nothing".into());
    }
    if u(batch, "serial_ns")? == 0 || u(batch, "parallel_ns")? == 0 {
        return Err("batch wall times must be positive".into());
    }
    if !matches!(batch.get("identical"), Some(Json::Bool(true))) {
        return Err("serial and parallel summaries must be byte-identical".into());
    }
    match batch.get("fan_out_mode").and_then(Json::as_str) {
        Some("serial") | Some("parallel") => {}
        _ => return Err("batch.fan_out_mode must be \"serial\" or \"parallel\"".into()),
    }
    let ok_rate = matches!(
        batch.get("ingest_bytes_per_sec"),
        Some(Json::Float(r)) if *r > 0.0
    );
    if !ok_rate {
        return Err("batch.ingest_bytes_per_sec must be positive".into());
    }
    let aggregation = doc.get("aggregation").ok_or("missing aggregation phase")?;
    if u(aggregation, "mean_fold_ns")? == 0 {
        return Err("aggregation.mean_fold_ns must be positive".into());
    }
    if u(aggregation, "entries")? != u(batch, "traces")? {
        return Err("aggregation must fold exactly the batch's entries".into());
    }
    let cache = doc.get("cache").ok_or("missing cache phase")?;
    if u(cache, "cold_ns")? == 0 || u(cache, "warm_ns")? == 0 {
        return Err("cache wall times must be positive".into());
    }
    if u(cache, "warm_hits")? != u(batch, "traces")? || u(cache, "warm_misses")? != 0 {
        return Err("a warm rerun must replay every entry from the cache".into());
    }
    let warm_faster = matches!(
        cache.get("speedup"),
        Some(Json::Float(s)) if *s > 1.0
    );
    if !warm_faster {
        return Err("cache.speedup must exceed 1.0 (warm replay beats re-analysis)".into());
    }
    println!("{path}: ok");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: corpus_bench [--traces N] [--jobs N] [--quick] \
                 [--out FILE] | --validate FILE"
            );
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        if let Err(msg) = validate(path) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        return;
    }
    if args.out.is_some() && cfg!(debug_assertions) {
        eprintln!(
            "error: refusing to write a benchmark report from a debug build; \
             rerun with --release"
        );
        std::process::exit(2);
    }
    let args = if args.quick {
        Args {
            traces: args.traces.min(4),
            ..args
        }
    } else {
        args
    };
    let dir = std::env::temp_dir().join(format!("bwsa-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pair = build_corpus(&dir, args.traces, args.quick);
    eprintln!(
        "[corpus] {} traces, {} records: {} bytes as BWSS2, {} as BWSS3, at {}",
        args.traces,
        pair.records,
        pair.bwss_bytes,
        pair.bws3_bytes,
        dir.display()
    );
    let ingest = bench_ingest(&pair, args.quick);
    let identity = bench_identity(&pair);
    let (batch, summary) = bench_batch(&args, &pair.bwss_manifest, pair.bwss_bytes);
    let aggregation = bench_aggregation(&summary);
    let cache = bench_cache(&pair.bwss_manifest, pair.bwss_bytes);
    let _ = std::fs::remove_dir_all(&dir);
    let doc = Json::object([
        ("schema", Json::from("bwsa-bench-corpus/3")),
        ("quick", Json::from(args.quick)),
        ("ingest", ingest),
        ("identity", identity),
        ("batch", batch),
        ("aggregation", aggregation),
        ("cache", cache),
    ]);
    let text = doc.to_pretty_string();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}
