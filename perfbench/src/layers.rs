//! The per-layer walk: the public calls each `bwsa` command makes, in the
//! order it makes them, each timed from here.
//!
//! A workload's *op* is the call sequence of its own commands
//! (`paper-large`: `analyze` then `allocate --classify`; `windowed`:
//! `analyze --window 4096 --jobs 2`; `corpus-small`: a cold then an
//! incremental `corpus` run; `daemon-mix`: served analyze requests). The
//! op runs alternately untraced (one stopwatch) and traced (a span per
//! call) for the tracing overhead. Every layer the op does not reach is
//! then walked once over the same inputs in a *coverage* pass, so each
//! workload reports every layer; the spans file tells the two apart by
//! root span (`op` against `cov.<step>`).

use crate::daemon::Daemon;
use crate::expect::{self, Expected};
use crate::inputs;
use crate::tracer::{median, Tracer};
use bwsa::core::classify::classify_with;
use bwsa::core::columnar::{analyze_columnar_stream, decode_columnar};
use bwsa::core::conflict::ConflictAnalysis;
use bwsa::core::pipeline::{Analysis, AnalysisPipeline};
use bwsa::core::working_set::working_sets;
use bwsa::core::{
    analyze_parallel_observed, interleave_counts, Classified, ParallelConfig, Session,
    WindowConfig, WindowedAnalysis, WindowedResult,
};
use bwsa::corpus::{Corpus, EntryRecord, EntryStatus, FleetAccumulator, FleetSummary};
use bwsa::obs::Obs;
use bwsa::predictor::{simulate, BhtIndexer, Pag};
use bwsa::server::{Client, ErrorCode, Response};
use bwsa::trace::columnar::read_columnar;
use bwsa::trace::mmap::TraceBytes;
use bwsa::trace::profile::BranchProfile;
use bwsa::trace::stream::{RecoveryPolicy, StreamReader};
use bwsa::trace::Trace;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Window interval of the `windowed` workload's `--window 4096`.
pub const WINDOW: u64 = 4096;
/// Served analyze requests per payload in the server step.
const SERVER_REQUESTS: usize = 3;

/// Everything a walk needs to find its inputs.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub dir: PathBuf,
    pub bwsa: PathBuf,
    pub keys: Vec<String>,
    /// Keys the incremental corpus pass regenerates.
    pub changed: Vec<String>,
}

impl Ctx {
    pub fn new(workload: &str, dir: &Path, bwsa: &Path) -> Result<Ctx, String> {
        Ok(Ctx {
            workload: workload.to_owned(),
            dir: dir.to_owned(),
            bwsa: bwsa.to_owned(),
            keys: inputs::keys(workload)?,
            changed: inputs::regenerated_keys(workload)?,
        })
    }

    pub fn bwss(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.bwss"))
    }

    /// The BWSS3 file the commands read (converted from the BWSS2 stream
    /// by `bwsa convert` during set-up).
    pub fn bws3(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.bws3"))
    }

    pub fn manifest(&self) -> PathBuf {
        self.dir.join("corpus.toml")
    }

    /// Points every regenerated corpus entry at its original (`false`)
    /// or regenerated (`true`) version.
    pub fn set_corpus_state(&self, regenerated: bool) -> Result<(), String> {
        for key in &self.changed {
            let from = self
                .dir
                .join(format!("{key}.{}.bws3", if regenerated { "alt" } else { "orig" }));
            fs::copy(&from, self.bws3(key))
                .map_err(|e| format!("cannot copy {}: {e}", from.display()))?;
        }
        Ok(())
    }
}

/// Results the correctness gate compares, collected as the walk runs.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Steps 1–3 plus classification, one span per public call — the calls
/// `Session::run` makes for a serial run.
pub fn serial_analysis(t: &mut Tracer, trace: &Trace) -> Analysis {
    let p = AnalysisPipeline::new();
    let profile = t.span("profile", |_| BranchProfile::from_trace(trace));
    let builder = t.span("interleave", |_| interleave_counts(trace));
    let raw = t.span("graph.build", |_| builder.build());
    t.add("interleave.increments", raw.total_weight() as f64);
    t.add("interleave.records", trace.len() as f64);
    t.add("graph.raw_edges", raw.edge_count() as f64);
    let conflict = t.span("conflict.prune", |_| {
        ConflictAnalysis::of_raw_graph(raw, p.conflict)
    });
    t.add("conflict.raw", conflict.raw_edge_count as f64);
    t.add("conflict.kept", conflict.graph.edge_count() as f64);
    let working = t.span("working_set", |_| {
        working_sets(&conflict.graph, &profile, p.definition)
    });
    t.add("working_set.sets", working.report.total_sets as f64);
    let classification = t.span("classify", |_| {
        classify_with(&profile, p.taken_threshold, p.not_taken_threshold)
    });
    Analysis {
        profile,
        conflict,
        working_sets: working,
        classification,
    }
}

fn decode_bws3(t: &mut Tracer, path: &Path) -> Result<Trace, String> {
    let trace = t.span("trace.decode", |_| {
        let bytes = TraceBytes::open(path).map_err(|e| e.to_string())?;
        let jobs = ParallelConfig::available().jobs.get();
        decode_columnar(&bytes, RecoveryPolicy::Strict, jobs)
            .map(|(trace, _)| trace)
            .map_err(|e| e.to_string())
    })?;
    t.add("trace.records", trace.len() as f64);
    Ok(trace)
}

/// `bwsa analyze <trace.bws3>`: blocks stream into the engine.
pub fn stream_step(t: &mut Tracer, path: &Path) -> Result<String, String> {
    t.span("columnar.stream", |_| {
        let bytes = TraceBytes::open(path).map_err(|e| e.to_string())?;
        let (analysis, report) =
            analyze_columnar_stream(&AnalysisPipeline::new(), &bytes, RecoveryPolicy::Strict, &Obs::noop())
                .map_err(|e| e.to_string())?;
        expect::analyze_stdout(&bytes, &analysis, &report, &AnalysisPipeline::new())
    })
}

/// `bwsa allocate --classify <trace.bws3>`: ingest, serial analysis,
/// classified allocation, required-size search, three PAg simulations.
pub fn allocate_step(t: &mut Tracer, path: &Path) -> Result<(Analysis, String), String> {
    let trace = decode_bws3(t, path)?;
    let analysis = serial_analysis(t, &trace);
    let cfg = AnalysisPipeline::new().allocation;
    let allocation = t
        .span("allocation.color", |_| {
            analysis.allocation(Classified(true), 1024, &cfg)
        })
        .map_err(|e| e.to_string())?;
    let required = t
        .span("allocation.required_size", |_| {
            analysis.required_size(Classified(true), &trace, 1024, &cfg)
        })
        .map_err(|e| e.to_string())?;
    let text_head = expect::allocate_head(&allocation, &required);
    let mut rates = [0.0; 3];
    let mut allocated = Some(Pag::paper_with_indexer(BhtIndexer::Allocated(allocation.index)));
    for (i, kind) in ["allocated", "conventional", "free"].iter().enumerate() {
        let result = t.span("predictor.simulate", |_| match i {
            0 => simulate(allocated.as_mut().expect("simulated once"), &trace),
            1 => simulate(&mut Pag::paper_baseline(), &trace),
            _ => simulate(&mut Pag::interference_free(), &trace),
        });
        t.add("predictor.branches", result.total as f64);
        t.add(&format!("predictor.misses.{kind}"), result.mispredictions as f64);
        t.add(&format!("predictor.total.{kind}"), result.total as f64);
        rates[i] = result.misprediction_rate();
    }
    allocated.take();
    Ok((analysis, expect::allocate_stdout(text_head, rates)))
}

/// `Session::run` with `Execution::Parallel(2 jobs)` — what the windowed
/// command runs before its windows.
fn parallel_step(t: &mut Tracer, trace: &Trace) -> Analysis {
    t.span("parallel", |_| {
        analyze_parallel_observed(
            &AnalysisPipeline::new(),
            trace,
            &ParallelConfig::with_jobs(2),
            &Obs::noop(),
        )
    })
}

/// `Session::windowed`: every record pushed into a [`WindowedAnalysis`].
/// The push that fills a window (and so flushes it) is timed alone; the
/// pushes between flushes are timed as one batch.
pub fn window_step(t: &mut Tracer, trace: &Trace) -> Result<WindowedResult, String> {
    let config = WindowConfig::branches(WINDOW).map_err(|e| e.to_string())?;
    let records: Vec<(u32, u64, bool)> = trace
        .indexed_records()
        .map(|(id, r)| (id.as_u32(), r.time.get(), r.is_taken()))
        .collect();
    Ok(t.span("window", |t| {
        let mut engine = WindowedAnalysis::new(config, AnalysisPipeline::new());
        for chunk in records.chunks(WINDOW as usize) {
            let full = chunk.len() == WINDOW as usize;
            let (plain, filling) = chunk.split_at(chunk.len() - usize::from(full));
            t.span("window.push", |_| {
                for &(id, time, taken) in plain {
                    engine.push(id, time, taken);
                }
            });
            t.add("window.pushes", plain.len() as f64);
            if let Some(&(id, time, taken)) = filling.first() {
                t.span("window.flush", |_| engine.push(id, time, taken));
            }
        }
        let result = t.span("window.finish", |_| engine.finish());
        t.add("window.flushes", result.windows.len() as f64);
        t.add("window.recolors", result.recolors as f64);
        result
    }))
}

/// `bwsa analyze --window 4096 --jobs 2`: decode, parallel analysis,
/// windowed replay.
pub fn windowed_op(t: &mut Tracer, path: &Path) -> Result<(Analysis, String), String> {
    let trace = decode_bws3(t, path)?;
    let analysis = parallel_step(t, &trace);
    let windowed = window_step(t, &trace)?;
    let text = expect::windowed_stdout(&trace, &analysis, &windowed, &AnalysisPipeline::new());
    Ok((analysis, text))
}

/// The fleet entry `bwsa corpus` records for one trace, replayed through
/// the library calls its per-entry run makes. The replay is the expected
/// record the correctness gate compares against; it is not timed as a
/// corpus entry (`corpus.entry` spans time the program's own entry runs).
pub fn replay_entry(t: &mut Tracer, key: &str, class: &str, path: &Path) -> Result<EntryRecord, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace = t.span("trace.decode", |_| {
        read_columnar(&bytes, RecoveryPolicy::Salvage)
            .map(|(trace, _)| trace)
            .map_err(|e| e.to_string())
    })?;
    let analysis = serial_analysis(t, &trace);
    let cfg = AnalysisPipeline::new().allocation;
    let required = t
        .span("allocation.required_size", |_| {
            analysis.required_size(Classified(false), &trace, 1024, &cfg)
        })
        .map_err(|e| e.to_string())?;
    let ws = analysis.working_sets.report;
    Ok(EntryRecord {
        key: key.to_owned(),
        class: class.to_owned(),
        status: EntryStatus::Ok,
        error: None,
        records: trace.len() as u64,
        chunks_dropped: 0,
        retries: 0,
        downgrades: 0,
        total_sets: ws.total_sets as u64,
        max_set: ws.max_size as u64,
        avg_dynamic_size: ws.avg_dynamic_size,
        avg_static_size: ws.avg_static_size,
        required_size: required.size as u64,
        baseline: 1024,
    })
}

/// Each manifest entry run alone through `run_all` (supervisor, salvage
/// and the degradation ladder included), one `corpus.entry` span each;
/// every answer must match the whole batch's record for that entry.
fn entry_runs(t: &mut Tracer, corpus: &Corpus, batch: &FleetSummary, checks: &mut Checks) -> Result<(), String> {
    for entry in &corpus.manifest().entries {
        let mut manifest = corpus.manifest().clone();
        manifest.entries = vec![entry.clone()];
        let alone = Corpus::from_manifest(manifest).map_err(|e| e.to_string())?;
        let summary = t.span("corpus.entry", |_| alone.session().run_all());
        let want = batch.entries.iter().find(|e| e.key == entry.key);
        checks.check(want.is_some() && summary.entries.first() == want, || {
            format!("corpus entry {} run alone differs from the batch", entry.key)
        });
    }
    Ok(())
}

/// A cold `corpus --jobs 2` run into an empty cache, then the
/// incremental re-run after the regenerated share is swapped in.
fn corpus_op(t: &mut Tracer, ctx: &Ctx, checks: &mut Checks) -> Result<(FleetSummary, FleetSummary), String> {
    let cache = ctx.dir.join("layer-cache");
    let _ = fs::remove_dir_all(&cache);
    ctx.set_corpus_state(false)?;
    let run = |t: &mut Tracer, name: &str| -> Result<FleetSummary, String> {
        let corpus = t
            .span("corpus.open", |_| Corpus::open(&ctx.manifest()))
            .map_err(|e| e.to_string())?;
        Ok(t.span(name, |_| {
            corpus.session().with_jobs(2).with_cache(&cache).run_all()
        }))
    };
    let cold = run(t, "corpus.run_all")?;
    ctx.set_corpus_state(true)?;
    let incr = run(t, "corpus.run_all_incr")?;
    ctx.set_corpus_state(false)?;
    t.add("corpus.cache_hits", incr.cache.hits as f64);
    t.add("corpus.cache_misses", incr.cache.misses as f64);
    let unchanged = cold.entries.len() - ctx.changed.len();
    checks.check(incr.cache.hits as usize == unchanged, || {
        format!("incremental pass hit {} cells, expected {unchanged}", incr.cache.hits)
    });
    for entry in &incr.entries {
        if ctx.changed.iter().any(|k| entry.key == format!("{k}.bws3")) {
            continue;
        }
        let before = cold.entries.iter().find(|e| e.key == entry.key);
        checks.check(before == Some(entry), || {
            format!("incremental entry {} differs from the cold run", entry.key)
        });
    }
    let _ = fs::remove_dir_all(&cache);
    Ok((cold, incr))
}

/// `rounds` served analyze requests per payload, each answer compared
/// byte for byte against the local summary.
fn server_rtt(
    t: &mut Tracer,
    socket: &Path,
    payloads: &[(String, Vec<u8>, String)],
    rounds: usize,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut client = Client::connect(socket, "bench").map_err(|e| e.to_string())?;
    for _ in 0..rounds {
        for (key, bytes, local) in payloads {
            let response = t
                .span("server.rtt", |_| client.analyze(bytes.clone(), None))
                .map_err(|e| e.to_string())?;
            match response {
                Response::Ok(doc) => checks.check(&doc == local, || {
                    format!("served analyze of {key} differs from the local summary")
                }),
                Response::Error { code, message, .. } => {
                    if code == ErrorCode::Overload {
                        t.add("server.shed", 1.0);
                    }
                    checks.check(false, || format!("served analyze of {key} failed: {message}"));
                }
                Response::Window(_) => checks.check(false, || "unexpected window frame".to_owned()),
            }
        }
    }
    Ok(())
}

/// Decodes a BWSS2 stream strictly, as the daemon decodes an upload.
pub fn parse_stream(bytes: &[u8]) -> Result<Trace, String> {
    let mut reader = StreamReader::new(bytes).map_err(|e| e.to_string())?;
    let mut trace = Trace::new(reader.name().to_owned());
    for item in reader.by_ref() {
        trace
            .push(item.map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    }
    if let Some(total) = reader.total_instructions() {
        trace.meta_mut().total_instructions = total;
    }
    Ok(trace)
}

/// The local `Session` run of an uploaded payload (what
/// `server.local_analysis_ms` times).
pub fn local_summary(bytes: &[u8]) -> Result<(Trace, Analysis), String> {
    let trace = parse_stream(bytes)?;
    let analysis = Session::new(&trace)
        .with_pipeline(AnalysisPipeline::new())
        .run()
        .map_err(|e| e.to_string())?
        .clone();
    Ok((trace, analysis))
}

fn payloads(ctx: &Ctx, t: &mut Tracer) -> Result<Vec<(String, Vec<u8>, String)>, String> {
    ctx.keys
        .iter()
        .map(|key| {
            let path = ctx.bwss(key);
            let bytes = fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let local = t.span("server.local_analysis", |_| {
                local_summary(&bytes).map(|(_, a)| a.summary_json().to_pretty_string())
            })?;
            Ok((key.clone(), bytes, local))
        })
        .collect()
}

/// What one traced run reports.
#[derive(Debug)]
pub struct Walk {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub expected: Expected,
    pub checks: Checks,
    pub spans_jsonl: String,
}

/// The untraced expectation pass of an untraced run: what its
/// correctness gate compares the commands' outputs against.
pub fn expectations(ctx: &Ctx) -> Result<(Expected, Checks), String> {
    let mut t = Tracer::new(false);
    let mut checks = Checks::default();
    let mut expected = Expected::default();
    match ctx.workload.as_str() {
        "paper-large" | "windowed" => run_op(&mut t, ctx, &[], &mut expected, &mut checks)?,
        "corpus-small" => {
            corpus_expectations(&mut t, ctx, &mut expected)?;
        }
        _ => {}
    }
    Ok((expected, checks))
}

/// One op of the workload, recording the outputs its commands must print.
fn run_op(
    t: &mut Tracer,
    ctx: &Ctx,
    payloads: &[(String, Vec<u8>, String)],
    expected: &mut Expected,
    checks: &mut Checks,
) -> Result<(), String> {
    match ctx.workload.as_str() {
        "paper-large" => {
            for key in &ctx.keys {
                let analyze = stream_step(t, &ctx.bws3(key))?;
                let (serial, allocate) = allocate_step(t, &ctx.bws3(key))?;
                checks.check(
                    analyze.ends_with(&expect::analysis_tail(&serial, &AnalysisPipeline::new())),
                    || format!("{key}: streaming and materialised analyses differ"),
                );
                expected.stdout.insert(format!("analyze:{key}"), analyze);
                expected.stdout.insert(format!("allocate:{key}"), allocate);
            }
            Ok(())
        }
        "windowed" => {
            for key in &ctx.keys {
                let (_, text) = windowed_op(t, &ctx.bws3(key))?;
                expected.stdout.insert(format!("window:{key}"), text);
            }
            Ok(())
        }
        "corpus-small" => corpus_op(t, ctx, checks).map(|_| ()),
        _ => match Daemon::socket_in(&ctx.dir) {
            socket if socket.exists() => server_rtt(t, &socket, payloads, SERVER_REQUESTS, checks),
            socket => Err(format!("no daemon at {}", socket.display())),
        },
    }
}

/// The fleet entries a correct corpus run records: every entry in its
/// original version, and the regenerated entries in their new version.
/// Returns the original-version records.
fn corpus_expectations(
    t: &mut Tracer,
    ctx: &Ctx,
    expected: &mut Expected,
) -> Result<Vec<EntryRecord>, String> {
    let mut originals = Vec::new();
    for regenerated in [false, true] {
        ctx.set_corpus_state(regenerated)?;
        for key in &ctx.keys {
            if regenerated && !ctx.changed.contains(key) {
                continue;
            }
            let entry = replay_entry(t, &format!("{key}.bws3"), expect::class_of(key), &ctx.bws3(key))?;
            let state = if regenerated { "alt" } else { "orig" };
            expected.corpus.insert(format!("{state}:{}", entry.key), entry.clone());
            if !regenerated {
                originals.push(entry);
            }
        }
    }
    ctx.set_corpus_state(false)?;
    Ok(originals)
}

/// The full traced run: untraced and traced op pairs, at least
/// `min_reps` of them and more until `seconds` have passed, then the
/// coverage pass.
pub fn traced_walk(ctx: &Ctx, min_reps: usize, seconds: f64) -> Result<Walk, String> {
    let began = Instant::now();
    let mut t = Tracer::new(true);
    let mut checks = Checks::default();
    let mut expected = Expected::default();
    let daemon = if ctx.workload == "daemon-mix" {
        Some(Daemon::spawn(&ctx.bwsa, &Daemon::socket_in(&ctx.dir))?)
    } else {
        None
    };
    let op_payloads = match &daemon {
        Some(_) => payloads(ctx, &mut Tracer::new(false))?,
        None => Vec::new(),
    };
    let mut untraced = Vec::new();
    while untraced.len() < min_reps || began.elapsed().as_secs_f64() < seconds {
        for traced in [false, true] {
            t.set_enabled(traced);
            let start = Instant::now();
            t.span("op", |t| run_op(t, ctx, &op_payloads, &mut expected, &mut checks))?;
            if !traced {
                untraced.push(start.elapsed().as_secs_f64());
            }
        }
    }
    t.set_enabled(true);
    coverage(&mut t, ctx, daemon.as_ref(), &mut expected, &mut checks)?;
    if let Some(daemon) = daemon {
        daemon.shutdown()?;
    }
    let metrics = layer_metrics(&t, &mut untraced);
    Ok(Walk {
        metrics,
        expected,
        checks,
        spans_jsonl: t.to_jsonl(),
    })
}

/// Walks every layer the workload's op does not reach, each under its own
/// `cov.<step>` root span.
fn coverage(
    t: &mut Tracer,
    ctx: &Ctx,
    daemon: Option<&Daemon>,
    expected: &mut Expected,
    checks: &mut Checks,
) -> Result<(), String> {
    let w = ctx.workload.as_str();
    t.span("cov.encode", |t| -> Result<(), String> {
        for key in &ctx.keys {
            let trace = parse_stream(&fs::read(ctx.bwss(key)).map_err(|e| e.to_string())?)?;
            let mut out = Vec::new();
            t.span("trace.encode", |_| bwsa::trace::columnar::write_columnar(&trace, &mut out))
                .map_err(|e| e.to_string())?;
            checks.check(out == fs::read(ctx.bws3(key)).map_err(|e| e.to_string())?, || {
                format!("{key}: library encode differs from `bwsa convert`")
            });
        }
        Ok(())
    })?;
    if w != "paper-large" {
        t.span("cov.stream", |t| {
            ctx.keys.iter().try_for_each(|k| stream_step(t, &ctx.bws3(k)).map(|_| ()))
        })?;
        t.span("cov.allocate", |t| {
            ctx.keys.iter().try_for_each(|k| allocate_step(t, &ctx.bws3(k)).map(|_| ()))
        })?;
    }
    t.span("cov.parallel", |t| -> Result<(), String> {
        for key in &ctx.keys {
            let trace = decode_bws3(&mut Tracer::new(false), &ctx.bws3(key))?;
            let serial = t.span("parallel.serial", |t| serial_analysis(t, &trace));
            let parallel = if w == "windowed" {
                // The op already timed the parallel run of this trace.
                analyze_parallel_observed(&AnalysisPipeline::new(), &trace, &ParallelConfig::with_jobs(2), &Obs::noop())
            } else {
                parallel_step(t, &trace)
            };
            checks.check(serial == parallel, || format!("{key}: parallel analysis differs from serial"));
        }
        Ok(())
    })?;
    if w != "windowed" {
        t.span("cov.window", |t| -> Result<(), String> {
            for key in &ctx.keys {
                let trace = decode_bws3(&mut Tracer::new(false), &ctx.bws3(key))?;
                let windowed = window_step(t, &trace)?;
                let whole = serial_analysis(&mut Tracer::new(false), &trace);
                checks.check(windowed.analysis == whole, || {
                    format!("{key}: windows do not fold to the whole-trace analysis")
                });
            }
            Ok(())
        })?;
    }
    t.span("cov.corpus", |t| -> Result<(), String> {
        if w != "corpus-small" {
            corpus_op(t, ctx, checks)?;
        }
        let records = corpus_expectations(t, ctx, expected)?;
        let name = ctx
            .manifest()
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let folded = t.span("corpus.fold", |_| records.into_iter().collect::<FleetAccumulator>().finish(&name));
        let corpus = Corpus::open(&ctx.manifest()).map_err(|e| e.to_string())?;
        let fresh = corpus.session().run_all();
        checks.check(folded.entries == fresh.entries, || {
            "library replay of the corpus entries differs from `run_all`".to_owned()
        });
        entry_runs(t, &corpus, &fresh, checks)
    })?;
    // Local runs alternate with served requests (when the op served none),
    // so both medians behind `server.overhead_ms` see the same host load.
    t.span("cov.server", |t| -> Result<(), String> {
        let own = match daemon {
            Some(_) => None,
            None => Some(Daemon::spawn(&ctx.bwsa, &Daemon::socket_in(&ctx.dir))?),
        };
        for _ in 0..SERVER_REQUESTS {
            let payloads = payloads(ctx, t)?;
            if let Some(own) = &own {
                server_rtt(t, own.socket(), &payloads, 1, checks)?;
            }
        }
        own.map_or(Ok(()), Daemon::shutdown)
    })
}

/// Per-layer metrics. A layer reached by the op reports the median over
/// the traced op reps; any other layer reports its coverage step.
fn layer_metrics(t: &Tracer, untraced: &mut [f64]) -> Vec<(String, f64, &'static str)> {
    let ops = t.roots("op");
    let cov: BTreeMap<String, usize> = t
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name.starts_with("cov."))
        .map(|(i, s)| (s.name.clone(), i))
        .collect();
    let source = |step: &str| -> Vec<usize> { cov.get(step).map(|&i| vec![i]).unwrap_or_default() };
    // Time summed per root, median across roots; op roots win.
    let time = |name: &str, step: &str| -> f64 {
        let mut from_ops: Vec<f64> = ops.iter().filter_map(|&r| t.sum_under(r, name)).collect();
        if from_ops.is_empty() {
            from_ops = source(step).iter().filter_map(|&r| t.sum_under(r, name)).collect();
        }
        median(&mut from_ops).max(0.0)
    };
    let count = |name: &str, step: &str| -> f64 {
        let mut from_ops: Vec<f64> = ops.iter().filter_map(|&r| t.counter(r, name)).collect();
        if from_ops.is_empty() {
            from_ops = source(step).iter().filter_map(|&r| t.counter(r, name)).collect();
        }
        if from_ops.is_empty() {
            0.0
        } else {
            median(&mut from_ops)
        }
    };
    let spans_ms = |name: &str, step: &str| -> Vec<f64> {
        let roots: Vec<usize> = if ops.iter().any(|&r| t.under(r, name).next().is_some()) {
            ops.clone()
        } else {
            source(step)
        };
        roots
            .iter()
            .flat_map(|&r| t.under(r, name).map(|s| s.secs() * 1e3))
            .collect()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_owned(), v, unit));

    let decode_s = time("trace.decode", "cov.allocate");
    let records = count("trace.records", "cov.allocate");
    put("trace.decode_s", decode_s, "s");
    put("trace.encode_s", time("trace.encode", "cov.encode"), "s");
    put("trace.records", records, "count");
    put("trace.decode_mrec_per_s", ratio(records, decode_s) / 1e6, "Mrec/s");
    put("columnar.stream_s", time("columnar.stream", "cov.stream"), "s");

    let interleave_s = time("interleave", "cov.allocate");
    let increments = count("interleave.increments", "cov.allocate");
    put("interleave.s", interleave_s, "s");
    put("interleave.increments", increments, "count");
    put("interleave.ns_per_increment", ratio(interleave_s * 1e9, increments), "ns");
    put(
        "interleave.increments_per_record",
        ratio(increments, count("interleave.records", "cov.allocate")),
        "ratio",
    );
    let raw = count("graph.raw_edges", "cov.allocate");
    put("graph.build_s", time("graph.build", "cov.allocate"), "s");
    put("graph.raw_edges", raw, "count");
    put("conflict.prune_s", time("conflict.prune", "cov.allocate"), "s");
    put(
        "conflict.kept_ratio",
        ratio(count("conflict.kept", "cov.allocate"), count("conflict.raw", "cov.allocate")),
        "ratio",
    );
    put("working_set.s", time("working_set", "cov.allocate"), "s");
    put("working_set.sets", count("working_set.sets", "cov.allocate"), "count");
    put("classify.s", time("classify", "cov.allocate"), "s");
    put("allocation.color_s", time("allocation.color", "cov.allocate"), "s");
    put(
        "allocation.required_size_s",
        time("allocation.required_size", "cov.allocate"),
        "s",
    );
    let simulate_s = time("predictor.simulate", "cov.allocate");
    put("predictor.simulate_s", simulate_s, "s");
    put(
        "predictor.mbranch_per_s",
        ratio(count("predictor.branches", "cov.allocate"), simulate_s) / 1e6,
        "Mbranch/s",
    );
    for kind in ["allocated", "conventional", "free"] {
        put(
            &format!("predictor.mispredict_rate.{kind}"),
            ratio(
                count(&format!("predictor.misses.{kind}"), "cov.allocate"),
                count(&format!("predictor.total.{kind}"), "cov.allocate"),
            ),
            "ratio",
        );
    }

    let parallel_s = time("parallel", "cov.parallel");
    put("parallel.s", parallel_s, "s");
    put(
        "parallel.efficiency",
        ratio(time("parallel.serial", "cov.parallel"), 2.0 * parallel_s),
        "ratio",
    );

    let mut flushes_ms = spans_ms("window.flush", "cov.window");
    let pushes = count("window.pushes", "cov.window");
    put("window.s", time("window", "cov.window"), "s");
    put("window.flushes", count("window.flushes", "cov.window"), "count");
    put("window.recolors", count("window.recolors", "cov.window"), "count");
    put("window.flush_p50_ms", median(&mut flushes_ms).max(0.0), "ms");
    put(
        "window.flush_max_ms",
        flushes_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    put(
        "window.push_ns",
        ratio(time("window.push", "cov.window") * 1e9, pushes),
        "ns",
    );

    let hits = count("corpus.cache_hits", "cov.corpus");
    let misses = count("corpus.cache_misses", "cov.corpus");
    let mut entries_ms = spans_ms("corpus.entry", "cov.corpus");
    put("corpus.open_s", time("corpus.open", "cov.corpus"), "s");
    put("corpus.run_all_s", time("corpus.run_all", "cov.corpus"), "s");
    put("corpus.entry_p50_ms", median(&mut entries_ms).max(0.0), "ms");
    put("corpus.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    put("corpus.cache_hits", hits, "count");
    put("corpus.cache_misses", misses, "count");
    put("corpus.fold_s", time("corpus.fold", "cov.corpus"), "s");

    let rtt = median(&mut spans_ms("server.rtt", "cov.server")).max(0.0);
    let local = median(&mut spans_ms("server.local_analysis", "cov.server")).max(0.0);
    put("server.rtt_p50_ms", rtt, "ms");
    put("server.local_analysis_ms", local, "ms");
    put("server.overhead_ms", rtt - local, "ms");
    put("server.shed", count("server.shed", "cov.server"), "count");

    let mut traced_ops: Vec<f64> = ops.iter().map(|&r| t.spans()[r].secs()).collect();
    let mut coverage: Vec<f64> = ops
        .iter()
        .map(|&r| ratio(t.children_secs(r), t.spans()[r].secs()))
        .collect();
    put(
        "bench.trace_overhead_ratio",
        ratio(median(&mut traced_ops), median(untraced)),
        "ratio",
    );
    put("bench.span_coverage", median(&mut coverage), "ratio");
    m
}
