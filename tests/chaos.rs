//! Chaos suite: sweep every registered failpoint site, in every fault
//! mode, through the typed top-level API that wraps it.
//!
//! The contract under test is the repo's failure model (DESIGN.md §10):
//! whatever a failpoint does — unwind with a typed payload, unwind with a
//! plain panic, or stall — the result visible to a caller is either
//!
//! 1. output **bit-identical** to the fault-free baseline (the fault was
//!    retried or degraded around), or
//! 2. a **typed error** from the layer's public `Result` signature.
//!
//! Never a raw panic escaping the API, never silently different output.
//!
//! [`failpoint::scoped`] arms only the test's own thread and the threads
//! it starts through `spawn_scoped`: `parallel_map` workers and a
//! windowed run's colorer. The two daemon tests arm the process-wide
//! registry instead, since their faults must reach the daemon's
//! connection threads, and clear it when done; every test holds
//! [`CHAOS_LOCK`] so none of them runs while that registry is armed.

use bwsa::graph::coloring::{try_color_graph, ColoringOptions};
use bwsa::graph::GraphBuilder;
use bwsa::obs::json::Json;
use bwsa::obs::Obs;
use bwsa::predictor::{simulate, sweep, Pag, SweepCell};
use bwsa::prelude::*;
use bwsa::resilience::{failpoint, supervisor, watchdog};
use bwsa::server::frame::{read_frame, DEFAULT_MAX_FRAME_BYTES};
use bwsa::server::server::ServerConfig;
use bwsa::server::{
    failpoints as server_failpoints, Client, ErrorCode, Response, Server, ServerHandle,
};
use bwsa::trace::stream::{RecoveryPolicy, StreamReader, StreamWriter};
use bwsa::trace::{Trace, TraceBuilder};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed assertion in one chaos test must not wedge the rest.
    CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Every registered failpoint site in the workspace, by owning crate.
fn all_sites() -> Vec<&'static str> {
    let mut sites = Vec::new();
    sites.extend_from_slice(bwsa::trace::failpoints::SITES);
    sites.extend_from_slice(bwsa::graph::failpoints::SITES);
    sites.extend_from_slice(bwsa::predictor::failpoints::SITES);
    sites.extend_from_slice(bwsa::core::failpoints::SITES);
    sites.extend_from_slice(bwsa::corpus::failpoints::SITES);
    sites
}

/// The drivers: one deterministic operation per site, exercised through
/// the *typed* API layer that owns the site, returning a comparable
/// digest on success and the typed error's message on failure. A driver
/// must never unwind — that is exactly what the sweep asserts.
struct Harness {
    trace: Trace,
    bwss: Vec<u8>,
    bwst: Vec<u8>,
    /// On-disk corpus (manifest + traces) for the corpus cache
    /// sites; each drive gets a fresh cache dir (see [`Harness::drive_corpus`]).
    corpus_dir: PathBuf,
}

impl Harness {
    fn new() -> Self {
        let mut b = TraceBuilder::new("chaos");
        let mut t = 1u64;
        for i in 0u64..240 {
            t += 1 + i % 3;
            b.record(0x4000 + (i % 8) * 4, i % 3 != 0, t);
        }
        let trace = b.finish();
        let mut bwss = Vec::new();
        let mut w = StreamWriter::new(&mut bwss, "chaos").unwrap();
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(4096).unwrap();
        let mut bwst = Vec::new();
        bwsa::trace::io::write_binary(&trace, &mut bwst).unwrap();
        let corpus_dir =
            std::env::temp_dir().join(format!("bwsa-chaos-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&corpus_dir).unwrap();
        std::fs::write(corpus_dir.join("a.bwss"), &bwss).unwrap();
        std::fs::write(corpus_dir.join("b.bwss"), &bwss).unwrap();
        let mut bws3 = Vec::new();
        bwsa::trace::columnar::write_columnar(&trace, &mut bws3).unwrap();
        std::fs::write(corpus_dir.join("c.bws3"), &bws3).unwrap();
        std::fs::write(
            corpus_dir.join("corpus.toml"),
            "name = \"chaos\"\n\n[defaults]\nthreshold = 10\n\n\
             [[trace]]\npath = \"a.bwss\"\n\n[[trace]]\npath = \"b.bwss\"\n\n\
             [[trace]]\npath = \"c.bws3\"\n",
        )
        .unwrap();
        Harness {
            trace,
            bwss,
            bwst,
            corpus_dir,
        }
    }

    fn drive(&self, site: &str) -> Result<String, String> {
        match site {
            "trace.decode_record" => self.drive_stream_decode(),
            "trace.read_binary" => self.drive_read_binary(),
            "graph.color" => self.drive_coloring(),
            "predictor.simulate" => self.drive_simulate(),
            "predictor.sweep_cell" => self.drive_sweep(),
            "core.window_flush" | "core.window_merge" | "core.recolor" => self.drive_windowed(2),
            // These stages only exist on the serial path; a parallel
            // ladder would succeed on its first rung without ever
            // reaching them.
            "core.profile" | "core.interleave" => self.drive_session(Execution::Serial),
            other if other.starts_with("core.") => {
                self.drive_session(Execution::Parallel(ParallelConfig::with_jobs(2)))
            }
            "corpus.ingest_decode" => self.drive_corpus_ingest(),
            other if other.starts_with("corpus.") => self.drive_corpus(),
            other => panic!("no chaos driver for failpoint site '{other}'"),
        }
    }

    /// Supervised session over the degradation ladder; covers all
    /// pipeline-stage and parallel-worker sites.
    fn drive_session(&self, execution: Execution) -> Result<String, String> {
        let session = Session::new(&self.trace)
            .with_execution(execution)
            .with_supervisor(SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                ..SupervisorConfig::default()
            });
        match session.run() {
            Ok(analysis) => Ok(format!("{analysis:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Cached corpus run over a fresh cache dir; covers the cache-read
    /// and cache-write sites. Cache faults are contained *inside* the
    /// cache layer (a faulting read is a miss, a faulting write is an
    /// unwritten cell) — so the summary must always come out
    /// bit-identical, never a typed error. The cache dir is fresh per
    /// drive: every invocation is a cold run that traverses read and
    /// write for every entry.
    fn drive_corpus(&self) -> Result<String, String> {
        static FRESH: AtomicU64 = AtomicU64::new(0);
        let cache = self
            .corpus_dir
            .join(format!("cache-{}", FRESH.fetch_add(1, Ordering::Relaxed)));
        let corpus =
            Corpus::open(&self.corpus_dir.join("corpus.toml")).map_err(|e| e.to_string())?;
        let summary = corpus.session().with_cache(&cache).run_all();
        let digest = summary.to_json().to_pretty_string();
        let _ = std::fs::remove_dir_all(&cache);
        Ok(digest)
    }

    /// Uncached corpus run; covers the per-entry ingest-decode site. A
    /// decode fault is contained to that entry's `failed` row while the
    /// batch completes, so the containment contract here is a typed
    /// per-entry error — never a changed summary passed off as clean.
    fn drive_corpus_ingest(&self) -> Result<String, String> {
        let corpus =
            Corpus::open(&self.corpus_dir.join("corpus.toml")).map_err(|e| e.to_string())?;
        let summary = corpus.session().run_all();
        if summary.failed > 0 {
            let message = summary
                .entries
                .iter()
                .find_map(|e| e.error.clone())
                .unwrap_or_else(|| "entry failed without a message".to_owned());
            return Err(message);
        }
        Ok(summary.to_json().to_pretty_string())
    }

    /// Windowed analysis over the session entry point; covers the
    /// window-flush, window-merge, and recolor sites. The windowed
    /// replay is not under the supervisor's retry ladder, so a fault
    /// here must surface as the typed boundary's error.
    /// Windowed session at `jobs`: the colorer runs inline at 1 job and
    /// on a helper thread at 2, so the sweep drives the helper.
    fn drive_windowed(&self, jobs: usize) -> Result<String, String> {
        flatten(supervisor::catch(|| {
            let config = WindowConfig::branches(64)
                .map_err(|e| e.to_string())?
                .with_table_size(64);
            let session = Session::new(&self.trace)
                .with_execution(Execution::Parallel(ParallelConfig::with_jobs(jobs)))
                .with_windowing(config);
            let windowed = session.windowed().map_err(|e| e.to_string())?;
            Ok(format!("{windowed:?}"))
        }))
    }

    fn drive_stream_decode(&self) -> Result<String, String> {
        flatten(supervisor::catch(|| {
            let reader = StreamReader::new(&self.bwss[..]).map_err(|e| e.to_string())?;
            let mut count = 0u64;
            for record in reader {
                record.map_err(|e| e.to_string())?;
                count += 1;
            }
            Ok(format!("records:{count}"))
        }))
    }

    fn drive_read_binary(&self) -> Result<String, String> {
        flatten(supervisor::catch(|| {
            let trace = bwsa::trace::io::read_binary(&self.bwst[..]).map_err(|e| e.to_string())?;
            Ok(format!(
                "records:{} sites:{}",
                trace.len(),
                trace.static_branch_count()
            ))
        }))
    }

    fn drive_coloring(&self) -> Result<String, String> {
        flatten(supervisor::catch(|| {
            let mut b = GraphBuilder::new(6);
            b.add_edge(0, 1, 5).add_edge(1, 2, 5).add_edge(2, 0, 5);
            b.add_edge(3, 4, 2).add_edge(4, 5, 2);
            let coloring = try_color_graph(&b.build(), 2, &ColoringOptions::default())
                .map_err(|e| e.to_string())?;
            Ok(format!("{coloring:?}"))
        }))
    }

    fn drive_simulate(&self) -> Result<String, String> {
        flatten(supervisor::catch(|| {
            Ok(format!(
                "{:?}",
                simulate(&mut Pag::paper_baseline(), &self.trace)
            ))
        }))
    }

    /// The sweep has its own containment: a faulting cell surfaces as the
    /// typed `CellFailed` without any catch at this layer.
    fn drive_sweep(&self) -> Result<String, String> {
        let cells = vec![
            SweepCell::plain(Pag::paper_baseline(), &self.trace),
            SweepCell::plain(Pag::paper_baseline(), &self.trace),
        ];
        match sweep(cells, 2) {
            Ok(results) => Ok(format!("{results:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Collapses "the typed boundary caught an unwind" and "the layer
/// returned its own typed error" into one `Err` channel.
fn flatten(
    outcome: Result<Result<String, String>, supervisor::ResilienceError>,
) -> Result<String, String> {
    match outcome {
        Ok(inner) => inner,
        Err(fault) => Err(fault.to_string()),
    }
}

/// Runs `site` under `spec` and asserts the containment contract:
/// baseline-identical output or a typed error — and never an unwind
/// escaping the driver (the outer catch must stay `Ok`).
fn assert_contained(harness: &Harness, site: &'static str, spec: &str, baseline: &str) {
    let guard = failpoint::scoped(spec).unwrap();
    let outcome = supervisor::catch(|| harness.drive(site));
    let outcome = outcome
        .unwrap_or_else(|fault| panic!("{spec}: raw unwind escaped the typed boundary: {fault}"));
    assert!(
        failpoint::hits(site) > 0,
        "{spec}: the driver never traversed the site"
    );
    match outcome {
        Ok(digest) => assert_eq!(
            digest, baseline,
            "{spec}: a fault-survivor run must be bit-identical to the baseline"
        ),
        Err(message) => assert!(
            !message.is_empty(),
            "{spec}: typed errors must carry a message"
        ),
    }
    drop(guard);
}

#[test]
fn the_failpoint_catalog_spans_the_required_surface() {
    // The chaos contract is only as strong as its coverage: at least a
    // dozen sites, in all five instrumented crates. (The server's sites
    // need a running daemon, so they get their own sweep below rather
    // than a `drive` arm.)
    let mut sites = all_sites();
    sites.extend_from_slice(server_failpoints::SITES);
    assert!(sites.len() >= 15, "only {} sites registered", sites.len());
    for prefix in [
        "trace.",
        "graph.",
        "predictor.",
        "core.",
        "server.",
        "corpus.",
    ] {
        assert!(
            sites.iter().any(|s| s.starts_with(prefix)),
            "no failpoint site in {prefix}*"
        );
    }
    let mut deduped = sites.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), sites.len(), "duplicate site names");
}

#[test]
fn every_site_is_contained_in_error_mode() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    for site in all_sites() {
        let baseline = harness.drive(site).unwrap();
        assert_contained(&harness, site, &format!("{site}=error(chaos)"), &baseline);
    }
}

#[test]
fn every_site_is_contained_in_panic_mode() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    for site in all_sites() {
        let baseline = harness.drive(site).unwrap();
        assert_contained(&harness, site, &format!("{site}=panic(chaos)"), &baseline);
    }
}

#[test]
fn delay_mode_only_adds_latency() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    for site in all_sites() {
        let baseline = harness.drive(site).unwrap();
        let _guard = failpoint::scoped(&format!("{site}=delay(1)")).unwrap();
        let delayed = harness.drive(site);
        assert_eq!(
            delayed.as_deref(),
            Ok(baseline.as_str()),
            "{site}: a pure delay must not change the result"
        );
    }
}

#[test]
fn transient_faults_are_absorbed_by_retry_and_degradation() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    // One-shot faults on every supervised core stage: whether the ladder
    // recovers by worker retry, rung retry, or downgrade, the output must
    // be the fault-free output.
    for site in bwsa::core::failpoints::SITES {
        if site.starts_with("core.window") || *site == "core.recolor" {
            continue; // not on the supervised session path
        }
        let baseline = harness.drive(site).unwrap();
        let _guard = failpoint::scoped(&format!("{site}=1*error(transient)")).unwrap();
        let recovered = harness.drive(site);
        assert_eq!(
            recovered.as_deref(),
            Ok(baseline.as_str()),
            "{site}: a single transient fault must be absorbed"
        );
        assert!(failpoint::hits(site) > 0, "{site} never fired");
    }
}

#[test]
fn a_poisoned_columnar_block_degrades_one_entry_and_never_the_batch() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    let dir = harness
        .corpus_dir
        .join(format!("poisoned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Small blocks so one corrupt block loses a fraction of the trace,
    // not all of it: salvage drops the block and keeps the rest.
    let mut bws3 = Vec::new();
    {
        let mut w = bwsa::trace::columnar::ColumnarWriter::new(&mut bws3, "chaos").unwrap();
        w = w.with_block_records(64);
        for r in harness.trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(4096).unwrap();
    }
    std::fs::write(dir.join("good.bws3"), &bws3).unwrap();
    // Flip one payload byte inside the first block (header=15 bytes for
    // the name "chaos", block header 36 more): the block CRC fails, the
    // footer's directory survives, and salvage skips just that block.
    let mut poisoned = bws3.clone();
    poisoned[60] ^= 0xFF;
    std::fs::write(dir.join("bad.bws3"), &poisoned).unwrap();
    std::fs::write(
        dir.join("corpus.toml"),
        "name = \"poisoned\"\n\n[defaults]\nthreshold = 10\n\n\
         [[trace]]\npath = \"good.bws3\"\n\n[[trace]]\npath = \"bad.bws3\"\n",
    )
    .unwrap();

    let corpus = Corpus::open(&dir.join("corpus.toml")).unwrap();
    let summary = corpus.session().run_all();
    assert_eq!(summary.entries.len(), 2);
    let good = summary
        .entries
        .iter()
        .find(|e| e.key == "good.bws3")
        .unwrap();
    let bad = summary
        .entries
        .iter()
        .find(|e| e.key == "bad.bws3")
        .unwrap();
    assert_eq!(good.status, bwsa::corpus::EntryStatus::Ok, "{good:?}");
    assert_eq!(
        bad.status,
        bwsa::corpus::EntryStatus::Degraded,
        "a poisoned block must degrade the entry, not fail it: {bad:?}"
    );
    assert!(bad.chunks_dropped > 0, "{bad:?}");
    assert!(
        bad.records < good.records,
        "the dropped block's records must be missing: {bad:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The harness trace as a session source three ways: in memory, and as
/// the bytes of its `BWSS2` stream and of `bws3`, its `BWSS3` file, which
/// a parallel run's workers each stream.
fn sources<'a>(harness: &'a Harness, bws3: &'a [u8]) -> [(&'static str, Source<'a>); 3] {
    let file = |bytes| Source::File {
        bytes,
        policy: RecoveryPolicy::Strict,
    };
    [
        ("in memory", Source::Trace(&harness.trace)),
        ("bwss2", file(&harness.bwss)),
        ("bwss3", file(bws3)),
    ]
}

#[test]
fn degraded_runs_record_downgrades_and_retries_in_the_run_report() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    let mut bws3 = Vec::new();
    bwsa::trace::columnar::write_columnar(&harness.trace, &mut bws3).unwrap();
    let baseline = Session::new(&harness.trace).run().unwrap().clone();

    // A fault that only exists in the parallel workers: the supervised
    // parallel session must degrade to the serial rung and still match.
    for (name, source) in sources(&harness, &bws3) {
        let _guard = failpoint::scoped("core.shard_detect=error(stage exploded)").unwrap();
        let session = Session::over(source)
            .with_execution(Execution::Parallel(ParallelConfig::with_jobs(2)))
            .with_supervisor(SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                ..SupervisorConfig::default()
            })
            .with_observer(Obs::recording());
        assert_eq!(session.run().unwrap(), &baseline, "{name}");

        let summary = session.resilience_summary().unwrap();
        assert!(summary.attempts >= 2, "{name}: {summary:?}");
        assert!(summary.retries >= 1, "{name}: {summary:?}");
        assert!(
            summary
                .downgrades
                .iter()
                .any(|d| d.reason.contains("core.shard_detect")),
            "{name}: downgrade reason must name the fault: {summary:?}"
        );
        assert!(!summary.faults.is_empty());

        // And the run report carries the same story for offline consumers.
        let report = session.run_report("chaos").unwrap();
        let doc = Json::parse(&report.to_json_string()).unwrap();
        let resilience = doc.get("resilience").unwrap();
        assert!(matches!(
            resilience.get("supervised"),
            Some(Json::Bool(true))
        ));
        assert!(resilience.get("attempts").and_then(Json::as_u64).unwrap() >= 2);
        assert!(resilience.get("retries").and_then(Json::as_u64).unwrap() >= 1);
        match resilience.get("downgrades") {
            Some(Json::Array(downgrades)) => {
                assert!(downgrades.iter().any(|d| {
                    d.get("reason")
                        .and_then(Json::as_str)
                        .is_some_and(|r| r.contains("core.shard_detect"))
                }));
            }
            other => panic!("{name}: downgrades missing: {other:?}"),
        }
    }
}

#[test]
fn a_stalled_stage_is_cut_short_by_the_deadline() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    let mut bws3 = Vec::new();
    bwsa::trace::columnar::write_columnar(&harness.trace, &mut bws3).unwrap();
    let baseline = Session::new(&harness.trace).run().unwrap().clone();

    // Stall a parallel-only stage far beyond the budget; the serial rung
    // is fault-free, so the run still completes — without waiting out
    // the stall on retry after retry.
    for (name, source) in sources(&harness, &bws3) {
        let _guard = failpoint::scoped("core.shard_detect=delay(40)").unwrap();
        let session = Session::over(source)
            .with_execution(Execution::Parallel(ParallelConfig::with_jobs(2)))
            .with_supervisor(SupervisorConfig {
                backoff_base: Duration::from_millis(1),
                max_wall: Some(Duration::from_millis(10)),
                ..SupervisorConfig::default()
            });
        assert_eq!(session.run().unwrap(), &baseline, "{name}");
        let summary = session.resilience_summary().unwrap();
        assert!(
            summary.faults.iter().any(|f| f.contains("deadline")),
            "{name}: {summary:?}"
        );
        assert_eq!(
            summary.attempts, 2,
            "{name}: no same-rung retry: {summary:?}"
        );
    }
}

#[test]
fn a_windowed_fault_on_either_thread_ends_the_run_as_a_serial_run_reports_it() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    // `core.window_flush` and `core.window_merge` fire on the walk's
    // thread, `core.recolor` on the colorer's: inline at 1 job, on the
    // helper at 2, which must have adopted the scoped registry for the
    // site to fault and be counted.
    for site in ["core.window_flush", "core.window_merge", "core.recolor"] {
        for mode in ["error", "panic"] {
            let spec = format!("{site}={mode}(chaos)");
            let _guard = failpoint::scoped(&spec).unwrap();
            let serial = harness.drive_windowed(1);
            let serial_hits = failpoint::hits(site);
            let helper = harness.drive_windowed(2);
            assert!(serial.is_err(), "{spec}: {serial:?}");
            assert_eq!(helper, serial, "{spec}: the typed error differs");
            assert!(
                failpoint::hits(site) > serial_hits,
                "{spec}: the 2-job run never traversed the site"
            );
        }
    }
}

#[test]
fn a_deadline_stops_a_windowed_run_whose_colorer_is_stalled() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    // The colorer's thread sleeps at its first coloring for far longer
    // than the budget; the walk fills the channel and waits to hand over
    // the next window. Only the calling thread's deadline, which the
    // helper inherits, ends the run.
    let _stall = failpoint::scoped("graph.color=delay(20000)").unwrap();
    let started = std::time::Instant::now();
    let outcome = {
        let _deadline = watchdog::arm(started + Duration::from_millis(50));
        harness.drive_windowed(2)
    };
    let message = outcome.expect_err("the deadline ends the run");
    assert!(message.contains("deadline exceeded"), "{message}");
    assert!(failpoint::hits("graph.color") > 0);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the run waited out the stall"
    );
}

// ──────────────────────── server chaos sweep ────────────────────────
//
// The daemon hosts three more sites: accept, frame-parse, dispatch. Its
// containment contract is stronger than the library's — an injected
// fault must become a typed **error frame** on the affected request
// alone, the daemon must keep serving, a healthy request answered
// around the fault must be bit-identical to a direct `Session` run, and
// the drain afterwards must be clean. Zero daemon crashes, ever.

/// A fresh daemon on a socket unique to this test process and tag.
fn spawn_daemon(tag: &str) -> ServerHandle {
    let mut socket = std::env::temp_dir();
    socket.push(format!("bwsa-chaos-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    Server::bind(ServerConfig::new(socket)).unwrap().spawn()
}

/// What the daemon must answer for [`Harness::new`]'s BWSS2 payload:
/// the bytes parsed exactly as the server parses them, run through a
/// plain `Session`, rendered as the canonical summary JSON.
fn served_baseline(bwss: &[u8]) -> String {
    let (trace, _) = bwsa::trace::decode(bwss, RecoveryPolicy::Strict).unwrap();
    Session::new(&trace)
        .run()
        .unwrap()
        .summary_json()
        .to_pretty_string()
}

fn expect_served(response: Response, baseline: &str, context: &str) {
    match response {
        Response::Ok(json) => assert_eq!(json, baseline, "{context}: response drifted"),
        other => panic!("{context}: expected a served result, got {other:?}"),
    }
}

#[test]
fn every_server_site_is_contained_in_every_mode() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    let baseline = served_baseline(&harness.bwss);

    for (s, &site) in server_failpoints::SITES.iter().enumerate() {
        for (m, mode) in ["panic(server chaos)", "error(server chaos)", "delay(10)"]
            .iter()
            .enumerate()
        {
            let faulting = m < 2;
            let context = format!("{site}=1*{mode}");
            let handle = spawn_daemon(&format!("sweep-{s}-{m}"));
            // The healthy witness connects before the fault is armed so
            // an accept-site fault cannot land on it. `connect` returns
            // when the kernel queues the connection, not when the accept
            // loop processes it — the ping round-trip is what proves the
            // witness's accept already happened.
            let mut witness = Client::connect(handle.socket(), "witness").unwrap();
            assert!(matches!(witness.ping().unwrap(), Response::Ok(_)));

            // Process-wide: the fault must reach the daemon's threads.
            failpoint::configure(&format!("{site}=1*{mode}")).unwrap();
            if site == server_failpoints::ACCEPT && faulting {
                // The fault fires at accept, before any request exists:
                // the daemon answers with an unsolicited typed Fault
                // frame on request id 0 and drops that connection.
                let mut probe = UnixStream::connect(handle.socket()).unwrap();
                probe
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let reply = read_frame(&mut probe, DEFAULT_MAX_FRAME_BYTES).unwrap();
                assert_eq!(reply.request_id, 0, "{context}");
                match Response::from_frame(&reply).unwrap() {
                    Response::Error { code, message, .. } => {
                        assert_eq!(code, ErrorCode::Fault, "{context}");
                        assert!(message.contains("contained"), "{context}: {message}");
                    }
                    other => panic!("{context}: expected a typed error frame, got {other:?}"),
                }
            } else {
                let mut probe = Client::connect(handle.socket(), "probe").unwrap();
                match probe.analyze(harness.bwss.clone(), None).unwrap() {
                    Response::Ok(json) => {
                        assert!(!faulting, "{context}: the fault was silently swallowed");
                        assert_eq!(
                            json, baseline,
                            "{context}: delay must not change the result"
                        );
                    }
                    Response::Error { code, message, .. } => {
                        assert!(
                            faulting,
                            "{context}: spurious failure in delay mode: {message}"
                        );
                        assert_eq!(code, ErrorCode::Fault, "{context}");
                        assert!(message.contains("contained"), "{context}: {message}");
                    }
                    Response::Window(json) => {
                        panic!("{context}: analyze must not stream window frames: {json}")
                    }
                }
            }
            assert!(failpoint::hits(site) > 0, "{context}: never traversed");
            failpoint::clear();

            // The daemon survived: the witness connection, opened before
            // the fault, is served bit-identically…
            expect_served(
                witness.analyze(harness.bwss.clone(), None).unwrap(),
                &baseline,
                &context,
            );
            // …and the drain afterwards is clean.
            handle.begin_shutdown();
            handle.join().unwrap();
        }
    }
}

#[test]
fn a_stalled_server_request_does_not_block_a_concurrent_tenant() {
    let _lock = lock();
    failpoint::clear();
    let harness = Harness::new();
    let baseline = served_baseline(&harness.bwss);
    let handle = spawn_daemon("stall");

    // Process-wide: the stall must reach the daemon's threads.
    failpoint::configure(&format!("{}=1*delay(400)", server_failpoints::DISPATCH)).unwrap();
    let stalled_done = Arc::new(AtomicBool::new(false));
    let stalled = {
        let socket = handle.socket().to_path_buf();
        let bytes = harness.bwss.clone();
        let expected = baseline.clone();
        let done = Arc::clone(&stalled_done);
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket, "stalled").unwrap();
            let response = client.analyze(bytes, None).unwrap();
            done.store(true, Ordering::SeqCst);
            expect_served(response, &expected, "stalled tenant");
        })
    };
    // The hit counter bumps before the injected sleep starts, so this
    // spin exits while the stalled request sits inside its delay — and
    // the one-shot spec is already consumed, so the healthy tenant
    // cannot absorb it instead.
    while failpoint::hits(server_failpoints::DISPATCH) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut healthy = Client::connect(handle.socket(), "healthy").unwrap();
    expect_served(
        healthy.analyze(harness.bwss.clone(), None).unwrap(),
        &baseline,
        "concurrent tenant",
    );
    assert!(
        !stalled_done.load(Ordering::SeqCst),
        "the healthy request must complete while the other tenant is still stalled"
    );
    stalled.join().unwrap();
    failpoint::clear();

    handle.begin_shutdown();
    handle.join().unwrap();
}
