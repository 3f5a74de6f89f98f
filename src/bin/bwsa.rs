//! `bwsa` — command-line front end to the whole workspace.
//!
//! ```text
//! bwsa generate <benchmark> [--input a|b] [--scale F] [--format bwst|bwss|bwss3] [-o FILE]
//!     Generate a benchmark trace and write it in BWST1 binary format,
//!     as a checksummed BWSS2 stream, or as a BWSS3 columnar file.
//!
//! bwsa convert <in> <out> [--format bwst|bwss|bwss3] [--salvage]
//!     Transcode a trace between formats (target taken from --format or
//!     the output extension). The round trip is record-identical.
//!
//! bwsa analyze <trace> [--threshold N] [--jobs N] [--salvage]
//!              [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
//!     Run branch working set analysis on a trace file and print the
//!     working-set report, classification counts, and trace statistics.
//!     In memory, --jobs N splits the static branches among N worker
//!     threads (default: all hardware threads), each reading the whole
//!     trace, with output bit-identical to a serial run.
//!     BWSS streams are analysed without materialising the trace unless
//!     --jobs requests parallelism; --salvage recovers what it can from a
//!     corrupted stream, and --checkpoint/--resume make long runs
//!     restartable (checkpointed streaming is sequential, so it rejects
//!     --jobs above 1).
//!
//! bwsa allocate <trace> [--table N] [--threshold N] [--classify] [--salvage]
//!     Compute a branch allocation and report its conflict mass,
//!     occupancy, and the required-BHT-size search against the
//!     conventional 1024-entry baseline.
//!
//! bwsa simulate <trace> [--predictor NAME] [--jobs N] [--salvage]
//!               [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
//!     Simulate a predictor over the trace (default: compare the PAg
//!     family). NAME ∈ pag | free | bimodal | gshare | gag | hybrid |
//!     agree | bimode | profile; checkpointing supports the first four.
//!     The predictor grid fans out across --jobs worker threads with
//!     results always printed in grid order.
//!
//! bwsa dot <trace> [--threshold N] [--salvage]
//!     Emit the conflict graph as Graphviz DOT, colored by working set.
//!
//! bwsa corpus <manifest> [--jobs N] [--threshold N] [--report json|text]
//!             [--emit-fleet FILE]
//!     Run every trace named by a TOML/JSON corpus manifest through the
//!     supervised analysis pipeline — fanned across --jobs workers, each
//!     entry salvage-ingested and fault-isolated so one corrupt trace
//!     never sinks the batch — and fold the results into a versioned
//!     fleet summary, bit-identical for any job count or manifest order.
//!
//! bwsa validate-report <report.json>
//!     Check a previously emitted run report against this build's schema
//!     fixture and version.
//!
//! bwsa validate-fleet <fleet.json>
//!     Check a previously emitted fleet summary against this build's
//!     schema fixture and version.
//!
//! bwsa serve <socket> [--workers N] [--queue N] [--max-concurrent N]
//!            [--max-bytes-mb N] [--deadline-seconds S] [--retries N]
//!            [--max-rss-mb N] [--seed N]
//!     Run the fault-isolated multi-tenant analysis daemon on a
//!     Unix-domain socket until SIGTERM / ctrl-c / a shutdown request,
//!     then drain gracefully and exit 0. Bind failures exit 2. Uploads
//!     may be in any of the three trace formats.
//!
//! bwsa client <socket> <ping|analyze|allocate|corpus|report|status|shutdown>
//!             [<trace>|<manifest>] [--tenant NAME] [--threshold N] [--table N]
//!             [--classify] [--jobs N]
//!     One request against a running daemon; typed server-side errors
//!     exit 1 with the server's message (and retry-after hint on
//!     overload). Trace files of every format upload as-is: the daemon
//!     decodes BWST, BWSS and BWSS3 alike.
//! ```
//!
//! `analyze`, `allocate`, and `simulate` additionally accept
//! `--report json|text` (emit a versioned run report with per-stage wall
//! times, counters, and result digests; `json` replaces the normal
//! human output) and `--metrics FILE` (write the JSON report to a file
//! alongside the normal output).
//!
//! `analyze` and `allocate` accept `--retries N`, `--max-seconds S`, and
//! `--max-rss-mb N` to run under supervision (worker isolation, retry
//! with backoff, cooperative deadlines, graceful degradation — see
//! `bwsa::core::supervise`). `BWSA_FAILPOINTS` arms deterministic fault
//! injection for chaos testing.
//!
//! Exit codes: 0 on success (including a partial salvage, which warns on
//! stderr, and a degraded-but-finished supervised run), 1 on I/O, data,
//! and resilience errors — every fault exits typed, never as a raw
//! panic — 2 on usage errors.

use bwsa::core::conflict::ConflictConfig;
use bwsa::core::pipeline::{Analysis, AnalysisPipeline};
use bwsa::core::{
    Classified, Execution, ParallelConfig, Session, StreamingAnalysis, SupervisorConfig,
    WindowConfig,
};
use bwsa::corpus::{Corpus, EntryStatus, FleetSummary, FLEET_SUMMARY_VERSION};
use bwsa::graph::dot::{to_dot, DotOptions};
use bwsa::obs::json::Json;
use bwsa::obs::report::schema_shape;
use bwsa::obs::{Obs, RunReport, RUN_REPORT_VERSION};
use bwsa::predictor::{
    simulate_observed, simulate_resumable, sweep_observed, Agree, BhtIndexer, BiMode, Bimodal,
    BranchPredictor, Checkpointable, Gag, Gshare, Hybrid, Pag, PredictorError, SimCheckpoint,
    StaticPredictor, SweepCell,
};
use bwsa::resilience::{failpoint, supervisor, watchdog, DetRng};
use bwsa::server::server::ServerConfig;
use bwsa::server::{signal, AdmissionConfig, Client, Response, Server, TenantQuotas};
use bwsa::trace::codec::crc32;
use bwsa::trace::columnar::ColumnarFile;
use bwsa::trace::mmap::TraceBytes;
use bwsa::trace::stream::{RecoveryPolicy, SalvageReport, StreamReader, DEFAULT_CHUNK_RECORDS};
use bwsa::trace::{Format, Trace, TraceError};
use bwsa::workload::suite::{Benchmark, InputSet};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A CLI failure, classified for the exit code: misuse of the command
/// line exits 2, failures of the data or the environment exit 1.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// The invocation itself was wrong (unknown flag, missing argument).
    Usage(String),
    /// The invocation was fine but the work failed (I/O, corrupt data).
    Runtime(String),
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime_err(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

fn main() -> ExitCode {
    // Chaos harness hook: `BWSA_FAILPOINTS=site=action;...` arms the
    // failpoint registry for this process. A malformed spec is an
    // invocation error, caught before any work starts.
    if let Err(e) = failpoint::configure_from_env() {
        eprintln!("error: invalid BWSA_FAILPOINTS: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Last-resort containment: an unwind that escapes a subcommand — an
    // injected fault on an unsupervised path, a blown deadline, a
    // genuine bug — still exits with the documented code 1 and a typed
    // message, never a raw panic.
    match supervisor::catch(|| run(&args)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(CliError::Usage(msg))) => {
            eprintln!("error: {msg}");
            eprintln!("run `bwsa help` for usage");
            ExitCode::from(2)
        }
        Ok(Err(CliError::Runtime(msg))) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(fault) => {
            eprintln!("error: {fault}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("allocate") => cmd_allocate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("validate-report") => cmd_validate_report(&args[1..]),
        Some("validate-fleet") => cmd_validate_fleet(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | None => {
            println!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(usage_err(format!("unknown subcommand {other:?}"))),
    }
}

const USAGE: &str = "bwsa — branch working set analysis toolkit

subcommands:
  generate <benchmark> [--input a|b] [--scale F] [--format bwst|bwss|bwss3] [-o FILE]
  convert  <in> <out> [--format bwst|bwss|bwss3] [--salvage]
  analyze  <trace> [--threshold N] [--jobs N] [--salvage]
           [--window N[i] [--emit-windows FILE]]
           [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
           [--retries N] [--max-seconds S] [--max-rss-mb N]
           [--report json|text] [--metrics FILE]
  allocate <trace> [--table N] [--threshold N] [--classify] [--salvage]
           [--retries N] [--max-seconds S] [--max-rss-mb N]
           [--report json|text] [--metrics FILE]
  simulate <trace> [--predictor pag|free|bimodal|gshare|gag|hybrid|agree|bimode|profile]
           [--jobs N] [--salvage] [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
           [--report json|text] [--metrics FILE]
  dot      <trace> [--threshold N] [--salvage]
  corpus   <manifest> [--jobs N] [--threshold N] [--report json|text]
           [--emit-fleet FILE] [--cache-dir DIR | --no-cache] [--resume]
  validate-report <report.json>
  validate-fleet  <fleet.json>
  serve    <socket> [--workers N] [--queue N] [--max-concurrent N]
           [--max-bytes-mb N] [--deadline-seconds S] [--retries N]
           [--max-rss-mb N] [--seed N] [--corpus-cache DIR]
  client   <socket> <ping|analyze|subscribe|allocate|corpus|report|status|shutdown>
           [<trace>|<manifest>] [--tenant NAME] [--threshold N] [--table N]
           [--classify] [--window N[i]] [--jobs N] [--retries N]
  help

trace files may be BWST (in-memory binary), BWSS (checksummed stream),
or BWS3 (columnar blocks, the fast ingest path); every command, the
corpus runner and the daemon detect the format from the file's magic
and decode it the same way. --salvage recovers what it can from a
corrupted BWSS stream or BWSS3 block (partial results exit 0 with a
warning on stderr). --checkpoint writes a resumable BWCK checkpoint
every N stream chunks (default 64, one chunk = 4096 records); --resume
continues from one (BWSS streams only — BWSS3 ingest is fast enough to
restart).

`convert` transcodes a trace between the three formats: the target is
--format, or else the output extension (.bwst/.bwss/.bws3). The record
sequence is preserved exactly, so every analysis, simulation, and corpus
result over the converted file is byte-identical to the original. BWSS3
files memory-map on ingest and decode column blocks straight into the
analysis engines — the recommended format for large cold corpora.

--jobs N splits an in-memory analysis's static branches among N worker
threads, each reading the whole trace, or runs simulation grid cells on
N worker threads (default: all hardware threads); results are
bit-identical to a serial run. Checkpointed streaming analysis is
inherently sequential, so `analyze --checkpoint/--resume` rejects --jobs
above 1.

--window N analyzes the trace in online windows of N dynamic branches
(Ni: N instructions), printing per-window working sets, conflict-graph
deltas, phase-change signals, and incremental BHT re-coloring stability;
the windows provably fold into the exact whole-trace answer, computed in
one serial pass, so --jobs does not change a windowed run's work.
--emit-windows writes the per-window summaries as JSON. Windowed runs
materialise the trace, so they reject --checkpoint/--resume.

--retries/--max-seconds/--max-rss-mb run the analysis under supervision:
failed workers are isolated and retried N times with backoff, a run over
the wall-clock deadline is cancelled cooperatively, and a run over the
memory budget drops to the low-memory engine. A supervised run degrades
gracefully (parallel -> serial -> streaming, recorded in the run report)
and its result is bit-identical to an unsupervised run whenever any
engine succeeds. Streaming and windowed runs have no ladder to descend:
--max-seconds bounds the whole run, and --retries/--max-rss-mb have
nothing to act on. Checkpoints rotate the previous good file to FILE.prev,
and --resume falls back to it when FILE is corrupt.

--report json prints a versioned run report (stage wall times, counters,
result digests, supervision outcome) as the only stdout output;
--report text appends a human-readable report to the normal output.
--metrics FILE writes the JSON report to FILE without changing stdout.
`validate-report` checks an emitted report against this build's schema
and version.

`corpus` runs the whole batch named by a TOML or JSON manifest: every
trace is ingested under salvage and analyzed in a supervised session,
fanned across --jobs worker threads, and the per-entry results fold into
a versioned fleet summary (working-set distributions, allocation win per
workload class, degradation rates) that is bit-identical for any job
count or manifest order. One corrupt trace never sinks the batch — the
entry is marked degraded or failed and the rest complete. --report json
prints the summary document instead of the table; --emit-fleet FILE
writes it to a file; `validate-fleet` checks an emitted summary against
this build's schema fixture. A malformed manifest (duplicate trace
paths, dangling entries, unknown keys) exits 2; a completed batch exits
0 even when entries degraded.

corpus runs are incremental by default: every finished entry is stored
in a content-addressed result cache (`.bwsa-cache/` beside the manifest,
or --cache-dir DIR), keyed by the trace's content digest and the entry's
effective analysis configuration, so an unchanged entry is replayed from
disk instead of re-analyzed — the folded summary is byte-identical
either way. Cache cells are checksummed and verified on read; a torn or
damaged cell is treated as a miss and recomputed, never an error. A
journal of completed entries is fsynced as the batch runs; after a crash
(even kill -9), `--resume` replays the completed entries from the cache
and analyzes only the remainder, producing the same summary bytes as an
uninterrupted run. The journal rotates to journal.prev on each fresh
run, and --resume falls back to it when the newest journal is torn.
--no-cache disables all of this (and conflicts with --cache-dir and
--resume). Cache hit/miss/eviction/corrupt counts print to stderr.

`serve` runs the long-lived multi-tenant analysis daemon on a Unix-domain
socket: every request is supervised and fault-isolated (a poisoned trace
answers with a typed error frame, never a crashed daemon), per-tenant
quotas bound concurrency (--max-concurrent) and in-flight bytes
(--max-bytes-mb), and past the admission queue's shed watermark
(--queue) requests are rejected with a deterministic jittered
retry-after hint instead of queueing without bound. SIGTERM / ctrl-c /
a `client shutdown` request drains gracefully: in-flight requests
finish, the socket file is removed, and the daemon exits 0. A bind
failure — like any malformed flag — exits 2.

`client` speaks the daemon's BWSF frame protocol: ping, analyze, and
allocate print the server's JSON response; subscribe streams a trace for
windowed analysis (--window N[i]) and prints each window summary as the
server emits it, then the whole-trace result — bit-identical to analyze
on the same trace; corpus asks the daemon to batch-analyze a manifest on
the *server's* filesystem (the path travels, not the traces) and prints
the fleet summary; report prints the versioned
RunReport of that request's own supervised run (it validates with
`validate-report`); status prints live metrics with per-tenant counters;
shutdown asks for a drain. A typed server-side
error prints to stderr and exits 1 (an overload rejection includes the
server's retry-after hint). --retries N retries a shed request up to N
times, sleeping at least the server's retry-after hint (plus
deterministic jittered backoff) between attempts, so a briefly
overloaded daemon is ridden out instead of failed. Trace files of every
format travel as-is, and the daemon decodes all three; its byte quota
is charged on the file as uploaded. `serve --corpus-cache DIR`
gives the daemon a server-local result cache for corpus requests:
already-cached entries are replayed without charging the tenant's
in-flight byte quota for re-analysis.

env: BWSA_FAILPOINTS=site=action;... arms deterministic fault injection
for chaos testing (actions: panic, error(msg), delay(ms), off; prefix
COUNT* to limit firings).

exit codes: 0 success (including partial salvage and any supervised run
that degraded but finished), 1 I/O, data, or resilience error (every
fault is reported typed — no raw panics), 2 usage error";

/// Pulls `--flag value` pairs and positionals out of an arg list.
struct Parsed {
    positionals: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Parsed, CliError> {
    let mut p = Parsed {
        positionals: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            if bool_flags.contains(&name) {
                p.flags.push((name.to_owned(), None));
            } else if value_flags.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err(format!("--{name} needs a value")))?;
                p.flags.push((name.to_owned(), Some(v.clone())));
            } else {
                return Err(usage_err(format!("unknown flag --{name}")));
            }
        } else {
            p.positionals.push(a.clone());
        }
    }
    Ok(p)
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// `--name`'s value as a number, `None` when the flag is absent.
    fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| usage_err(format!("bad --{name} {v:?}")))
            })
            .transpose()
    }

    /// [`Parsed::number`] that must also be [`Positive`].
    fn positive<T: FromStr + Positive>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.number::<T>(name)? {
            Some(n) if !n.is_positive() => Err(usage_err(format!("--{name} must be positive"))),
            n => Ok(n),
        }
    }
}

/// A flag value that can be required to be positive: a nonzero count,
/// or a finite amount above zero.
trait Positive: Copy {
    fn is_positive(self) -> bool;
}

macro_rules! nonzero_is_positive {
    ($($t:ty),*) => {$(
        impl Positive for $t {
            fn is_positive(self) -> bool {
                self != 0
            }
        }
    )*};
}
nonzero_is_positive!(u32, u64, usize);

impl Positive for f64 {
    fn is_positive(self) -> bool {
        self.is_finite() && self > 0.0
    }
}

/// A trace file's bytes, memory-mapped where the file allows it.
fn open_trace(path: &str) -> Result<TraceBytes, CliError> {
    TraceBytes::open(path.as_ref()).map_err(|e| runtime_err(format!("cannot open {path}: {e}")))
}

fn cannot_read(path: &str, e: TraceError) -> CliError {
    runtime_err(format!("cannot read {path}: {e}"))
}

fn recovery_policy(p: &Parsed) -> RecoveryPolicy {
    if p.has("salvage") {
        RecoveryPolicy::Salvage
    } else {
        RecoveryPolicy::Strict
    }
}

/// How `--report` wants the run report rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReportMode {
    Json,
    Text,
}

/// The observability request parsed off a subcommand's flags: an optional
/// `--report` rendering plus an optional `--metrics` sidecar file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReportSpec {
    mode: Option<ReportMode>,
    metrics_path: Option<String>,
}

impl ReportSpec {
    /// Whether any instrumentation output was requested at all.
    fn wanted(&self) -> bool {
        self.mode.is_some() || self.metrics_path.is_some()
    }

    /// `--report json` owns stdout: the normal human output is suppressed
    /// so the report is the only thing printed.
    fn json_only(&self) -> bool {
        self.mode == Some(ReportMode::Json)
    }

    /// A recording observer when a report was requested, the zero-cost
    /// no-op otherwise.
    fn observer(&self) -> Obs {
        if self.wanted() {
            Obs::recording()
        } else {
            Obs::noop()
        }
    }

    /// Emits the finished report: `--metrics` file first, then stdout in
    /// the requested rendering.
    fn emit(&self, report: &RunReport) -> Result<(), CliError> {
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, report.to_json_string())
                .map_err(|e| runtime_err(format!("cannot write {path}: {e}")))?;
        }
        match self.mode {
            Some(ReportMode::Json) => println!("{}", report.to_json_string()),
            Some(ReportMode::Text) => print!("\n{}", report.to_text()),
            None => {}
        }
        Ok(())
    }
}

fn report_spec(p: &Parsed) -> Result<ReportSpec, CliError> {
    let mode = match p.value("report") {
        None => None,
        Some("json") => Some(ReportMode::Json),
        Some("text") => Some(ReportMode::Text),
        Some(other) => {
            return Err(usage_err(format!(
                "bad --report {other:?} (use json or text)"
            )))
        }
    };
    Ok(ReportSpec {
        mode,
        metrics_path: p.value("metrics").map(str::to_owned),
    })
}

/// A `crc32:xxxxxxxx` digest over a stable rendering of a result, for
/// cheap cross-run equality checks inside run reports.
fn digest_of(stable: &str) -> String {
    format!("crc32:{:08x}", crc32(stable.as_bytes()))
}

/// Appends the analysis result digests every `analyze` report carries.
fn push_analysis_digests(report: &mut RunReport, analysis: &Analysis) {
    let r = &analysis.working_sets.report;
    report.push_digest(
        "working_sets",
        digest_of(&format!(
            "{} {} {:.6} {:.6}",
            r.total_sets, r.max_size, r.avg_static_size, r.avg_dynamic_size
        )),
    );
    let (t, n, m) = analysis.classification.counts();
    report.push_digest("classification", digest_of(&format!("{t} {n} {m}")));
    report.push_digest(
        "conflict_graph",
        digest_of(&format!(
            "{} {}",
            analysis.conflict.graph.edge_count(),
            analysis.conflict.raw_edge_count
        )),
    );
}

/// Prints the stderr warning for a partial salvage. A clean read stays
/// silent.
fn warn_salvage(path: &str, report: &SalvageReport) {
    if report.chunks_dropped == 0 && report.first_error.is_none() {
        return;
    }
    eprintln!(
        "warning: {path} was damaged: {} chunks ok, {} dropped, {} records recovered",
        report.chunks_ok, report.chunks_dropped, report.records_recovered
    );
    if let Some(e) = &report.first_error {
        eprintln!("warning: first error: {e}");
    }
}

/// Loads a trace of any format into memory under an `ingest` span and
/// records its `trace.*` counters from the salvage report, which callers
/// also use to warn about recovered damage.
fn load_trace(
    path: &str,
    policy: RecoveryPolicy,
    obs: &Obs,
) -> Result<(Trace, SalvageReport), CliError> {
    let span = obs.span("ingest");
    let bytes = open_trace(path)?;
    let (trace, report) = bwsa::trace::decode(&bytes, policy).map_err(|e| cannot_read(path, e))?;
    span.finish();
    obs.add("trace.records_read", report.records_recovered);
    obs.add("trace.chunks_ok", report.chunks_ok);
    obs.add("trace.chunks_dropped", report.chunks_dropped);
    Ok((trace, report))
}

/// The `--format` a command names, if any.
fn format_flag(p: &Parsed) -> Result<Option<Format>, CliError> {
    p.value("format")
        .map(|name| {
            Format::by_name(name)
                .ok_or_else(|| usage_err(format!("bad format {name:?} (use bwst, bwss, or bwss3)")))
        })
        .transpose()
}

/// Writes `trace` to `path` in `format`.
fn write_trace(trace: &Trace, format: Format, path: &str) -> Result<(), CliError> {
    let file = File::create(path).map_err(|e| runtime_err(format!("cannot create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    format
        .write(trace, &mut w)
        .map_err(|e| runtime_err(e.to_string()))?;
    w.flush().map_err(|e| runtime_err(e.to_string()))
}

/// The conflict threshold `--threshold` names, `None` when it is absent.
fn threshold_of(p: &Parsed) -> Result<Option<ConflictConfig>, CliError> {
    p.number("threshold")?
        .map(|t| ConflictConfig::with_threshold(t).map_err(|e| usage_err(e.to_string())))
        .transpose()
}

/// Resolves an optional `--jobs` value to a parallel-analysis
/// configuration, defaulting to one worker per hardware thread.
fn parallel_config(jobs: Option<usize>) -> ParallelConfig {
    match jobs {
        Some(n) => ParallelConfig::with_jobs(n),
        None => ParallelConfig::available(),
    }
}

/// Supervision request from `--retries`, `--max-seconds`, and
/// `--max-rss-mb`; `None` when none of the flags are present (plain,
/// unsupervised execution).
fn supervisor_of(p: &Parsed) -> Result<Option<SupervisorConfig>, CliError> {
    let retries = p.number("retries")?;
    let max_wall = p.positive("max-seconds")?.map(Duration::from_secs_f64);
    let max_rss_bytes = p.positive("max-rss-mb")?.map(|mb: u64| mb * 1024 * 1024);
    if retries.is_none() && max_wall.is_none() && max_rss_bytes.is_none() {
        return Ok(None);
    }
    let mut config = SupervisorConfig::default();
    config.retries = retries.unwrap_or(config.retries);
    config.max_wall = max_wall;
    config.max_rss_bytes = max_rss_bytes;
    Ok(Some(config))
}

/// Checkpoint cadence in records, derived from `--checkpoint-every` (in
/// stream chunks; default 64). `None` when `--checkpoint` was not given.
fn checkpoint_cadence(p: &Parsed) -> Result<Option<(String, u64)>, CliError> {
    let every: u64 = p.positive("checkpoint-every")?.unwrap_or(64);
    match p.value("checkpoint") {
        Some(path) => Ok(Some((
            path.to_owned(),
            every * DEFAULT_CHUNK_RECORDS as u64,
        ))),
        None if p.value("checkpoint-every").is_some() => {
            Err(usage_err("--checkpoint-every needs --checkpoint FILE"))
        }
        None => Ok(None),
    }
}

/// Writes checkpoint bytes via a temporary file and rename, so a crash
/// mid-write never leaves a torn checkpoint at the final path. The
/// checkpoint being replaced is rotated to `FILE.prev` first, so even if
/// the final file is later torn or corrupted on disk, one good ancestor
/// survives for `--resume` to fall back to.
fn write_checkpoint(path: &str, bytes: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    if std::fs::metadata(path).is_ok() {
        let prev = format!("{path}.prev");
        std::fs::rename(path, &prev).map_err(|e| format!("cannot rotate {path} to {prev}: {e}"))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} to {path}: {e}"))
}

/// Loads a `--resume` checkpoint, falling back to the rotated
/// `FILE.prev` ancestor (with a stderr warning) when the primary file is
/// missing or corrupt. Errors only when no readable checkpoint remains.
fn load_checkpoint_with_fallback<T>(
    path: &str,
    parse: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<T, CliError> {
    let primary = std::fs::read(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|bytes| parse(&bytes));
    let err = match primary {
        Ok(v) => return Ok(v),
        Err(e) => e,
    };
    let prev = format!("{path}.prev");
    match std::fs::read(&prev) {
        Ok(bytes) => match parse(&bytes) {
            Ok(v) => {
                eprintln!("warning: {err}; resuming from previous good checkpoint {prev}");
                Ok(v)
            }
            Err(prev_err) => Err(runtime_err(format!("{err}; fallback {prev}: {prev_err}"))),
        },
        Err(_) => Err(runtime_err(err)),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let p = parse(args, &["input", "scale", "o", "format"], &[])?;
    let name = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("generate needs a benchmark name"))?;
    let bench = Benchmark::ALL
        .iter()
        .copied()
        .find(|b| b.name() == name)
        .ok_or_else(|| usage_err(format!("unknown benchmark {name:?}")))?;
    let input = match p.value("input").unwrap_or("a") {
        "a" | "A" => InputSet::A,
        "b" | "B" => InputSet::B,
        other => return Err(usage_err(format!("bad input set {other:?} (use a or b)"))),
    };
    let scale = p.positive("scale")?.unwrap_or(1.0);
    let format = format_flag(&p)?.unwrap_or(Format::Bwst);
    let out_path = p.value("o").map(str::to_owned).unwrap_or_else(|| {
        let ext = format.extension();
        format!("{}_{}.{ext}", bench.name(), input.suffix())
    });
    let trace = bench.generate_scaled(input, scale);
    write_trace(&trace, format, &out_path)?;
    println!("{trace}");
    println!("wrote {out_path}");
    Ok(())
}

/// `bwsa convert <in> <out>` — transcode a trace between the BWST, BWSS,
/// and BWSS3 formats, preserving the record sequence exactly. The target
/// format comes from `--format`, or else the output file's extension.
fn cmd_convert(args: &[String]) -> Result<(), CliError> {
    let p = parse(args, &["format"], &["salvage"])?;
    let [in_path, out_path] = p.positionals.as_slice() else {
        return Err(usage_err("convert needs an input and an output file"));
    };
    let target = match format_flag(&p)? {
        Some(format) => format,
        None => Format::by_extension(out_path.as_ref()).ok_or_else(|| {
            usage_err(format!(
                "cannot infer the target format from {out_path:?}; \
                 use --format bwst|bwss|bwss3 or a .bwst/.bwss/.bws3 extension"
            ))
        })?,
    };
    let (trace, report) = load_trace(in_path, recovery_policy(&p), &Obs::noop())?;
    warn_salvage(in_path, &report);
    write_trace(&trace, target, out_path)?;
    println!(
        "converted {in_path} -> {out_path} ({} records, {} static branches)",
        trace.len(),
        trace.static_branch_count()
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let p = parse(
        args,
        &[
            "threshold",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "jobs",
            "retries",
            "max-seconds",
            "max-rss-mb",
            "report",
            "metrics",
            "window",
            "emit-windows",
        ],
        &["salvage"],
    )?;
    let path = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("analyze needs a trace file"))?;
    let pipeline = AnalysisPipeline {
        conflict: threshold_of(&p)?.unwrap_or_default(),
        ..AnalysisPipeline::new()
    };
    checkpoint_cadence(&p)?;
    let spec = report_spec(&p)?;
    let obs = spec.observer();
    let jobs: Option<usize> = p.positive("jobs")?;
    let supervisor = supervisor_of(&p)?;
    let windowing = window_spec(&p)?;
    let wants_checkpointing = p.value("checkpoint").is_some() || p.value("resume").is_some();
    if wants_checkpointing && jobs.is_some_and(|j| j > 1) {
        return Err(usage_err(
            "--checkpoint/--resume stream sequentially and cannot use --jobs above 1",
        ));
    }
    if wants_checkpointing && windowing.is_some() {
        return Err(usage_err(
            "--window runs the trace in memory and cannot combine with --checkpoint/--resume",
        ));
    }
    let bytes = open_trace(path)?;
    let format = Format::sniff(&bytes).map_err(|e| cannot_read(path, e))?;
    match format {
        Format::Bwst if wants_checkpointing => {
            return Err(usage_err(
                "--checkpoint/--resume need a BWSS stream trace (see `bwsa generate --format bwss`)",
            ));
        }
        Format::Bwss3 if wants_checkpointing => {
            return Err(usage_err(
                "--checkpoint/--resume need a BWSS stream trace; BWSS3 ingest \
                 is fast enough to restart (see `bwsa convert`)",
            ));
        }
        _ => {}
    }
    // A BWST file runs in memory, and so does a stream when --jobs asks
    // for workers or --window for per-window summaries; otherwise BWSS
    // and BWSS3 stream in constant memory.
    if format == Format::Bwst || jobs.is_some_and(|j| j > 1) || windowing.is_some() {
        let (trace, report) = load_trace(path, recovery_policy(&p), &obs)?;
        warn_salvage(path, &report);
        return analyze_in_memory(&trace, &pipeline, jobs, supervisor, &windowing, &spec, &obs);
    }
    // Streaming is already the bottom of the degradation ladder;
    // supervision here means only the cooperative deadline, observed at
    // every failpoint site the run passes.
    let _watchdog = supervisor
        .and_then(|c| c.max_wall)
        .map(|wall| watchdog::arm(Instant::now() + wall));
    analyze_streaming(path, &bytes, format, &p, &pipeline, &spec, &obs)
}

/// `--window N[i]` / `--emit-windows FILE` for `analyze`: the parsed
/// window configuration plus the optional per-window JSON output path.
/// Both are validated before any trace I/O happens.
fn window_spec(p: &Parsed) -> Result<Option<(WindowConfig, Option<String>)>, CliError> {
    let emit = p.value("emit-windows").map(str::to_owned);
    match p.value("window") {
        Some(spec) => {
            let config = WindowConfig::parse(spec)
                .map_err(|e| usage_err(format!("bad --window value: {e}")))?;
            Ok(Some((config, emit)))
        }
        None if emit.is_some() => Err(usage_err("--emit-windows needs --window N[i]")),
        None => Ok(None),
    }
}

/// The in-memory `analyze` path: a [`Session`] over the ownership-parallel
/// pipeline (bit-identical to serial for any worker count) plus the
/// report printout; a windowed session answers with its windowed fold.
fn analyze_in_memory(
    trace: &Trace,
    pipeline: &AnalysisPipeline,
    jobs: Option<usize>,
    supervisor: Option<SupervisorConfig>,
    windowing: &Option<(WindowConfig, Option<String>)>,
    spec: &ReportSpec,
    obs: &Obs,
) -> Result<(), CliError> {
    let mut session = Session::new(trace)
        .with_pipeline(*pipeline)
        .with_execution(Execution::Parallel(parallel_config(jobs)))
        .with_observer(obs.clone());
    if let Some(config) = supervisor {
        session = session.with_supervisor(config);
    }
    if let Some((config, _)) = windowing {
        session = session.with_windowing(*config);
    }
    // A windowed run has no ladder to supervise: as on the streaming
    // paths, only the deadline applies, observed at every window flush.
    let _watchdog = supervisor
        .and_then(|c| c.max_wall)
        .filter(|_| windowing.is_some())
        .map(|wall| watchdog::arm(Instant::now() + wall));
    let analysis = session.run().map_err(|e| runtime_err(e.to_string()))?;
    if !spec.json_only() {
        let meta = trace.meta();
        print_analysis(&meta.name, meta.total_instructions, analysis, pipeline);
    }
    if let Some((config, emit)) = windowing {
        let windowed = session.windowed().map_err(|e| runtime_err(e.to_string()))?;
        if !spec.json_only() {
            println!(
                "windows: {} x {} {} | {} recolors | mean stability {:.3} | {} phase changes",
                windowed.windows.len(),
                config.interval(),
                config.unit().label(),
                windowed.recolors,
                windowed.mean_stability,
                windowed.phase_changes
            );
        }
        if let Some(path) = emit {
            std::fs::write(path, windowed.to_json().to_pretty_string())
                .map_err(|e| runtime_err(format!("cannot write {path}: {e}")))?;
        }
    }
    if let Some(mut report) = session.run_report("analyze") {
        push_analysis_digests(&mut report, analysis);
        spec.emit(&report)?;
    }
    Ok(())
}

/// Streaming `analyze` of a BWSS or BWSS3 trace, in constant memory:
/// BWSS3 blocks go straight off the memory map into the record
/// accumulator, and a BWSS stream is read record by record into a
/// [`StreamingAnalysis`], with checkpoint/resume. Both honour --salvage.
fn analyze_streaming(
    path: &str,
    bytes: &[u8],
    format: Format,
    p: &Parsed,
    pipeline: &AnalysisPipeline,
    spec: &ReportSpec,
    obs: &Obs,
) -> Result<(), CliError> {
    let cannot_read = |e: TraceError| cannot_read(path, e);
    let policy = recovery_policy(p);
    let (trace_name, instructions, result) = if format == Format::Bwss3 {
        let file = ColumnarFile::parse(bytes).map_err(cannot_read)?;
        let (result, report) =
            bwsa::core::columnar::analyze_columnar_stream(pipeline, bytes, policy, obs)
                .map_err(cannot_read)?;
        warn_salvage(path, &report);
        let instructions = file.footer().map(|f| f.total_instructions);
        (file.name().to_owned(), instructions, result)
    } else {
        let file = File::open(path).map_err(|e| runtime_err(format!("cannot open {path}: {e}")))?;
        let mut reader = StreamReader::with_recovery(BufReader::new(file), policy)
            .map_err(cannot_read)?
            .with_observer(obs.clone());
        let mut analysis = match p.value("resume") {
            Some(ck_path) => {
                let a = load_checkpoint_with_fallback(ck_path, |bytes| {
                    StreamingAnalysis::load_observed(bytes, obs)
                        .map_err(|e| format!("{ck_path}: {e}"))
                })?;
                if a.trace_name() != reader.name() {
                    return Err(runtime_err(format!(
                        "{ck_path} is a checkpoint of trace {:?}, not {:?}",
                        a.trace_name(),
                        reader.name()
                    )));
                }
                a
            }
            None => StreamingAnalysis::new(reader.name()),
        };
        let cadence = checkpoint_cadence(p)?;
        let to_skip = analysis.records_consumed();
        let mut skipped = 0u64;
        let mut next_checkpoint_at = cadence.as_ref().map(|(_, every)| to_skip + every);
        let ingest_span = obs.span("ingest");
        for item in reader.by_ref() {
            let rec = item.map_err(cannot_read)?;
            if skipped < to_skip {
                skipped += 1;
                continue;
            }
            analysis.push(&rec);
            if let (Some((ck_path, every)), Some(at)) = (&cadence, next_checkpoint_at) {
                if analysis.records_consumed() >= at {
                    write_checkpoint(ck_path, &analysis.save_observed(obs)).map_err(runtime_err)?;
                    next_checkpoint_at = Some(analysis.records_consumed() + every);
                }
            }
        }
        ingest_span.finish();
        if skipped < to_skip {
            return Err(runtime_err(format!(
                "checkpoint consumed {to_skip} records but {path} only has {skipped}"
            )));
        }
        warn_salvage(path, reader.salvage_report());
        let instructions = reader.total_instructions();
        let result = analysis.finish_observed(pipeline, obs);
        (reader.name().to_owned(), instructions, result)
    };

    if !spec.json_only() {
        // A torn file has no trailer or footer total: count up to the
        // last record, as a decoded trace does.
        let last_time = result.profile.iter().map(|(_, s)| s.last_time.get()).max();
        let instructions = instructions.or(last_time).unwrap_or(0);
        print_analysis(&trace_name, instructions, &result, pipeline);
    }
    if let Some(metrics) = obs.snapshot() {
        let profile = &result.profile;
        let mut report = RunReport::new(
            "analyze",
            trace_name,
            profile.total_dynamic(),
            profile.static_count() as u64,
            pipeline.config_json("streaming", 1, None),
            &metrics,
        );
        push_analysis_digests(&mut report, &result);
        spec.emit(&report)?;
    }
    Ok(())
}

/// Prints `analyze`'s human output, the same for the in-memory and the
/// streaming path: the trace header, density and taken rate, then the
/// conflict graph, working sets and classification. `instructions` is
/// the file's trailer or footer total, else its last record's timestamp.
fn print_analysis(name: &str, instructions: u64, analysis: &Analysis, pipeline: &AnalysisPipeline) {
    let profile = &analysis.profile;
    let n = profile.total_dynamic();
    println!(
        "trace '{name}': {n} dynamic branches over {} static sites, {instructions} instructions",
        profile.static_count()
    );
    let taken: u64 = profile.iter().map(|(_, s)| s.taken).sum();
    let density = if instructions > 0 {
        n as f64 / instructions as f64
    } else {
        0.0
    };
    let taken_rate = if n > 0 { taken as f64 / n as f64 } else { 0.0 };
    println!(
        "density {density:.3} branches/instr, dynamic taken rate {:.1}%",
        taken_rate * 100.0
    );
    let r = &analysis.working_sets.report;
    println!(
        "\nconflict graph: {} edges kept of {} raw ({} threshold)",
        analysis.conflict.graph.edge_count(),
        analysis.conflict.raw_edge_count,
        pipeline.conflict.threshold
    );
    println!(
        "working sets: {} sets | avg static {:.1} | avg dynamic {:.1} | max {}",
        r.total_sets, r.avg_static_size, r.avg_dynamic_size, r.max_size
    );
    let (t, n, m) = analysis.classification.counts();
    println!("classification: {t} biased-taken, {n} biased-not-taken, {m} mixed");
}

fn cmd_allocate(args: &[String]) -> Result<(), CliError> {
    let p = parse(
        args,
        &[
            "table",
            "threshold",
            "retries",
            "max-seconds",
            "max-rss-mb",
            "report",
            "metrics",
        ],
        &["classify", "salvage"],
    )?;
    let path = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("allocate needs a trace file"))?;
    let table: usize = p.number("table")?.unwrap_or(1024);
    let supervisor = supervisor_of(&p)?;
    let spec = report_spec(&p)?;
    let obs = spec.observer();
    let (trace, report) = load_trace(path, recovery_policy(&p), &obs)?;
    warn_salvage(path, &report);
    let pipeline = AnalysisPipeline {
        conflict: threshold_of(&p)?.unwrap_or_default(),
        ..AnalysisPipeline::new()
    };
    let classified = Classified(p.has("classify"));
    let mut session = Session::new(&trace)
        .with_pipeline(pipeline)
        .with_observer(obs.clone());
    if let Some(config) = supervisor {
        session = session.with_supervisor(config);
    }
    let allocation = session
        .allocate(classified, table)
        .map_err(|e| runtime_err(e.to_string()))?;
    let occ = allocation.occupancy();
    if !spec.json_only() {
        println!(
            "allocation into {table} entries ({}): conflict mass {}, {} conflicting pairs",
            if classified.0 { "classified" } else { "plain" },
            allocation.conflict_mass,
            allocation.conflicting_pairs
        );
        println!(
            "occupancy: {} entries used, max {} branches/entry, mean {:.2}",
            occ.used_entries, occ.max_per_entry, occ.mean_per_used_entry
        );
    }
    let required = session
        .required_bht_size(classified, 1024)
        .map_err(|e| runtime_err(e.to_string()))?;
    if !spec.json_only() {
        println!(
            "required size to beat conventional 1024-entry BHT: {} (target mass {}, achieved {})",
            required.size, required.target_mass, required.achieved_mass
        );
    }
    let alloc_mass = allocation.conflict_mass;
    let alloc_pairs = allocation.conflicting_pairs;
    let mut pag = Pag::paper_with_indexer(BhtIndexer::Allocated(allocation.index));
    let alloc_rate = simulate_observed(&mut pag, &trace, &obs).misprediction_rate();
    let conv = simulate_observed(&mut Pag::paper_baseline(), &trace, &obs).misprediction_rate();
    let free = simulate_observed(&mut Pag::interference_free(), &trace, &obs).misprediction_rate();
    if !spec.json_only() {
        println!(
            "\nmisprediction: allocated {:.2}% | conventional-1024 {:.2}% | interference-free {:.2}%",
            alloc_rate * 100.0,
            conv * 100.0,
            free * 100.0
        );
    }
    if let Some(mut run_report) = session.run_report("allocate") {
        push_analysis_digests(
            &mut run_report,
            session.run().map_err(|e| runtime_err(e.to_string()))?,
        );
        run_report.push_digest(
            "allocation",
            digest_of(&format!("{table} {alloc_mass} {alloc_pairs}")),
        );
        run_report.push_digest(
            "required_size",
            digest_of(&format!(
                "{} {} {}",
                required.size, required.target_mass, required.achieved_mass
            )),
        );
        spec.emit(&run_report)?;
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let p = parse(
        args,
        &[
            "predictor",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "jobs",
            "report",
            "metrics",
        ],
        &["salvage"],
    )?;
    let path = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("simulate needs a trace file"))?;
    let cadence = checkpoint_cadence(&p)?;
    let jobs = p
        .positive("jobs")?
        .unwrap_or_else(|| ParallelConfig::available().jobs.get());
    let spec = report_spec(&p)?;
    let obs = spec.observer();
    let wants_checkpointing = cadence.is_some() || p.value("resume").is_some();
    let (trace, report) = load_trace(path, recovery_policy(&p), &obs)?;
    warn_salvage(path, &report);

    let cells: Vec<SweepCell<'_>> = if !wants_checkpointing {
        let predictors: Vec<Box<dyn BranchPredictor + Send>> = match p.value("predictor") {
            None => vec![
                Box::new(Pag::paper_baseline()),
                Box::new(Pag::interference_free()),
                Box::new(Bimodal::new(1024)),
                Box::new(Gshare::new(12)),
            ],
            Some(name) => vec![predictor_by_name(name, &trace)?],
        };
        predictors
            .into_iter()
            .map(|mut pred| {
                let trace = &trace;
                SweepCell::new(pred.name(), move || {
                    Ok(bwsa::predictor::simulate(&mut *pred, trace))
                })
            })
            .collect()
    } else {
        let name = p.value("predictor").ok_or_else(|| {
            usage_err("--checkpoint/--resume need --predictor (pag|free|bimodal|gshare)")
        })?;
        let mut pred = checkpointable_by_name(name)?;
        let resume = match p.value("resume") {
            Some(ck_path) => Some(load_checkpoint_with_fallback(ck_path, |bytes| {
                SimCheckpoint::from_bytes(bytes).map_err(|e| format!("{ck_path}: {e}"))
            })?),
            None => None,
        };
        let every = cadence.as_ref().map(|(_, every)| *every);
        let trace = &trace;
        let cadence = cadence.clone();
        vec![SweepCell::new(pred.name(), move || {
            simulate_resumable(
                pred.as_mut(),
                trace,
                resume.as_ref(),
                every,
                |ck| match &cadence {
                    Some((ck_path, _)) => write_checkpoint(ck_path, &ck.to_bytes())
                        .map_err(|reason| PredictorError::Checkpoint { reason }),
                    None => Ok(()),
                },
            )
        })]
    };
    let results = sweep_observed(cells, jobs, &obs).map_err(|e| runtime_err(e.to_string()))?;
    if !spec.json_only() {
        for result in &results {
            println!("{result}");
        }
    }
    obs.sample_peak_rss();
    if let Some(metrics) = obs.snapshot() {
        let config = Json::object([
            (
                "predictor",
                Json::from(p.value("predictor").unwrap_or("grid")),
            ),
            ("jobs", Json::UInt(jobs as u64)),
            ("checkpointing", Json::from(wants_checkpointing)),
        ]);
        let mut run_report = RunReport::new(
            "simulate",
            trace.meta().name.clone(),
            trace.len() as u64,
            trace.static_branch_count() as u64,
            config,
            &metrics,
        );
        for result in &results {
            run_report.push_digest(
                result.predictor.as_str(),
                digest_of(&format!("{} {}", result.mispredictions, result.total)),
            );
        }
        spec.emit(&run_report)?;
    }
    Ok(())
}

fn predictor_by_name(
    name: &str,
    trace: &Trace,
) -> Result<Box<dyn BranchPredictor + Send>, CliError> {
    Ok(match name {
        "pag" => Box::new(Pag::paper_baseline()),
        "free" => Box::new(Pag::interference_free()),
        "bimodal" => Box::new(Bimodal::new(1024)),
        "gshare" => Box::new(Gshare::new(12)),
        "gag" => Box::new(Gag::new(12)),
        "hybrid" => Box::new(Hybrid::new(Gshare::new(12), Bimodal::new(1024), 1024)),
        "agree" => Box::new(Agree::new(12, 1024)),
        "bimode" => Box::new(BiMode::new(12, 1024)),
        "profile" => Box::new(StaticPredictor::from_profile(trace)),
        other => return Err(usage_err(format!("unknown predictor {other:?}"))),
    })
}

/// The checkpoint-capable subset of [`predictor_by_name`].
fn checkpointable_by_name(name: &str) -> Result<Box<dyn Checkpointable + Send>, CliError> {
    Ok(match name {
        "pag" => Box::new(Pag::paper_baseline()),
        "free" => Box::new(Pag::interference_free()),
        "bimodal" => Box::new(Bimodal::new(1024)),
        "gshare" => Box::new(Gshare::new(12)),
        other => {
            return Err(usage_err(format!(
                "predictor {other:?} does not support checkpointing (use pag|free|bimodal|gshare)"
            )))
        }
    })
}

fn cmd_dot(args: &[String]) -> Result<(), CliError> {
    let p = parse(args, &["threshold"], &["salvage"])?;
    let path = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("dot needs a trace file"))?;
    let (trace, report) = load_trace(path, recovery_policy(&p), &Obs::noop())?;
    warn_salvage(path, &report);
    let pipeline = AnalysisPipeline {
        conflict: threshold_of(&p)?.unwrap_or_default(),
        ..AnalysisPipeline::new()
    };
    let session = Session::new(&trace).with_pipeline(pipeline);
    let analysis = session.run().map_err(|e| runtime_err(e.to_string()))?;
    let mut groups = vec![0u32; analysis.conflict.graph.node_count()];
    for (i, set) in analysis.working_sets.sets.iter().enumerate() {
        for &id in set {
            groups[id.index()] = i as u32;
        }
    }
    print!(
        "{}",
        to_dot(
            &analysis.conflict.graph,
            &DotOptions {
                groups: Some(groups),
                skip_isolated: true
            }
        )
    );
    Ok(())
}

/// The pinned run-report schema this build emits and validates against —
/// the same fixture the golden schema test locks (`tests/golden/`).
const RUN_REPORT_SCHEMA: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/run_report.schema"
));

fn cmd_validate_report(args: &[String]) -> Result<(), CliError> {
    let p = parse(args, &[], &[])?;
    let path = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("validate-report needs a report JSON file"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read {path}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| runtime_err(format!("{path}: {e}")))?;
    let version = doc
        .get("run_report_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| runtime_err(format!("{path}: missing run_report_version")))?;
    // v2 reports predate the `windows` section and remain valid: the
    // subset shape check below never requires the missing paths.
    if version != RUN_REPORT_VERSION && version != 2 {
        return Err(runtime_err(format!(
            "{path}: run_report_version {version}, this build validates versions 2 and {RUN_REPORT_VERSION}"
        )));
    }
    // Subset check: every path in the report must be in the pinned
    // schema. Commands emit different counter/digest/config sets, so the
    // wildcarded shape is the contract, not byte equality.
    let known: std::collections::BTreeSet<&str> = RUN_REPORT_SCHEMA.lines().collect();
    let shape = schema_shape(&doc);
    let unknown: Vec<&str> = shape
        .lines()
        .filter(|line| !line.is_empty() && !known.contains(line))
        .collect();
    if !unknown.is_empty() {
        return Err(runtime_err(format!(
            "{path}: shape differs from the version-{RUN_REPORT_VERSION} schema; unknown fields:\n  {}",
            unknown.join("\n  ")
        )));
    }
    println!("{path}: valid run report (version {version})");
    Ok(())
}

/// The pinned fleet-summary schema this build emits and validates
/// against — the same fixture the golden schema test locks
/// (`tests/golden/`).
const FLEET_SUMMARY_SCHEMA: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_summary.schema"
));

/// `bwsa corpus <manifest>` — batch-analyze every trace a manifest names
/// and fold the results into a fleet summary. Manifest problems
/// (unparseable, duplicate paths, dangling entries) are invocation
/// errors (exit 2); a completed batch exits 0 even when individual
/// entries degraded or failed, because per-entry containment is the
/// subcommand's contract.
fn cmd_corpus(args: &[String]) -> Result<(), CliError> {
    let p = parse(
        args,
        &[
            "jobs",
            "threshold",
            "report",
            "emit-fleet",
            "retries",
            "max-seconds",
            "max-rss-mb",
            "cache-dir",
        ],
        &["no-cache", "resume"],
    )?;
    let manifest = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("corpus needs a manifest file"))?;
    if p.positionals.len() > 1 {
        return Err(usage_err(format!(
            "unexpected argument {:?}",
            p.positionals[1]
        )));
    }
    let no_cache = p.has("no-cache");
    let resume = p.has("resume");
    if no_cache && p.value("cache-dir").is_some() {
        return Err(usage_err("--no-cache conflicts with --cache-dir"));
    }
    if no_cache && resume {
        return Err(usage_err(
            "--no-cache conflicts with --resume (resume replays the result cache)",
        ));
    }
    // Validate every flag before touching the filesystem: misuse exits
    // 2 even when the manifest does not exist.
    let report_mode = report_spec(&p)?.mode;
    let jobs = p.positive("jobs")?;
    let threshold = threshold_of(&p)?;
    let supervisor = supervisor_of(&p)?;
    let corpus = Corpus::open(manifest.as_ref()).map_err(|e| {
        if e.is_usage() {
            usage_err(e.to_string())
        } else {
            runtime_err(e.to_string())
        }
    })?;
    let mut session = corpus.session();
    if let Some(jobs) = jobs {
        session = session.with_jobs(jobs);
    }
    if let Some(config) = threshold {
        session = session.with_threshold(config.threshold);
    }
    if let Some(config) = supervisor {
        session = session.with_supervisor(config);
    }
    if no_cache {
        // Every entry runs fresh; nothing is read or written on disk.
    } else {
        // The cache lives beside the manifest by default, so repeated
        // runs over the same corpus share it without any flag.
        let cache_dir = match p.value("cache-dir") {
            Some(dir) => std::path::PathBuf::from(dir),
            None => std::path::Path::new(manifest)
                .parent()
                .unwrap_or_else(|| std::path::Path::new("."))
                .join(".bwsa-cache"),
        };
        if resume {
            let (entries, source) = bwsa::corpus::journal::load(&cache_dir);
            match source {
                bwsa::corpus::journal::JournalSource::Absent => {
                    eprintln!(
                        "warning: no run journal in {}; starting fresh",
                        cache_dir.display()
                    );
                }
                bwsa::corpus::journal::JournalSource::Ancestor => {
                    eprintln!(
                        "warning: newest journal unreadable; resuming from \
                         previous good journal ({} completed entries)",
                        entries.len()
                    );
                }
                bwsa::corpus::journal::JournalSource::Primary => {
                    eprintln!(
                        "resuming: {} entries already complete in journal",
                        entries.len()
                    );
                }
            }
            session = session.with_resume(true);
        }
        session = session.with_cache(cache_dir);
    }
    let summary = session.run_all();
    if !no_cache {
        let c = summary.cache;
        eprintln!(
            "cache: {} hits, {} misses, {} evicted, {} corrupt",
            c.hits, c.misses, c.evictions, c.corrupt
        );
    }
    if let Some(path) = p.value("emit-fleet") {
        std::fs::write(path, summary.to_json().to_pretty_string())
            .map_err(|e| runtime_err(format!("cannot write {path}: {e}")))?;
    }
    match report_mode {
        Some(ReportMode::Json) => println!("{}", summary.to_json().to_pretty_string()),
        Some(ReportMode::Text) | None => print_fleet_text(&summary),
    }
    Ok(())
}

/// Renders a fleet summary as the human-readable corpus table.
fn print_fleet_text(summary: &FleetSummary) {
    println!(
        "corpus {}: {} entries, {} records",
        summary.name,
        summary.entries.len(),
        summary.records
    );
    println!(
        "{:<28} {:<9} {:>10} {:>6} {:>6} {:>9} {:>8}",
        "entry", "status", "records", "sets", "max", "required", "win"
    );
    for e in &summary.entries {
        if e.status == EntryStatus::Failed {
            println!(
                "{:<28} {:<9} {}",
                e.key,
                e.status.label(),
                e.error.as_deref().unwrap_or("unknown error")
            );
        } else {
            println!(
                "{:<28} {:<9} {:>10} {:>6} {:>6} {:>9} {:>7.1}x",
                e.key,
                e.status.label(),
                e.records,
                e.total_sets,
                e.max_set,
                e.required_size,
                e.win()
            );
        }
    }
    println!(
        "resilience: {} ok, {} degraded, {} failed ({:.1}% degraded); \
         {} retries, {} downgrades, {} chunks dropped",
        summary.ok,
        summary.degraded,
        summary.failed,
        summary.degradation_rate() * 100.0,
        summary.retries,
        summary.downgrades,
        summary.chunks_dropped
    );
    println!(
        "working sets: count p50 {:.0} p90 {:.0} p99 {:.0}; \
         max size p50 {:.0} p90 {:.0} p99 {:.0}",
        summary.total_sets.p50,
        summary.total_sets.p90,
        summary.total_sets.p99,
        summary.max_size.p50,
        summary.max_size.p90,
        summary.max_size.p99
    );
    for c in &summary.classes {
        println!(
            "allocation win [{}]: {} entries, mean {:.1}x (min {:.1}x, max {:.1}x)",
            c.class,
            c.entries,
            c.mean_win(),
            c.min_win,
            c.max_win
        );
    }
}

/// `bwsa validate-fleet <fleet.json>` — check an emitted fleet summary
/// against this build's pinned schema fixture and version, mirroring
/// `validate-report`.
fn cmd_validate_fleet(args: &[String]) -> Result<(), CliError> {
    let p = parse(args, &[], &[])?;
    let path = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("validate-fleet needs a fleet summary JSON file"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read {path}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| runtime_err(format!("{path}: {e}")))?;
    let version = doc
        .get("fleet_summary_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| runtime_err(format!("{path}: missing fleet_summary_version")))?;
    if version != FLEET_SUMMARY_VERSION {
        return Err(runtime_err(format!(
            "{path}: fleet_summary_version {version}, this build validates version {FLEET_SUMMARY_VERSION}"
        )));
    }
    // Subset check, same contract as validate-report: a real summary may
    // omit shapes the canonical fixture pins (a clean corpus has no
    // string-typed `error`), but must not introduce unknown paths.
    let known: std::collections::BTreeSet<&str> = FLEET_SUMMARY_SCHEMA.lines().collect();
    let shape = schema_shape(&doc);
    let unknown: Vec<&str> = shape
        .lines()
        .filter(|line| !line.is_empty() && !known.contains(line))
        .collect();
    if !unknown.is_empty() {
        return Err(runtime_err(format!(
            "{path}: shape differs from the version-{FLEET_SUMMARY_VERSION} schema; unknown fields:\n  {}",
            unknown.join("\n  ")
        )));
    }
    println!("{path}: valid fleet summary (version {version})");
    Ok(())
}

/// `bwsa serve <socket> [...]` — run the multi-tenant analysis daemon
/// until a drain signal, then exit 0. Malformed flags and bind failures
/// are both invocation errors (exit 2); request-level failures never
/// reach this function — they are answered as typed error frames.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let p = parse(
        args,
        &[
            "workers",
            "queue",
            "max-concurrent",
            "max-bytes-mb",
            "deadline-seconds",
            "retries",
            "max-rss-mb",
            "seed",
            "corpus-cache",
        ],
        &[],
    )?;
    let socket = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("serve needs a socket path"))?;
    if p.positionals.len() > 1 {
        return Err(usage_err(format!(
            "unexpected argument {:?}",
            p.positionals[1]
        )));
    }
    let mut config = ServerConfig::new(socket);
    config.admission = AdmissionConfig {
        workers: p.positive("workers")?.unwrap_or(4),
        shed_watermark: p.number("queue")?.unwrap_or(16),
        jitter_seed: p
            .number("seed")?
            .unwrap_or(AdmissionConfig::default().jitter_seed),
    };
    config.quotas = TenantQuotas {
        max_concurrent: p.positive("max-concurrent")?.unwrap_or(4),
        max_in_flight_bytes: p
            .positive("max-bytes-mb")?
            .map_or(TenantQuotas::default().max_in_flight_bytes, |mb: u64| {
                mb * 1024 * 1024
            }),
    };
    config.request_deadline = Some(
        p.positive("deadline-seconds")?
            .map_or(Duration::from_secs(60), Duration::from_secs_f64),
    );
    // `serve` takes no --max-seconds, so the supervisor sets no deadline:
    // each request's deadline is --deadline-seconds, armed on the thread
    // that serves it.
    if let Some(supervisor) = supervisor_of(&p)? {
        config.supervisor = supervisor;
    }
    if let Some(dir) = p.value("corpus-cache") {
        config.corpus_cache = Some(std::path::PathBuf::from(dir));
    }

    // An unusable socket is an invocation error, same class as a
    // malformed flag: nothing was served yet, exit 2.
    let server = Server::bind(config).map_err(|e| usage_err(e.to_string()))?;
    signal::install_handlers();
    eprintln!(
        "bwsa-server: listening on {socket} (SIGTERM or `bwsa client {socket} shutdown` to drain)"
    );
    server.run().map_err(|e| runtime_err(e.to_string()))?;
    eprintln!("bwsa-server: drained cleanly");
    Ok(())
}

/// `bwsa client <socket> <action> [...]` — one request against a running
/// daemon. Server-side typed errors print to stderr and exit 1.
fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let p = parse(
        args,
        &["tenant", "threshold", "table", "window", "jobs", "retries"],
        &["classify"],
    )?;
    let socket = p
        .positionals
        .first()
        .ok_or_else(|| usage_err("client needs a socket path"))?;
    let action = p.positionals.get(1).ok_or_else(|| {
        usage_err(
            "client needs an action: ping|analyze|subscribe|allocate|corpus|report|status|shutdown",
        )
    })?;
    let tenant = p.value("tenant").unwrap_or("cli");
    let threshold: Option<u64> = p.number("threshold")?;
    let retries: u32 = p.number("retries")?.unwrap_or(0);
    let jobs: u64 = p.positive("jobs")?.unwrap_or(0);
    // Read the trace once, before the retry loop: a shed request
    // retries the same bytes instead of re-touching the file.
    let upload: Option<Vec<u8>> = match action.as_str() {
        "analyze" | "report" | "subscribe" | "allocate" => {
            let path = p
                .positionals
                .get(2)
                .ok_or_else(|| usage_err(format!("client {action} needs a trace file")))?;
            Some(std::fs::read(path).map_err(|e| runtime_err(format!("cannot read {path}: {e}")))?)
        }
        _ => None,
    };
    // Rejections with a retry-after hint (overload sheds) are worth
    // riding out: sleep at least the server's hint, plus decorrelated
    // jitter so a herd of shed clients does not stampede back in step.
    let mut backoff =
        supervisor::Backoff::with_cap(Duration::from_millis(25), Duration::from_millis(2_000));
    let mut rng = DetRng::new(0xc11e_0000 ^ u64::from(std::process::id()));
    let mut attempt: u32 = 0;
    let response = loop {
        let mut client = Client::connect(socket, tenant).map_err(|e| runtime_err(e.to_string()))?;
        let response = match action.as_str() {
            "ping" => client.ping(),
            "status" => client.status(),
            "shutdown" => client.shutdown(),
            "analyze" => client.analyze(upload.clone().unwrap(), threshold),
            "report" => client.report(upload.clone().unwrap(), threshold),
            "subscribe" => {
                let spec = p
                    .value("window")
                    .ok_or_else(|| usage_err("client subscribe needs --window N[i]"))?;
                let config = WindowConfig::parse(spec)
                    .map_err(|e| usage_err(format!("bad --window value: {e}")))?;
                client.subscribe(
                    upload.clone().unwrap(),
                    threshold,
                    config.interval(),
                    config.unit() == bwsa::core::WindowUnit::Instructions,
                    |json| print!("{json}"),
                )
            }
            "allocate" => {
                let table = p.number("table")?.unwrap_or(1024);
                client.allocate(upload.clone().unwrap(), threshold, table, p.has("classify"))
            }
            "corpus" => {
                let path = p
                    .positionals
                    .get(2)
                    .ok_or_else(|| usage_err("client corpus needs a manifest path"))?;
                // The manifest path is server-local: nothing is uploaded,
                // the daemon reads the traces off its own filesystem.
                client.corpus(path, threshold, jobs)
            }
            other => {
                return Err(usage_err(format!(
                    "unknown client action {other:?} (ping|analyze|subscribe|allocate|corpus|report|status|shutdown)"
                )))
            }
        };
        match response.map_err(|e| runtime_err(e.to_string()))? {
            Response::Error {
                code,
                message,
                retry_after_ms: Some(ms),
            } if attempt < retries => {
                attempt += 1;
                let wait = Duration::from_millis(ms).max(backoff.delay_jittered(&mut rng));
                eprintln!(
                    "server busy ({code}): {message}; retry {attempt}/{retries} in {}ms",
                    wait.as_millis()
                );
                std::thread::sleep(wait);
            }
            terminal => break terminal,
        }
    };
    match response {
        Response::Ok(json) => {
            print!("{json}");
            Ok(())
        }
        // The client only surfaces terminal frames here; window frames
        // were already printed by the subscribe callback.
        Response::Window(json) => {
            print!("{json}");
            Ok(())
        }
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            let hint = retry_after_ms
                .map(|ms| format!(" (retry after {ms}ms)"))
                .unwrap_or_default();
            Err(runtime_err(format!(
                "server refused ({code}): {message}{hint}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_splits_flags_and_positionals() {
        let p = parse(
            &strs(&["file.bwst", "--table", "128", "--classify"]),
            &["table"],
            &["classify"],
        )
        .unwrap();
        assert_eq!(p.positionals, vec!["file.bwst"]);
        assert_eq!(p.value("table"), Some("128"));
        assert!(p.has("classify"));
        assert!(!p.has("table2"));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(matches!(
            parse(&strs(&["--nope"]), &[], &[]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&strs(&["--table"]), &["table"], &[]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        assert!(matches!(
            run(&strs(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_file_is_a_runtime_error() {
        assert!(matches!(
            run(&strs(&["analyze", "/no/such/file.bwst"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn bad_flag_values_are_usage_errors() {
        assert!(matches!(
            run(&strs(&["analyze", "x.bwst", "--threshold", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strs(&["generate", "pgp", "--format", "xml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            checkpoint_cadence(
                &parse(
                    &strs(&["--checkpoint-every", "8"]),
                    &["checkpoint-every"],
                    &[]
                )
                .unwrap()
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_succeeds() {
        assert!(run(&strs(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn predictor_names_resolve() {
        let trace = Trace::new("t");
        for name in [
            "pag", "free", "bimodal", "gshare", "gag", "hybrid", "agree", "bimode", "profile",
        ] {
            assert!(predictor_by_name(name, &trace).is_ok(), "{name}");
        }
        assert!(predictor_by_name("nope", &trace).is_err());
        for name in ["pag", "free", "bimodal", "gshare"] {
            assert!(checkpointable_by_name(name).is_ok(), "{name}");
        }
        assert!(matches!(
            checkpointable_by_name("hybrid"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn jobs_flag_is_validated_before_touching_the_trace() {
        // Bad values are usage errors even when the file doesn't exist.
        for bad in ["0", "many", "-3", "1.5"] {
            assert!(
                matches!(
                    run(&strs(&["analyze", "/no/such.bwst", "--jobs", bad])),
                    Err(CliError::Usage(_))
                ),
                "--jobs {bad}"
            );
            assert!(
                matches!(
                    run(&strs(&["simulate", "/no/such.bwst", "--jobs", bad])),
                    Err(CliError::Usage(_))
                ),
                "--jobs {bad}"
            );
        }
        let p = parse(&strs(&["--jobs", "4"]), &["jobs"], &[]).unwrap();
        assert_eq!(p.positive::<usize>("jobs").unwrap(), Some(4));
        let absent = parse(&[], &["jobs"], &[]).unwrap();
        assert_eq!(absent.positive::<usize>("jobs").unwrap(), None);
    }

    #[test]
    fn checkpointed_analysis_rejects_parallel_jobs() {
        // Sequential by contract: explicit --jobs > 1 with --checkpoint or
        // --resume is a usage error, caught before any I/O.
        assert!(matches!(
            run(&strs(&[
                "analyze",
                "/no/such.bwss",
                "--checkpoint",
                "c.bwck",
                "--jobs",
                "2"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strs(&[
                "analyze",
                "/no/such.bwss",
                "--resume",
                "c.bwck",
                "--jobs",
                "8"
            ])),
            Err(CliError::Usage(_))
        ));
        // --jobs 1 is explicitly sequential and stays allowed; the missing
        // file is then a runtime error, proving the usage gate passed.
        assert!(matches!(
            run(&strs(&[
                "analyze",
                "/no/such.bwss",
                "--checkpoint",
                "c.bwck",
                "--jobs",
                "1"
            ])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn parallel_analysis_output_matches_serial_for_both_formats() {
        let dir = std::env::temp_dir().join("bwsa_cli_jobs_test");
        std::fs::create_dir_all(&dir).unwrap();
        for format in ["bwst", "bwss"] {
            let out = dir.join(format!("t.{format}"));
            let out_s = out.to_str().unwrap().to_owned();
            run(&strs(&[
                "generate", "pgp", "--scale", "0.01", "--format", format, "-o", &out_s,
            ]))
            .unwrap();
            run(&strs(&[
                "analyze",
                &out_s,
                "--threshold",
                "3",
                "--jobs",
                "1",
            ]))
            .unwrap();
            run(&strs(&[
                "analyze",
                &out_s,
                "--threshold",
                "3",
                "--jobs",
                "3",
            ]))
            .unwrap();
            run(&strs(&["simulate", &out_s, "--jobs", "2"])).unwrap();
            std::fs::remove_file(out).unwrap();
        }
    }

    #[test]
    fn checkpoint_cadence_defaults_to_64_chunks() {
        let p = parse(&strs(&["--checkpoint", "c.bwck"]), &["checkpoint"], &[]).unwrap();
        let (path, every) = checkpoint_cadence(&p).unwrap().unwrap();
        assert_eq!(path, "c.bwck");
        assert_eq!(every, 64 * DEFAULT_CHUNK_RECORDS as u64);
        let none = parse(&strs(&[]), &[], &[]).unwrap();
        assert!(checkpoint_cadence(&none).unwrap().is_none());
    }

    #[test]
    fn generate_analyze_allocate_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("bwsa_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.bwst");
        let out_s = out.to_str().unwrap().to_owned();
        run(&strs(&["generate", "pgp", "--scale", "0.01", "-o", &out_s])).unwrap();
        run(&strs(&["analyze", &out_s, "--threshold", "3"])).unwrap();
        run(&strs(&[
            "allocate",
            &out_s,
            "--table",
            "64",
            "--threshold",
            "3",
            "--classify",
        ]))
        .unwrap();
        run(&strs(&["simulate", &out_s, "--predictor", "pag"])).unwrap();
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn streamed_trace_roundtrips_through_every_subcommand() {
        let dir = std::env::temp_dir().join("bwsa_cli_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.bwss");
        let out_s = out.to_str().unwrap().to_owned();
        run(&strs(&[
            "generate", "pgp", "--scale", "0.01", "--format", "bwss", "-o", &out_s,
        ]))
        .unwrap();
        assert_eq!(
            Format::sniff(&std::fs::read(&out).unwrap()).unwrap(),
            Format::Bwss
        );
        run(&strs(&["analyze", &out_s, "--threshold", "3"])).unwrap();
        run(&strs(&["simulate", &out_s, "--predictor", "gshare"])).unwrap();
        run(&strs(&[
            "allocate",
            &out_s,
            "--table",
            "64",
            "--threshold",
            "3",
        ]))
        .unwrap();
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn report_flag_values_are_validated() {
        assert!(matches!(
            run(&strs(&["analyze", "/no/such.bwst", "--report", "xml"])),
            Err(CliError::Usage(_))
        ));
        let p = parse(&strs(&["--report", "json"]), &["report"], &[]).unwrap();
        let spec = report_spec(&p).unwrap();
        assert!(spec.wanted());
        assert!(spec.json_only());
        let p = parse(&strs(&["--metrics", "m.json"]), &["report", "metrics"], &[]).unwrap();
        let spec = report_spec(&p).unwrap();
        assert!(spec.wanted());
        assert!(!spec.json_only(), "--metrics alone keeps stdout human");
        let none = report_spec(&parse(&[], &["report"], &[]).unwrap()).unwrap();
        assert!(!none.wanted());
    }

    #[test]
    fn every_reporting_subcommand_emits_a_valid_versioned_report() {
        let dir = std::env::temp_dir().join("bwsa_cli_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.bwst");
        let trace_s = trace.to_str().unwrap().to_owned();
        run(&strs(&[
            "generate", "pgp", "--scale", "0.01", "-o", &trace_s,
        ]))
        .unwrap();
        for (extra, name) in [
            (vec!["analyze"], "analyze.json"),
            (vec!["analyze", "--jobs", "3"], "analyze_par.json"),
            (
                vec!["allocate", "--table", "64", "--classify"],
                "alloc.json",
            ),
            (vec!["simulate", "--predictor", "pag"], "sim.json"),
        ] {
            let metrics = dir.join(name);
            let metrics_s = metrics.to_str().unwrap().to_owned();
            let mut args = vec![extra[0].to_owned(), trace_s.clone()];
            args.extend(extra[1..].iter().map(|s| s.to_string()));
            args.extend(["--metrics".to_owned(), metrics_s.clone()]);
            run(&args).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            run(&strs(&["validate-report", &metrics_s]))
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            assert_eq!(
                doc.get("run_report_version").and_then(Json::as_u64),
                Some(RUN_REPORT_VERSION),
                "{name}"
            );
            std::fs::remove_file(metrics).unwrap();
        }
        std::fs::remove_file(trace).unwrap();
    }

    #[test]
    fn analyze_report_times_every_pipeline_stage() {
        let dir = std::env::temp_dir().join("bwsa_cli_stage_test");
        std::fs::create_dir_all(&dir).unwrap();
        // BWST runs the parallel engine in memory; BWSS3 streams its blocks
        // into the detector inside `ingest`.
        let parallel: &[&str] = &["profile", "shard_detect"];
        for (format, engine) in [("bwst", parallel), ("bwss3", &[])] {
            let trace = dir.join(format!("t.{format}"));
            let trace_s = trace.to_str().unwrap().to_owned();
            run(&strs(&[
                "generate", "pgp", "--scale", "0.01", "--format", format, "-o", &trace_s,
            ]))
            .unwrap();
            let metrics = dir.join("m.json");
            let metrics_s = metrics.to_str().unwrap().to_owned();
            run(&strs(&["analyze", &trace_s, "--metrics", &metrics_s])).unwrap();
            let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let stages: Vec<String> = match doc.get("stages") {
                Some(Json::Array(items)) => items
                    .iter()
                    .filter_map(|s| s.get("name").and_then(Json::as_str).map(str::to_owned))
                    .collect(),
                other => panic!("stages missing: {other:?}"),
            };
            let shared = [
                "ingest",
                "compile",
                "conflict_prune",
                "working_sets",
                "classify",
            ];
            for required in shared.iter().chain(engine) {
                assert!(
                    stages.iter().any(|s| s == required),
                    "{format}: missing {required} in {stages:?}"
                );
            }
            std::fs::remove_file(metrics).unwrap();
            std::fs::remove_file(trace).unwrap();
        }
    }

    #[test]
    fn validate_report_rejects_garbage_and_wrong_versions() {
        let dir = std::env::temp_dir().join("bwsa_cli_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        assert!(matches!(
            run(&strs(&["validate-report", garbage.to_str().unwrap()])),
            Err(CliError::Runtime(_))
        ));
        let wrong = dir.join("wrong_version.json");
        std::fs::write(&wrong, "{\"run_report_version\": 999}").unwrap();
        let err = run(&strs(&["validate-report", wrong.to_str().unwrap()])).unwrap_err();
        match err {
            CliError::Runtime(msg) => assert!(msg.contains("999"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let alien = dir.join("alien_field.json");
        std::fs::write(
            &alien,
            format!("{{\"run_report_version\": {RUN_REPORT_VERSION}, \"surprise\": true}}"),
        )
        .unwrap();
        assert!(matches!(
            run(&strs(&["validate-report", alien.to_str().unwrap()])),
            Err(CliError::Runtime(_))
        ));
        std::fs::remove_file(garbage).unwrap();
        std::fs::remove_file(wrong).unwrap();
        std::fs::remove_file(alien).unwrap();
    }

    #[test]
    fn supervisor_flags_are_validated_before_touching_the_trace() {
        // Bad values are usage errors even when the file doesn't exist.
        for (flag, bad) in [
            ("--retries", "many"),
            ("--retries", "-1"),
            ("--max-seconds", "0"),
            ("--max-seconds", "inf"),
            ("--max-seconds", "soon"),
            ("--max-rss-mb", "0"),
            ("--max-rss-mb", "lots"),
        ] {
            assert!(
                matches!(
                    run(&strs(&["analyze", "/no/such.bwst", flag, bad])),
                    Err(CliError::Usage(_))
                ),
                "analyze {flag} {bad}"
            );
            assert!(
                matches!(
                    run(&strs(&["allocate", "/no/such.bwst", flag, bad])),
                    Err(CliError::Usage(_))
                ),
                "allocate {flag} {bad}"
            );
        }
        // No supervisor flags means no supervisor.
        let p = parse(&[], &["retries"], &[]).unwrap();
        assert!(supervisor_of(&p).unwrap().is_none());
        // Any one flag turns supervision on with defaults for the rest.
        let p = parse(&strs(&["--retries", "5"]), &["retries"], &[]).unwrap();
        let config = supervisor_of(&p).unwrap().unwrap();
        assert_eq!(config.retries, 5);
        assert!(config.max_wall.is_none());
        assert!(config.max_rss_bytes.is_none());
        let p = parse(
            &strs(&["--max-seconds", "1.5", "--max-rss-mb", "64"]),
            &["max-seconds", "max-rss-mb"],
            &[],
        )
        .unwrap();
        let config = supervisor_of(&p).unwrap().unwrap();
        assert_eq!(config.max_wall, Some(Duration::from_millis(1500)));
        assert_eq!(config.max_rss_bytes, Some(64 * 1024 * 1024));
    }

    #[test]
    fn supervised_analyze_and_allocate_report_the_resilience_section() {
        let dir = std::env::temp_dir().join("bwsa_cli_supervised_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.bwst");
        let trace_s = trace.to_str().unwrap().to_owned();
        run(&strs(&[
            "generate", "pgp", "--scale", "0.01", "-o", &trace_s,
        ]))
        .unwrap();
        for (extra, name) in [
            (vec!["analyze"], "analyze.json"),
            (vec!["analyze", "--jobs", "2"], "analyze_par.json"),
            (vec!["allocate", "--table", "64"], "alloc.json"),
        ] {
            let metrics = dir.join(name);
            let metrics_s = metrics.to_str().unwrap().to_owned();
            let mut args = vec![extra[0].to_owned(), trace_s.clone()];
            args.extend(extra[1..].iter().map(|s| s.to_string()));
            args.extend(
                [
                    "--retries",
                    "2",
                    "--max-rss-mb",
                    "1000000",
                    "--metrics",
                    &metrics_s,
                ]
                .map(str::to_owned),
            );
            run(&args).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            run(&strs(&["validate-report", &metrics_s]))
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let resilience = doc.get("resilience").unwrap_or_else(|| panic!("{name}"));
            assert!(
                matches!(resilience.get("supervised"), Some(Json::Bool(true))),
                "{name}"
            );
            assert_eq!(
                resilience.get("attempts").and_then(Json::as_u64),
                Some(1),
                "{name}: fault-free run needs exactly one attempt"
            );
            std::fs::remove_file(metrics).unwrap();
        }
        std::fs::remove_file(trace).unwrap();
    }

    #[test]
    fn torn_checkpoint_resumes_from_the_rotated_ancestor() {
        let dir = std::env::temp_dir().join("bwsa_cli_torn_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.bwss");
        let trace_s = trace.to_str().unwrap().to_owned();
        // 17500 records at chunk cadence 1 (4096 records) -> several
        // checkpoint writes, so rotation leaves a `.prev` ancestor.
        run(&strs(&[
            "generate", "pgp", "--scale", "0.05", "--format", "bwss", "-o", &trace_s,
        ]))
        .unwrap();
        let ck = dir.join("t.bwck");
        let ck_s = ck.to_str().unwrap().to_owned();
        run(&strs(&[
            "analyze",
            &trace_s,
            "--checkpoint",
            &ck_s,
            "--checkpoint-every",
            "1",
        ]))
        .unwrap();
        let prev = dir.join("t.bwck.prev");
        assert!(prev.exists(), "rotation must keep the previous checkpoint");
        // Tear the newest checkpoint, as a crash mid-write on a less
        // forgiving filesystem would.
        let good = std::fs::read(&ck).unwrap();
        std::fs::write(&ck, &good[..good.len() / 2]).unwrap();
        // Resume falls back to the rotated ancestor and completes.
        run(&strs(&["analyze", &trace_s, "--resume", &ck_s]))
            .expect("resume must fall back to the .prev checkpoint");
        // With the ancestor gone too, the failure is a typed runtime error.
        std::fs::remove_file(&prev).unwrap();
        assert!(matches!(
            run(&strs(&["analyze", &trace_s, "--resume", &ck_s])),
            Err(CliError::Runtime(_))
        ));
        std::fs::remove_file(trace).unwrap();
        std::fs::remove_file(ck).unwrap();
    }

    #[test]
    fn convert_roundtrips_record_identical_across_all_formats() {
        let dir = std::env::temp_dir().join("bwsa_cli_convert_test");
        std::fs::create_dir_all(&dir).unwrap();
        let orig = dir.join("t.bwst");
        let orig_s = orig.to_str().unwrap().to_owned();
        run(&strs(&[
            "generate", "pgp", "--scale", "0.01", "-o", &orig_s,
        ]))
        .unwrap();
        // bwst -> bws3 -> bwss -> bwst, target format inferred from the
        // extension each hop.
        let c3 = dir.join("t.bws3");
        let c3_s = c3.to_str().unwrap().to_owned();
        let cs = dir.join("t.bwss");
        let cs_s = cs.to_str().unwrap().to_owned();
        let back = dir.join("back.bwst");
        let back_s = back.to_str().unwrap().to_owned();
        run(&strs(&["convert", &orig_s, &c3_s])).unwrap();
        run(&strs(&["convert", &c3_s, &cs_s])).unwrap();
        run(&strs(&["convert", &cs_s, &back_s])).unwrap();
        assert_eq!(
            Format::sniff(&std::fs::read(&c3).unwrap()).unwrap(),
            Format::Bwss3
        );
        let read = |path| bwsa::trace::io::read_binary(File::open(path).unwrap()).unwrap();
        let (a, b) = (read(&orig), read(&back));
        assert_eq!(a.records(), b.records(), "round trip must be identical");
        assert_eq!(a.meta().total_instructions, b.meta().total_instructions);
        // Every analysis path accepts the columnar file.
        run(&strs(&["analyze", &c3_s, "--threshold", "3"])).unwrap();
        run(&strs(&[
            "analyze",
            &c3_s,
            "--threshold",
            "3",
            "--jobs",
            "3",
        ]))
        .unwrap();
        run(&strs(&["analyze", &c3_s, "--window", "2000"])).unwrap();
        run(&strs(&["simulate", &c3_s, "--predictor", "pag"])).unwrap();
        run(&strs(&["allocate", &c3_s, "--table", "64"])).unwrap();
        for f in [orig, c3, cs, back] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn convert_validates_flags_and_extensions() {
        assert!(matches!(
            run(&strs(&["convert", "only-one-arg"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strs(&["convert", "a.bwst", "b.xml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strs(&["convert", "a.bwst", "b.bws3", "--format", "xml"])),
            Err(CliError::Usage(_))
        ));
        // Valid flags but missing input: a runtime error, proving the
        // usage gate passed.
        assert!(matches!(
            run(&strs(&["convert", "/no/such.bwst", "b.bws3"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn bwss3_trace_rejects_checkpoint_flags() {
        let dir = std::env::temp_dir().join("bwsa_cli_bws3_ckflag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.bws3");
        let out_s = out.to_str().unwrap().to_owned();
        run(&strs(&[
            "generate", "pgp", "--scale", "0.01", "--format", "bwss3", "-o", &out_s,
        ]))
        .unwrap();
        assert!(matches!(
            run(&strs(&["analyze", &out_s, "--checkpoint", "c.bwck"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&strs(&["analyze", &out_s, "--resume", "c.bwck"])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(out).unwrap();
    }

    #[test]
    fn bwst_trace_rejects_checkpoint_flags() {
        let dir = std::env::temp_dir().join("bwsa_cli_ckflag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.bwst");
        let out_s = out.to_str().unwrap().to_owned();
        run(&strs(&["generate", "pgp", "--scale", "0.01", "-o", &out_s])).unwrap();
        assert!(matches!(
            run(&strs(&["analyze", &out_s, "--checkpoint", "c.bwck"])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(out).unwrap();
    }
}
