//! The daemon: accept loop, per-connection readers, supervised dispatch,
//! and graceful drain.
//!
//! Topology: one nonblocking accept loop (so it can poll the shutdown
//! flag), one blocking reader thread per connection, requests handled
//! inline on their connection thread. Concurrency across tenants comes
//! from concurrent connections; the [`crate::admission`] stage bounds how
//! many of them execute analysis at once.
//!
//! Every request passes three containment layers on its way in:
//!
//! 1. **Quota** ([`crate::quota`]) — per-tenant concurrency and byte
//!    caps, charged before any work, released by RAII on every path.
//! 2. **Admission** ([`crate::admission`]) — bounded wait, shed with
//!    jittered retry-after past the watermark.
//! 3. **Supervision** — the handler body runs inside
//!    [`bwsa_resilience::supervisor::catch`] with the
//!    [`crate::failpoints::DISPATCH`] site at its head, a wall deadline
//!    for the request's own threads ([`bwsa_resilience::watchdog::arm`]),
//!    and the [`Session`] supervisor's retried serial runs under it.
//!    Whatever goes wrong becomes a typed error frame on that request ID.

use crate::admission::{Admission, AdmissionConfig, AdmissionError};
use crate::frame::{self, Frame, DEFAULT_MAX_FRAME_BYTES};
use crate::proto::{ErrorCode, Request, Response};
use crate::quota::{QuotaLedger, TenantQuotas};
use crate::signal::ShutdownFlag;
use bwsa_core::{
    AnalysisPipeline, Classified, ConflictConfig, Execution, Session, SupervisorConfig,
    WindowConfig,
};
use bwsa_obs::json::Json;
use bwsa_obs::Obs;
use bwsa_resilience::supervisor::{catch, ResilienceError};
use bwsa_resilience::watchdog;
use bwsa_trace::stream::RecoveryPolicy;
use bwsa_trace::Trace;
use std::fmt;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked reads and the accept loop re-check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Uniform per-tenant quotas.
    pub quotas: TenantQuotas,
    /// Admission sizing (workers, shed watermark, jitter seed).
    pub admission: AdmissionConfig,
    /// Supervision policy for each request's analysis run. `max_wall`
    /// should stay `None` here — per-request deadlines come from
    /// [`ServerConfig::request_deadline`], which a `max_wall` deadline
    /// could only shorten.
    pub supervisor: SupervisorConfig,
    /// Wall-clock budget per request (`None` = unbounded).
    pub request_deadline: Option<Duration>,
    /// Ceiling on one frame's payload.
    pub max_frame_bytes: usize,
    /// Observer for live metrics; pass [`Obs::recording`] so the
    /// `status` request has something to report.
    pub obs: Obs,
    /// Server-local result cache directory for `corpus` requests
    /// (`None` = every corpus entry analyzes fresh). Entries already in
    /// the cache replay from disk, and their trace bytes are not
    /// charged against the tenant's in-flight-byte quota.
    pub corpus_cache: Option<PathBuf>,
}

impl ServerConfig {
    /// A default-tuned daemon on `socket`, with a recording observer.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            quotas: TenantQuotas::default(),
            admission: AdmissionConfig::default(),
            supervisor: SupervisorConfig::default(),
            request_deadline: Some(Duration::from_secs(60)),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            obs: Obs::recording(),
            corpus_cache: None,
        }
    }
}

/// Daemon-level failures (request-level failures never surface here —
/// they become error frames).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Binding the listening socket failed.
    Bind {
        /// The socket path that could not be bound.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The accept loop's listener broke irrecoverably.
    Accept(io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Bind { path, source } => {
                write!(f, "cannot bind {}: {source}", path.display())
            }
            ServerError::Accept(e) => write!(f, "accept loop failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Shared state every connection thread sees.
#[derive(Debug)]
struct Ctx {
    quota: Arc<QuotaLedger>,
    admission: Arc<Admission>,
    obs: Obs,
    shutdown: ShutdownFlag,
    supervisor: SupervisorConfig,
    request_deadline: Option<Duration>,
    max_frame_bytes: usize,
    corpus_cache: Option<PathBuf>,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until drain;
/// [`Server::spawn`] runs it on a background thread and returns a
/// [`ServerHandle`] (tests, benches, and embedding).
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the daemon's socket. The socket file is created now and
    /// removed on clean drain.
    ///
    /// # Errors
    ///
    /// [`ServerError::Bind`] — the CLI maps this to exit code 2, same as
    /// any other unusable invocation.
    pub fn bind(config: ServerConfig) -> Result<Self, ServerError> {
        let listener = UnixListener::bind(&config.socket).map_err(|source| ServerError::Bind {
            path: config.socket.clone(),
            source,
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|source| ServerError::Bind {
                path: config.socket.clone(),
                source,
            })?;
        Ok(Server {
            listener,
            socket: config.socket.clone(),
            ctx: Arc::new(Ctx {
                quota: QuotaLedger::new(config.quotas),
                admission: Admission::new(config.admission),
                obs: config.obs.clone(),
                shutdown: ShutdownFlag::new(),
                supervisor: config.supervisor,
                request_deadline: config.request_deadline,
                max_frame_bytes: config.max_frame_bytes,
                corpus_cache: config.corpus_cache.clone(),
            }),
        })
    }

    /// The quota ledger (shared; inspectable while running).
    pub fn quota(&self) -> Arc<QuotaLedger> {
        Arc::clone(&self.ctx.quota)
    }

    /// The admission stage (shared; inspectable while running).
    pub fn admission(&self) -> Arc<Admission> {
        Arc::clone(&self.ctx.admission)
    }

    /// Serves until the shutdown flag flips (signal, `shutdown` request,
    /// or [`ServerHandle::begin_shutdown`]), then drains: stop accepting,
    /// let in-flight requests finish, remove the socket file.
    ///
    /// # Errors
    ///
    /// Only daemon-level [`ServerError`]s; request failures are answered
    /// on their own connections.
    pub fn run(self) -> Result<(), ServerError> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        let result = self.accept_loop(&mut connections);
        // Drain: the flag is set (or the listener died); connection
        // threads notice within one poll interval and exit, waiters in
        // admission get typed shutting-down responses.
        self.ctx.admission.begin_shutdown();
        for conn in connections {
            let _ = conn.join();
        }
        self.ctx.admission.drain();
        let _ = std::fs::remove_file(&self.socket);
        result
    }

    /// Runs the daemon on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let shutdown = self.ctx.shutdown.clone();
        let quota = self.quota();
        let admission = self.admission();
        let socket = self.socket.clone();
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            thread,
            shutdown,
            quota,
            admission,
            socket,
        }
    }

    fn accept_loop(&self, connections: &mut Vec<JoinHandle<()>>) -> Result<(), ServerError> {
        loop {
            if self.ctx.shutdown.requested() {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    self.ctx.obs.add("server.connections", 1);
                    // The accept failpoint is contained per-connection: an
                    // injected fault answers this connection with a typed
                    // frame and the daemon keeps accepting.
                    let accepted = catch(|| {
                        bwsa_resilience::failpoint!(crate::failpoints::ACCEPT);
                    });
                    match accepted {
                        Ok(()) => {
                            let ctx = Arc::clone(&self.ctx);
                            connections.push(thread::spawn(move || serve_connection(stream, &ctx)));
                        }
                        Err(fault) => {
                            self.ctx.obs.add("server.accept_faults", 1);
                            let mut stream = stream;
                            respond_best_effort(
                                &mut stream,
                                0,
                                "",
                                Response::Error {
                                    code: ErrorCode::Fault,
                                    message: format!("accept fault contained: {fault}"),
                                    retry_after_ms: None,
                                },
                            );
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServerError::Accept(e)),
            }
        }
    }
}

/// A running daemon on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    thread: JoinHandle<Result<(), ServerError>>,
    shutdown: ShutdownFlag,
    quota: Arc<QuotaLedger>,
    admission: Arc<Admission>,
    socket: PathBuf,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The live quota ledger.
    pub fn quota(&self) -> &Arc<QuotaLedger> {
        &self.quota
    }

    /// The live admission stage.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// Flips the drain flag (same path a SIGTERM takes).
    pub fn begin_shutdown(&self) {
        self.shutdown.request();
        self.admission.begin_shutdown();
    }

    /// Waits for the daemon to finish draining.
    ///
    /// # Errors
    ///
    /// The daemon's own [`ServerError`], or [`ServerError::Accept`] with
    /// a synthesized error if its thread panicked (it never should: every
    /// request runs behind `catch`).
    pub fn join(self) -> Result<(), ServerError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(ServerError::Accept(io::Error::other(
                "server thread panicked",
            ))),
        }
    }
}

/// Writes `response` for `request_id`, swallowing write errors (the peer
/// may already be gone; the daemon must not care).
fn respond_best_effort(stream: &mut UnixStream, request_id: u64, tenant: &str, response: Response) {
    let frame = response.into_frame(request_id, tenant);
    let _ = frame::write_frame(stream, &frame);
}

/// One connection's read-dispatch-respond loop.
fn serve_connection(stream: UnixStream, ctx: &Arc<Ctx>) {
    // Accepted sockets inherit nothing surprising, but be explicit: the
    // reader blocks with a timeout so it can poll the drain flag.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        match frame::read_frame(&mut reader, ctx.max_frame_bytes) {
            Ok(request_frame) => {
                let id = request_frame.request_id;
                let tenant = request_frame.tenant.clone();
                let response = handle_frame(request_frame, ctx, &mut writer);
                let closing = ctx.shutdown.requested();
                respond_best_effort(&mut writer, id, &tenant, response);
                if closing {
                    return;
                }
            }
            Err(e) if e.is_timeout() => {
                if ctx.shutdown.requested() {
                    return;
                }
            }
            Err(e) if e.is_disconnect() => return,
            Err(e) => {
                // Framing is broken (bad magic, bad CRC, oversize): answer
                // typed on request id 0 and drop the connection — resync
                // inside a corrupt byte stream is not possible.
                ctx.obs.add("server.frame_errors", 1);
                respond_best_effort(
                    &mut writer,
                    0,
                    "",
                    error(ErrorCode::Malformed, e.to_string()),
                );
                return;
            }
        }
    }
}

/// A typed error response with no retry hint.
fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
        retry_after_ms: None,
    }
}

/// The typed answer for a fault that `catch` contained.
fn contained(fault: ResilienceError) -> Response {
    error(
        ErrorCode::Fault,
        format!("request fault contained: {fault}"),
    )
}

/// Dispatches one decoded frame to a typed response, counting it. Never
/// panics: the fallible/unwindable interior runs behind `catch`. A
/// subscription, the one multi-frame exchange, writes its window frames
/// to `writer` from inside; every terminal response goes back to the
/// caller to write.
fn handle_frame(frame: Frame, ctx: &Arc<Ctx>, writer: &mut UnixStream) -> Response {
    let tenant = frame.tenant.clone();
    ctx.obs.add("server.requests", 1);
    if frame.kind == crate::proto::kind::REQ_SUBSCRIBE {
        ctx.obs.add("server.subscriptions", 1);
    }
    if !tenant.is_empty() {
        ctx.obs.add(&format!("server.tenant.{tenant}.requests"), 1);
    }
    // An unwind that escaped the dispatch body (an injected fault at the
    // dispatch site, a genuine bug) is contained right here; the quota
    // and admission guards released during the unwind.
    let response = catch(|| dispatch(frame, ctx, writer)).unwrap_or_else(contained);
    match &response {
        // Window frames never come back as the terminal response;
        // counting one as ok keeps the arm total if that ever changes.
        Response::Ok(_) | Response::Window(_) => {
            ctx.obs.add("server.responses_ok", 1);
            if !tenant.is_empty() {
                ctx.obs.add(&format!("server.tenant.{tenant}.ok"), 1);
            }
        }
        Response::Error { code, .. } => {
            ctx.obs.add("server.responses_err", 1);
            ctx.obs.add(&format!("server.errors.{}", code.label()), 1);
            if !tenant.is_empty() {
                ctx.obs.add(&format!("server.tenant.{tenant}.err"), 1);
            }
        }
    }
    response
}

/// The unwindable interior of request handling.
fn dispatch(frame: Frame, ctx: &Arc<Ctx>, writer: &mut UnixStream) -> Response {
    bwsa_resilience::failpoint!(crate::failpoints::DISPATCH);
    let decoded = {
        bwsa_resilience::failpoint!(crate::failpoints::FRAME_DECODE);
        Request::from_frame(&frame)
    };
    let request = match decoded {
        Ok(request) => request,
        Err(e) => return error(ErrorCode::Malformed, e.to_string()),
    };
    let tenant = frame.tenant.as_str();
    match request {
        Request::Ping => Response::Ok("{\"pong\": true}".to_owned()),
        Request::Status => Response::Ok(status_json(ctx).to_pretty_string()),
        Request::Shutdown => {
            ctx.shutdown.request();
            ctx.admission.begin_shutdown();
            Response::Ok("{\"draining\": true}".to_owned())
        }
        Request::Analyze { threshold, trace } => {
            analysis_request(ctx, tenant, threshold, &trace, Action::Summary)
        }
        Request::Allocate {
            threshold,
            table,
            classified,
            trace,
        } => analysis_request(
            ctx,
            tenant,
            threshold,
            &trace,
            Action::Allocate { table, classified },
        ),
        Request::Report { threshold, trace } => {
            analysis_request(ctx, tenant, threshold, &trace, Action::Report)
        }
        Request::Subscribe {
            threshold,
            window,
            instructions,
            trace,
        } => {
            let config = if instructions {
                WindowConfig::instructions(window)
            } else {
                WindowConfig::branches(window)
            };
            admitted(ctx, tenant, trace.len() as u64, || {
                let pipeline = pipeline_for(threshold)?;
                let config = config.map_err(|e| error(ErrorCode::Malformed, e.to_string()))?;
                let trace = parse_trace(&trace)?;
                subscription(ctx, &frame, pipeline, config, &trace, writer)
            })
        }
        Request::Corpus {
            threshold,
            jobs,
            manifest,
        } => corpus_request(ctx, tenant, threshold, jobs, &manifest),
    }
}

/// Quota → admission → deadline → `catch`: the one path every request
/// that does work takes. `charge` bytes count against the tenant's quota
/// while `work` runs, and `work` answers `Err` for an early typed
/// refusal.
///
/// The deadline covers this request's own threads and no one else's,
/// so concurrent requests keep their budgets. The whole deadline-covered
/// region runs behind its own catch, so an expiry observed anywhere
/// inside — even while parsing the uploaded trace, outside the Session's
/// own supervision — comes back as a typed analysis failure rather than
/// a generic fault.
fn admitted(
    ctx: &Ctx,
    tenant: &str,
    charge: u64,
    work: impl FnOnce() -> Result<Response, Response>,
) -> Response {
    let _quota = match ctx.quota.try_admit(tenant, charge) {
        Ok(guard) => guard,
        Err(e) => return error(ErrorCode::Quota, e.to_string()),
    };
    let _slot = match ctx.admission.enter() {
        Ok(guard) => guard,
        Err(AdmissionError::Shed { retry_after }) => {
            ctx.obs.add("server.requests_shed", 1);
            return Response::Error {
                code: ErrorCode::Overload,
                message: "admission queue at the shed watermark".to_owned(),
                retry_after_ms: Some(retry_after.as_millis().min(u128::from(u64::MAX)) as u64),
            };
        }
        Err(AdmissionError::ShuttingDown) => {
            return error(ErrorCode::Shutdown, "daemon is draining")
        }
    };
    let _deadline = ctx
        .request_deadline
        .map(|budget| watchdog::arm(Instant::now() + budget));
    match catch(work) {
        Ok(Ok(response) | Err(response)) => response,
        Err(e @ ResilienceError::Timeout { .. }) => error(ErrorCode::Analysis, e.to_string()),
        Err(e) => contained(e),
    }
}

/// A windowed Session run that, once the run has finished, writes one
/// window frame per window and answers the whole-trace summary —
/// byte-identical to what `Analyze` answers for the same trace and
/// threshold.
fn subscription(
    ctx: &Ctx,
    frame: &Frame,
    pipeline: AnalysisPipeline,
    config: WindowConfig,
    trace: &Trace,
    writer: &mut UnixStream,
) -> Result<Response, Response> {
    let session = Session::new(trace)
        .with_pipeline(pipeline)
        .with_execution(Execution::Serial)
        .with_supervisor(ctx.supervisor)
        .with_observer(ctx.obs.clone())
        .with_windowing(config);
    let windowed = session
        .windowed()
        .map_err(|e| error(ErrorCode::Analysis, e.to_string()))?;
    for summary in &windowed.windows {
        let window_frame = Response::Window(summary.to_json().to_pretty_string())
            .into_frame(frame.request_id, &frame.tenant);
        if frame::write_frame(writer, &window_frame).is_err() {
            return Err(error(
                ErrorCode::Fault,
                "subscriber connection lost mid-stream",
            ));
        }
        ctx.obs.add("server.windows_emitted", 1);
    }
    Ok(Response::Ok(
        windowed.analysis.summary_json().to_pretty_string(),
    ))
}

/// What an admitted analysis-class request answers with.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// The analysis summary document.
    Summary,
    /// A predictor-table allocation over the analysis.
    Allocate {
        /// Table size in entries.
        table: u64,
        /// Allocate only classified (biased) branches when `true`.
        classified: bool,
    },
    /// The versioned RunReport for this request's own run.
    Report,
}

/// A supervised Session run over an uploaded trace, for
/// analyze/allocate/report.
fn analysis_request(
    ctx: &Ctx,
    tenant: &str,
    threshold: Option<u64>,
    trace_bytes: &[u8],
    action: Action,
) -> Response {
    admitted(ctx, tenant, trace_bytes.len() as u64, || {
        let pipeline = pipeline_for(threshold)?;
        let trace = parse_trace(trace_bytes)?;
        // Report requests get their own recording observer so the
        // answered RunReport covers exactly this run, not the daemon's
        // cumulative counters.
        let observer = match action {
            Action::Report => Obs::recording(),
            Action::Summary | Action::Allocate { .. } => ctx.obs.clone(),
        };
        let session = Session::new(&trace)
            .with_pipeline(pipeline)
            .with_execution(Execution::Serial)
            .with_supervisor(ctx.supervisor)
            .with_observer(observer);
        let result = match action {
            Action::Summary => session
                .run()
                .map(|analysis| analysis.summary_json().to_pretty_string()),
            Action::Allocate { table, classified } => session
                .allocate(Classified(classified), table as usize)
                .map(|allocation| allocation_json(&allocation).to_pretty_string()),
            Action::Report => session.run().map(|_| {
                session
                    .run_report("serve")
                    .expect("recording session has metrics after a run")
                    .to_json_string()
            }),
        };
        result
            .map(Response::Ok)
            .map_err(|e| error(ErrorCode::Analysis, e.to_string()))
    })
}

/// A fanned corpus run over a server-local manifest.
///
/// The manifest travels as a path (the traces it names are already on
/// the server's filesystem), so validation happens *before* quota is
/// charged — a malformed manifest is a free, typed refusal. Quota is
/// then charged by the summed on-disk size of every trace the manifest
/// names: the batch's real in-flight bytes, same currency as uploads.
fn corpus_request(
    ctx: &Ctx,
    tenant: &str,
    threshold: Option<u64>,
    jobs: u64,
    manifest: &str,
) -> Response {
    let corpus = match bwsa_corpus::Corpus::open(Path::new(manifest)) {
        Ok(c) => c,
        Err(e) => {
            let code = if e.is_usage() {
                ErrorCode::Malformed
            } else {
                ErrorCode::Analysis
            };
            return error(code, e.to_string());
        }
    };
    // With a server-local result cache, entries that will replay from
    // disk cost no re-analysis, so their trace bytes are not charged:
    // quota counts only the bytes the daemon will actually hold in
    // flight. The probe decodes the cell read-only (no writer lock),
    // and a torn or stale cell simply counts as a miss here, exactly
    // as it will during the run.
    let probe_hit = |e: &bwsa_corpus::ManifestEntry| -> bool {
        let Some(dir) = ctx.corpus_cache.as_deref() else {
            return false;
        };
        let Ok(bytes) = std::fs::read(&e.path) else {
            return false;
        };
        let key = bwsa_corpus::CacheKey::for_entry(
            bwsa_trace::codec::content_digest(&bytes),
            &e.key,
            &e.class,
            threshold.unwrap_or(e.threshold),
            e.baseline,
        );
        std::fs::read(dir.join(key.file_name()))
            .ok()
            .and_then(|cell| bwsa_corpus::cache::decode_cell(&cell, &e.key))
            .is_some()
    };
    let corpus_bytes: u64 = corpus
        .manifest()
        .entries
        .iter()
        .filter(|e| !probe_hit(e))
        .map(|e| std::fs::metadata(&e.path).map_or(0, |m| m.len()))
        .sum();
    admitted(ctx, tenant, corpus_bytes, || {
        pipeline_for(threshold)?;
        ctx.obs.add("server.corpus_runs", 1);
        let mut session = corpus
            .session()
            .with_supervisor(ctx.supervisor)
            .with_observer(ctx.obs.clone());
        if let Some(dir) = ctx.corpus_cache.as_deref() {
            session = session.with_cache(dir);
        }
        if jobs > 0 {
            session = session.with_jobs(jobs as usize);
        }
        if let Some(t) = threshold {
            session = session.with_threshold(t);
        }
        // run_all is infallible: per-entry failures are degraded/failed
        // rows in the summary, exactly the containment this daemon
        // promises per request.
        Ok(Response::Ok(session.run_all().to_json().to_pretty_string()))
    })
}

/// Builds the per-request pipeline (threshold override or defaults); a
/// bad threshold is a typed `Malformed` refusal.
fn pipeline_for(threshold: Option<u64>) -> Result<AnalysisPipeline, Response> {
    let mut pipeline = AnalysisPipeline::default();
    if let Some(t) = threshold {
        pipeline.conflict = ConflictConfig::with_threshold(t)
            .map_err(|e| error(ErrorCode::Malformed, e.to_string()))?;
    }
    Ok(pipeline)
}

/// Materialises an uploaded trace payload in any of the three formats
/// into a [`Trace`]. Uploads decode strictly: a tenant's damaged payload
/// is a typed `Malformed` refusal, not a silent partial result.
fn parse_trace(bytes: &[u8]) -> Result<Trace, Response> {
    bwsa_trace::decode(bytes, RecoveryPolicy::Strict)
        .map(|(trace, _)| trace)
        .map_err(|e| error(ErrorCode::Malformed, format!("bad trace payload: {e}")))
}

/// The JSON body for an allocate response.
fn allocation_json(allocation: &bwsa_core::Allocation) -> Json {
    let occupancy = allocation.occupancy();
    Json::object([
        ("table_size", Json::UInt(allocation.table_size() as u64)),
        ("conflict_mass", Json::UInt(allocation.conflict_mass)),
        (
            "conflicting_pairs",
            Json::UInt(allocation.conflicting_pairs as u64),
        ),
        (
            "occupancy",
            Json::object([
                ("used_entries", Json::UInt(occupancy.used_entries as u64)),
                ("max_per_entry", Json::UInt(occupancy.max_per_entry as u64)),
                (
                    "mean_per_used_entry",
                    Json::Float(occupancy.mean_per_used_entry),
                ),
            ]),
        ),
    ])
}

/// The JSON body for a status response: live metrics plus quota and
/// admission occupancy.
fn status_json(ctx: &Arc<Ctx>) -> Json {
    let (active, waiting) = ctx.admission.occupancy();
    let (in_flight_requests, in_flight_bytes) = ctx.quota.in_flight();
    let tenants = ctx
        .quota
        .tenant_snapshot()
        .into_iter()
        .map(|(name, requests, bytes)| {
            (
                name,
                Json::object([
                    ("requests", Json::UInt(u64::from(requests))),
                    ("bytes", Json::UInt(bytes)),
                ]),
            )
        })
        .collect();
    Json::object([
        (
            "server",
            Json::object([
                ("draining", Json::Bool(ctx.shutdown.requested())),
                ("active", Json::UInt(u64::from(active))),
                ("waiting", Json::UInt(u64::from(waiting))),
                ("admitted_total", Json::UInt(ctx.admission.admitted_total())),
                ("shed_total", Json::UInt(ctx.admission.shed_total())),
            ]),
        ),
        (
            "quota",
            Json::object([
                ("in_flight_requests", Json::UInt(in_flight_requests)),
                ("in_flight_bytes", Json::UInt(in_flight_bytes)),
                ("tenants", Json::Object(tenants)),
            ]),
        ),
        (
            "metrics",
            ctx.obs.snapshot().map_or(Json::Null, |m| m.to_json()),
        ),
    ])
}
