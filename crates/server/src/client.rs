//! Blocking client for the BWSF protocol — used by `bwsa client`, the
//! integration/chaos tests, and the bench harness.

use crate::frame::{self, Frame, FrameError, DEFAULT_MAX_FRAME_BYTES};
use crate::proto::{ProtoError, Request, Response};
use std::fmt;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Client-side failures (server-side failures arrive as
/// [`Response::Error`], which is a *successful* round trip).
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// Connecting to the daemon socket failed.
    Connect(io::Error),
    /// A frame could not be written or read.
    Frame(FrameError),
    /// The response frame decoded to no known message.
    Proto(ProtoError),
    /// The response echoed a different request ID than we sent.
    IdMismatch {
        /// The ID this client sent.
        sent: u64,
        /// The ID the response carried.
        received: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot connect: {e}"),
            ClientError::Frame(e) => write!(f, "protocol frame failed: {e}"),
            ClientError::Proto(e) => write!(f, "bad response: {e}"),
            ClientError::IdMismatch { sent, received } => {
                write!(f, "response id {received} does not match request id {sent}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One connection to a daemon, tagged with a tenant name. Requests are
/// synchronous: send one frame, wait for its echo-ID'd response.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
    tenant: String,
    next_id: u64,
    max_frame_bytes: usize,
}

impl Client {
    /// Connects to the daemon at `socket` as `tenant`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the socket is absent or refusing.
    pub fn connect(socket: impl AsRef<Path>, tenant: &str) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(socket.as_ref()).map_err(ClientError::Connect)?;
        Ok(Client {
            stream,
            tenant: tenant.to_owned(),
            next_id: 1,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Sends `request` and waits for its response.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`] only; a typed server-side error is
    /// returned as `Ok(Response::Error { .. })`.
    pub fn request(&mut self, request: Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.request_raw(request.into_frame(id, &self.tenant))
    }

    /// Sends an arbitrary pre-built frame and decodes the response —
    /// the escape hatch the protocol tests use to exercise unknown kinds
    /// and malformed bodies.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn request_raw(&mut self, out: Frame) -> Result<Response, ClientError> {
        let id = out.request_id;
        frame::write_frame(&mut self.stream, &out)?;
        let reply = frame::read_frame(&mut self.stream, self.max_frame_bytes)?;
        if reply.request_id != id {
            return Err(ClientError::IdMismatch {
                sent: id,
                received: reply.request_id,
            });
        }
        Ok(Response::from_frame(&reply)?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.request(Request::Ping)
    }

    /// Uploads a trace file's bytes (any of the three formats) for
    /// analysis.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn analyze(
        &mut self,
        trace: Vec<u8>,
        threshold: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(Request::Analyze { threshold, trace })
    }

    /// Uploads a trace file's bytes for analysis plus BHT allocation.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn allocate(
        &mut self,
        trace: Vec<u8>,
        threshold: Option<u64>,
        table: u64,
        classified: bool,
    ) -> Result<Response, ClientError> {
        self.request(Request::Allocate {
            threshold,
            table,
            classified,
            trace,
        })
    }

    /// Uploads a trace file's bytes for analysis and asks for the
    /// versioned RunReport of that run instead of the result summary.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn report(
        &mut self,
        trace: Vec<u8>,
        threshold: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(Request::Report { threshold, trace })
    }

    /// Uploads a trace file's bytes for windowed analysis, invoking
    /// `on_window` with each window-summary JSON document as it arrives,
    /// and returns the terminal response — for a healthy subscription,
    /// `Response::Ok` holding the same whole-trace summary
    /// [`Client::analyze`] would answer for this trace.
    ///
    /// `window` is the reset interval, counted in instructions when
    /// `instructions` is `true`, dynamic branches otherwise.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; a typed server-side error (possibly after
    /// some windows were already delivered) is `Ok(Response::Error)`.
    pub fn subscribe(
        &mut self,
        trace: Vec<u8>,
        threshold: Option<u64>,
        window: u64,
        instructions: bool,
        mut on_window: impl FnMut(&str),
    ) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let out = Request::Subscribe {
            threshold,
            window,
            instructions,
            trace,
        }
        .into_frame(id, &self.tenant);
        frame::write_frame(&mut self.stream, &out)?;
        loop {
            let reply = frame::read_frame(&mut self.stream, self.max_frame_bytes)?;
            if reply.request_id != id {
                return Err(ClientError::IdMismatch {
                    sent: id,
                    received: reply.request_id,
                });
            }
            match Response::from_frame(&reply)? {
                Response::Window(json) => on_window(&json),
                terminal => return Ok(terminal),
            }
        }
    }

    /// Asks the daemon to batch-analyze a corpus manifest on *its*
    /// filesystem (the path is server-local; nothing is uploaded) and
    /// answer with the versioned fleet summary document. `jobs` is the
    /// fan-out width on the server, 0 for serial.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn corpus(
        &mut self,
        manifest: &str,
        threshold: Option<u64>,
        jobs: u64,
    ) -> Result<Response, ClientError> {
        self.request(Request::Corpus {
            threshold,
            jobs,
            manifest: manifest.to_owned(),
        })
    }

    /// Live metrics and per-tenant counters.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn status(&mut self) -> Result<Response, ClientError> {
        self.request(Request::Status)
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.request(Request::Shutdown)
    }
}
