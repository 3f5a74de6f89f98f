//! Request/response vocabulary layered on [`crate::frame`].
//!
//! A [`Frame`]'s `kind` byte picks the message type; this module encodes
//! and decodes the kind-specific bodies. Decoding is total: every
//! malformed body becomes a typed [`ProtoError`], which the server turns
//! into an [`ErrorCode::Malformed`] response on that request ID.

use crate::frame::Frame;
use std::fmt;

/// Wire discriminants for [`Frame::kind`].
pub mod kind {
    /// Liveness probe; body empty.
    pub const REQ_PING: u8 = 1;
    /// Run the analysis pipeline over an uploaded trace (any format).
    pub const REQ_ANALYZE: u8 = 2;
    /// Analyze, then allocate a predictor table over the result.
    pub const REQ_ALLOCATE: u8 = 3;
    /// Live metrics + quota/admission snapshot; body empty.
    pub const REQ_STATUS: u8 = 4;
    /// Begin graceful drain; body empty.
    pub const REQ_SHUTDOWN: u8 = 5;
    /// Analyze and answer with the versioned RunReport document.
    pub const REQ_REPORT: u8 = 6;
    /// Windowed analysis subscription: stream per-window summaries as
    /// they flush, then the whole-trace result.
    pub const REQ_SUBSCRIBE: u8 = 7;
    /// Batch-analyze a server-local corpus manifest into a fleet
    /// summary.
    pub const REQ_CORPUS: u8 = 8;
    /// Success response; body is a JSON document.
    pub const RESP_OK: u8 = 0x80;
    /// Failure response; body is code + retry-after + message.
    pub const RESP_ERROR: u8 = 0x81;
    /// One window summary of a subscription; body is a JSON document.
    /// Zero or more of these precede the terminal `RESP_OK`/`RESP_ERROR`.
    pub const RESP_WINDOW: u8 = 0x82;
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Analyze an uploaded trace.
    Analyze {
        /// Bias threshold in percent (`None` = pipeline default).
        threshold: Option<u64>,
        /// The trace file's bytes, in any of the three formats.
        trace: Vec<u8>,
    },
    /// Analyze and allocate a predictor table.
    Allocate {
        /// Bias threshold in percent (`None` = pipeline default).
        threshold: Option<u64>,
        /// Predictor table size in entries.
        table: u64,
        /// Allocate only classified (biased) branches when `true`.
        classified: bool,
        /// The trace file's bytes, in any of the three formats.
        trace: Vec<u8>,
    },
    /// Analyze and answer with the versioned RunReport (stage timings,
    /// counters, resilience record) instead of the result summary.
    Report {
        /// Bias threshold in percent (`None` = pipeline default).
        threshold: Option<u64>,
        /// The trace file's bytes, in any of the three formats.
        trace: Vec<u8>,
    },
    /// Windowed analysis of an uploaded trace: the server answers
    /// with one [`Response::Window`] frame per flushed window, then the
    /// terminal [`Response::Ok`] carrying the whole-trace summary (the
    /// same document `Analyze` would return for this trace).
    Subscribe {
        /// Bias threshold in percent (`None` = pipeline default).
        threshold: Option<u64>,
        /// Window reset interval (dynamic branches or instructions).
        window: u64,
        /// Count `window` in instructions instead of dynamic branches.
        instructions: bool,
        /// The trace file's bytes, in any of the three formats.
        trace: Vec<u8>,
    },
    /// Batch-analyze every trace named by a corpus manifest on the
    /// *server's* filesystem (manifests travel as paths, not uploads:
    /// the traces they name are already server-local) and answer with
    /// the versioned fleet summary document.
    Corpus {
        /// Conflict threshold override for every entry (`None` =
        /// per-entry manifest values).
        threshold: Option<u64>,
        /// Worker threads to fan entries across (0 = serial).
        jobs: u64,
        /// Server-local manifest path (TOML or JSON).
        manifest: String,
    },
    /// Live metrics and per-tenant counters.
    Status,
    /// Graceful drain request.
    Shutdown,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the payload is a JSON document.
    Ok(String),
    /// One window summary of a subscription (JSON). Never terminal: the
    /// server always follows with more windows, an `Ok`, or an `Error`.
    Window(String),
    /// Typed failure on this request.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// When the server suggests retrying (overload shed), in ms.
        retry_after_ms: Option<u64>,
    },
}

/// Failure classes a server can attach to an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request body could not be decoded.
    Malformed = 1,
    /// The tenant's quota (concurrency or bytes) is exhausted.
    Quota = 2,
    /// The admission queue is past its shed watermark.
    Overload = 3,
    /// The analysis itself failed (bad trace, resilience exhausted).
    Analysis = 4,
    /// An injected or unexpected fault was contained at the boundary.
    Fault = 5,
    /// The daemon is draining and not accepting new work.
    Shutdown = 6,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Quota,
            3 => ErrorCode::Overload,
            4 => ErrorCode::Analysis,
            5 => ErrorCode::Fault,
            6 => ErrorCode::Shutdown,
            _ => return None,
        })
    }

    /// Stable lower-case label (used in JSON and log lines).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Quota => "quota",
            ErrorCode::Overload => "overload",
            ErrorCode::Analysis => "analysis",
            ErrorCode::Fault => "fault",
            ErrorCode::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a frame body failed to decode into a [`Request`] or [`Response`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The frame kind byte names no known message.
    UnknownKind(u8),
    /// The body ended before a fixed-width field.
    Short {
        /// Which message kind was being decoded.
        kind: u8,
    },
    /// A textual field was not valid UTF-8.
    BadUtf8,
    /// A response carried an unknown error code.
    BadErrorCode(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            ProtoError::Short { kind } => write!(f, "body too short for kind {kind:#04x}"),
            ProtoError::BadUtf8 => f.write_str("text field is not valid UTF-8"),
            ProtoError::BadErrorCode(b) => write!(f, "unknown error code {b}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Sentinel for "no retry-after hint" in the error body.
const NO_RETRY: u64 = u64::MAX;

impl Request {
    /// The frame kind this request travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => kind::REQ_PING,
            Request::Analyze { .. } => kind::REQ_ANALYZE,
            Request::Allocate { .. } => kind::REQ_ALLOCATE,
            Request::Report { .. } => kind::REQ_REPORT,
            Request::Subscribe { .. } => kind::REQ_SUBSCRIBE,
            Request::Corpus { .. } => kind::REQ_CORPUS,
            Request::Status => kind::REQ_STATUS,
            Request::Shutdown => kind::REQ_SHUTDOWN,
        }
    }

    /// Packs this request into a frame for `tenant` under `request_id`.
    pub fn into_frame(self, request_id: u64, tenant: &str) -> Frame {
        let body = match &self {
            Request::Ping | Request::Status | Request::Shutdown => Vec::new(),
            Request::Analyze { threshold, trace } | Request::Report { threshold, trace } => {
                let mut b = Vec::with_capacity(8 + trace.len());
                b.extend_from_slice(&threshold.unwrap_or(0).to_le_bytes());
                b.extend_from_slice(trace);
                b
            }
            Request::Allocate {
                threshold,
                table,
                classified,
                trace,
            } => {
                let mut b = Vec::with_capacity(17 + trace.len());
                b.extend_from_slice(&threshold.unwrap_or(0).to_le_bytes());
                b.extend_from_slice(&table.to_le_bytes());
                b.push(u8::from(*classified));
                b.extend_from_slice(trace);
                b
            }
            Request::Subscribe {
                threshold,
                window,
                instructions,
                trace,
            } => {
                let mut b = Vec::with_capacity(17 + trace.len());
                b.extend_from_slice(&threshold.unwrap_or(0).to_le_bytes());
                b.extend_from_slice(&window.to_le_bytes());
                b.push(u8::from(*instructions));
                b.extend_from_slice(trace);
                b
            }
            Request::Corpus {
                threshold,
                jobs,
                manifest,
            } => {
                let mut b = Vec::with_capacity(16 + manifest.len());
                b.extend_from_slice(&threshold.unwrap_or(0).to_le_bytes());
                b.extend_from_slice(&jobs.to_le_bytes());
                b.extend_from_slice(manifest.as_bytes());
                b
            }
        };
        Frame {
            request_id,
            kind: self.kind(),
            tenant: tenant.to_owned(),
            body,
        }
    }

    /// Decodes a request out of `frame`.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when the kind is unknown or the body is short.
    pub fn from_frame(frame: &Frame) -> Result<Self, ProtoError> {
        let body = &frame.body;
        match frame.kind {
            kind::REQ_PING => Ok(Request::Ping),
            kind::REQ_STATUS => Ok(Request::Status),
            kind::REQ_SHUTDOWN => Ok(Request::Shutdown),
            kind::REQ_ANALYZE | kind::REQ_REPORT => {
                if body.len() < 8 {
                    return Err(ProtoError::Short { kind: frame.kind });
                }
                let threshold = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                let threshold = (threshold != 0).then_some(threshold);
                let trace = body[8..].to_vec();
                Ok(if frame.kind == kind::REQ_REPORT {
                    Request::Report { threshold, trace }
                } else {
                    Request::Analyze { threshold, trace }
                })
            }
            kind::REQ_ALLOCATE => {
                if body.len() < 17 {
                    return Err(ProtoError::Short { kind: frame.kind });
                }
                let threshold = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                let table = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                Ok(Request::Allocate {
                    threshold: (threshold != 0).then_some(threshold),
                    table,
                    classified: body[16] != 0,
                    trace: body[17..].to_vec(),
                })
            }
            kind::REQ_SUBSCRIBE => {
                if body.len() < 17 {
                    return Err(ProtoError::Short { kind: frame.kind });
                }
                let threshold = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                let window = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                Ok(Request::Subscribe {
                    threshold: (threshold != 0).then_some(threshold),
                    window,
                    instructions: body[16] != 0,
                    trace: body[17..].to_vec(),
                })
            }
            kind::REQ_CORPUS => {
                if body.len() < 16 {
                    return Err(ProtoError::Short { kind: frame.kind });
                }
                let threshold = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                let jobs = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                let manifest = std::str::from_utf8(&body[16..])
                    .map_err(|_| ProtoError::BadUtf8)?
                    .to_owned();
                Ok(Request::Corpus {
                    threshold: (threshold != 0).then_some(threshold),
                    jobs,
                    manifest,
                })
            }
            other => Err(ProtoError::UnknownKind(other)),
        }
    }
}

impl Response {
    /// Packs this response into a frame echoing `request_id` for `tenant`.
    pub fn into_frame(self, request_id: u64, tenant: &str) -> Frame {
        match self {
            Response::Ok(json) => Frame {
                request_id,
                kind: kind::RESP_OK,
                tenant: tenant.to_owned(),
                body: json.into_bytes(),
            },
            Response::Window(json) => Frame {
                request_id,
                kind: kind::RESP_WINDOW,
                tenant: tenant.to_owned(),
                body: json.into_bytes(),
            },
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                let mut body = Vec::with_capacity(9 + message.len());
                body.push(code as u8);
                body.extend_from_slice(&retry_after_ms.unwrap_or(NO_RETRY).to_le_bytes());
                body.extend_from_slice(message.as_bytes());
                Frame {
                    request_id,
                    kind: kind::RESP_ERROR,
                    tenant: tenant.to_owned(),
                    body,
                }
            }
        }
    }

    /// Decodes a response out of `frame`.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when the kind is not a response or the body is
    /// malformed.
    pub fn from_frame(frame: &Frame) -> Result<Self, ProtoError> {
        match frame.kind {
            kind::RESP_OK => Ok(Response::Ok(
                String::from_utf8(frame.body.clone()).map_err(|_| ProtoError::BadUtf8)?,
            )),
            kind::RESP_WINDOW => Ok(Response::Window(
                String::from_utf8(frame.body.clone()).map_err(|_| ProtoError::BadUtf8)?,
            )),
            kind::RESP_ERROR => {
                let body = &frame.body;
                if body.len() < 9 {
                    return Err(ProtoError::Short { kind: frame.kind });
                }
                let code = ErrorCode::from_u8(body[0]).ok_or(ProtoError::BadErrorCode(body[0]))?;
                let retry = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
                let message = std::str::from_utf8(&body[9..])
                    .map_err(|_| ProtoError::BadUtf8)?
                    .to_owned();
                Ok(Response::Error {
                    code,
                    message,
                    retry_after_ms: (retry != NO_RETRY).then_some(retry),
                })
            }
            other => Err(ProtoError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_frames() {
        let cases = [
            Request::Ping,
            Request::Status,
            Request::Shutdown,
            Request::Analyze {
                threshold: None,
                trace: vec![1, 2, 3],
            },
            Request::Analyze {
                threshold: Some(95),
                trace: Vec::new(),
            },
            Request::Allocate {
                threshold: Some(90),
                table: 512,
                classified: true,
                trace: vec![9; 32],
            },
            Request::Report {
                threshold: Some(85),
                trace: vec![4, 5, 6],
            },
            Request::Report {
                threshold: None,
                trace: Vec::new(),
            },
            Request::Subscribe {
                threshold: Some(80),
                window: 4096,
                instructions: false,
                trace: vec![7; 16],
            },
            Request::Subscribe {
                threshold: None,
                window: 1,
                instructions: true,
                trace: Vec::new(),
            },
            Request::Corpus {
                threshold: Some(50),
                jobs: 4,
                manifest: "/srv/corpus.toml".into(),
            },
            Request::Corpus {
                threshold: None,
                jobs: 0,
                manifest: String::new(),
            },
        ];
        for (i, req) in cases.into_iter().enumerate() {
            let frame = req.clone().into_frame(i as u64, "acme");
            assert_eq!(frame.request_id, i as u64);
            assert_eq!(frame.tenant, "acme");
            assert_eq!(Request::from_frame(&frame).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip_including_retry_hints() {
        for resp in [
            Response::Ok("{\"x\":1}".into()),
            Response::Window("{\"index\":0}".into()),
            Response::Error {
                code: ErrorCode::Overload,
                message: "queue full".into(),
                retry_after_ms: Some(125),
            },
            Response::Error {
                code: ErrorCode::Fault,
                message: "contained panic".into(),
                retry_after_ms: None,
            },
        ] {
            let frame = resp.clone().into_frame(42, "t");
            assert_eq!(Response::from_frame(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_bodies_decode_to_typed_errors() {
        let short = Frame {
            request_id: 1,
            kind: kind::REQ_ANALYZE,
            tenant: String::new(),
            body: vec![0; 4],
        };
        assert!(matches!(
            Request::from_frame(&short),
            Err(ProtoError::Short { .. })
        ));
        let short_subscribe = Frame {
            request_id: 1,
            kind: kind::REQ_SUBSCRIBE,
            tenant: String::new(),
            body: vec![0; 16],
        };
        assert!(matches!(
            Request::from_frame(&short_subscribe),
            Err(ProtoError::Short { .. })
        ));
        let short_corpus = Frame {
            request_id: 1,
            kind: kind::REQ_CORPUS,
            tenant: String::new(),
            body: vec![0; 15],
        };
        assert!(matches!(
            Request::from_frame(&short_corpus),
            Err(ProtoError::Short { .. })
        ));
        let bad_utf8_corpus = Frame {
            request_id: 1,
            kind: kind::REQ_CORPUS,
            tenant: String::new(),
            body: {
                let mut b = vec![0; 16];
                b.extend_from_slice(&[0xff, 0xfe]);
                b
            },
        };
        assert!(matches!(
            Request::from_frame(&bad_utf8_corpus),
            Err(ProtoError::BadUtf8)
        ));
        let unknown = Frame {
            request_id: 1,
            kind: 0x7f,
            tenant: String::new(),
            body: Vec::new(),
        };
        assert!(matches!(
            Request::from_frame(&unknown),
            Err(ProtoError::UnknownKind(0x7f))
        ));
        let bad_code = Frame {
            request_id: 1,
            kind: kind::RESP_ERROR,
            tenant: String::new(),
            body: {
                let mut b = vec![99u8];
                b.extend_from_slice(&0u64.to_le_bytes());
                b
            },
        };
        assert!(matches!(
            Response::from_frame(&bad_code),
            Err(ProtoError::BadErrorCode(99))
        ));
    }
}
