//! The BWSF wire format: length-prefixed, CRC-checked frames with
//! request IDs and tenant attribution.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! magic   4  b"BWSF"
//! length  4  u32 LE, payload byte count (bounded by the receiver)
//! payload    request_id u64 LE
//!            kind       u8          (see [`crate::proto`])
//!            tenant_len u16 LE
//!            tenant     UTF-8 bytes
//!            body       the rest
//! crc32   4  u32 LE over the payload (same polynomial as BWSS2 chunks)
//! ```
//!
//! The length prefix lets a reader pre-check the frame against its
//! configured ceiling *before* allocating, so an adversarial or corrupt
//! length cannot balloon memory; the trailing CRC rejects torn or
//! bit-flipped payloads with a typed [`FrameError`] instead of letting
//! garbage reach the dispatcher.

use bwsa_trace::codec::crc32;
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte frame magic.
pub const FRAME_MAGIC: [u8; 4] = *b"BWSF";

/// Default ceiling on one frame's payload (64 MiB) — generous for a
/// trace upload, small enough that a corrupt length cannot OOM the
/// daemon.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Minimum payload: request id + kind + tenant length.
const MIN_PAYLOAD_BYTES: usize = 8 + 1 + 2;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Caller-chosen request correlation ID; responses echo it.
    pub request_id: u64,
    /// Message kind discriminant (see [`crate::proto::kind`]).
    pub kind: u8,
    /// The tenant this frame belongs to (empty = anonymous).
    pub tenant: String,
    /// Kind-specific body bytes.
    pub body: Vec<u8>,
}

/// Why a frame could not be read or written.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The stream did not start with the BWSF magic.
    BadMagic([u8; 4]),
    /// The declared payload length exceeds the receiver's ceiling.
    Oversize {
        /// Declared payload length.
        declared: usize,
        /// The receiver's configured ceiling.
        limit: usize,
    },
    /// The declared payload length is too small to hold a header.
    Undersize(usize),
    /// The payload CRC did not match.
    BadChecksum {
        /// CRC computed over the received payload.
        computed: u32,
        /// CRC carried by the frame.
        stored: u32,
    },
    /// The tenant field was not valid UTF-8.
    BadTenant,
    /// The tenant length field pointed past the payload end.
    Truncated,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?} (expected BWSF)"),
            FrameError::Oversize { declared, limit } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            FrameError::Undersize(n) => write!(f, "frame payload of {n} bytes is too short"),
            FrameError::BadChecksum { computed, stored } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {computed:08x}, stored {stored:08x}"
                )
            }
            FrameError::BadTenant => write!(f, "frame tenant is not valid UTF-8"),
            FrameError::Truncated => write!(f, "frame payload truncated mid-field"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is a read timeout (the socket's read deadline
    /// expired with no data) rather than a real failure — the server's
    /// idle loop treats these as "check the drain flag and keep
    /// waiting".
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }

    /// Whether the peer hung up cleanly before any frame byte arrived.
    pub fn is_disconnect(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

/// Serialises `frame` onto `w` in BWSF wire format.
///
/// # Errors
///
/// [`FrameError::Io`] when the sink fails, [`FrameError::Oversize`] when
/// the frame would exceed `u32` length encoding.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), FrameError> {
    let payload_len = MIN_PAYLOAD_BYTES + frame.tenant.len() + frame.body.len();
    if payload_len > u32::MAX as usize {
        return Err(FrameError::Oversize {
            declared: payload_len,
            limit: u32::MAX as usize,
        });
    }
    if frame.tenant.len() > u16::MAX as usize {
        return Err(FrameError::BadTenant);
    }
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&frame.request_id.to_le_bytes());
    payload.push(frame.kind);
    payload.extend_from_slice(&(frame.tenant.len() as u16).to_le_bytes());
    payload.extend_from_slice(frame.tenant.as_bytes());
    payload.extend_from_slice(&frame.body);
    w.write_all(&FRAME_MAGIC)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.write_all(&crc32(&payload).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`, rejecting payloads above `max_payload`.
///
/// # Errors
///
/// Every decode failure is a typed [`FrameError`]; a read timeout before
/// the first magic byte surfaces as [`FrameError::Io`] with
/// `is_timeout() == true` so idle-polling readers can distinguish "no
/// traffic yet" from "broken peer".
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, FrameError> {
    let mut magic = [0u8; 4];
    read_exact_eof(r, &mut magic)?;
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut len_bytes = [0u8; 4];
    read_exact_eof(r, &mut len_bytes)?;
    let declared = u32::from_le_bytes(len_bytes) as usize;
    if declared > max_payload {
        return Err(FrameError::Oversize {
            declared,
            limit: max_payload,
        });
    }
    if declared < MIN_PAYLOAD_BYTES {
        return Err(FrameError::Undersize(declared));
    }
    let mut payload = vec![0u8; declared];
    read_exact_eof(r, &mut payload)?;
    let mut crc_bytes = [0u8; 4];
    read_exact_eof(r, &mut crc_bytes)?;
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::BadChecksum { computed, stored });
    }
    let request_id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let kind = payload[8];
    let tenant_len = u16::from_le_bytes(payload[9..11].try_into().expect("2 bytes")) as usize;
    let tenant_end = MIN_PAYLOAD_BYTES + tenant_len;
    if tenant_end > payload.len() {
        return Err(FrameError::Truncated);
    }
    let tenant = std::str::from_utf8(&payload[MIN_PAYLOAD_BYTES..tenant_end])
        .map_err(|_| FrameError::BadTenant)?
        .to_owned();
    let body = payload[tenant_end..].to_vec();
    Ok(Frame {
        request_id,
        kind,
        tenant,
        body,
    })
}

/// `read_exact` that keeps retrying across read-timeout boundaries *once
/// the frame has started*, so a frame straddling two timeout windows is
/// not misread as truncated. A timeout before the first byte of `buf`
/// propagates (the caller's idle loop handles it).
fn read_exact_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e)
                if filled > 0
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted) =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).unwrap();
        read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        for frame in [
            Frame {
                request_id: 0,
                kind: 1,
                tenant: String::new(),
                body: Vec::new(),
            },
            Frame {
                request_id: u64::MAX,
                kind: 0x81,
                tenant: "tenant-α".into(),
                body: vec![0, 1, 2, 255, 254],
            },
        ] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn corruption_is_a_typed_checksum_error() {
        let frame = Frame {
            request_id: 7,
            kind: 2,
            tenant: "t".into(),
            body: vec![9; 64],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let flip = wire.len() / 2;
        wire[flip] ^= 0x40;
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            Err(FrameError::BadChecksum { .. }) => {}
            other => panic!("expected a checksum error, got {other:?}"),
        }
    }

    #[test]
    fn oversize_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut wire.as_slice(), 1024) {
            Err(FrameError::Oversize { declared, limit }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        let mut wire = b"NOPE".to_vec();
        wire.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(FrameError::BadMagic(_))
        ));

        let frame = Frame {
            request_id: 1,
            kind: 1,
            tenant: "abc".into(),
            body: vec![1, 2, 3],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        wire.truncate(wire.len() - 5);
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(err.is_disconnect(), "mid-frame EOF: {err}");

        // A tenant length pointing past the payload is Truncated, not a
        // slice panic.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&500u16.to_le_bytes());
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(FrameError::Truncated)
        ));
    }
}
