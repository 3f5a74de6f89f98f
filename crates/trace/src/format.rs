//! The one place that tells the trace encodings apart.
//!
//! Three encodings share the workspace, and each file names its own in
//! its first four bytes:
//!
//! | [`Format`] | magic  | name    | extension | module             |
//! |------------|--------|---------|-----------|--------------------|
//! | `Bwst`     | `BWST` | `bwst`  | `.bwst`   | [`crate::io`]       |
//! | `Bwss`     | `BWSS` | `bwss`  | `.bwss`   | [`crate::stream`]   |
//! | `Bwss3`    | `BWS3` | `bwss3` | `.bws3`   | [`crate::columnar`] |
//!
//! [`decode`] reads any of them into a [`Trace`] and [`Format::write`]
//! writes any of them, so the CLI, the corpus runner and the daemon
//! carry no format logic of their own.
//!
//! # Example
//!
//! ```
//! use bwsa_trace::stream::RecoveryPolicy;
//! use bwsa_trace::{decode, Format, TraceBuilder};
//!
//! # fn main() -> Result<(), bwsa_trace::TraceError> {
//! let mut b = TraceBuilder::new("tiny");
//! b.record(0x400, true, 5).record(0x404, false, 9);
//! let trace = b.finish();
//! for format in Format::ALL {
//!     let mut bytes = Vec::new();
//!     format.write(&trace, &mut bytes)?;
//!     assert_eq!(Format::sniff(&bytes)?, format);
//!     let (back, report) = decode(&bytes, RecoveryPolicy::Strict)?;
//!     assert_eq!(back.records(), trace.records());
//!     assert_eq!(report.records_recovered, 2);
//! }
//! # Ok(())
//! # }
//! ```

use crate::stream::{self, RecoveryPolicy, SalvageReport, StreamReader, StreamWriter};
use crate::{columnar, io, Trace, TraceError};
use std::io::Write;
use std::path::Path;

/// An on-disk trace encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `BWST`: the whole-trace binary of [`crate::io`].
    Bwst,
    /// `BWSS`: the chunked, checksummed stream of [`crate::stream`].
    Bwss,
    /// `BWS3`: the columnar block file of [`crate::columnar`].
    Bwss3,
}

impl Format {
    /// Every format, in the order names and messages list them.
    pub const ALL: [Format; 3] = [Format::Bwst, Format::Bwss, Format::Bwss3];

    /// The four bytes every file of this format starts with.
    fn magic(self) -> &'static [u8; 4] {
        match self {
            Format::Bwst => io::MAGIC,
            Format::Bwss => stream::MAGIC,
            Format::Bwss3 => columnar::MAGIC,
        }
    }

    /// The format's name on the command line (`--format`).
    pub fn name(self) -> &'static str {
        match self {
            Format::Bwst => "bwst",
            Format::Bwss => "bwss",
            Format::Bwss3 => "bwss3",
        }
    }

    /// The file extension, without the dot, that names this format.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Bwst => "bwst",
            Format::Bwss => "bwss",
            Format::Bwss3 => "bws3",
        }
    }

    /// The format called `name` (see [`Format::name`]).
    pub fn by_name(name: &str) -> Option<Format> {
        Format::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The format `path`'s extension names (see [`Format::extension`]).
    pub fn by_extension(path: &Path) -> Option<Format> {
        let ext = path.extension()?.to_str()?;
        Format::ALL.into_iter().find(|f| f.extension() == ext)
    }

    /// The format whose magic `bytes` start with.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when `bytes` are shorter than a
    /// magic or start with none of the three.
    pub fn sniff(bytes: &[u8]) -> Result<Format, TraceError> {
        let Some(magic) = bytes.get(..4) else {
            return Err(TraceError::format_at(
                format!("{} bytes is too short for a trace magic", bytes.len()),
                0,
            ));
        };
        Format::ALL
            .into_iter()
            .find(|f| f.magic() == magic)
            .ok_or_else(|| {
                TraceError::format_at(
                    "unrecognised trace format (expected BWST, BWSS, or BWS3 magic)",
                    0,
                )
            })
    }

    /// Writes `trace` to `sink` in this format. Every format round-trips
    /// through [`decode`] record for record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn write<W: Write>(self, trace: &Trace, sink: W) -> Result<(), TraceError> {
        match self {
            Format::Bwst => io::write_binary(trace, sink),
            Format::Bwss => {
                let mut writer = StreamWriter::new(sink, &trace.meta().name)?;
                for record in trace.records() {
                    writer.push(*record)?;
                }
                writer.finish(trace.meta().total_instructions)
            }
            Format::Bwss3 => columnar::write_columnar(trace, sink),
        }
    }
}

/// Decodes a trace in whichever format its magic names.
///
/// `policy` meets damage the way each format's own reader does:
/// [`RecoveryPolicy::Salvage`] drops damaged `BWSS` chunks and `BWSS3`
/// blocks and tallies them in the report. `BWST` carries no checksums to
/// salvage by, so it always decodes strictly and reports its records
/// and no chunks.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for input with no known magic, and
/// otherwise the errors of [`io::decode_binary`], [`StreamReader`] and
/// [`columnar::read_columnar`].
pub fn decode(bytes: &[u8], policy: RecoveryPolicy) -> Result<(Trace, SalvageReport), TraceError> {
    match Format::sniff(bytes)? {
        Format::Bwst => {
            let trace = io::decode_binary(bytes)?;
            let report = SalvageReport {
                records_recovered: trace.len() as u64,
                ..SalvageReport::default()
            };
            Ok((trace, report))
        }
        Format::Bwss => {
            let mut reader = StreamReader::with_recovery(bytes, policy)?;
            let mut trace = Trace::new(reader.name().to_owned());
            for record in reader.by_ref() {
                trace.push(record?)?;
            }
            if let Some(total) = reader.total_instructions() {
                trace.meta_mut().total_instructions = total;
            }
            Ok((trace, reader.salvage_report().clone()))
        }
        Format::Bwss3 => columnar::read_columnar(bytes, policy),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("fmt");
        for i in 0..5000u64 {
            b.record(0x4000 + (i * 7 % 13) * 4, i % 3 == 0, 3 * i + 1);
        }
        b.total_instructions(20_000);
        b.finish()
    }

    #[test]
    fn every_format_round_trips_through_decode_and_sniffs_as_itself() {
        let trace = sample();
        for format in Format::ALL {
            let mut bytes = Vec::new();
            format.write(&trace, &mut bytes).unwrap();
            assert_eq!(Format::sniff(&bytes).unwrap(), format);
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
                let (back, report) = decode(&bytes, policy).unwrap();
                assert_eq!(back, trace, "{format:?} {policy:?}");
                assert!(report.clean(), "{format:?}: {report}");
                assert_eq!(report.records_recovered, 5000, "{format:?}");
            }
        }
    }

    #[test]
    fn names_and_extensions_round_trip() {
        for format in Format::ALL {
            assert_eq!(Format::by_name(format.name()), Some(format));
            let file = format!("trace.{}", format.extension());
            assert_eq!(Format::by_extension(Path::new(&file)), Some(format));
        }
        assert_eq!(Format::by_name("bws3"), None);
        assert_eq!(Format::by_extension(Path::new("trace.txt")), None);
        assert_eq!(Format::by_extension(Path::new("trace")), None);
    }

    #[test]
    fn short_or_unknown_magic_is_a_format_error() {
        for bytes in [&b""[..], b"BWS", b"BWSX and more", b"\x7fELF\x02\x01"] {
            for result in [
                Format::sniff(bytes).map(|_| ()),
                decode(bytes, RecoveryPolicy::Salvage).map(|_| ()),
            ] {
                assert!(
                    matches!(
                        result,
                        Err(TraceError::Format {
                            offset: Some(0),
                            ..
                        })
                    ),
                    "{bytes:?}: {result:?}"
                );
            }
        }
    }
}
