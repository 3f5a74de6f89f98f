//! Error type for predictor configuration.

use std::error::Error;
use std::fmt;

/// Error produced while configuring a predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PredictorError {
    /// A table size was zero or not a power of two where one is required.
    InvalidTableSize {
        /// Which table was misconfigured.
        table: &'static str,
        /// The offending size.
        size: usize,
    },
    /// A history width was outside the supported `1..=63` range.
    InvalidHistoryWidth {
        /// The offending width.
        width: u32,
    },
    /// An allocation map entry pointed outside the table.
    EntryOutOfRange {
        /// The offending entry.
        entry: u32,
        /// The table size.
        size: usize,
    },
    /// A sweep cell's simulation unwound (a panic or an injected fault);
    /// the sweep's containment boundary isolated it from the other cells.
    CellFailed {
        /// The failed cell's label (`predictor@trace`).
        label: String,
        /// Why it failed.
        reason: String,
    },
}

impl PredictorError {
    pub(crate) fn cell_failed(label: impl Into<String>, reason: impl Into<String>) -> Self {
        PredictorError::CellFailed {
            label: label.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for PredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorError::InvalidTableSize { table, size } => {
                write!(f, "invalid {table} size {size}")
            }
            PredictorError::InvalidHistoryWidth { width } => {
                write!(f, "history width {width} outside 1..=63")
            }
            PredictorError::EntryOutOfRange { entry, size } => {
                write!(f, "allocated entry {entry} outside table of size {size}")
            }
            PredictorError::CellFailed { label, reason } => {
                write!(f, "sweep cell '{label}' failed: {reason}")
            }
        }
    }
}

impl Error for PredictorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(PredictorError::InvalidTableSize {
            table: "BHT",
            size: 0
        }
        .to_string()
        .contains("BHT"));
        assert!(PredictorError::InvalidHistoryWidth { width: 99 }
            .to_string()
            .contains("99"));
        assert!(PredictorError::EntryOutOfRange { entry: 5, size: 4 }
            .to_string()
            .contains('5'));
        assert!(PredictorError::cell_failed("pag@t", "cell blew up")
            .to_string()
            .contains("cell blew up"));
    }
}
