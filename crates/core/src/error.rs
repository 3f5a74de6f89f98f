//! Error types for the analysis pipeline.
//!
//! [`CoreError`] covers failures originating in this crate;
//! [`Error`] is the workspace-wide unification every layer's error
//! converts into, so `Session` methods and multi-crate pipelines can
//! return one `Result` type.

use bwsa_graph::GraphError;
use bwsa_predictor::PredictorError;
use bwsa_resilience::supervisor::ResilienceError;
use bwsa_trace::TraceError;
use std::fmt;

/// Error produced by analysis configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value was out of range.
    InvalidConfig {
        /// Description of the offending value.
        reason: String,
    },
}

impl CoreError {
    pub(crate) fn config(reason: impl Into<String>) -> Self {
        CoreError::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => write!(f, "invalid analysis config: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// The workspace-wide error: every layer's failure mode, unified.
///
/// [`crate::Session`] methods and anything else that crosses crate
/// boundaries return this, so callers match on one type instead of
/// plumbing four. The enum is `#[non_exhaustive]`: new layers can join
/// without a breaking change, so always keep a `_ => ...` arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Analysis configuration failed.
    Core(CoreError),
    /// Trace ingestion, decoding, or streaming failed.
    Trace(TraceError),
    /// Conflict-graph construction failed.
    Graph(GraphError),
    /// Predictor construction or simulation failed.
    Predictor(PredictorError),
    /// A supervised run exhausted its degradation ladder: every rung
    /// failed and this is the last rung's fault.
    Resilience(ResilienceError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Trace(e) => write!(f, "trace error: {e}"),
            Error::Graph(e) => write!(f, "graph error: {e}"),
            Error::Predictor(e) => write!(f, "predictor error: {e}"),
            Error::Resilience(e) => write!(f, "resilience error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::Predictor(e) => Some(e),
            Error::Resilience(e) => Some(e),
        }
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<PredictorError> for Error {
    fn from(e: PredictorError) -> Self {
        Error::Predictor(e)
    }
}

impl From<ResilienceError> for Error {
    fn from(e: ResilienceError) -> Self {
        Error::Resilience(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_reason() {
        assert!(CoreError::config("bad threshold")
            .to_string()
            .contains("bad threshold"));
    }

    #[test]
    fn unified_error_wraps_every_layer() {
        use std::error::Error as _;
        let core: Error = CoreError::config("x").into();
        assert!(core.to_string().contains("invalid analysis config"));
        assert!(core.source().is_some());
        let trace: Error = TraceError::format("bad byte").into();
        assert!(trace.to_string().contains("trace error"));
        let graph: Error = GraphError::SelfLoop { node: 3 }.into();
        assert!(graph.to_string().contains("graph error"));
        let predictor: Error = PredictorError::InvalidTableSize {
            table: "BHT",
            size: 0,
        }
        .into();
        assert!(predictor.to_string().contains("predictor error"));
    }
}
