//! The daemon-level error taxonomy, folded into the [`SimError`]
//! conventions: typed, `Clone`/`PartialEq`, `non_exhaustive`, rendered
//! by `Display`, and carried over the wire as a structured
//! `{"ok":false,"error":{"kind":...,"message":...}}` response instead
//! of a panic or a dropped connection.

use asd_sim::SimError;
use std::fmt;

/// Everything that can go wrong between a client request and a job
/// result.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The daemon could not bind its listen address.
    Bind {
        /// The `host:port` that failed.
        addr: String,
        /// The OS error text.
        message: String,
    },
    /// A request frame was not valid protocol input: bad framing, bad
    /// JSON, an unknown `op`, or a spec that fails validation.
    MalformedRequest {
        /// What was wrong with it.
        message: String,
    },
    /// A job id that the table has never issued.
    UnknownJob {
        /// The id the client asked about.
        id: u64,
    },
    /// The bounded job queue is full; resubmit later.
    Busy {
        /// Jobs currently queued.
        depth: usize,
        /// The configured queue cap.
        cap: usize,
    },
    /// The daemon is draining for shutdown and refuses new work.
    ShuttingDown,
    /// A connection-level I/O failure (read/write/accept).
    Io {
        /// What the daemon was doing.
        context: String,
        /// The OS error text.
        message: String,
    },
    /// A job failed inside the simulator.
    Sim(SimError),
}

impl ServeError {
    /// Stable machine-readable discriminant used in wire responses and
    /// matched by clients (`error.kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Bind { .. } => "bind",
            ServeError::MalformedRequest { .. } => "malformed",
            ServeError::UnknownJob { .. } => "unknown-job",
            ServeError::Busy { .. } => "busy",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Io { .. } => "io",
            ServeError::Sim(_) => "sim",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, message } => {
                write!(f, "could not bind {addr}: {message}")
            }
            ServeError::MalformedRequest { message } => {
                write!(f, "malformed request: {message}")
            }
            ServeError::UnknownJob { id } => write!(f, "unknown job id {id}"),
            ServeError::Busy { depth, cap } => {
                write!(f, "server busy: {depth} jobs queued (cap {cap})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Io { context, message } => write!(f, "{context}: {message}"),
            ServeError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let all = [
            ServeError::Bind { addr: "x:1".into(), message: "m".into() }.kind(),
            ServeError::MalformedRequest { message: "m".into() }.kind(),
            ServeError::UnknownJob { id: 7 }.kind(),
            ServeError::Busy { depth: 9, cap: 8 }.kind(),
            ServeError::ShuttingDown.kind(),
            ServeError::Io { context: "c".into(), message: "m".into() }.kind(),
            ServeError::Sim(SimError::UnknownProfile { name: "x".into() }).kind(),
        ];
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "kinds must be distinct");
    }

    #[test]
    fn display_carries_context() {
        let e = ServeError::Busy { depth: 65, cap: 64 };
        assert!(e.to_string().contains("65"));
        assert!(e.to_string().contains("64"));
        let e = ServeError::UnknownJob { id: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn sim_errors_fold_in_and_chain() {
        let e: ServeError = SimError::UnknownProfile { name: "zeus".into() }.into();
        assert_eq!(e.kind(), "sim");
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("zeus"));
    }
}
