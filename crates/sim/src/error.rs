//! The simulator-level error taxonomy.
//!
//! Library paths in this crate return [`SimError`] instead of panicking
//! (lint D005): figure drivers surface bad benchmark names, invalid ASD
//! configurations, and degenerate run lengths to their caller, so the
//! bench binary and examples can report them instead of aborting.

use asd_core::ConfigError;
use std::fmt;
use std::path::PathBuf;

/// Error produced by the figure drivers and SLH studies.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A benchmark name did not match any workload profile.
    UnknownProfile {
        /// The name that failed to resolve (case-sensitive, as printed in
        /// the paper's figures).
        name: String,
    },
    /// An engine name matched neither a built-in engine nor a registered
    /// zoo engine.
    UnknownEngine {
        /// The name that failed to resolve.
        name: String,
        /// Every name the registry does know, for the error message.
        known: Vec<String>,
    },
    /// An [`AsdConfig`](asd_core::AsdConfig) failed validation.
    InvalidConfig(ConfigError),
    /// A run was too short to complete even one ASD epoch, so there is no
    /// histogram to report.
    NoEpochs {
        /// Benchmark being replayed.
        benchmark: String,
        /// The access budget that proved insufficient.
        accesses: u64,
    },
    /// A figure name matched no entry in the regeneration catalog
    /// ([`crate::figures::figure_text`]).
    UnknownFigure {
        /// The name that failed to resolve (`fig2`..`fig16`, `cost`,
        /// `sched`, `smt`, `ablations`).
        name: String,
    },
    /// A trace file could not be recorded or replayed: an I/O failure, a
    /// corrupt or truncated ASDT container, or a recording whose shape
    /// (threads, accesses, line size) does not match the run.
    ///
    /// Carries the rendered [`asd_traceio::TraceIoError`] (or mismatch
    /// description) as a string so `SimError` keeps `Clone`/`Eq`.
    TraceIo {
        /// The trace file involved.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// An environment variable the simulator reads is set to a value it
    /// does not accept (`ASD_SWEEP_THREADS=0`, say).
    InvalidEnv {
        /// The variable.
        var: String,
        /// Its value, as set (lossily decoded when it is not Unicode).
        value: String,
        /// What the variable accepts.
        expected: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownProfile { name } => {
                write!(f, "unknown benchmark profile `{name}` (see asd_trace::suites)")
            }
            SimError::UnknownEngine { name, known } => {
                write!(f, "unknown prefetch engine `{name}` (known: {})", known.join(", "))
            }
            SimError::InvalidConfig(e) => write!(f, "invalid ASD configuration: {e}"),
            SimError::UnknownFigure { name } => {
                write!(f, "unknown figure `{name}` (see asd_sim::figures::figure_text)")
            }
            SimError::NoEpochs { benchmark, accesses } => {
                write!(
                    f,
                    "{accesses} accesses of `{benchmark}` completed no ASD epoch; \
                     increase the access budget"
                )
            }
            SimError::TraceIo { path, message } => {
                write!(f, "trace file {}: {message}", path.display())
            }
            SimError::InvalidEnv { var, value, expected } => {
                write!(f, "invalid {var}=`{value}`: expected {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::InvalidConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_engine() {
        let e = SimError::UnknownEngine {
            name: "warp-drive".into(),
            known: vec!["asd".into(), "stride".into()],
        };
        assert!(e.to_string().contains("warp-drive"));
        assert!(e.to_string().contains("asd, stride"));
    }

    #[test]
    fn display_unknown_profile() {
        let e = SimError::UnknownProfile { name: "GemsFTDT".into() };
        assert!(e.to_string().contains("GemsFTDT"));
    }

    #[test]
    fn config_error_converts_and_chains() {
        let e: SimError = ConfigError::Zero { field: "epoch_reads" }.into();
        assert!(matches!(e, SimError::InvalidConfig(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_trace_io() {
        let e = SimError::TraceIo { path: PathBuf::from("/tmp/t.asdt"), message: "boom".into() };
        assert!(e.to_string().contains("t.asdt"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn display_invalid_env() {
        let e = SimError::InvalidEnv {
            var: "ASD_SWEEP_THREADS".into(),
            value: "lots".into(),
            expected: "a positive integer".into(),
        };
        assert_eq!(e.to_string(), "invalid ASD_SWEEP_THREADS=`lots`: expected a positive integer");
    }

    #[test]
    fn display_no_epochs() {
        let e = SimError::NoEpochs { benchmark: "milc".into(), accesses: 100 };
        assert!(e.to_string().contains("milc"));
        assert!(e.to_string().contains("100"));
    }
}
