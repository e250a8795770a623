//! The workspace-wide error type.
//!
//! The paper's results come off a fallible lab bench: 12 of the 32
//! tested chips are partially or fully dead (Table IV), the ≈ 17 Hz I²C
//! monitors glitch often enough that every reported number is a
//! 128-sample mean (§III-A), and multi-minute measurement campaigns
//! survive browning-out supplies. [`PitonError`] is the single currency
//! every layer of the reproduction uses to report those failures
//! instead of panicking: the board crate returns it from measurement
//! statistics, and the sweep runner wraps it per grid point so one bad
//! point never aborts a whole section.
//!
//! # Examples
//!
//! ```
//! use piton_arch::error::PitonError;
//!
//! let e = PitonError::SeedNotFound { lo: 0, hi: 1_000_000 };
//! assert_eq!(
//!     e.to_string(),
//!     "no seed in 0..1000000 reproduces the Table IV counts"
//! );
//! assert!(!e.is_transient());
//! assert!(PitonError::transient("supply glitch").is_transient());
//! ```

/// Every recoverable failure the reproduction can report.
///
/// Variants carry plain data so the type can live in the bottom crate
/// of the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PitonError {
    /// A statistic was requested of an empty measurement window (every
    /// sample was dropped or rejected).
    EmptyWindow {
        /// What was being measured.
        context: &'static str,
    },
    /// A trendline fit was requested over too few or degenerate points.
    DegenerateFit {
        /// Points available.
        points: usize,
        /// Why the fit is impossible.
        reason: &'static str,
    },
    /// A population seed search exhausted its range without reproducing
    /// the Table IV counts.
    SeedNotFound {
        /// Inclusive lower bound of the searched range.
        lo: u64,
        /// Exclusive upper bound of the searched range.
        hi: u64,
    },
    /// A transient bench fault (dropped I²C read, supply glitch,
    /// injected flaky point) — worth retrying with a fresh seed.
    Transient {
        /// What failed.
        what: String,
    },
    /// A deterministic injected fault — retrying cannot help.
    Injected {
        /// What was injected.
        what: String,
    },
    /// An operation targeted a disabled resource (e.g. loading a
    /// program onto a fused-off core).
    Disabled {
        /// What was addressed.
        what: String,
    },
    /// A fault-plan or argument string failed to parse.
    BadPlan {
        /// What was wrong with it.
        what: String,
    },
    /// A machine-readable artifact (run manifest, journal record,
    /// trace line) failed to decode — truncated, torn, or garbage
    /// input. Never transient: re-reading the same bytes cannot help.
    Codec {
        /// What failed to decode and why.
        what: String,
    },
}

impl PitonError {
    /// Shorthand for a transient (retryable) failure.
    #[must_use]
    pub fn transient(what: impl Into<String>) -> Self {
        PitonError::Transient { what: what.into() }
    }

    /// Shorthand for a deterministic injected failure.
    #[must_use]
    pub fn injected(what: impl Into<String>) -> Self {
        PitonError::Injected { what: what.into() }
    }

    /// Shorthand for a decode failure on a machine-readable artifact.
    #[must_use]
    pub fn codec(what: impl Into<String>) -> Self {
        PitonError::Codec { what: what.into() }
    }

    /// Whether a retry (with a fresh per-point seed) can plausibly
    /// succeed. The sweep runner only re-runs grid points whose failure
    /// is transient.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, PitonError::Transient { .. })
    }
}

impl std::fmt::Display for PitonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PitonError::EmptyWindow { context } => {
                write!(f, "empty measurement window while measuring {context}")
            }
            PitonError::DegenerateFit { points, reason } => {
                write!(f, "cannot fit a trendline over {points} point(s): {reason}")
            }
            PitonError::SeedNotFound { lo, hi } => {
                write!(f, "no seed in {lo}..{hi} reproduces the Table IV counts")
            }
            PitonError::Transient { what } => write!(f, "transient fault: {what}"),
            PitonError::Injected { what } => write!(f, "injected fault: {what}"),
            PitonError::Disabled { what } => write!(f, "disabled resource: {what}"),
            PitonError::BadPlan { what } => write!(f, "bad fault plan: {what}"),
            PitonError::Codec { what } => write!(f, "codec error: {what}"),
        }
    }
}

impl std::error::Error for PitonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(PitonError::transient("x").is_transient());
        assert!(!PitonError::injected("x").is_transient());
        assert!(!PitonError::codec("torn record").is_transient());
        assert!(!PitonError::EmptyWindow { context: "idle" }.is_transient());
        assert!(!PitonError::SeedNotFound { lo: 0, hi: 9 }.is_transient());
    }

    #[test]
    fn displays_name_their_payloads() {
        assert!(PitonError::EmptyWindow { context: "idle" }
            .to_string()
            .contains("idle"));
        assert!(PitonError::SeedNotFound { lo: 17, hi: 132 }
            .to_string()
            .contains("17..132"));
        assert!(PitonError::DegenerateFit {
            points: 1,
            reason: "need at least two points"
        }
        .to_string()
        .contains("1 point"));
    }

    #[test]
    fn shorthands_build_the_right_variants() {
        assert_eq!(
            PitonError::transient("x"),
            PitonError::Transient { what: "x".into() }
        );
        assert_eq!(
            PitonError::injected("y"),
            PitonError::Injected { what: "y".into() }
        );
    }
}
