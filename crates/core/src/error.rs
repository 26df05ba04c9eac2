//! Error type shared by all curve constructors and checked accessors.

use std::fmt;

/// Errors produced by curve construction and checked index/point conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SfcError {
    /// The universe side length was zero.
    ZeroSide,
    /// `side^D` does not fit in the supported index range (2^63).
    UniverseTooLarge {
        /// Requested side length.
        side: u32,
        /// Dimensionality of the universe.
        dims: usize,
    },
    /// The curve requires a power-of-two side length (e.g. Hilbert, Morton).
    SideNotPowerOfTwo {
        /// Offending side length.
        side: u32,
    },
    /// A point lies outside the universe.
    PointOutOfBounds {
        /// Offending coordinates (formatted).
        point: String,
        /// Universe side length.
        side: u32,
    },
    /// A one-dimensional index is `>= side^D`.
    IndexOutOfBounds {
        /// Offending index.
        index: u64,
        /// Number of cells in the universe.
        cells: u64,
    },
    /// The requested dimensionality is not supported by this component.
    DimensionUnsupported {
        /// Offending dimensionality.
        dims: usize,
    },
    /// A durable-storage operation failed (WAL append, snapshot I/O,
    /// corrupt persisted state). Carries the formatted cause: the error
    /// type stays `Clone + Eq` and the workspace stays free of non-std
    /// dependencies, at the price of not exposing the `io::ErrorKind`.
    Storage {
        /// What the storage layer was doing, with the underlying cause.
        context: String,
    },
    /// A server refused the request before processing it (admission cap
    /// hit, draining for shutdown). The request was **not** executed, so
    /// retrying after backoff is safe for every verb — including writes.
    Unavailable {
        /// Why the server turned the request away.
        context: String,
    },
    /// A client-side deadline elapsed before the response arrived. The
    /// request may still complete on the server; only idempotent
    /// requests should be reissued.
    DeadlineExceeded {
        /// What the client was waiting for, and for how long.
        context: String,
    },
    /// The transport failed at a clean frame boundary (connection
    /// refused/reset, peer closed between frames). No partial response
    /// was in flight.
    ConnectionLost {
        /// What the transport was doing when the connection died.
        context: String,
    },
    /// The connection died **mid-frame**: bytes past a frame boundary had
    /// accumulated when the peer vanished, so a response (or epoch) was
    /// partially delivered. Distinct from [`SfcError::ConnectionLost`] so
    /// retry logic can tell a torn stream from a clean close.
    TornFrame {
        /// How much of the frame had arrived.
        context: String,
    },
    /// A non-idempotent request (a write) failed after it was sent: the
    /// transport died between send and response, so the server may or
    /// may not have executed it. Never auto-retried — the caller must
    /// decide (re-read, use a receipt, or accept at-most-once).
    AmbiguousWrite {
        /// The write verb and the transport failure that orphaned it.
        context: String,
    },
    /// An epoch catch-up asked for history the transactor's checkpoint
    /// has already truncated. Terminal for resume-from-epoch: the
    /// subscriber must bootstrap from a snapshot instead of the WAL.
    EpochTruncated {
        /// The epoch the subscriber wanted to resume after (exclusive).
        requested: u64,
        /// The oldest epoch the WAL can still replay *from* (exclusive):
        /// resuming is only possible for `requested >= horizon`.
        horizon: u64,
    },
    /// A write reached an engine that only follows a transactor's epoch
    /// stream (a read replica). It was refused before admission, so
    /// sending it to the transactor instead is safe.
    ReadOnly {
        /// Which write was refused, and where writes go instead.
        context: String,
    },
}

impl SfcError {
    /// Stable numeric code identifying the variant, for wire protocols and
    /// logs. Codes are append-only: a variant keeps its code forever, and
    /// new variants take the next free number — so a client built against
    /// an older release still classifies errors from a newer server.
    pub fn code(&self) -> u16 {
        match self {
            SfcError::ZeroSide => 1,
            SfcError::UniverseTooLarge { .. } => 2,
            SfcError::SideNotPowerOfTwo { .. } => 3,
            SfcError::PointOutOfBounds { .. } => 4,
            SfcError::IndexOutOfBounds { .. } => 5,
            SfcError::DimensionUnsupported { .. } => 6,
            SfcError::Storage { .. } => 7,
            SfcError::Unavailable { .. } => 8,
            SfcError::DeadlineExceeded { .. } => 9,
            SfcError::ConnectionLost { .. } => 10,
            SfcError::TornFrame { .. } => 11,
            SfcError::AmbiguousWrite { .. } => 12,
            SfcError::EpochTruncated { .. } => 13,
            SfcError::ReadOnly { .. } => 14,
        }
    }

    /// Whether a request that failed with this error is safe to reissue
    /// verbatim, *for any verb*: the failure guarantees the server never
    /// executed the request. Idempotent requests may additionally retry
    /// on [`ConnectionLost`](Self::ConnectionLost) /
    /// [`TornFrame`](Self::TornFrame) (the request may have executed,
    /// but re-executing is harmless); writes must not — that ambiguity
    /// is exactly what [`AmbiguousWrite`](Self::AmbiguousWrite) names.
    pub fn is_pre_execution(&self) -> bool {
        matches!(
            self,
            SfcError::Unavailable { .. } | SfcError::ReadOnly { .. }
        )
    }

    /// Whether this error is a transport-level failure (the connection
    /// died), as opposed to a typed answer the server produced.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            SfcError::ConnectionLost { .. } | SfcError::TornFrame { .. }
        )
    }
}

impl fmt::Display for SfcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SfcError::ZeroSide => write!(f, "universe side length must be at least 1"),
            SfcError::UniverseTooLarge { side, dims } => {
                write!(f, "universe {side}^{dims} exceeds the supported 2^63 cells")
            }
            SfcError::SideNotPowerOfTwo { side } => {
                write!(f, "curve requires a power-of-two side length, got {side}")
            }
            SfcError::PointOutOfBounds { point, side } => {
                write!(f, "point {point} outside universe of side {side}")
            }
            SfcError::IndexOutOfBounds { index, cells } => {
                write!(f, "index {index} outside universe of {cells} cells")
            }
            SfcError::DimensionUnsupported { dims } => {
                write!(f, "dimensionality {dims} not supported by this component")
            }
            SfcError::Storage { context } => write!(f, "storage failure: {context}"),
            SfcError::Unavailable { context } => write!(f, "server unavailable: {context}"),
            SfcError::DeadlineExceeded { context } => write!(f, "deadline exceeded: {context}"),
            SfcError::ConnectionLost { context } => write!(f, "connection lost: {context}"),
            SfcError::TornFrame { context } => write!(f, "connection torn mid-frame: {context}"),
            SfcError::AmbiguousWrite { context } => {
                write!(f, "write outcome unknown: {context}")
            }
            SfcError::EpochTruncated { requested, horizon } => write!(
                f,
                "epoch {requested} is behind the checkpoint horizon {horizon}: \
                 the WAL no longer holds that history, bootstrap from a snapshot"
            ),
            SfcError::ReadOnly { context } => write!(f, "read-only engine: {context}"),
        }
    }
}

impl std::error::Error for SfcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offending_values() {
        let e = SfcError::UniverseTooLarge { side: 7, dims: 21 };
        assert!(e.to_string().contains("7^21"));
        let e = SfcError::SideNotPowerOfTwo { side: 12 };
        assert!(e.to_string().contains("12"));
        let e = SfcError::IndexOutOfBounds {
            index: 99,
            cells: 64,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            SfcError::ZeroSide,
            SfcError::UniverseTooLarge { side: 7, dims: 21 },
            SfcError::SideNotPowerOfTwo { side: 12 },
            SfcError::PointOutOfBounds {
                point: "(1, 2)".into(),
                side: 4,
            },
            SfcError::IndexOutOfBounds {
                index: 99,
                cells: 64,
            },
            SfcError::DimensionUnsupported { dims: 5 },
            SfcError::Storage {
                context: "io".into(),
            },
            SfcError::Unavailable {
                context: "busy".into(),
            },
            SfcError::DeadlineExceeded {
                context: "recv".into(),
            },
            SfcError::ConnectionLost {
                context: "reset".into(),
            },
            SfcError::TornFrame {
                context: "3 bytes buffered".into(),
            },
            SfcError::AmbiguousWrite {
                context: "Insert".into(),
            },
            SfcError::EpochTruncated {
                requested: 3,
                horizon: 9,
            },
            SfcError::ReadOnly {
                context: "Insert".into(),
            },
        ];
        let codes: Vec<u16> = all.iter().map(SfcError::code).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn retry_classification_is_conservative() {
        let busy = SfcError::Unavailable {
            context: "cap".into(),
        };
        assert!(busy.is_pre_execution());
        assert!(!busy.is_transport());
        // A replica's refusal of a write: never admitted, not transport.
        let refused = SfcError::ReadOnly {
            context: "Insert".into(),
        };
        assert!(refused.is_pre_execution() && !refused.is_transport());
        let lost = SfcError::ConnectionLost {
            context: "reset".into(),
        };
        let torn = SfcError::TornFrame {
            context: "5 bytes".into(),
        };
        assert!(lost.is_transport() && torn.is_transport());
        assert!(!lost.is_pre_execution() && !torn.is_pre_execution());
        // A tripped deadline is neither: the request may be executing.
        let late = SfcError::DeadlineExceeded {
            context: "recv".into(),
        };
        assert!(!late.is_pre_execution() && !late.is_transport());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SfcError::ZeroSide);
    }
}
