//! Failure taxonomy of the serving layer.
//!
//! The central design decision is the retryable/fatal split ([`
//! ServeError::is_retryable`]): transient transport trouble (timeouts,
//! resets, short reads, checksum mismatches, injected faults) is worth a
//! bounded retry with backoff, while protocol disagreements (version or
//! frame-structure mismatches) and semantic failures (unknown task, payload
//! that fails mixture validation) will fail identically on every attempt
//! and must surface immediately.

use std::fmt;
use std::io;

use crate::frame::ErrorCode;

/// Errors produced by the serving layer: transport, framing, protocol, and
/// payload failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// An OS-level socket failure (connect, read, write, or a deadline
    /// expiring). Transient by nature — retryable.
    Io {
        /// Which operation failed.
        op: &'static str,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The peer closed the connection in the middle of a frame. Retryable:
    /// the next attempt opens a fresh connection.
    ShortRead {
        /// Bytes the frame still needed.
        expected: usize,
        /// Bytes actually delivered before the stream ended.
        got: usize,
    },
    /// The frame's CRC-32 did not match its contents — corruption in
    /// transit. Retryable; the corrupted payload is never surfaced.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// The peer speaks a different protocol version. Fatal: every retry
    /// would fail the same way.
    VersionMismatch {
        /// Version byte in the received frame.
        found: u8,
        /// The single version this build supports.
        supported: u8,
    },
    /// The frame violates the wire grammar (impossible length, unknown
    /// message kind, payload that does not parse). Fatal.
    MalformedFrame {
        /// What was wrong.
        reason: &'static str,
    },
    /// A frame declared a length above the configured cap — either a
    /// protocol bug or a hostile peer. Fatal.
    FrameTooLarge {
        /// Declared frame body length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The server answered with a protocol-level `Error` message. Fatal at
    /// this layer; the code says why (unknown task, unexpected message…).
    Remote {
        /// Machine-readable error code from the wire.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The peer sent a well-formed message of the wrong kind for the
    /// current exchange (e.g. a `ModelReport` in reply to a
    /// `PriorRequest`). Fatal.
    UnexpectedMessage {
        /// Kind of message received.
        got: &'static str,
        /// What the exchange expected.
        expected: &'static str,
    },
    /// The frame arrived intact (CRC passed) but its prior payload failed
    /// `dro_edge::transfer` decoding or mixture validation. Fatal: the
    /// server would resend the same bytes.
    Payload(dro_edge::EdgeError),
    /// The retry budget ran out; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<ServeError>,
    },
    /// A deterministic fault injected by the test transport. Retryable —
    /// it stands in for a dropped connection.
    InjectedFault {
        /// Which fault fired.
        what: &'static str,
    },
    /// The server shed the request under load and asked the client to come
    /// back later. Retryable: overload is transient by definition, and the
    /// server tells us how long to wait.
    Busy {
        /// Server-suggested minimum backoff before the next attempt.
        retry_after: std::time::Duration,
    },
    /// The contacted shard does not own the requested task id — a redirect,
    /// not a failure. Retryable: the routing layer refreshes its shard map
    /// and the next attempt lands on the owner (or a replica).
    Misrouted {
        /// Task id the request asked for.
        task_id: u64,
        /// Human-readable detail from the shard (which epoch it routed by).
        detail: String,
    },
}

impl ServeError {
    /// True when a fresh attempt at the same request could plausibly
    /// succeed: transient transport failures, yes; protocol and payload
    /// disagreements, no.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Io { .. }
                | ServeError::ShortRead { .. }
                | ServeError::ChecksumMismatch { .. }
                | ServeError::InjectedFault { .. }
                | ServeError::Busy { .. }
                | ServeError::Misrouted { .. }
        )
    }

    /// Server-provided backoff hint, when the error carries one (a shed
    /// request). The retry loop takes the max of this and its own schedule.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            ServeError::Busy { retry_after } => Some(*retry_after),
            _ => None,
        }
    }
}

impl From<dro_edge::transfer::ShortRead> for ServeError {
    fn from(e: dro_edge::transfer::ShortRead) -> Self {
        ServeError::MalformedFrame { reason: e.reason }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { op, source } => write!(f, "i/o failure during {op}: {source}"),
            ServeError::ShortRead { expected, got } => {
                write!(f, "short read: needed {expected} more byte(s), got {got}")
            }
            ServeError::ChecksumMismatch { expected, computed } => write!(
                f,
                "frame checksum mismatch: carried {expected:#010x}, computed {computed:#010x}"
            ),
            ServeError::VersionMismatch { found, supported } => write!(
                f,
                "peer speaks frame version {found}, this build speaks {supported}"
            ),
            ServeError::MalformedFrame { reason } => write!(f, "malformed frame: {reason}"),
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ServeError::Remote { code, detail } => {
                write!(f, "server error {code:?}: {detail}")
            }
            ServeError::UnexpectedMessage { got, expected } => {
                write!(f, "unexpected {got} message (expected {expected})")
            }
            ServeError::Payload(e) => write!(f, "prior payload failed to decode: {e}"),
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s); last error: {last}")
            }
            ServeError::InjectedFault { what } => write!(f, "injected fault: {what}"),
            ServeError::Busy { retry_after } => {
                write!(f, "server busy: retry after {retry_after:?}")
            }
            ServeError::Misrouted { task_id, detail } => {
                write!(f, "shard does not own task {task_id}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Payload(e) => Some(e),
            ServeError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

/// Convenience result alias for serving-layer operations.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_split_matches_the_taxonomy() {
        let retryable: Vec<ServeError> = vec![
            ServeError::Io {
                op: "read",
                source: io::Error::new(io::ErrorKind::TimedOut, "deadline"),
            },
            ServeError::ShortRead {
                expected: 4,
                got: 1,
            },
            ServeError::ChecksumMismatch {
                expected: 1,
                computed: 2,
            },
            ServeError::InjectedFault { what: "drop" },
            ServeError::Busy {
                retry_after: std::time::Duration::from_millis(20),
            },
            ServeError::Misrouted {
                task_id: 9,
                detail: "owned by shard 2 at epoch 4".into(),
            },
        ];
        for e in &retryable {
            assert!(e.is_retryable(), "{e} should be retryable");
        }
        // Only the shed path carries a backoff hint.
        assert_eq!(
            retryable[4].retry_after(),
            Some(std::time::Duration::from_millis(20))
        );
        assert_eq!(retryable[0].retry_after(), None);
        let fatal: Vec<ServeError> = vec![
            ServeError::VersionMismatch {
                found: 2,
                supported: 1,
            },
            ServeError::MalformedFrame { reason: "x" },
            ServeError::FrameTooLarge { len: 10, max: 5 },
            ServeError::Remote {
                code: ErrorCode::UnknownTask,
                detail: "t".into(),
            },
            ServeError::UnexpectedMessage {
                got: "Ping",
                expected: "PriorResponse",
            },
            ServeError::Payload(dro_edge::EdgeError::InvalidData { reason: "x" }),
            ServeError::RetriesExhausted {
                attempts: 3,
                last: Box::new(ServeError::ShortRead {
                    expected: 1,
                    got: 0,
                }),
            },
        ];
        for e in &fatal {
            assert!(!e.is_retryable(), "{e} should be fatal");
        }
    }

    #[test]
    fn display_and_sources() {
        let e = ServeError::Io {
            op: "connect",
            source: io::Error::new(io::ErrorKind::ConnectionRefused, "nope"),
        };
        assert!(e.to_string().contains("connect"));
        assert!(std::error::Error::source(&e).is_some());

        let e = ServeError::RetriesExhausted {
            attempts: 5,
            last: Box::new(ServeError::ChecksumMismatch {
                expected: 7,
                computed: 9,
            }),
        };
        assert!(e.to_string().contains("5 attempt"));
        assert!(e.to_string().contains("checksum"));
        assert!(std::error::Error::source(&e).is_some());

        let e = ServeError::MalformedFrame { reason: "bad kind" };
        assert!(std::error::Error::source(&e).is_none());
    }
}
