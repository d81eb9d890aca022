//! Error types for the `mq` middleware substrate.

use std::fmt;

/// Errors reported by queue managers, sessions, journals and channels.
#[derive(Debug)]
#[non_exhaustive]
pub enum MqError {
    /// The named queue does not exist on the queue manager.
    QueueNotFound(String),
    /// A queue with this name already exists.
    QueueExists(String),
    /// No route (channel) is defined to the named remote queue manager.
    NoRoute(String),
    /// The queue has reached its configured maximum depth.
    QueueFull(String),
    /// The queue manager has been stopped or crashed.
    ManagerStopped(String),
    /// A transactional operation was attempted outside a transaction.
    NoTransaction,
    /// `begin` was called while a transaction was already active.
    TransactionActive,
    /// A journal record failed to encode or decode.
    Codec(crate::codec::CodecError),
    /// The journal storage failed.
    Io(std::io::Error),
    /// A journal record failed its integrity check during replay.
    JournalCorrupt {
        /// Byte offset of the corrupt record.
        offset: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// A channel transport failed (socket setup, handshake, or framing).
    Transport {
        /// The peer's name or socket address.
        peer: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for MqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqError::QueueNotFound(q) => write!(f, "queue not found: {q}"),
            MqError::QueueExists(q) => write!(f, "queue already exists: {q}"),
            MqError::NoRoute(m) => write!(f, "no channel to queue manager: {m}"),
            MqError::QueueFull(q) => write!(f, "queue full: {q}"),
            MqError::ManagerStopped(m) => write!(f, "queue manager stopped: {m}"),
            MqError::NoTransaction => write!(f, "no transaction is active"),
            MqError::TransactionActive => write!(f, "a transaction is already active"),
            MqError::Codec(e) => write!(f, "codec error: {e}"),
            MqError::Io(e) => write!(f, "journal i/o error: {e}"),
            MqError::JournalCorrupt { offset, reason } => {
                write!(f, "journal corrupt at offset {offset}: {reason}")
            }
            MqError::Transport { peer, reason } => {
                write!(f, "transport error ({peer}): {reason}")
            }
        }
    }
}

impl std::error::Error for MqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MqError::Io(e) => Some(e),
            MqError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MqError {
    fn from(e: std::io::Error) -> Self {
        MqError::Io(e)
    }
}

impl From<crate::codec::CodecError> for MqError {
    fn from(e: crate::codec::CodecError) -> Self {
        MqError::Codec(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type MqResult<T> = Result<T, MqError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let cases: Vec<(MqError, &str)> = vec![
            (MqError::QueueNotFound("A".into()), "queue not found: A"),
            (MqError::QueueExists("B".into()), "queue already exists: B"),
            (
                MqError::NoRoute("QM2".into()),
                "no channel to queue manager: QM2",
            ),
            (MqError::QueueFull("C".into()), "queue full: C"),
            (MqError::NoTransaction, "no transaction is active"),
            (
                MqError::TransactionActive,
                "a transaction is already active",
            ),
            (
                MqError::Transport {
                    peer: "QM.B".into(),
                    reason: "handshake refused".into(),
                },
                "transport error (QM.B): handshake refused",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<MqError>();
    }

    #[test]
    fn io_error_converts_with_source() {
        let io = std::io::Error::other("disk gone");
        let err: MqError = io.into();
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("disk gone"));
    }
}
