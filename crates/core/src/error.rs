//! Error types for the conditional-messaging service.

use std::fmt;

use crate::ids::CondMessageId;

/// Errors reported by the conditional-messaging layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum CondError {
    /// The underlying messaging middleware failed.
    Mq(mq::MqError),
    /// The condition tree is structurally invalid.
    InvalidCondition(String),
    /// The condition tree was rejected by static analysis
    /// ([`crate::analyze()`]) as statically unsatisfiable.
    Analysis(crate::analyze::AnalyzeError),
    /// No pending conditional message with this id is known.
    UnknownMessage(CondMessageId),
    /// An internal (ack / log / outcome) message failed to decode.
    Malformed(String),
    /// A transactional receiver API was used outside a transaction.
    NoTransaction,
    /// `begin_tx` was called while a transaction was already active.
    TransactionActive,
    /// A background worker thread could not be spawned.
    Daemon(String),
}

impl fmt::Display for CondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondError::Mq(e) => write!(f, "messaging error: {e}"),
            CondError::InvalidCondition(reason) => write!(f, "invalid condition: {reason}"),
            CondError::Analysis(e) => write!(f, "{e}"),
            CondError::UnknownMessage(id) => write!(f, "unknown conditional message {id}"),
            CondError::Malformed(what) => write!(f, "malformed internal message: {what}"),
            CondError::NoTransaction => write!(f, "no receiver transaction is active"),
            CondError::TransactionActive => {
                write!(f, "a receiver transaction is already active")
            }
            CondError::Daemon(reason) => write!(f, "daemon spawn failed: {reason}"),
        }
    }
}

impl std::error::Error for CondError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CondError::Mq(e) => Some(e),
            CondError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mq::MqError> for CondError {
    fn from(e: mq::MqError) -> Self {
        CondError::Mq(e)
    }
}

impl From<mq::codec::CodecError> for CondError {
    fn from(e: mq::codec::CodecError) -> Self {
        CondError::Malformed(e.to_string())
    }
}

/// Convenience result alias.
pub type CondResult<T> = Result<T, CondError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CondError::InvalidCondition("empty set".into()).to_string(),
            "invalid condition: empty set"
        );
        assert_eq!(
            CondError::NoTransaction.to_string(),
            "no receiver transaction is active"
        );
        let err: CondError = mq::MqError::QueueNotFound("X".into()).into();
        assert!(err.to_string().contains("queue not found"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<CondError>();
    }
}
