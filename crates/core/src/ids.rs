//! Identifiers for conditional messages.

use std::fmt;

use mq::MessageId;

/// Unique identifier of a *conditional* message (the paper's "conditional
/// message id", stamped as a property on every generated standard message
/// and used to correlate acknowledgments, compensations and outcomes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondMessageId(u128);

impl CondMessageId {
    /// Generates the next identifier of the process's one id sequence
    /// ([`MessageId::generate`]): a send's conditional id and the ids of
    /// the messages it writes are consecutive numbers.
    pub fn generate() -> CondMessageId {
        CondMessageId(MessageId::generate().as_u128())
    }

    /// Reconstructs an identifier from its raw value.
    pub fn from_u128(v: u128) -> CondMessageId {
        CondMessageId(v)
    }

    /// Returns the raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Hex string form: the correlation id of every conditional-layer message.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the hex string form.
    pub fn from_hex(s: &str) -> Option<CondMessageId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(CondMessageId)
    }
}

impl fmt::Debug for CondMessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CondMessageId({self})")
    }
}

impl fmt::Display for CondMessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        assert_ne!(CondMessageId::generate(), CondMessageId::generate());
        // One sequence with message ids. Other test threads draw from it
        // too, so here that is "same epoch, later counter";
        // `tests/append_budget.rs` checks that a send's ids follow its
        // conditional id one by one.
        let cond = CondMessageId::generate().as_u128();
        let next = MessageId::generate().as_u128();
        assert_eq!(cond >> 64, next >> 64);
        assert!(next > cond);
    }

    #[test]
    fn hex_roundtrip() {
        let id = CondMessageId::generate();
        assert_eq!(CondMessageId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(id.to_hex().len(), 32);
        assert!(CondMessageId::from_hex("xyz").is_none());
        assert!(CondMessageId::from_hex("").is_none());
    }

    #[test]
    fn raw_roundtrip() {
        let id = CondMessageId::from_u128(42);
        assert_eq!(id.as_u128(), 42);
        assert_eq!(id.to_hex(), format!("{:032x}", 42));
    }
}
