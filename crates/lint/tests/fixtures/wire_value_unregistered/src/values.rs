//! Seeded registry violation: well-known property values and a system
//! queue name, declared as wire-string sinks inside modules, one of each
//! missing from the registry (they would travel as literal strings instead
//! of one-byte codes).

/// The declared registry for this mini-crate.
// lint: registry wire-string
pub const WIRE_STRINGS: &[&str] = &["app.kind", "order", "cancel", "APP.LOG.Q"];

/// Values of the kind property.
pub mod kind {
    /// Registered.
    // lint: registry-sink wire-string
    pub const ORDER: &str = "order";
    /// Registered.
    // lint: registry-sink wire-string
    pub const CANCEL: &str = "cancel";
    /// Not registered.
    // lint: registry-sink wire-string
    pub const REFUND: &str = "refund";
}

/// System queues.
pub mod queues {
    /// Registered.
    // lint: registry-sink wire-string
    pub const LOG: &str = "APP.LOG.Q";
    /// Not registered.
    // lint: registry-sink wire-string
    pub const AUDIT: &str = "APP.AUDIT.Q";
}
