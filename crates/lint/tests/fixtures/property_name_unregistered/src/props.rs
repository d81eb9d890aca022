//! Seeded registry violation: a control-property constant whose name the
//! wire-string registry does not list (it would travel as a literal
//! string instead of a one-byte code).

/// The declared registry for this mini-crate.
// lint: registry wire-string
pub const PROPERTY_NAMES: &[&str] = &["app.kind", "app.leaf"];

/// Registered.
// lint: registry-sink wire-string
pub const P_KIND: &str = "app.kind";

/// Registered.
// lint: registry-sink wire-string
pub const P_LEAF: &str = "app.leaf";

/// Not registered.
// lint: registry-sink wire-string
pub const P_TRACE: &str = "app.trace.id";
