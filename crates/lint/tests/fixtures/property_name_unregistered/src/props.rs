//! Seeded registry violation: a control-property constant whose name the
//! property-name registry does not list (it would travel as a literal
//! string instead of a one-byte code).

/// The declared registry for this mini-crate.
// lint: registry property-name
pub const PROPERTY_NAMES: &[&str] = &["app.kind", "app.leaf"];

/// Registered.
// lint: registry-sink property-name
pub const P_KIND: &str = "app.kind";

/// Registered.
// lint: registry-sink property-name
pub const P_LEAF: &str = "app.leaf";

/// Not registered.
// lint: registry-sink property-name
pub const P_TRACE: &str = "app.trace.id";
