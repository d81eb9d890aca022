//! Golden-file corpus for the cond-verify passes.
//!
//! Each directory under `tests/fixtures/` is a miniature crate layout
//! (`src/*.rs`) with an `expected.txt` holding the exact formatted
//! findings `run_all` must produce — seeded violations must fire with
//! both sites in the diagnostic, and the clean corpus must stay
//! silent. Regenerate a golden file with
//! `cargo run -p cond-lint -- --root crates/lint/tests/fixtures/<case>`.

use std::path::Path;

fn check(case: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case);
    let findings = cond_lint::run_all(&root)
        .unwrap_or_else(|e| panic!("fixture `{case}` failed to scan: {e}"));
    let actual: String = findings.iter().map(|f| format!("{f}\n")).collect();
    let expected = std::fs::read_to_string(root.join("expected.txt"))
        .unwrap_or_else(|e| panic!("fixture `{case}` has no expected.txt: {e}"));
    assert_eq!(
        actual, expected,
        "fixture `{case}` diverged from its golden file"
    );
}

/// Opposite acquisition orders of the same two locks: one finding
/// naming both acquisition sites.
#[test]
fn abba_inversion_is_reported_with_both_sites() {
    check("abba");
}

/// A queue directory held in one plain `RwLock<HashMap>` is a lock like
/// any other: taking the mutation gate then the directory in one fn and
/// the reverse in another is one finding naming both sites.
#[test]
fn gate_directory_inversion_is_reported_with_both_sites() {
    check("gate_directory");
}

/// A declared `never-hold(<lock>) across <fn>` violated directly and
/// through a helper; the transitive report names the reached callee.
#[test]
fn never_hold_fires_directly_and_transitively() {
    check("never_hold");
}

/// A `never-hold(<lock>) across <fn>` whose `<fn>` is no longer defined
/// or called anywhere is reported at the annotation instead of going
/// silently vacuous.
#[test]
fn never_hold_naming_no_function_is_reported() {
    check("never_hold_stale");
}

/// A misspelled annotation kind is reported at its site instead of
/// dropping the discipline it meant to declare.
#[test]
fn unknown_annotation_kind_is_reported() {
    check("unknown_annotation");
}

/// Custody leaks on an early `return Err` and on a `?` exit; the
/// discharged path stays silent.
#[test]
fn custody_leaks_on_early_return_and_try() {
    check("custody_leak");
}

/// A misspelled metric emission against the declared registry;
/// wildcarded `format!` names match.
#[test]
fn registry_typo_is_flagged() {
    check("registry_typo");
}

/// A control-property constant annotated as a wire-string sink whose
/// name the registry does not list; the registered ones stay silent.
#[test]
fn unregistered_property_name_is_flagged() {
    check("property_name_unregistered");
}

/// Well-known value and queue-name constants declared inside modules: the
/// ones the wire-string registry does not list are flagged.
#[test]
fn unregistered_wire_values_are_flagged() {
    check("wire_value_unregistered");
}

/// Test code ends at the gated item's or field's own closing delimiter:
/// a `#[cfg(test)]` field hides nothing after it, a `#[cfg(test)] pub fn`
/// is test code, a `#[cfg(not(test))] fn` is not, and a multi-line
/// `std::sync::{…}` group is still checked.
#[test]
fn test_gating_follows_the_gated_item() {
    check("test_gating");
}

/// Disciplined code — including `//` inside string literals, one of
/// which spells out a lint annotation — produces zero findings.
#[test]
fn clean_corpus_is_silent() {
    check("clean");
}

/// A condvar waited on that nothing in its crate notifies: every wait
/// sleeps out its timeout. The one beside it that is notified stays
/// silent, and so does the clean corpus's, notified from another file.
#[test]
fn a_condvar_nothing_notifies_is_reported() {
    check("unnotified_condvar");
}
