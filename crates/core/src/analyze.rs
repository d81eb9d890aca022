//! Send-time validation of condition trees.
//!
//! [`Condition::validate`] catches structural mistakes (empty sets,
//! inverted counts). This module rejects the trees that are well formed
//! but can only "evaluate to failure" (paper §2.3) — before any message is
//! put to a destination, instead of after burning a full evaluation
//! timeout.
//!
//! The analyzer runs inside every
//! [`ConditionalMessenger::send_with`](crate::ConditionalMessenger) and is
//! available standalone via [`analyze`] / [`analyze_with`].
//!
//! # Rules
//!
//! | rule | meaning |
//! |------|---------|
//! | `zero-window` | a 0 ms pick-up/processing window can only be met by an ack stamped at the send instant — statically unsatisfiable in any real deployment |
//! | `unsat-count` | a set's `min` count exceeds its satisfiable members once zero-window members are discounted, propagated through nested sets |

use std::fmt;

use simtime::Millis;

use crate::condition::{Condition, Destination, DestinationSet};
use crate::eval::Dimension;

/// The analyzer rules. See the [module docs](self) for their semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// A 0 ms time window (leaf or set level).
    ZeroWindow,
    /// A set `min` count exceeding its satisfiable members.
    UnsatisfiableCount,
}

impl Rule {
    /// The rule's stable kebab-case name (used in diagnostics and docs).
    pub fn name(self) -> &'static str {
        match self {
            Rule::ZeroWindow => "zero-window",
            Rule::UnsatisfiableCount => "unsat-count",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer finding: a reason the tree can never succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation with the concrete values involved.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.message)
    }
}

/// Send-time context of an analysis. Neither rule reads it; a sender
/// passes what it knows of the send.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeContext {
    /// The effective evaluation timeout of the send (per-send override or
    /// config default).
    pub evaluation_timeout: Option<Millis>,
    /// The evaluation manager's ack grace (deadline triggers fire at
    /// `deadline + grace`).
    pub ack_grace: Millis,
    /// Whether the send carries application compensation data (`None`
    /// for a standalone analysis).
    pub has_compensation: Option<bool>,
}

/// The outcome of analyzing one condition tree.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// All diagnostics, in tree order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether any rule fired: the tree can never succeed.
    pub fn has_errors(&self) -> bool {
        !self.diagnostics.is_empty()
    }

    /// Converts the report into a typed error when any rule fired.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the original report when none did.
    pub fn into_error(self) -> Result<AnalyzeError, Report> {
        if self.has_errors() {
            Ok(AnalyzeError {
                diagnostics: self.diagnostics,
            })
        } else {
            Err(self)
        }
    }
}

/// Typed rejection carrying the [`Diagnostic`]s that made a condition tree
/// statically unacceptable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    diagnostics: Vec<Diagnostic>,
}

impl AnalyzeError {
    /// The diagnostics (at least one).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "condition rejected by static analysis: ")?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalyzeError {}

/// Analyzes a condition tree with no send-time context.
pub fn analyze(condition: &Condition) -> Report {
    analyze_with(condition, &AnalyzeContext::default())
}

/// Analyzes a condition tree under a send-time [`AnalyzeContext`].
///
/// The analyzer assumes the tree already passes
/// [`Condition::validate`]; on an invalid tree it still terminates but
/// may miss findings.
pub fn analyze_with(condition: &Condition, ctx: &AnalyzeContext) -> Report {
    let _ = ctx;
    let mut diagnostics = Vec::new();
    walk(condition, &mut diagnostics);
    Report { diagnostics }
}

const DIMS: [Dimension; 2] = [Dimension::Pickup, Dimension::Process];

/// How the leaves of a subtree stand in one dimension, mirroring the
/// window-inheritance rules of
/// [`CompiledCondition`](crate::CompiledCondition): a leaf's window is its
/// own, else that of the innermost set above it that has one.
#[derive(Debug, Clone, Copy, Default)]
struct Leaves {
    /// Leaves in the subtree.
    total: usize,
    /// Leaves whose window within the subtree is 0 ms.
    zero: usize,
    /// Leaves with no window within the subtree yet.
    open: usize,
}

fn walk(condition: &Condition, diagnostics: &mut Vec<Diagnostic>) -> [Leaves; 2] {
    match condition {
        Condition::Destination(d) => walk_leaf(d, diagnostics),
        Condition::Set(s) => walk_set(s, diagnostics),
    }
}

/// Reports a 0 ms window.
fn check_window(dim: Dimension, window: Option<Millis>, diagnostics: &mut Vec<Diagnostic>) {
    if window == Some(Millis::ZERO) {
        diagnostics.push(Diagnostic {
            rule: Rule::ZeroWindow,
            message: format!(
                "{dim} window is 0 ms: only an acknowledgment stamped at \
                 the send instant could satisfy it"
            ),
        });
    }
}

fn walk_leaf(d: &Destination, diagnostics: &mut Vec<Diagnostic>) -> [Leaves; 2] {
    let windows = [d.pickup_window(), d.process_window()];
    let mut leaves = [Leaves::default(); 2];
    for (i, dim) in DIMS.into_iter().enumerate() {
        check_window(dim, windows[i], diagnostics);
        leaves[i] = Leaves {
            total: 1,
            zero: usize::from(windows[i] == Some(Millis::ZERO)),
            open: usize::from(windows[i].is_none()),
        };
    }
    leaves
}

fn walk_set(s: &DestinationSet, diagnostics: &mut Vec<Diagnostic>) -> [Leaves; 2] {
    let set_windows = [s.pickup_window(), s.process_window()];
    for (i, dim) in DIMS.into_iter().enumerate() {
        check_window(dim, set_windows[i], diagnostics);
    }
    let mut leaves = [Leaves::default(); 2];
    for member in s.members() {
        for (sum, sub) in leaves.iter_mut().zip(walk(member, diagnostics)) {
            sum.total += sub.total;
            sum.zero += sub.zero;
            sum.open += sub.open;
        }
    }
    for (i, dim) in DIMS.into_iter().enumerate() {
        let Some(window) = set_windows[i] else {
            continue;
        };
        let min = match dim {
            Dimension::Pickup => s.min_pickup_count(),
            Dimension::Process => s.min_process_count(),
        };
        // This set's window is the window of every leaf that had none, as
        // in compilation; a leaf is satisfiable when its window is wider
        // than zero.
        let l = &mut leaves[i];
        if window == Millis::ZERO {
            l.zero += l.open;
        }
        l.open = 0;
        let satisfiable = l.total - l.zero;
        let required = min.map_or(l.total, |m| m as usize);
        if required > satisfiable {
            diagnostics.push(Diagnostic {
                rule: Rule::UnsatisfiableCount,
                message: format!(
                    "{dim} count requires {required} member(s) but only \
                     {satisfiable} of {} are satisfiable (zero-width \
                     windows discounted)",
                    l.total
                ),
            });
        }
    }
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(q: &str) -> Condition {
        Destination::queue("QM", q).into()
    }

    fn rules_of(report: &Report) -> Vec<Rule> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    // -------------------------------------------------- zero-window --

    #[test]
    fn zero_window_rejected() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis::ZERO)
            .into();
        let report = analyze(&cond);
        assert!(report.has_errors());
        assert_eq!(rules_of(&report), [Rule::ZeroWindow]);
    }

    #[test]
    fn positive_window_accepted() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis(100))
            .into();
        assert!(!analyze(&cond).has_errors());
    }

    // -------------------------------------------------- unsat-count --

    #[test]
    fn min_count_over_zero_window_members_rejected() {
        // Two of three members carry their own 0 ms processing window, so
        // at most one member can ever satisfy the set's count — min 2 is
        // statically unsatisfiable, through the nesting.
        let dead = DestinationSet::of(vec![
            Destination::queue("QM", "A")
                .process_within(Millis::ZERO)
                .into(),
            Destination::queue("QM", "B")
                .process_within(Millis::ZERO)
                .into(),
        ]);
        let cond: Condition = DestinationSet::of(vec![dead.into(), leaf("C")])
            .process_within(Millis(500))
            .min_process(2)
            .into();
        let report = analyze(&cond);
        let unsat: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == Rule::UnsatisfiableCount)
            .collect();
        assert_eq!(unsat.len(), 1, "{report:?}");
        assert!(unsat[0].message.contains("requires 2"));
    }

    #[test]
    fn a_zero_set_window_counts_against_the_members_it_covers() {
        // The inner set's 0 ms window is the window of both its members;
        // the outer set, all of whose members must process, then has one
        // satisfiable member of three.
        let inner = DestinationSet::of(vec![leaf("A"), leaf("B")]).process_within(Millis::ZERO);
        let cond: Condition = DestinationSet::of(vec![inner.into(), leaf("C")])
            .process_within(Millis(500))
            .into();
        let report = analyze(&cond);
        assert_eq!(
            rules_of(&report),
            [
                Rule::ZeroWindow,
                Rule::UnsatisfiableCount,
                Rule::UnsatisfiableCount
            ]
        );
        assert!(report.diagnostics()[2].message.contains("only 1 of 3"));
    }

    #[test]
    fn min_count_within_satisfiable_members_accepted() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B"), leaf("C")])
            .process_within(Millis(500))
            .min_process(2)
            .into();
        assert!(!analyze(&cond).has_errors());
    }

    // ------------------------------------------------------- report --

    #[test]
    fn paper_example_one_is_clean() {
        const DAY: u64 = 1000;
        let qr3 = Destination::queue("QM1", "Q.R3")
            .recipient("receiver3")
            .process_within(Millis(7 * DAY));
        let others = DestinationSet::of(vec![
            Destination::queue("QM1", "Q.R1").into(),
            Destination::queue("QM1", "Q.R2").into(),
            Destination::queue("QM1", "Q.R4").into(),
        ])
        .process_within(Millis(11 * DAY))
        .min_process(2);
        let cond: Condition = DestinationSet::of(vec![qr3.into(), others.into()])
            .pickup_within(Millis(2 * DAY))
            .into();
        let report = analyze(&cond);
        assert!(!report.has_errors(), "{:?}", report.diagnostics());
    }

    #[test]
    fn a_report_with_findings_converts_into_an_error() {
        let cond: Condition = DestinationSet::of(vec![Destination::queue("QM", "Q")
            .pickup_within(Millis::ZERO)
            .into()])
        .into();
        let err = analyze(&cond).into_error().unwrap();
        assert!(err.to_string().contains("zero-window"));
        // A clean report refuses the conversion.
        let clean = analyze(
            &Destination::queue("QM", "Q")
                .pickup_within(Millis(10))
                .into(),
        );
        assert!(clean.into_error().is_err());
    }
}
