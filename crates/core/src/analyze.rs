//! Deep static analysis of condition trees.
//!
//! [`Condition::validate`] catches structural mistakes (empty sets,
//! inverted counts). This module goes further: it proves properties about
//! what a condition tree can *do at runtime* — before any message is put
//! to a destination — so a sender is told at send time about trees that
//! can only "evaluate to failure" after burning a full evaluation timeout
//! (paper §2.3), or that succeed without a single recipient acting.
//!
//! The analyzer runs inside every
//! [`ConditionalMessenger::send_with`](crate::ConditionalMessenger) and is
//! available standalone via [`analyze`] / [`analyze_with`].
//!
//! # Rules
//!
//! | rule | severity | meaning |
//! |------|----------|---------|
//! | `zero-window` | error | a 0 ms pick-up/processing window can only be met by an ack stamped at the send instant — statically unsatisfiable in any real deployment |
//! | `unsat-count` | error | a set's `min` count exceeds its satisfiable members once zero-window members are discounted, propagated through nested sets |
//! | `vacuous-success` | warning | the tree carries no time constraint anywhere: it evaluates to success with zero acknowledgments |
//! | `non-monotonic-window` | warning | a member window extends past its nearest enclosing set window in the same dimension |
//! | `timeout-shadow` | warning | a window's deadline (plus ack grace) can never expire before the evaluation timeout: its failure verdict degrades to a generic timeout failure |
//! | `duplicate-destination` | warning | the same destination queue appears at two leaves |
//! | `missing-compensation` | warning | a failable tree is sent without application compensation data; the failure path delivers only system-generated markers |
//! | `pickup-after-process` | warning | a leaf's pick-up window extends past its processing window; the tail is dead code |
//! | `redundant-max` | warning | a set `max` count is at least its member count, so the cap never binds |
//! | `trivial-set` | warning | a single-member set adds no grouping semantics |
//!
//! Each diagnostic carries a [`TreePath`] into the condition tree so the
//! offending cell can be located mechanically.

use std::collections::HashMap;
use std::fmt;

use simtime::Millis;

use crate::condition::{Condition, Destination, DestinationSet};
use crate::eval::Dimension;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but satisfiable; reported via metrics, send proceeds.
    Warning,
    /// Statically unsatisfiable (or equivalent); the send is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The analyzer rules. See the [module docs](self) for the semantics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// A 0 ms time window (leaf or set level).
    ZeroWindow,
    /// A set `min` count exceeding its satisfiable members.
    UnsatisfiableCount,
    /// No constraint anywhere: success with zero acknowledgments.
    VacuousSuccess,
    /// A member window extending past the enclosing set window.
    NonMonotonicWindow,
    /// A deadline that can never fire before the evaluation timeout.
    TimeoutShadow,
    /// The same destination queue at two leaves.
    DuplicateDestination,
    /// Failable tree sent without application compensation data.
    MissingCompensation,
    /// Leaf pick-up window extending past its processing window.
    PickupAfterProcess,
    /// A `max` count that can never bind.
    RedundantMax,
    /// A set with a single member.
    TrivialSet,
}

impl Rule {
    /// The rule's stable kebab-case name (used in diagnostics and docs).
    pub fn name(self) -> &'static str {
        match self {
            Rule::ZeroWindow => "zero-window",
            Rule::UnsatisfiableCount => "unsat-count",
            Rule::VacuousSuccess => "vacuous-success",
            Rule::NonMonotonicWindow => "non-monotonic-window",
            Rule::TimeoutShadow => "timeout-shadow",
            Rule::DuplicateDestination => "duplicate-destination",
            Rule::MissingCompensation => "missing-compensation",
            Rule::PickupAfterProcess => "pickup-after-process",
            Rule::RedundantMax => "redundant-max",
            Rule::TrivialSet => "trivial-set",
        }
    }

    /// The severity this rule reports at.
    pub fn severity(self) -> Severity {
        match self {
            Rule::ZeroWindow | Rule::UnsatisfiableCount => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A path from the root of a condition tree to one of its cells: the child
/// index taken at each set. The empty path is the root.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreePath(Vec<usize>);

impl TreePath {
    /// The path to the root cell.
    pub fn root() -> TreePath {
        TreePath(Vec::new())
    }

    /// The child indexes from the root, outermost first.
    pub fn indexes(&self) -> &[usize] {
        &self.0
    }

    fn child(&self, index: usize) -> TreePath {
        let mut v = self.0.clone();
        v.push(index);
        TreePath(v)
    }

    /// Resolves the path inside `condition`, returning the addressed cell
    /// (`None` when the path does not exist in this tree).
    pub fn resolve<'c>(&self, condition: &'c Condition) -> Option<&'c Condition> {
        let mut cell = condition;
        for &index in &self.0 {
            match cell {
                Condition::Set(s) => cell = s.members().get(index)?,
                Condition::Destination(_) => return None,
            }
        }
        Some(cell)
    }
}

impl fmt::Display for TreePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("root")?;
        for index in &self.0 {
            write!(f, ".{index}")?;
        }
        Ok(())
    }
}

/// One analyzer finding, anchored to a cell of the condition tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// The rule's severity.
    pub severity: Severity,
    /// Path to the offending cell.
    pub path: TreePath,
    /// Human-readable explanation with the concrete values involved.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.rule, self.path, self.message
        )
    }
}

/// Send-time context the analyzer can take into account.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeContext {
    /// The effective evaluation timeout of the send (per-send override or
    /// config default); enables the `timeout-shadow` rule.
    pub evaluation_timeout: Option<Millis>,
    /// The evaluation manager's ack grace (deadline triggers fire at
    /// `deadline + grace`); sharpens `timeout-shadow`.
    pub ack_grace: Millis,
    /// Whether the send carries application compensation data; `Some(false)`
    /// enables the `missing-compensation` rule, `None` (standalone
    /// analysis) disables it.
    pub has_compensation: Option<bool>,
}

/// The outcome of analyzing one condition tree.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// All diagnostics, errors first, in tree order within a severity.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The error diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error-severity rule fired.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the tree is free of findings at any severity.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Converts the report into a typed error when it contains
    /// error-severity diagnostics.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the original report when there are no errors.
    pub fn into_error(self) -> Result<AnalyzeError, Report> {
        if self.has_errors() {
            Ok(AnalyzeError {
                diagnostics: self
                    .diagnostics
                    .into_iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect(),
            })
        } else {
            Err(self)
        }
    }
}

/// Typed rejection carrying the error-severity [`Diagnostic`]s that made a
/// condition tree statically unacceptable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    diagnostics: Vec<Diagnostic>,
}

impl AnalyzeError {
    /// The error diagnostics (at least one).
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

/// Analyzes a condition tree with no send-time context (the
/// context-dependent rules `timeout-shadow` and `missing-compensation`
/// stay silent).
pub fn analyze(condition: &Condition) -> Report {
    analyze_with(condition, &AnalyzeContext::default())
}

/// Analyzes a condition tree under a send-time [`AnalyzeContext`].
///
/// The analyzer assumes the tree already passes
/// [`Condition::validate`]; on an invalid tree it still terminates but
/// may miss findings.
pub fn analyze_with(condition: &Condition, ctx: &AnalyzeContext) -> Report {
    let mut w = Walker {
        ctx,
        diagnostics: Vec::new(),
        seen_addresses: HashMap::new(),
        any_constraint: false,
    };
    w.walk(condition, &TreePath::root(), [None, None]);
    w.finish_root(condition);
    let mut diagnostics = w.diagnostics;
    diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
    Report { diagnostics }
}

/// Per-leaf most-specific windows of a subtree, `[pickup, process]`,
/// mirroring the window-inheritance rules of
/// [`CompiledCondition`](crate::CompiledCondition).
struct SubtreeLeaves {
    entries: Vec<[Option<Millis>; 2]>,
}

struct Walker<'a> {
    ctx: &'a AnalyzeContext,
    diagnostics: Vec<Diagnostic>,
    /// Destination address → path of its first occurrence.
    seen_addresses: HashMap<String, TreePath>,
    /// Whether any time window exists anywhere in the tree.
    any_constraint: bool,
}

const DIMS: [Dimension; 2] = [Dimension::Pickup, Dimension::Process];

impl Walker<'_> {
    fn report(&mut self, rule: Rule, path: &TreePath, message: String) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity: rule.severity(),
            path: path.clone(),
            message,
        });
    }

    /// `zero-window`, `non-monotonic-window` and `timeout-shadow` apply to
    /// any node carrying a window; `enclosing` is the nearest ancestor set
    /// window per dimension.
    fn check_window(
        &mut self,
        dim: Dimension,
        window: Option<Millis>,
        enclosing: Option<Millis>,
        path: &TreePath,
    ) {
        let Some(window) = window else { return };
        self.any_constraint = true;
        if window == Millis::ZERO {
            self.report(
                Rule::ZeroWindow,
                path,
                format!(
                    "{dim} window is 0 ms: only an acknowledgment stamped at \
                     the send instant could satisfy it"
                ),
            );
        }
        if let Some(outer) = enclosing {
            if window > outer {
                self.report(
                    Rule::NonMonotonicWindow,
                    path,
                    format!(
                        "{dim} window {window} extends past the enclosing set's \
                         {outer}; the enclosing deadline does not bound this member"
                    ),
                );
            }
        }
        if let Some(timeout) = self.ctx.evaluation_timeout {
            if window + self.ctx.ack_grace >= timeout {
                self.report(
                    Rule::TimeoutShadow,
                    path,
                    format!(
                        "{dim} deadline at {window} (+{} grace) can never fire \
                         before the {timeout} evaluation timeout: its verdict \
                         degrades to a generic timeout failure",
                        self.ctx.ack_grace
                    ),
                );
            }
        }
    }

    fn walk(
        &mut self,
        condition: &Condition,
        path: &TreePath,
        enclosing: [Option<Millis>; 2],
    ) -> SubtreeLeaves {
        match condition {
            Condition::Destination(d) => self.walk_leaf(d, path, enclosing),
            Condition::Set(s) => self.walk_set(s, path, enclosing),
        }
    }

    fn walk_leaf(
        &mut self,
        d: &Destination,
        path: &TreePath,
        enclosing: [Option<Millis>; 2],
    ) -> SubtreeLeaves {
        let windows = [d.pickup_window(), d.process_window()];
        for (i, dim) in DIMS.into_iter().enumerate() {
            self.check_window(dim, windows[i], enclosing[i], path);
        }
        if let (Some(pickup), Some(process)) = (d.pickup_window(), d.process_window()) {
            if pickup > process {
                self.report(
                    Rule::PickupAfterProcess,
                    path,
                    format!(
                        "pick-up window {pickup} extends past the processing \
                         window {process}: processing implies a prior read, so \
                         the tail of the pick-up window is dead code"
                    ),
                );
            }
        }
        let address = d.address().to_string();
        if let Some(first) = self.seen_addresses.get(&address) {
            let first = first.clone();
            self.report(
                Rule::DuplicateDestination,
                path,
                format!(
                    "destination {address} already appears at {first}: the \
                     recipient receives two copies and both must be \
                     acknowledged separately"
                ),
            );
        } else {
            self.seen_addresses.insert(address, path.clone());
        }
        SubtreeLeaves {
            entries: vec![windows],
        }
    }

    fn walk_set(
        &mut self,
        s: &DestinationSet,
        path: &TreePath,
        enclosing: [Option<Millis>; 2],
    ) -> SubtreeLeaves {
        let set_windows = [s.pickup_window(), s.process_window()];
        let mut inner = enclosing;
        for (i, dim) in DIMS.into_iter().enumerate() {
            self.check_window(dim, set_windows[i], enclosing[i], path);
            // Nearest-ancestor window for the members.
            inner[i] = set_windows[i].or(enclosing[i]);
        }
        if s.members().len() == 1 {
            self.report(
                Rule::TrivialSet,
                path,
                "set has a single member: its grouping and counts degenerate \
                 to the member itself"
                    .to_owned(),
            );
        }
        let mut entries = Vec::new();
        for (i, member) in s.members().iter().enumerate() {
            let sub = self.walk(member, &path.child(i), inner);
            entries.extend(sub.entries);
        }
        for (i, dim) in DIMS.into_iter().enumerate() {
            let (min, max) = match dim {
                Dimension::Pickup => (s.min_pickup_count(), s.max_pickup_count()),
                Dimension::Process => (s.min_process_count(), s.max_process_count()),
            };
            let Some(window) = set_windows[i] else {
                continue;
            };
            // A member is satisfiable for this set's count if its effective
            // window — its own most-specific window, else this set's — is
            // wider than zero. Zero-width members propagate up through
            // nested sets via the entries they contribute.
            let satisfiable = entries
                .iter()
                .filter(|e| e[i].unwrap_or(window) > Millis::ZERO)
                .count();
            let required = min.unwrap_or(entries.len() as u32) as usize;
            if required > satisfiable {
                self.report(
                    Rule::UnsatisfiableCount,
                    path,
                    format!(
                        "{dim} count requires {required} member(s) but only \
                         {satisfiable} of {} are satisfiable (zero-width \
                         windows discounted)",
                        entries.len()
                    ),
                );
            }
            if let Some(cap) = max {
                if cap as usize >= entries.len() {
                    self.report(
                        Rule::RedundantMax,
                        path,
                        format!(
                            "{dim} max count {cap} is not below the {} member \
                             destination(s): the cap never binds",
                            entries.len()
                        ),
                    );
                }
            }
            // This set's window becomes the fallback most-specific window
            // for members that had none, exactly as in compilation.
            for entry in &mut entries {
                entry[i] = entry[i].or(Some(window));
            }
        }
        SubtreeLeaves { entries }
    }

    fn finish_root(&mut self, condition: &Condition) {
        let root = TreePath::root();
        if !self.any_constraint {
            self.report(
                Rule::VacuousSuccess,
                &root,
                format!(
                    "no time constraint anywhere over {} destination(s): the \
                     condition evaluates to success with zero acknowledgments",
                    condition.leaf_count()
                ),
            );
        }
        if self.ctx.has_compensation == Some(false) && self.any_constraint {
            self.report(
                Rule::MissingCompensation,
                &root,
                "failable condition sent without application compensation \
                 data: on failure every destination receives only a \
                 system-generated compensation marker"
                    .to_owned(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(q: &str) -> Condition {
        crate::condition::Destination::queue("QM", q).into()
    }

    fn ctx() -> AnalyzeContext {
        AnalyzeContext::default()
    }

    fn rules_of(report: &Report) -> Vec<Rule> {
        report.diagnostics().iter().map(|d| d.rule).collect()
    }

    use crate::condition::{Destination, DestinationSet};

    // -------------------------------------------------- zero-window --

    #[test]
    fn zero_window_rejected() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis::ZERO)
            .into();
        let report = analyze(&cond);
        assert!(report.has_errors());
        assert!(rules_of(&report).contains(&Rule::ZeroWindow));
        assert_eq!(report.errors().next().unwrap().path, TreePath::root());
    }

    #[test]
    fn positive_window_accepted() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis(100))
            .into();
        let report = analyze(&cond);
        assert!(!rules_of(&report).contains(&Rule::ZeroWindow));
        assert!(!report.has_errors());
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
            .errors()
            .filter(|d| d.rule == Rule::UnsatisfiableCount)
            .collect();
        assert_eq!(unsat.len(), 1, "{report:?}");
        assert_eq!(unsat[0].path, TreePath::root());
        assert!(unsat[0].message.contains("requires 2"));
    }

    #[test]
    fn min_count_within_satisfiable_members_accepted() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B"), leaf("C")])
            .process_within(Millis(500))
            .min_process(2)
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::UnsatisfiableCount));
    }

    // ---------------------------------------------- vacuous-success --

    #[test]
    fn unconstrained_tree_warns_vacuous() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B")]).into();
        let report = analyze(&cond);
        assert!(rules_of(&report).contains(&Rule::VacuousSuccess));
        assert!(!report.has_errors(), "vacuity is a warning, not an error");
    }

    #[test]
    fn any_window_suppresses_vacuous() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B")])
            .pickup_within(Millis(100))
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::VacuousSuccess));
    }

    // ----------------------------------------- non-monotonic-window --

    #[test]
    fn member_window_past_set_window_warns() {
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("QM", "A")
                .pickup_within(Millis(200))
                .into(),
            leaf("B"),
        ])
        .pickup_within(Millis(100))
        .into();
        let report = analyze(&cond);
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::NonMonotonicWindow)
            .expect("non-monotonic member window flagged");
        assert_eq!(diag.path.indexes(), &[0]);
    }

    #[test]
    fn member_window_inside_set_window_accepted() {
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("QM", "A")
                .pickup_within(Millis(50))
                .into(),
            leaf("B"),
        ])
        .pickup_within(Millis(100))
        .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::NonMonotonicWindow));
    }

    #[test]
    fn monotonicity_uses_nearest_ancestor_across_dimensions() {
        // Process window compared against process ancestors only.
        let inner = DestinationSet::of(vec![
            Destination::queue("QM", "A")
                .process_within(Millis(900))
                .into(),
            leaf("B"),
        ])
        .process_within(Millis(1_000));
        let cond: Condition = DestinationSet::of(vec![inner.into(), leaf("C")])
            .pickup_within(Millis(10))
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::NonMonotonicWindow));
    }

    // ------------------------------------------------ timeout-shadow --

    #[test]
    fn deadline_past_evaluation_timeout_warns() {
        let cond: Condition = Destination::queue("QM", "Q")
            .process_within(Millis(10_000))
            .into();
        let report = analyze_with(
            &cond,
            &AnalyzeContext {
                evaluation_timeout: Some(Millis(500)),
                ..ctx()
            },
        );
        assert!(rules_of(&report).contains(&Rule::TimeoutShadow));
    }

    #[test]
    fn deadline_before_evaluation_timeout_accepted() {
        let cond: Condition = Destination::queue("QM", "Q")
            .process_within(Millis(400))
            .into();
        let report = analyze_with(
            &cond,
            &AnalyzeContext {
                evaluation_timeout: Some(Millis(500)),
                ..ctx()
            },
        );
        assert!(!rules_of(&report).contains(&Rule::TimeoutShadow));
    }

    #[test]
    fn ack_grace_counts_toward_timeout_shadow() {
        // 400 ms deadline + 200 ms grace fires at 600 ≥ 500: shadowed.
        let cond: Condition = Destination::queue("QM", "Q")
            .process_within(Millis(400))
            .into();
        let report = analyze_with(
            &cond,
            &AnalyzeContext {
                evaluation_timeout: Some(Millis(500)),
                ack_grace: Millis(200),
                ..ctx()
            },
        );
        assert!(rules_of(&report).contains(&Rule::TimeoutShadow));
    }

    // ----------------------------------------- duplicate-destination --

    #[test]
    fn duplicate_destination_warns_with_first_path() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B"), leaf("A")])
            .pickup_within(Millis(100))
            .into();
        let report = analyze(&cond);
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == Rule::DuplicateDestination)
            .expect("duplicate flagged");
        assert_eq!(diag.path.indexes(), &[2]);
        assert!(diag.message.contains("root.0"), "{}", diag.message);
    }

    #[test]
    fn distinct_destinations_accepted() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B")])
            .pickup_within(Millis(100))
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::DuplicateDestination));
    }

    // ----------------------------------------- missing-compensation --

    #[test]
    fn failable_send_without_compensation_warns() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis(100))
            .into();
        let report = analyze_with(
            &cond,
            &AnalyzeContext {
                has_compensation: Some(false),
                ..ctx()
            },
        );
        assert!(rules_of(&report).contains(&Rule::MissingCompensation));
    }

    #[test]
    fn compensated_send_and_standalone_analysis_accepted() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis(100))
            .into();
        let with = analyze_with(
            &cond,
            &AnalyzeContext {
                has_compensation: Some(true),
                ..ctx()
            },
        );
        assert!(!rules_of(&with).contains(&Rule::MissingCompensation));
        // Standalone analysis has no send context: rule stays silent.
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::MissingCompensation));
    }

    // ----------------------------------------- pickup-after-process --

    #[test]
    fn pickup_window_past_process_window_warns() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis(300))
            .process_within(Millis(100))
            .into();
        assert!(rules_of(&analyze(&cond)).contains(&Rule::PickupAfterProcess));
    }

    #[test]
    fn pickup_window_within_process_window_accepted() {
        let cond: Condition = Destination::queue("QM", "Q")
            .pickup_within(Millis(100))
            .process_within(Millis(300))
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::PickupAfterProcess));
    }

    // ----------------------------------------------- redundant-max --

    #[test]
    fn max_count_at_member_count_warns() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B")])
            .pickup_within(Millis(100))
            .min_pickup(1)
            .max_pickup(2)
            .into();
        assert!(rules_of(&analyze(&cond)).contains(&Rule::RedundantMax));
    }

    #[test]
    fn binding_max_count_accepted() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B"), leaf("C")])
            .pickup_within(Millis(100))
            .min_pickup(1)
            .max_pickup(2)
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::RedundantMax));
    }

    // -------------------------------------------------- trivial-set --

    #[test]
    fn single_member_set_warns() {
        let cond: Condition = DestinationSet::of(vec![leaf("A")])
            .pickup_within(Millis(100))
            .into();
        assert!(rules_of(&analyze(&cond)).contains(&Rule::TrivialSet));
    }

    #[test]
    fn multi_member_set_accepted() {
        let cond: Condition = DestinationSet::of(vec![leaf("A"), leaf("B")])
            .pickup_within(Millis(100))
            .into();
        assert!(!rules_of(&analyze(&cond)).contains(&Rule::TrivialSet));
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
        assert!(report.is_clean(), "{:?}", report.diagnostics());
    }

    #[test]
    fn errors_sort_before_warnings_and_convert() {
        let cond: Condition = DestinationSet::of(vec![Destination::queue("QM", "Q")
            .pickup_within(Millis::ZERO)
            .into()])
        .into();
        let report = analyze(&cond);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);
        let err = report.clone().into_error().unwrap();
        assert!(err.diagnostics().iter().all(|d| d.severity == Severity::Error));
        assert!(err.to_string().contains("zero-window"));
        // A clean report refuses the conversion.
        let clean = analyze(
            &Destination::queue("QM", "Q")
                .pickup_within(Millis(10))
                .into(),
        );
        assert!(clean.into_error().is_err());
    }

    #[test]
    fn tree_path_resolves_cells() {
        let inner: Condition = DestinationSet::of(vec![leaf("X"), leaf("Y")])
            .process_within(Millis(10))
            .into();
        let cond: Condition = DestinationSet::of(vec![leaf("A"), inner])
            .pickup_within(Millis(10))
            .into();
        let path = TreePath::root().child(1).child(0);
        assert_eq!(path.to_string(), "root.1.0");
        match path.resolve(&cond) {
            Some(Condition::Destination(d)) => assert_eq!(d.address().queue, "X"),
            other => panic!("resolved {other:?}"),
        }
        assert!(TreePath::root().child(7).resolve(&cond).is_none());
    }
}
