//! Condition evaluation (paper §2.5).
//!
//! A [`Condition`] tree is *compiled* into a flat list of constraints over
//! its destination leaves:
//!
//! * a [`LeafConstraint`] for every destination with its own time window
//!   (a *required destination*), and
//! * a [`CountConstraint`] for every set-level window, requiring
//!   `min..` of the set's descendant leaves to satisfy the window
//!   (`min` defaults to *all* of them, per the paper: a set-level time
//!   condition "applies per default to all members of the set").
//!
//! Window inheritance is nearest-ancestor: a leaf's effective window inside
//! a set's count is its own window if present, else the most deeply nested
//! set window between it and the declaring set, else the declaring set's
//! window.
//!
//! Evaluation is tri-state ([`Verdict`]): as acknowledgments arrive the
//! verdict may flip to [`Verdict::Satisfied`] *early* (all constraints met)
//! or to [`Verdict::Violated`] *early* (a deadline passed unmet, a late
//! timestamp, or a count that can no longer be reached) — the evaluation
//! manager does not need to wait for the full window.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use mq::{Priority, QueueAddress};
use simtime::{Millis, Time};

use crate::condition::{Condition, Destination};
use crate::error::CondResult;

/// Which recipient action a time window constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Message read from the queue (`MsgPickUpTime`).
    Pickup,
    /// Successful (transactional) processing (`MsgProcessingTime`).
    Process,
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dimension::Pickup => write!(f, "pick-up"),
            Dimension::Process => write!(f, "processing"),
        }
    }
}

/// The evaluation result of a condition (or one constraint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Not yet decidable; more acknowledgments or time needed.
    Pending,
    /// The condition is satisfied (message success).
    Satisfied,
    /// The condition is violated (message failure); carries the first
    /// violation's reason.
    Violated(String),
}

impl Verdict {
    /// `true` for [`Verdict::Satisfied`].
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Verdict::Satisfied)
    }

    /// `true` for [`Verdict::Violated`].
    pub fn is_violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// `true` once the verdict is no longer [`Verdict::Pending`].
    pub fn is_decided(&self) -> bool {
        !matches!(self, Verdict::Pending)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pending => write!(f, "pending"),
            Verdict::Satisfied => write!(f, "satisfied"),
            Verdict::Violated(reason) => write!(f, "violated: {reason}"),
        }
    }
}

/// Everything the sender needs to generate and track the standard message
/// for one destination leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSpec {
    /// Leaf index in definition order; correlates messages and acks.
    pub index: u32,
    /// Destination queue.
    pub queue: QueueAddress,
    /// Named final recipient, if any (`None` = anonymous).
    pub recipient: Option<String>,
    /// The leaf's final effective pick-up window, if any applies.
    pub pickup_window: Option<Millis>,
    /// The leaf's final effective processing window, if any applies.
    pub process_window: Option<Millis>,
    /// Whether processing (not just receipt) is expected of this
    /// destination; stamped on the outgoing message (paper §2.3).
    pub processing_expected: bool,
    /// Effective message expiry.
    pub expiry: Option<Millis>,
    /// Effective message persistence (defaults to `true`: conditional
    /// messaging is built on *reliable* messaging).
    pub persistent: bool,
    /// Effective delivery priority.
    pub priority: Priority,
}

/// A required destination's own time window.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafConstraint {
    /// Which action is constrained.
    pub dim: Dimension,
    /// Constrained leaf index.
    pub leaf: u32,
    /// Window relative to the send timestamp.
    pub window: Millis,
}

/// A set-level window over a group of leaves with a minimum count.
#[derive(Debug, Clone, PartialEq)]
pub struct CountConstraint {
    /// Which action is constrained.
    pub dim: Dimension,
    /// At least this many members must satisfy their window.
    pub min: u32,
    /// Counting cap (`MaxNrPickUp`/`MaxNrProcessing`): acknowledgments
    /// beyond this many satisfiers are not waited for.
    pub max: Option<u32>,
    /// `(leaf index, effective window)` for each member leaf.
    pub members: Vec<(u32, Millis)>,
}

/// A compiled condition: leaf specs plus flat constraints, lowered once
/// more into the cells every [`IncrementalEval`] of it shares.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCondition {
    leaves: Vec<LeafSpec>,
    leaf_constraints: Vec<LeafConstraint>,
    count_constraints: Vec<CountConstraint>,
    cells: Arc<Cells>,
}

/// Result of compiling a subtree: per-leaf most-specific windows inside it.
struct SubtreeLeaves {
    /// (leaf index, specific pickup window, specific process window)
    entries: Vec<(u32, Option<Millis>, Option<Millis>)>,
}

impl CompiledCondition {
    /// Compiles (and validates) a condition.
    ///
    /// # Errors
    ///
    /// Propagates [`Condition::validate`] errors.
    pub fn compile(condition: &Condition) -> CondResult<CompiledCondition> {
        condition.validate()?;
        let mut compiled = CompiledCondition {
            leaves: Vec::new(),
            leaf_constraints: Vec::new(),
            count_constraints: Vec::new(),
            cells: Arc::default(),
        };
        let defaults = InheritedAttrs {
            expiry: None,
            persistent: None,
            priority: None,
        };
        let subtree = compiled.walk(condition, &defaults)?;
        // Finalize leaf effective windows (root has nothing further to add).
        for (idx, pickup, process) in subtree.entries {
            let leaf = &mut compiled.leaves[idx as usize];
            leaf.pickup_window = pickup;
            leaf.process_window = process;
            leaf.processing_expected = process.is_some();
        }
        compiled.cells = Arc::new(Cells::lower(
            &compiled.leaves,
            &compiled.leaf_constraints,
            &compiled.count_constraints,
        ));
        Ok(compiled)
    }

    fn walk(
        &mut self,
        condition: &Condition,
        inherited: &InheritedAttrs,
    ) -> CondResult<SubtreeLeaves> {
        match condition {
            Condition::Destination(d) => Ok(self.walk_leaf(d, inherited)),
            Condition::Set(set) => {
                let attrs = InheritedAttrs {
                    expiry: set.expiry_ttl().or(inherited.expiry),
                    persistent: set.persistence().or(inherited.persistent),
                    priority: set.priority_override().or(inherited.priority),
                };
                let mut entries = Vec::new();
                for member in set.members() {
                    let sub = self.walk(member, &attrs)?;
                    entries.extend(sub.entries);
                }
                for (dim, window, min, max) in [
                    (
                        Dimension::Pickup,
                        set.pickup_window(),
                        set.min_pickup_count(),
                        set.max_pickup_count(),
                    ),
                    (
                        Dimension::Process,
                        set.process_window(),
                        set.min_process_count(),
                        set.max_process_count(),
                    ),
                ] {
                    let Some(window) = window else { continue };
                    let members: Vec<(u32, Millis)> = entries
                        .iter()
                        .map(|(idx, pickup, process)| {
                            let specific = match dim {
                                Dimension::Pickup => *pickup,
                                Dimension::Process => *process,
                            };
                            (*idx, specific.unwrap_or(window))
                        })
                        .collect();
                    let min = min.unwrap_or(members.len() as u32);
                    self.count_constraints.push(CountConstraint {
                        dim,
                        min,
                        max,
                        members,
                    });
                    // The set's window becomes the most-specific window for
                    // members that had none, for constraints further up.
                    for entry in &mut entries {
                        match dim {
                            Dimension::Pickup => {
                                entry.1 = entry.1.or(Some(window));
                            }
                            Dimension::Process => {
                                entry.2 = entry.2.or(Some(window));
                            }
                        }
                    }
                }
                Ok(SubtreeLeaves { entries })
            }
        }
    }

    fn walk_leaf(&mut self, d: &Destination, inherited: &InheritedAttrs) -> SubtreeLeaves {
        let index = self.leaves.len() as u32;
        self.leaves.push(LeafSpec {
            index,
            queue: d.address().clone(),
            recipient: d.recipient_id().map(str::to_owned),
            pickup_window: d.pickup_window(),
            process_window: d.process_window(),
            processing_expected: d.process_window().is_some(),
            expiry: d.expiry_ttl().or(inherited.expiry),
            persistent: d.persistence().or(inherited.persistent).unwrap_or(true),
            priority: d
                .priority_override()
                .or(inherited.priority)
                .unwrap_or_default(),
        });
        if let Some(w) = d.pickup_window() {
            self.leaf_constraints.push(LeafConstraint {
                dim: Dimension::Pickup,
                leaf: index,
                window: w,
            });
        }
        if let Some(w) = d.process_window() {
            self.leaf_constraints.push(LeafConstraint {
                dim: Dimension::Process,
                leaf: index,
                window: w,
            });
        }
        SubtreeLeaves {
            entries: vec![(index, d.pickup_window(), d.process_window())],
        }
    }

    /// The destination leaf specs, in leaf-index order.
    pub fn leaves(&self) -> &[LeafSpec] {
        &self.leaves
    }

    /// The compiled required-destination constraints.
    pub fn leaf_constraints(&self) -> &[LeafConstraint] {
        &self.leaf_constraints
    }

    /// The compiled set-level count constraints.
    pub fn count_constraints(&self) -> &[CountConstraint] {
        &self.count_constraints
    }

    /// Evaluates the condition against the acknowledgments observed so far.
    ///
    /// `send_time` is the conditional message's send timestamp; `now` is
    /// the current (sender-clock) time, used to detect passed deadlines.
    pub fn evaluate(&self, acks: &AckState, send_time: Time, now: Time) -> Verdict {
        self.evaluate_with_grace(acks, send_time, now, Millis::ZERO)
    }

    /// Like [`CompiledCondition::evaluate`], but a *missing* acknowledgment
    /// only counts as a violation once `grace` has additionally elapsed
    /// past the deadline. Acknowledgment timestamps are still compared
    /// against the true deadline, so a late-arriving ack with a timely
    /// timestamp can still satisfy the condition — this models the paper's
    /// Example 2, where the pick-up requirement is 20 s but the evaluation
    /// timeout is 21 s, leaving 1 s for acks in transit.
    ///
    /// This is the reference evaluator: it re-walks every constraint on
    /// each call. The messenger never calls it; an [`IncrementalEval`]
    /// renders the same verdict, reason included, from state it keeps up
    /// to date per acknowledgment and per deadline, and the property tests
    /// hold the two equal.
    pub fn evaluate_with_grace(
        &self,
        acks: &AckState,
        send_time: Time,
        now: Time,
        grace: Millis,
    ) -> Verdict {
        let stamp = |leaf: u32, dim| {
            let ack = acks.leaf(leaf);
            match dim {
                Dimension::Pickup => ack.and_then(|a| a.read_at),
                Dimension::Process => ack.and_then(|a| a.processed_at),
            }
        };
        let status = |stamp: Option<Time>, deadline: Time| match stamp {
            Some(t) if t <= deadline => CellState::Satisfied,
            None if now <= deadline + grace => CellState::Pending,
            _ => CellState::Violated,
        };
        let mut all_satisfied = true;
        for c in &self.leaf_constraints {
            let (stamp, deadline) = (stamp(c.leaf, c.dim), send_time + c.window);
            match status(stamp, deadline) {
                CellState::Satisfied => {}
                CellState::Pending => all_satisfied = false,
                CellState::Violated => {
                    let label = destination_label(&self.leaves, c.leaf);
                    return Verdict::Violated(leaf_reason(&label, c.dim, stamp, deadline));
                }
            }
        }
        for c in &self.count_constraints {
            let mut satisfied = 0u32;
            let mut pending = 0u32;
            for (leaf, window) in &c.members {
                match status(stamp(*leaf, c.dim), send_time + *window) {
                    CellState::Satisfied => satisfied += 1,
                    CellState::Pending => pending += 1,
                    CellState::Violated => {}
                }
            }
            if satisfied >= c.min {
                continue;
            }
            all_satisfied = false;
            if satisfied + pending < c.min {
                let members = c.members.len();
                return Verdict::Violated(count_reason(c.dim, c.min, members, satisfied + pending));
            }
        }
        if all_satisfied {
            Verdict::Satisfied
        } else {
            Verdict::Pending
        }
    }
}

/// How a verdict names a required destination.
fn destination_label(leaves: &[LeafSpec], leaf: u32) -> String {
    let name = leaves.get(leaf as usize).map(|l| l.queue.to_string());
    format!("destination {leaf} ({})", name.as_deref().unwrap_or("?"))
}

/// The reason of a required destination's violated window: its stamp came
/// after the deadline, or none came by it.
fn leaf_reason(label: &str, dim: Dimension, stamp: Option<Time>, deadline: Time) -> String {
    match stamp {
        Some(t) => format!("{label}: {dim} at {t} after deadline {deadline}"),
        None => format!("{label}: no {dim} by deadline {deadline}"),
    }
}

/// The reason of a count constraint that can no longer be met.
fn count_reason(dim: Dimension, min: u32, members: usize, possible: u32) -> String {
    format!("{dim} by {min} of {members} destinations required, only {possible} possible")
}

/// Status of one `(constraint, member)` evaluation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Pending,
    Satisfied,
    Violated,
}

/// The evaluation cells of a compiled condition, one per `(constraint,
/// member)`, and each leaf's back-edges to them: what every
/// [`IncrementalEval`] of the condition shares, since it is the same for
/// every message sent under it.
#[derive(Debug, Default, PartialEq)]
struct Cells {
    /// The leaf constraints' cells first, then each count constraint's
    /// members in order.
    cells: Vec<CellSpec>,
    /// How each leaf constraint's destination is named in a verdict,
    /// indexed like its cell.
    labels: Vec<String>,
    /// Each count constraint: its run of `cells`, its dimension and its
    /// minimum.
    counts: Vec<CountCells>,
    /// Each leaf's cells, as indexes into `cells`.
    by_leaf: Vec<Vec<usize>>,
}

/// One cell: the action it constrains, its window relative to the send
/// timestamp and the tally it counts in (0 for the leaf constraints,
/// `k + 1` for count constraint `k`).
#[derive(Debug, PartialEq)]
struct CellSpec {
    dim: Dimension,
    window: Millis,
    tally: usize,
}

/// The cells of one compiled [`CountConstraint`].
#[derive(Debug, PartialEq)]
struct CountCells {
    cells: Range<usize>,
    dim: Dimension,
    min: u32,
}

impl Cells {
    /// Lowers the constraints of a condition over `leaves`.
    fn lower(
        leaves: &[LeafSpec],
        leaf_constraints: &[LeafConstraint],
        count_constraints: &[CountConstraint],
    ) -> Cells {
        let mut lowered = Cells {
            by_leaf: vec![Vec::new(); leaves.len()],
            ..Cells::default()
        };
        for c in leaf_constraints {
            lowered.push(c.leaf, c.dim, c.window, 0);
            lowered.labels.push(destination_label(leaves, c.leaf));
        }
        for (k, c) in count_constraints.iter().enumerate() {
            let first = lowered.cells.len();
            for (leaf, window) in &c.members {
                lowered.push(*leaf, c.dim, *window, k + 1);
            }
            lowered.counts.push(CountCells {
                cells: first..lowered.cells.len(),
                dim: c.dim,
                min: c.min,
            });
        }
        lowered
    }

    fn push(&mut self, leaf: u32, dim: Dimension, window: Millis, tally: usize) {
        self.by_leaf[leaf as usize].push(self.cells.len());
        self.cells.push(CellSpec { dim, window, tally });
    }
}

/// Satisfied and violated cells of one constraint group.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    satisfied: u32,
    violated: u32,
}

/// Event-driven evaluation state for one pending message: the evaluator
/// the messenger runs.
///
/// `IncrementalEval` keeps one status per `(constraint, member)` cell with
/// per-constraint satisfied/violated tallies; the cells' dimensions,
/// windows, per-leaf back-edges and the names its reasons print are
/// lowered once per condition, at compile time, and shared. Recording one
/// acknowledgment stamp touches only the cells of that leaf (O(depth),
/// i.e. the leaf's constraint memberships), and the passage of time
/// touches only cells still pending; decidability falls out of the
/// tallies immediately. At the decision instant
/// [`IncrementalEval::verdict`] renders the verdict itself, reason string
/// included, byte-identical to
/// [`CompiledCondition::evaluate_with_grace`] over the same stamps at the
/// same instant. What a message holds of its own is its send time, its
/// cell states, its tallies and the earliest stamp of each leaf
/// constraint, the one a reason prints.
#[derive(Debug, Clone)]
pub struct IncrementalEval {
    cells: Arc<Cells>,
    send_time: Time,
    grace: Millis,
    /// Each cell's state, indexed like [`Cells::cells`].
    states: Vec<CellState>,
    /// The earliest stamp seen for each leaf constraint's cell.
    stamps: Vec<Option<Time>>,
    /// The leaf constraints' tally, then each count constraint's.
    tallies: Vec<Tally>,
}

impl IncrementalEval {
    /// The incremental form of a message sent at `send_time` under
    /// `compiled`, no acknowledgment seen yet. `grace` mirrors the
    /// messenger's ack grace: a *missing* acknowledgment only violates once
    /// `deadline + grace` has strictly passed, while acknowledgment stamps
    /// are compared against the true deadline — the same rules as
    /// [`CompiledCondition::evaluate_with_grace`].
    pub fn new(compiled: &CompiledCondition, send_time: Time, grace: Millis) -> IncrementalEval {
        let cells = Arc::clone(&compiled.cells);
        IncrementalEval {
            states: vec![CellState::Pending; cells.cells.len()],
            stamps: vec![None; cells.labels.len()],
            tallies: vec![Tally::default(); cells.counts.len() + 1],
            cells,
            send_time,
            grace,
        }
    }

    /// Records that `leaf` did `dim` at `at` (a processing acknowledgment
    /// records its read too, as its own call). Returns the number of cell
    /// transitions performed (the `cond.eval.incremental_updates` unit).
    /// Idempotent; an earlier stamp wins.
    ///
    /// Transitions are monotone except `Violated → Satisfied`: an
    /// earlier-stamped redelivery can improve a stamp, and stamps are
    /// checked before deadlines, so a timely stamp wins over an earlier
    /// time-based violation of the same cell.
    pub fn record(&mut self, leaf: u32, dim: Dimension, at: Time) -> u64 {
        let Some(refs) = self.cells.by_leaf.get(leaf as usize) else {
            return 0;
        };
        let mut updates = 0;
        for &i in refs {
            let cell = &self.cells.cells[i];
            if cell.dim != dim {
                continue;
            }
            if let Some(stamp) = self.stamps.get_mut(i) {
                *stamp = Some(stamp.map_or(at, |t| t.min(at)));
            }
            let target = if at <= self.send_time + cell.window {
                CellState::Satisfied
            } else {
                CellState::Violated
            };
            if set_cell(&mut self.states[i], &mut self.tallies[cell.tally], target) {
                updates += 1;
            }
        }
        updates
    }

    /// Folds the stamps `acks` holds for `leaf` in, as
    /// [`IncrementalEval::record`] does one at a time: how the reference
    /// state of the property tests and the micro benchmark feeds it.
    pub fn apply_ack(&mut self, leaf: u32, acks: &AckState) -> u64 {
        let Some(ack) = acks.leaf(leaf) else {
            return 0;
        };
        let read = ack.read_at.map_or(0, |at| self.record(leaf, Dimension::Pickup, at));
        read + ack
            .processed_at
            .map_or(0, |at| self.record(leaf, Dimension::Process, at))
    }

    /// Flips cells whose deadline (plus grace) has strictly passed without
    /// an acknowledgment. Returns the number of transitions.
    pub fn on_time(&mut self, now: Time) -> u64 {
        let mut updates = 0;
        for (cell, state) in self.cells.cells.iter().zip(&mut self.states) {
            if *state == CellState::Pending && now > self.send_time + cell.window + self.grace {
                set_cell(state, &mut self.tallies[cell.tally], CellState::Violated);
                updates += 1;
            }
        }
        updates
    }

    /// Whether the verdict is decided.
    pub fn decided(&self) -> bool {
        self.verdict().is_decided()
    }

    /// The verdict as the cells stand, checked in the order of
    /// [`CompiledCondition::evaluate_with_grace`] and rendered as it
    /// renders it for these stamps at the instant last passed to
    /// [`IncrementalEval::on_time`]: the first violated required
    /// destination, else the first count constraint that can no longer
    /// reach its minimum, else satisfied once every constraint is.
    pub fn verdict(&self) -> Verdict {
        let leaf_cells = self.stamps.len();
        let violated = self.states[..leaf_cells].iter().position(|s| *s == CellState::Violated);
        if let Some(i) = violated {
            let cell = &self.cells.cells[i];
            let deadline = self.send_time + cell.window;
            let label = &self.cells.labels[i];
            return Verdict::Violated(leaf_reason(label, cell.dim, self.stamps[i], deadline));
        }
        let counts = || self.cells.counts.iter().zip(&self.tallies[1..]);
        for (count, tally) in counts() {
            let possible = count.cells.len() as u32 - tally.violated;
            if possible < count.min {
                let members = count.cells.len();
                return Verdict::Violated(count_reason(count.dim, count.min, members, possible));
            }
        }
        let all = self.tallies[0].satisfied as usize == leaf_cells
            && counts().all(|(count, tally)| tally.satisfied >= count.min);
        if all {
            Verdict::Satisfied
        } else {
            Verdict::Pending
        }
    }

    /// The next instant at which the passage of time alone can change
    /// decidability: one millisecond past the earliest `deadline + grace`
    /// among cells that are still pending and still matter (members of
    /// count constraints that already met their minimum are skipped).
    /// `None` when no timer needs to be armed.
    pub fn next_deadline(&self) -> Option<Time> {
        let leaf_cells = 0..self.stamps.len();
        let unmet = self.cells.counts.iter().zip(&self.tallies[1..]);
        let unmet = unmet.filter(|(count, tally)| tally.satisfied < count.min);
        let window = leaf_cells
            .chain(unmet.flat_map(|(count, _)| count.cells.clone()))
            .filter(|&i| self.states[i] == CellState::Pending)
            .map(|i| self.cells.cells[i].window)
            .min()?;
        Some(self.send_time + window + self.grace + Millis(1))
    }
}

/// Transitions a cell counted in `tally`. `Satisfied` is final (stamps
/// only ever get earlier); `Violated → Satisfied` is allowed.
fn set_cell(state: &mut CellState, tally: &mut Tally, target: CellState) -> bool {
    let cur = *state;
    if cur == target || cur == CellState::Satisfied {
        return false;
    }
    if cur == CellState::Violated {
        tally.violated -= 1;
    }
    match target {
        CellState::Satisfied => tally.satisfied += 1,
        CellState::Violated => tally.violated += 1,
        CellState::Pending => unreachable!("cells never return to pending"),
    }
    *state = target;
    true
}

#[derive(Debug, Clone)]
struct InheritedAttrs {
    expiry: Option<Millis>,
    persistent: Option<bool>,
    priority: Option<Priority>,
}

/// Per-leaf acknowledgment observations for one conditional message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AckState {
    leaves: Vec<LeafAck>,
}

/// Acknowledgment data observed for a single destination leaf.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LeafAck {
    /// Timestamp of the message read, if acknowledged.
    pub read_at: Option<Time>,
    /// Timestamp of successful processing (transaction commit), if
    /// acknowledged.
    pub processed_at: Option<Time>,
    /// Identity of the acknowledging recipient, when reported.
    pub recipient: Option<String>,
}

impl AckState {
    /// Creates an empty state for `n` leaves.
    pub fn new(n: usize) -> AckState {
        AckState {
            leaves: vec![LeafAck::default(); n],
        }
    }

    /// The observation for a leaf, if the index is valid.
    pub fn leaf(&self, index: u32) -> Option<&LeafAck> {
        self.leaves.get(index as usize)
    }

    /// Records a read acknowledgment. Earlier timestamps win (idempotent
    /// under redelivered acks).
    pub fn record_read(&mut self, leaf: u32, at: Time, recipient: Option<String>) {
        if let Some(entry) = self.leaves.get_mut(leaf as usize) {
            match entry.read_at {
                Some(existing) if existing <= at => {}
                _ => entry.read_at = Some(at),
            }
            if entry.recipient.is_none() {
                entry.recipient = recipient;
            }
        }
    }

    /// Records a processing acknowledgment (which implies a read at
    /// `read_at`).
    pub fn record_processed(
        &mut self,
        leaf: u32,
        read_at: Time,
        processed_at: Time,
        recipient: Option<String>,
    ) {
        self.record_read(leaf, read_at, recipient);
        if let Some(entry) = self.leaves.get_mut(leaf as usize) {
            match entry.processed_at {
                Some(existing) if existing <= processed_at => {}
                _ => entry.processed_at = Some(processed_at),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, Destination, DestinationSet};

    const DAY: u64 = 1000;

    fn example1() -> Condition {
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
        DestinationSet::of(vec![qr3.into(), others.into()])
            .pickup_within(Millis(2 * DAY))
            .into()
    }

    fn example2() -> Condition {
        Destination::queue("QM1", "Q.CENTRAL")
            .pickup_within(Millis(20_000))
            .into()
    }

    #[test]
    fn compile_example1_constraints() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        assert_eq!(c.leaves().len(), 4);
        // qr3's own processing window is the only leaf constraint.
        assert_eq!(c.leaf_constraints().len(), 1);
        let lc = &c.leaf_constraints()[0];
        assert_eq!(
            (lc.dim, lc.leaf, lc.window),
            (Dimension::Process, 0, Millis(7 * DAY))
        );
        // Two count constraints: destSet1 processing (min 2/3) and root
        // pickup (all 4).
        assert_eq!(c.count_constraints().len(), 2);
        let process = c
            .count_constraints()
            .iter()
            .find(|cc| cc.dim == Dimension::Process)
            .unwrap();
        assert_eq!(process.min, 2);
        assert_eq!(process.members.len(), 3);
        assert!(process.members.iter().all(|(_, w)| *w == Millis(11 * DAY)));
        let pickup = c
            .count_constraints()
            .iter()
            .find(|cc| cc.dim == Dimension::Pickup)
            .unwrap();
        assert_eq!(pickup.min, 4, "no MinNrPickUp: all members required");
        assert_eq!(pickup.members.len(), 4);
        assert!(pickup.members.iter().all(|(_, w)| *w == Millis(2 * DAY)));
    }

    #[test]
    fn compile_example2_constraints() {
        let c = CompiledCondition::compile(&example2()).unwrap();
        assert_eq!(c.leaves().len(), 1);
        assert_eq!(c.leaf_constraints().len(), 1);
        assert!(c.count_constraints().is_empty());
        assert_eq!(c.leaves()[0].pickup_window, Some(Millis(20_000)));
        assert!(!c.leaves()[0].processing_expected);
        assert!(c.leaves()[0].persistent, "reliable by default");
    }

    #[test]
    fn leaf_specs_resolve_inherited_attributes() {
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("M", "A").into(),
            Destination::queue("M", "B")
                .persistent(false)
                .priority(Priority::new(9))
                .expiry(Millis(5))
                .into(),
        ])
        .persistent(true)
        .priority(Priority::new(2))
        .expiry(Millis(100))
        .into();
        let c = CompiledCondition::compile(&cond).unwrap();
        let a = &c.leaves()[0];
        assert!(a.persistent);
        assert_eq!(a.priority, Priority::new(2));
        assert_eq!(a.expiry, Some(Millis(100)));
        let b = &c.leaves()[1];
        assert!(!b.persistent);
        assert_eq!(b.priority, Priority::new(9));
        assert_eq!(b.expiry, Some(Millis(5)));
    }

    #[test]
    fn processing_expected_propagates_from_sets() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        assert!(c.leaves()[0].processing_expected, "own window");
        assert!(c.leaves()[1].processing_expected, "set window");
        // Root pickup applies to all; effective windows recorded.
        assert_eq!(c.leaves()[1].pickup_window, Some(Millis(2 * DAY)));
        assert_eq!(c.leaves()[0].process_window, Some(Millis(7 * DAY)));
        assert_eq!(c.leaves()[1].process_window, Some(Millis(11 * DAY)));
    }

    #[test]
    fn nested_window_shadows_outer_for_inner_members() {
        // Outer set window 100; inner set declares tighter window 50 for
        // its members.
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("M", "A").into(),
            DestinationSet::of(vec![Destination::queue("M", "B").into()])
                .pickup_within(Millis(50))
                .into(),
        ])
        .pickup_within(Millis(100))
        .into();
        let c = CompiledCondition::compile(&cond).unwrap();
        let outer = c
            .count_constraints()
            .iter()
            .find(|cc| cc.members.len() == 2)
            .unwrap();
        let window_of = |leaf: u32| outer.members.iter().find(|(l, _)| *l == leaf).unwrap().1;
        assert_eq!(window_of(0), Millis(100), "A uses the outer window");
        assert_eq!(window_of(1), Millis(50), "B keeps the tighter inner window");
    }

    #[test]
    fn example1_success_scenario() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        let send = Time(0);
        let mut acks = AckState::new(4);
        // All four read within 2 "days".
        for leaf in 0..4 {
            acks.record_read(leaf, Time(DAY), None);
        }
        assert_eq!(
            c.evaluate(&acks, send, Time(DAY)),
            Verdict::Pending,
            "processing still missing"
        );
        // qr3 processes within 7 days; two of the others within 11 days.
        acks.record_processed(0, Time(DAY), Time(6 * DAY), Some("receiver3".into()));
        acks.record_processed(1, Time(DAY), Time(10 * DAY), None);
        assert_eq!(
            c.evaluate(&acks, send, Time(10 * DAY)),
            Verdict::Pending,
            "one more processing needed"
        );
        acks.record_processed(3, Time(DAY), Time(10 * DAY), None);
        assert_eq!(c.evaluate(&acks, send, Time(10 * DAY)), Verdict::Satisfied);
    }

    #[test]
    fn example1_late_read_fails_immediately() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        let mut acks = AckState::new(4);
        for leaf in 0..3 {
            acks.record_read(leaf, Time(DAY), None);
        }
        // Fourth read arrives after the 2-day pick-up window.
        acks.record_read(3, Time(3 * DAY), None);
        let verdict = c.evaluate(&acks, Time(0), Time(3 * DAY));
        assert!(verdict.is_violated(), "late read: {verdict}");
    }

    #[test]
    fn example1_missing_read_fails_once_deadline_passes() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        let mut acks = AckState::new(4);
        for leaf in 0..3 {
            acks.record_read(leaf, Time(DAY), None);
        }
        assert_eq!(c.evaluate(&acks, Time(0), Time(2 * DAY)), Verdict::Pending);
        let verdict = c.evaluate(&acks, Time(0), Time(2 * DAY + 1));
        assert!(verdict.is_violated(), "{verdict}");
    }

    #[test]
    fn example1_required_processing_violation() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        let mut acks = AckState::new(4);
        for leaf in 0..4 {
            acks.record_read(leaf, Time(DAY), None);
        }
        // Everyone processes quickly except receiver3, who is too late.
        acks.record_processed(1, Time(DAY), Time(2 * DAY), None);
        acks.record_processed(2, Time(DAY), Time(2 * DAY), None);
        acks.record_processed(0, Time(DAY), Time(8 * DAY), None);
        let verdict = c.evaluate(&acks, Time(0), Time(8 * DAY));
        assert!(verdict.is_violated());
        if let Verdict::Violated(reason) = &verdict {
            assert!(reason.contains("Q.R3"), "reason names the queue: {reason}");
        }
    }

    #[test]
    fn count_constraint_early_failure_when_unreachable() {
        // min 2 of 3, but two members already processed too late →
        // satisfied=1 max possible.
        let c = CompiledCondition::compile(&example1()).unwrap();
        let mut acks = AckState::new(4);
        for leaf in 0..4 {
            acks.record_read(leaf, Time(DAY), None);
        }
        acks.record_processed(0, Time(DAY), Time(DAY), None); // qr3 fine
        acks.record_processed(1, Time(DAY), Time(12 * DAY), None); // late
        acks.record_processed(2, Time(DAY), Time(12 * DAY), None); // late
                                                                   // With two members late, min 2-of-3 is unreachable — the verdict is
                                                                   // decided without waiting for any evaluation timeout.
        let verdict = c.evaluate(&acks, Time(0), Time(12 * DAY));
        assert!(verdict.is_violated(), "{verdict}");
        if let Verdict::Violated(reason) = &verdict {
            assert!(reason.contains("of 3 destinations"), "{reason}");
        }
    }

    #[test]
    fn example2_scenarios() {
        let c = CompiledCondition::compile(&example2()).unwrap();
        let send = Time(1_000);
        let acks = AckState::new(1);
        assert_eq!(c.evaluate(&acks, send, Time(5_000)), Verdict::Pending);
        // Early success on a timely read.
        let mut ok = acks.clone();
        ok.record_read(0, Time(15_000), Some("controller-7".into()));
        assert_eq!(c.evaluate(&ok, send, Time(15_000)), Verdict::Satisfied);
        // Deadline passes unread → violated.
        let verdict = c.evaluate(&acks, send, Time(21_001));
        assert!(verdict.is_violated());
    }

    #[test]
    fn ack_state_is_idempotent_and_keeps_earliest() {
        let mut acks = AckState::new(2);
        acks.record_read(0, Time(50), Some("a".into()));
        acks.record_read(0, Time(30), Some("b".into()));
        acks.record_read(0, Time(70), None);
        let leaf = acks.leaf(0).unwrap();
        assert_eq!(leaf.read_at, Some(Time(30)));
        assert_eq!(leaf.recipient.as_deref(), Some("a"));
        acks.record_processed(1, Time(10), Time(20), None);
        acks.record_processed(1, Time(10), Time(90), None);
        assert_eq!(acks.leaf(1).unwrap().processed_at, Some(Time(20)));
        // Out-of-range indices are ignored.
        acks.record_read(9, Time(1), None);
        assert!(acks.leaf(9).is_none());
    }

    #[test]
    fn condition_without_time_constraints_is_vacuously_satisfied() {
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("M", "A").into(),
            Destination::queue("M", "B").into(),
        ])
        .into();
        let c = CompiledCondition::compile(&cond).unwrap();
        assert_eq!(
            c.evaluate(&AckState::new(2), Time(0), Time(0)),
            Verdict::Satisfied
        );
    }

    #[test]
    fn processing_ack_implies_read() {
        let cond: Condition = Destination::queue("M", "A")
            .pickup_within(Millis(100))
            .process_within(Millis(200))
            .into();
        let c = CompiledCondition::compile(&cond).unwrap();
        let mut acks = AckState::new(1);
        acks.record_processed(0, Time(50), Time(150), None);
        assert_eq!(c.evaluate(&acks, Time(0), Time(150)), Verdict::Satisfied);
    }

    #[test]
    fn verdict_display_and_predicates() {
        assert_eq!(Verdict::Pending.to_string(), "pending");
        assert_eq!(Verdict::Satisfied.to_string(), "satisfied");
        let v = Verdict::Violated("late".into());
        assert_eq!(v.to_string(), "violated: late");
        assert!(v.is_decided() && v.is_violated() && !v.is_satisfied());
        assert!(Verdict::Satisfied.is_decided());
        assert!(!Verdict::Pending.is_decided());
    }

    #[test]
    fn incremental_example1_tracks_oracle() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        let send = Time(0);
        let mut acks = AckState::new(4);
        let mut inc = IncrementalEval::new(&c, send, Millis::ZERO);
        assert!(!inc.decided());
        // The earliest pending deadline is the 2-day pickup; strict
        // comparison means the trigger is one tick past it.
        assert_eq!(inc.next_deadline(), Some(Time(2 * DAY + 1)));
        for leaf in 0..4 {
            acks.record_read(leaf, Time(DAY), None);
            inc.apply_ack(leaf, &acks);
        }
        assert!(!inc.decided(), "processing still missing");
        // Pickup counts are met, so only processing deadlines remain armed.
        assert_eq!(inc.next_deadline(), Some(Time(7 * DAY + 1)));
        acks.record_processed(0, Time(DAY), Time(6 * DAY), None);
        inc.apply_ack(0, &acks);
        acks.record_processed(1, Time(DAY), Time(10 * DAY), None);
        inc.apply_ack(1, &acks);
        assert!(!inc.decided(), "one more processing needed");
        acks.record_processed(3, Time(DAY), Time(10 * DAY), None);
        inc.apply_ack(3, &acks);
        assert!(inc.decided());
        assert_eq!(
            c.evaluate(&acks, send, Time(10 * DAY)),
            Verdict::Satisfied,
            "canonical verdict at the decision instant"
        );
        assert_eq!(inc.next_deadline(), None, "nothing left to arm");
    }

    #[test]
    fn incremental_time_violation_decides_at_trigger() {
        let c = CompiledCondition::compile(&example2()).unwrap();
        let mut inc = IncrementalEval::new(&c, Time(1_000), Millis::ZERO);
        let trigger = inc.next_deadline().unwrap();
        assert_eq!(trigger, Time(21_001), "one past send + 20s window");
        assert_eq!(inc.on_time(Time(21_000)), 0, "deadline tick itself: strict");
        assert!(!inc.decided());
        assert_eq!(inc.on_time(trigger), 1);
        assert!(inc.decided());
        assert!(c
            .evaluate(&AckState::new(1), Time(1_000), trigger)
            .is_violated());
    }

    #[test]
    fn incremental_timely_stamp_overrides_time_violation() {
        // The oracle checks stamps before deadlines, so an ack arriving
        // after deadline+grace with a timely stamp still satisfies.
        let c = CompiledCondition::compile(&example2()).unwrap();
        let mut acks = AckState::new(1);
        let mut inc = IncrementalEval::new(&c, Time(0), Millis::ZERO);
        inc.on_time(Time(25_000));
        assert!(inc.decided(), "time-violated");
        acks.record_read(0, Time(10_000), None);
        assert_eq!(inc.apply_ack(0, &acks), 1, "violated cell flips");
        assert!(inc.decided());
        assert_eq!(c.evaluate(&acks, Time(0), Time(25_000)), Verdict::Satisfied);
    }

    #[test]
    fn incremental_vacuous_condition_is_decided_immediately() {
        let cond: Condition = DestinationSet::of(vec![
            Destination::queue("M", "A").into(),
            Destination::queue("M", "B").into(),
        ])
        .into();
        let c = CompiledCondition::compile(&cond).unwrap();
        let inc = IncrementalEval::new(&c, Time(0), Millis::ZERO);
        assert!(inc.decided());
        assert_eq!(inc.next_deadline(), None);
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_flat_condition() -> impl Strategy<Value = (Condition, u32, u64)> {
            // n leaves, min in 1..=n, window w.
            (1u32..8, 1u64..1000).prop_flat_map(|(n, w)| {
                (1u32..=n).prop_map(move |min| {
                    let members: Vec<Condition> = (0..n)
                        .map(|i| Destination::queue("M", format!("Q{i}")).into())
                        .collect();
                    let cond: Condition = DestinationSet::of(members)
                        .pickup_within(Millis(w))
                        .min_pickup(min)
                        .into();
                    (cond, min, w)
                })
            })
        }

        /// A window in `1..1000` ms, or none.
        fn arb_window() -> impl Strategy<Value = Option<Millis>> {
            proptest::option::of((1u64..1000).prop_map(Millis))
        }

        /// A set-level window with a minimum count (reduced to at most
        /// the set's leaves), or none.
        fn arb_count() -> impl Strategy<Value = Option<(Millis, u32)>> {
            proptest::option::of(((1u64..1000).prop_map(Millis), 1u32..4))
        }

        /// `set` with `pickup` and `process` windows and their minimums,
        /// each minimum reduced to the set's `leaves`.
        fn with_counts(
            mut set: DestinationSet,
            leaves: u32,
            pickup: Option<(Millis, u32)>,
            process: Option<(Millis, u32)>,
        ) -> DestinationSet {
            if let Some((window, min)) = pickup {
                set = set.pickup_within(window).min_pickup(1 + (min - 1) % leaves);
            }
            if let Some((window, min)) = process {
                set = set.process_within(window).min_process(1 + (min - 1) % leaves);
            }
            set
        }

        /// A root set of one to three groups, each one destination or a
        /// set of up to three; any destination may carry its own pick-up
        /// and processing windows (required destinations), and any set
        /// windows with minimum counts in either dimension (count
        /// constraints, nested ones shadowing the root's).
        fn arb_condition() -> impl Strategy<Value = Condition> {
            let leaf = (arb_window(), arb_window());
            let group = (proptest::collection::vec(leaf, 1..4), arb_count(), arb_count());
            (proptest::collection::vec(group, 1..4), arb_count(), arb_count()).prop_map(
                |(groups, pickup, process)| {
                    let mut index = 0;
                    let mut members = Vec::new();
                    for (leaves, group_pickup, group_process) in groups {
                        let count = leaves.len() as u32;
                        let leaves: Vec<Condition> = leaves
                            .into_iter()
                            .map(|(pick, proc)| {
                                index += 1;
                                let mut d = Destination::queue("M", format!("Q{index}"));
                                if let Some(w) = pick {
                                    d = d.pickup_within(w);
                                }
                                if let Some(w) = proc {
                                    d = d.process_within(w);
                                }
                                d.into()
                            })
                            .collect();
                        members.push(if count == 1 && group_pickup.is_none() {
                            leaves.into_iter().next().unwrap()
                        } else {
                            let set = DestinationSet::of(leaves);
                            with_counts(set, count, group_pickup, group_process).into()
                        });
                    }
                    with_counts(DestinationSet::of(members), index, pickup, process).into()
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Invariant: with k timely reads, verdict is Satisfied iff
            /// k >= min once the deadline passed; Violated iff k < min.
            #[test]
            fn flat_min_pickup_verdicts((cond, min, w) in arb_flat_condition(), timely in 0u32..8) {
                let c = CompiledCondition::compile(&cond).unwrap();
                let n = c.leaves().len() as u32;
                let timely = timely.min(n);
                let mut acks = AckState::new(n as usize);
                for leaf in 0..timely {
                    acks.record_read(leaf, Time(w / 2), None);
                }
                // Before the deadline with k < min: still pending.
                let before = c.evaluate(&acks, Time(0), Time(w / 2));
                if timely >= min {
                    prop_assert_eq!(before, Verdict::Satisfied);
                } else {
                    prop_assert_eq!(before, Verdict::Pending);
                }
                // After the deadline the verdict is decided either way.
                let after = c.evaluate(&acks, Time(0), Time(w + 1));
                if timely >= min {
                    prop_assert_eq!(after, Verdict::Satisfied);
                } else {
                    prop_assert!(after.is_violated());
                }
            }

            /// Verdicts are monotone in acks: adding a timely ack never
            /// turns Satisfied into Violated.
            #[test]
            fn timely_acks_never_hurt((cond, _min, w) in arb_flat_condition(), k in 0u32..8) {
                let c = CompiledCondition::compile(&cond).unwrap();
                let n = c.leaves().len() as u32;
                let k = k.min(n);
                let mut acks = AckState::new(n as usize);
                for leaf in 0..k {
                    acks.record_read(leaf, Time(1), None);
                }
                let before = c.evaluate(&acks, Time(0), Time(w));
                if k < n {
                    acks.record_read(k, Time(1), None);
                }
                let after = c.evaluate(&acks, Time(0), Time(w));
                if before.is_satisfied() {
                    prop_assert!(after.is_satisfied());
                }
                if !before.is_violated() {
                    prop_assert!(!after.is_violated());
                }
            }

            /// The incremental evaluator agrees with the full re-evaluation
            /// oracle at every step of a random schedule of read acks,
            /// processing acks and clock advances, over trees with required
            /// destinations and count constraints in both dimensions: on
            /// decidability, on the verdict it renders (reason string
            /// included), and its `next_deadline` is exactly the first tick
            /// at which the oracle's pending verdict would flip by time.
            #[test]
            fn incremental_matches_oracle_stepwise(
                cond in arb_condition(),
                events in proptest::collection::vec((0u32..9, 0u64..2000, 0u8..3), 0..24),
                grace in 0u64..5,
            ) {
                let grace = Millis(grace);
                let c = CompiledCondition::compile(&cond).unwrap();
                let n = c.leaves().len() as u32;
                let mut acks = AckState::new(n as usize);
                let mut inc = IncrementalEval::new(&c, Time(0), grace);
                let mut now = Time(0);
                for (leaf, stamp_or_step, kind) in events {
                    let (leaf, stamp) = (leaf % n, Time(stamp_or_step));
                    match kind {
                        0 => {
                            acks.record_read(leaf, stamp, None);
                            inc.record(leaf, Dimension::Pickup, stamp);
                        }
                        1 => {
                            // A processing ack implies its read, stamped earlier.
                            let read_at = Time(stamp_or_step / 2);
                            acks.record_processed(leaf, read_at, stamp, None);
                            inc.record(leaf, Dimension::Pickup, read_at);
                            inc.record(leaf, Dimension::Process, stamp);
                        }
                        _ => {
                            now = now + Millis(stamp_or_step);
                            inc.on_time(now);
                        }
                    }
                    let oracle = c.evaluate_with_grace(&acks, Time(0), now, grace);
                    prop_assert_eq!(
                        inc.decided(),
                        oracle.is_decided(),
                        "decidability diverged at {} (oracle {})", now, &oracle
                    );
                    prop_assert_eq!(inc.verdict(), oracle.clone(), "verdict diverged at {}", now);
                    if let (false, Some(trigger)) = (inc.decided(), inc.next_deadline()) {
                        // One tick before the trigger the oracle is still
                        // pending; at the trigger it may decide (it always
                        // does when the flipped cells were load-bearing).
                        let before = c.evaluate_with_grace(&acks, Time(0), Time(trigger.0 - 1), grace);
                        prop_assert!(
                            !before.is_decided() || before == oracle,
                            "oracle decided before the armed trigger {}", trigger
                        );
                    }
                }
            }
        }
    }
}
