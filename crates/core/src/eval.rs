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

/// A compiled condition: leaf specs plus flat constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCondition {
    leaves: Vec<LeafSpec>,
    leaf_constraints: Vec<LeafConstraint>,
    count_constraints: Vec<CountConstraint>,
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

    /// Every distinct absolute deadline, given the send time — the moments
    /// at which a pending verdict can flip to violated. The evaluation
    /// manager schedules re-evaluation at each.
    pub fn deadlines(&self, send_time: Time) -> Vec<Time> {
        let mut out: Vec<Time> = self
            .leaf_constraints
            .iter()
            .map(|c| send_time + c.window)
            .chain(
                self.count_constraints
                    .iter()
                    .flat_map(|c| c.members.iter().map(move |(_, w)| send_time + *w)),
            )
            .collect();
        out.sort();
        out.dedup();
        out
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
    pub fn evaluate_with_grace(
        &self,
        acks: &AckState,
        send_time: Time,
        now: Time,
        grace: Millis,
    ) -> Verdict {
        let mut all_satisfied = true;
        for c in &self.leaf_constraints {
            match leaf_status(acks, c.leaf, c.dim, send_time + c.window, now, grace) {
                Status::Satisfied => {}
                Status::Pending => all_satisfied = false,
                Status::Violated(reason) => {
                    return Verdict::Violated(format!(
                        "destination {} ({}): {reason}",
                        c.leaf,
                        self.leaf_name(c.leaf),
                    ))
                }
            }
        }
        for c in &self.count_constraints {
            let mut satisfied = 0u32;
            let mut pending = 0u32;
            for (leaf, window) in &c.members {
                match leaf_status(acks, *leaf, c.dim, send_time + *window, now, grace) {
                    Status::Satisfied => satisfied += 1,
                    Status::Pending => pending += 1,
                    Status::Violated(_) => {}
                }
            }
            if satisfied >= c.min {
                continue;
            }
            all_satisfied = false;
            if satisfied + pending < c.min {
                return Verdict::Violated(format!(
                    "{} by {} of {} destinations required, only {} possible",
                    c.dim,
                    c.min,
                    c.members.len(),
                    satisfied + pending
                ));
            }
        }
        if all_satisfied {
            Verdict::Satisfied
        } else {
            Verdict::Pending
        }
    }

    fn leaf_name(&self, leaf: u32) -> String {
        self.leaves
            .get(leaf as usize)
            .map(|l| l.queue.to_string())
            .unwrap_or_else(|| "?".to_owned())
    }
}

/// Status of one `(constraint, member)` evaluation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Pending,
    Satisfied,
    Violated,
}

/// One constraint membership of one leaf, with its absolute deadline.
#[derive(Debug, Clone)]
struct Cell {
    dim: Dimension,
    deadline: Time,
    state: CellState,
}

/// Counter block for one compiled [`CountConstraint`].
#[derive(Debug, Clone)]
struct CountState {
    min: u32,
    satisfied: u32,
    violated: u32,
    cells: Vec<Cell>,
}

/// Back-edge from a leaf to one of its cells.
#[derive(Debug, Clone, Copy)]
enum CellRef {
    Leaf(usize),
    Count { constraint: usize, member: usize },
}

/// Event-driven evaluation state for one pending message.
///
/// [`CompiledCondition::evaluate_with_grace`] re-walks every constraint
/// against the clock on each call — O(tree) per pump tick. `IncrementalEval`
/// lowers the same constraints once into per-`(constraint, member)` status
/// cells with per-constraint satisfied/violated counters and per-leaf
/// back-edges, so applying one acknowledgment touches only the cells of
/// that leaf (O(depth), i.e. the leaf's constraint memberships) and
/// decidability falls out of the counters immediately.
///
/// The struct tracks *decidability* only. Once [`IncrementalEval::decided`]
/// reports `true`, the caller renders the canonical verdict with a single
/// `evaluate_with_grace` call at that instant, so verdict strings (and the
/// paper's early-failure semantics) stay byte-identical to the full
/// re-evaluation oracle.
#[derive(Debug, Clone)]
pub struct IncrementalEval {
    grace: Millis,
    leaf_cells: Vec<Cell>,
    leaf_satisfied: u32,
    leaf_violated: u32,
    counts: Vec<CountState>,
    by_leaf: Vec<Vec<CellRef>>,
}

impl IncrementalEval {
    /// Lowers a compiled condition into incremental form. `grace` mirrors
    /// the messenger's ack grace: a *missing* acknowledgment only violates
    /// once `deadline + grace` has strictly passed, while acknowledgment
    /// stamps are compared against the true deadline — the same rules as
    /// `leaf_status`.
    pub fn new(compiled: &CompiledCondition, send_time: Time, grace: Millis) -> IncrementalEval {
        let mut by_leaf: Vec<Vec<CellRef>> = vec![Vec::new(); compiled.leaves().len()];
        let mut leaf_cells = Vec::new();
        for c in compiled.leaf_constraints() {
            by_leaf[c.leaf as usize].push(CellRef::Leaf(leaf_cells.len()));
            leaf_cells.push(Cell {
                dim: c.dim,
                deadline: send_time + c.window,
                state: CellState::Pending,
            });
        }
        let mut counts = Vec::new();
        for c in compiled.count_constraints() {
            let constraint = counts.len();
            let mut cells = Vec::new();
            for (member, (leaf, window)) in c.members.iter().enumerate() {
                by_leaf[*leaf as usize].push(CellRef::Count { constraint, member });
                cells.push(Cell {
                    dim: c.dim,
                    deadline: send_time + *window,
                    state: CellState::Pending,
                });
            }
            counts.push(CountState {
                min: c.min,
                satisfied: 0,
                violated: 0,
                cells,
            });
        }
        IncrementalEval {
            grace,
            leaf_cells,
            leaf_satisfied: 0,
            leaf_violated: 0,
            counts,
            by_leaf,
        }
    }

    /// Folds the current acknowledgment stamps for `leaf` into that leaf's
    /// cells. Returns the number of cell transitions performed (the
    /// `cond.eval.incremental_updates` unit).
    ///
    /// Transitions are monotone except `Violated → Satisfied`: earlier-
    /// stamped redeliveries can improve a stamp (see
    /// [`AckState::record_read`]), and the oracle checks stamps before
    /// deadlines, so a timely stamp wins over an earlier time-based
    /// violation of the same cell.
    pub fn apply_ack(&mut self, leaf: u32, acks: &AckState) -> u64 {
        let Some(refs) = self.by_leaf.get(leaf as usize) else {
            return 0;
        };
        let Some(ack) = acks.leaf(leaf) else {
            return 0;
        };
        let (read_at, processed_at) = (ack.read_at, ack.processed_at);
        let mut updates = 0;
        for r in refs.clone() {
            let cell = self.cell(r);
            let stamp = match cell.dim {
                Dimension::Pickup => read_at,
                Dimension::Process => processed_at,
            };
            let target = match stamp {
                None => continue,
                Some(t) if t <= cell.deadline => CellState::Satisfied,
                Some(_) => CellState::Violated,
            };
            if self.set_cell(r, target) {
                updates += 1;
            }
        }
        updates
    }

    /// Flips cells whose deadline (plus grace) has strictly passed without
    /// an acknowledgment. Returns the number of transitions.
    pub fn on_time(&mut self, now: Time) -> u64 {
        let mut updates = 0;
        for i in 0..self.leaf_cells.len() {
            let c = &self.leaf_cells[i];
            if c.state == CellState::Pending && now > c.deadline + self.grace {
                self.set_cell(CellRef::Leaf(i), CellState::Violated);
                updates += 1;
            }
        }
        for constraint in 0..self.counts.len() {
            for member in 0..self.counts[constraint].cells.len() {
                let c = &self.counts[constraint].cells[member];
                if c.state == CellState::Pending && now > c.deadline + self.grace {
                    self.set_cell(CellRef::Count { constraint, member }, CellState::Violated);
                    updates += 1;
                }
            }
        }
        updates
    }

    /// Whether the verdict is decided, by the same rules as
    /// [`CompiledCondition::evaluate_with_grace`]: any violated required
    /// destination, any count constraint that can no longer reach its
    /// minimum, or everything satisfied.
    pub fn decided(&self) -> bool {
        if self.leaf_violated > 0 {
            return true;
        }
        for cs in &self.counts {
            let pending = cs.cells.len() as u32 - cs.satisfied - cs.violated;
            if cs.satisfied + pending < cs.min {
                return true;
            }
        }
        self.leaf_satisfied as usize == self.leaf_cells.len()
            && self.counts.iter().all(|cs| cs.satisfied >= cs.min)
    }

    /// The next instant at which the passage of time alone can change
    /// decidability: one millisecond past the earliest `deadline + grace`
    /// among cells that are still pending and still matter (members of
    /// count constraints that already met their minimum are skipped).
    /// `None` when no timer needs to be armed.
    pub fn next_deadline(&self) -> Option<Time> {
        let mut earliest: Option<Time> = None;
        let grace = self.grace;
        let mut consider = |deadline: Time| {
            let trigger = deadline + grace + Millis(1);
            earliest = Some(match earliest {
                Some(t) if t <= trigger => t,
                _ => trigger,
            });
        };
        for c in &self.leaf_cells {
            if c.state == CellState::Pending {
                consider(c.deadline);
            }
        }
        for cs in &self.counts {
            if cs.satisfied >= cs.min {
                continue;
            }
            for c in &cs.cells {
                if c.state == CellState::Pending {
                    consider(c.deadline);
                }
            }
        }
        earliest
    }

    fn cell(&self, r: CellRef) -> &Cell {
        match r {
            CellRef::Leaf(i) => &self.leaf_cells[i],
            CellRef::Count { constraint, member } => &self.counts[constraint].cells[member],
        }
    }

    /// Transitions a cell, maintaining the counters. `Satisfied` is final
    /// (stamps only ever get earlier); `Violated → Satisfied` is allowed.
    fn set_cell(&mut self, r: CellRef, target: CellState) -> bool {
        match r {
            CellRef::Leaf(i) => {
                let cur = self.leaf_cells[i].state;
                if cur == target || cur == CellState::Satisfied {
                    return false;
                }
                if cur == CellState::Violated {
                    self.leaf_violated -= 1;
                }
                match target {
                    CellState::Satisfied => self.leaf_satisfied += 1,
                    CellState::Violated => self.leaf_violated += 1,
                    CellState::Pending => unreachable!("cells never return to pending"),
                }
                self.leaf_cells[i].state = target;
                true
            }
            CellRef::Count { constraint, member } => {
                let cs = &mut self.counts[constraint];
                let cur = cs.cells[member].state;
                if cur == target || cur == CellState::Satisfied {
                    return false;
                }
                if cur == CellState::Violated {
                    cs.violated -= 1;
                }
                match target {
                    CellState::Satisfied => cs.satisfied += 1,
                    CellState::Violated => cs.violated += 1,
                    CellState::Pending => unreachable!("cells never return to pending"),
                }
                cs.cells[member].state = target;
                true
            }
        }
    }
}

#[derive(Debug, Clone)]
struct InheritedAttrs {
    expiry: Option<Millis>,
    persistent: Option<bool>,
    priority: Option<Priority>,
}

enum Status {
    Satisfied,
    Pending,
    Violated(String),
}

fn leaf_status(
    acks: &AckState,
    leaf: u32,
    dim: Dimension,
    deadline: Time,
    now: Time,
    grace: Millis,
) -> Status {
    let ack = acks.leaf(leaf);
    let stamp = match dim {
        Dimension::Pickup => ack.and_then(|a| a.read_at),
        Dimension::Process => ack.and_then(|a| a.processed_at),
    };
    match stamp {
        Some(t) if t <= deadline => Status::Satisfied,
        Some(t) => Status::Violated(format!("{dim} at {t} after deadline {deadline}")),
        None if now > deadline + grace => {
            Status::Violated(format!("no {dim} by deadline {deadline}"))
        }
        None => Status::Pending,
    }
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

    /// Number of leaves with a recorded read.
    pub fn reads(&self) -> usize {
        self.leaves.iter().filter(|l| l.read_at.is_some()).count()
    }

    /// Number of leaves with a recorded processing.
    pub fn processings(&self) -> usize {
        self.leaves
            .iter()
            .filter(|l| l.processed_at.is_some())
            .count()
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
        assert_eq!(acks.reads(), 2);
        assert_eq!(acks.processings(), 1);
        // Out-of-range indices are ignored.
        acks.record_read(9, Time(1), None);
        assert!(acks.leaf(9).is_none());
    }

    #[test]
    fn deadlines_are_sorted_and_deduped() {
        let c = CompiledCondition::compile(&example1()).unwrap();
        let d = c.deadlines(Time(100));
        assert_eq!(
            d,
            vec![
                Time(100 + 2 * DAY),
                Time(100 + 7 * DAY),
                Time(100 + 11 * DAY)
            ]
        );
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
        assert!(c.deadlines(Time(0)).is_empty());
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

        proptest! {
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
            /// oracle on decidability at every step of a random ack/advance
            /// schedule, and its `next_deadline` is exactly the first tick
            /// at which the oracle's pending verdict would flip by time.
            #[test]
            fn incremental_matches_oracle_stepwise(
                (cond, _min, w) in arb_flat_condition(),
                events in proptest::collection::vec((0u32..8, 0u64..2000, any::<bool>()), 0..20),
                grace in 0u64..5,
            ) {
                let grace = Millis(grace);
                let c = CompiledCondition::compile(&cond).unwrap();
                let n = c.leaves().len() as u32;
                let mut acks = AckState::new(n as usize);
                let mut inc = IncrementalEval::new(&c, Time(0), grace);
                let mut now = Time(0);
                for (leaf, stamp_or_step, is_ack) in events {
                    if is_ack {
                        let leaf = leaf % n;
                        acks.record_read(leaf, Time(stamp_or_step), None);
                        inc.apply_ack(leaf, &acks);
                    } else {
                        now = now + Millis(stamp_or_step % (w * 2).max(1));
                        inc.on_time(now);
                    }
                    let oracle = c.evaluate_with_grace(&acks, Time(0), now, grace);
                    prop_assert_eq!(
                        inc.decided(),
                        oracle.is_decided(),
                        "decidability diverged at {} (oracle {})", now, oracle
                    );
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
