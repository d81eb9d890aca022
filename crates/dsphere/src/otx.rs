//! A miniature distributed transaction service (the CORBA OTS / JTS
//! substrate of paper §3.2).
//!
//! Dependency-Spheres integrate "transactional resources like distributed
//! objects and databases" through the standard resource contract: enlist →
//! prepare (vote) → commit/rollback. [`TransactionManager`] implements
//! two-phase commit over any [`TransactionalResource`]; the in-memory
//! resources in [`crate::resources`] and the failure-injection probes used
//! by the experiments all speak this contract.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Xid(u64);

impl Xid {
    /// The raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Constructs an Xid from a raw value (crate-internal; tests and
    /// benchmarks that drive resources without a coordinator).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn from_raw(v: u64) -> Xid {
        Xid(v)
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xid:{}", self.0)
    }
}

/// A resource's vote in phase one of two-phase commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vote {
    /// The resource can commit.
    Commit,
    /// The resource refuses; the transaction must abort.
    Abort(String),
}

/// The resource contract (prepare / commit / rollback).
///
/// Implementations must be idempotent for `commit` and `rollback` on
/// unknown `Xid`s (a coordinator may roll back a transaction the resource
/// never saw).
pub trait TransactionalResource: Send + Sync {
    /// Resource name, for diagnostics and abort reasons.
    fn name(&self) -> &str;

    /// Phase one: validate and harden the transaction's staged work.
    fn prepare(&self, xid: Xid) -> Vote;

    /// Phase two: make the staged work durable and visible.
    fn commit(&self, xid: Xid);

    /// Undo the staged work.
    fn rollback(&self, xid: Xid);
}

/// Coordinator decision for a finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// All resources voted commit and were committed.
    Committed,
    /// The transaction was rolled back.
    Aborted,
}

/// Error returned when two-phase commit aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxAborted {
    /// The resource whose vote caused the abort.
    pub resource: String,
    /// The resource's stated reason.
    pub reason: String,
}

impl fmt::Display for TxAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transaction aborted by {}: {}",
            self.resource, self.reason
        )
    }
}

impl std::error::Error for TxAborted {}

/// The transaction coordinator.
#[derive(Debug, Default)]
pub struct TransactionManager {
    next_xid: AtomicU64,
    /// Decision audit log. Never held while calling into enlisted
    /// resources: a resource may re-enter the coordinator.
    // lint: never-hold(TransactionManager.decisions) across prepare
    // lint: never-hold(TransactionManager.decisions) across rollback
    decisions: Mutex<Vec<(Xid, Decision)>>,
}

impl TransactionManager {
    /// Creates a coordinator.
    pub fn new() -> Arc<TransactionManager> {
        Arc::new(TransactionManager::default())
    }

    /// Begins a new transaction.
    pub fn begin(self: &Arc<Self>) -> Transaction {
        let xid = Xid(self.next_xid.fetch_add(1, Ordering::SeqCst));
        Transaction {
            xid,
            manager: self.clone(),
            resources: Vec::new(),
            finished: false,
        }
    }

    /// The decision log, in completion order (for tests and audits).
    pub fn decisions(&self) -> Vec<(Xid, Decision)> {
        self.decisions.lock().clone()
    }

    fn record(&self, xid: Xid, decision: Decision) {
        self.decisions.lock().push((xid, decision));
    }
}

/// An open transaction over a set of enlisted resources.
///
/// Dropping an unfinished transaction rolls it back.
pub struct Transaction {
    xid: Xid,
    manager: Arc<TransactionManager>,
    resources: Vec<Arc<dyn TransactionalResource>>,
    finished: bool,
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("xid", &self.xid)
            .field("resources", &self.resources.len())
            .field("finished", &self.finished)
            .finish()
    }
}

impl Transaction {
    /// This transaction's id; pass it to resource operations.
    pub fn xid(&self) -> Xid {
        self.xid
    }

    /// Enlists a resource. A resource may be enlisted once per
    /// transaction; duplicates are ignored by pointer identity.
    pub fn enlist(&mut self, resource: Arc<dyn TransactionalResource>) {
        if !self.resources.iter().any(|r| Arc::ptr_eq(r, &resource)) {
            self.resources.push(resource);
        }
    }

    /// Number of enlisted resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Runs two-phase commit.
    ///
    /// # Errors
    ///
    /// [`TxAborted`] when any resource votes abort in phase one; all
    /// resources are then rolled back.
    pub fn commit(mut self) -> Result<(), TxAborted> {
        self.commit_in_place()
    }

    /// [`Transaction::commit`] through a borrow: the transaction is
    /// finished after it either way, and dropping it does nothing more.
    pub(crate) fn commit_in_place(&mut self) -> Result<(), TxAborted> {
        // Phase one: collect votes.
        for resource in &self.resources {
            if let Vote::Abort(reason) = resource.prepare(self.xid) {
                let aborted = TxAborted {
                    resource: resource.name().to_owned(),
                    reason,
                };
                // Roll everyone back (including the refusing resource —
                // rollback must be idempotent).
                for r in &self.resources {
                    r.rollback(self.xid);
                }
                self.finished = true;
                self.manager.record(self.xid, Decision::Aborted);
                return Err(aborted);
            }
        }
        // Phase two: commit.
        for resource in &self.resources {
            resource.commit(self.xid);
        }
        self.finished = true;
        self.manager.record(self.xid, Decision::Committed);
        Ok(())
    }

    /// Rolls the transaction back on all enlisted resources.
    pub fn rollback(mut self) {
        self.rollback_in_place();
    }

    /// [`Transaction::rollback`] through a borrow; a finished transaction
    /// is left as it is.
    pub(crate) fn rollback_in_place(&mut self) {
        if self.finished {
            return;
        }
        for resource in &self.resources {
            resource.rollback(self.xid);
        }
        self.finished = true;
        self.manager.record(self.xid, Decision::Aborted);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.rollback_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ProbeResource;

    #[test]
    fn xids_are_unique_and_displayable() {
        let tm = TransactionManager::new();
        let a = tm.begin();
        let b = tm.begin();
        assert_ne!(a.xid(), b.xid());
        assert_eq!(a.xid().to_string(), format!("xid:{}", a.xid().as_u64()));
        a.rollback();
        b.rollback();
    }

    #[test]
    fn commit_prepares_then_commits_all() {
        let tm = TransactionManager::new();
        let r1 = ProbeResource::new("r1");
        let r2 = ProbeResource::new("r2");
        let mut tx = tm.begin();
        let xid = tx.xid();
        tx.enlist(r1.clone());
        tx.enlist(r2.clone());
        assert_eq!(tx.resource_count(), 2);
        tx.commit().unwrap();
        assert_eq!(r1.prepared(), 1);
        assert_eq!(r1.committed(), 1);
        assert_eq!(r1.rolled_back(), 0);
        assert_eq!(r2.committed(), 1);
        assert_eq!(tm.decisions(), vec![(xid, Decision::Committed)]);
    }

    #[test]
    fn abort_vote_rolls_everyone_back() {
        let tm = TransactionManager::new();
        let good = ProbeResource::new("good");
        let bad = ProbeResource::vetoing("bad", "constraint violated");
        let mut tx = tm.begin();
        let xid = tx.xid();
        tx.enlist(good.clone());
        tx.enlist(bad.clone());
        let err = tx.commit().unwrap_err();
        assert_eq!(err.resource, "bad");
        assert_eq!(err.reason, "constraint violated");
        assert!(err.to_string().contains("aborted by bad"));
        assert_eq!(good.committed(), 0);
        assert_eq!(good.rolled_back(), 1);
        assert_eq!(bad.rolled_back(), 1);
        assert_eq!(tm.decisions(), vec![(xid, Decision::Aborted)]);
    }

    #[test]
    fn first_abort_vote_short_circuits_prepare() {
        let tm = TransactionManager::new();
        let bad = ProbeResource::vetoing("bad", "no");
        let later = ProbeResource::new("later");
        let mut tx = tm.begin();
        tx.enlist(bad);
        tx.enlist(later.clone());
        tx.commit().unwrap_err();
        assert_eq!(later.prepared(), 0, "phase one stops at the first veto");
        assert_eq!(later.rolled_back(), 1, "but everyone is rolled back");
    }

    #[test]
    fn explicit_rollback_and_drop_rollback() {
        let tm = TransactionManager::new();
        let r = ProbeResource::new("r");
        let mut tx = tm.begin();
        tx.enlist(r.clone());
        tx.rollback();
        assert_eq!(r.rolled_back(), 1);

        let r2 = ProbeResource::new("r2");
        {
            let mut tx = tm.begin();
            tx.enlist(r2.clone());
            // dropped uncommitted
        }
        assert_eq!(r2.rolled_back(), 1);
        assert_eq!(tm.decisions().len(), 2);
        assert!(tm.decisions().iter().all(|(_, d)| *d == Decision::Aborted));
    }

    #[test]
    fn duplicate_enlistment_ignored() {
        let tm = TransactionManager::new();
        let r = ProbeResource::new("r");
        let mut tx = tm.begin();
        tx.enlist(r.clone());
        tx.enlist(r.clone());
        assert_eq!(tx.resource_count(), 1);
        tx.commit().unwrap();
        assert_eq!(r.committed(), 1);
    }

    #[test]
    fn empty_transaction_commits() {
        let tm = TransactionManager::new();
        let tx = tm.begin();
        tx.commit().unwrap();
        assert_eq!(tm.decisions().len(), 1);
    }
}
