//! The fault plane: one scripting surface over every fault-injection hook.
//!
//! The TCP acceptor has [`TcpAcceptor::inject_drop_before_ack`],
//! [`TcpAcceptor::kick_all`] and a pause switch; storage faults live on
//! [`MemJournal`]. A failure *schedule* — the kind a declarative scenario
//! declares — scripts all of them uniformly without downcasting to a
//! concrete component. [`FaultPlane`] is that surface: every injectable
//! component exposes a named fault point and applies [`FaultAction`]s,
//! refusing the ones it cannot express.
//!
//! | action | [`TcpAcceptor`] | [`MemJournal`] |
//! |---|---|---|
//! | `Partition` | pause accepts + kick | — |
//! | `Heal` | resume accepts | — |
//! | `DropNext(n)` | next `n` bursts unacked | — |
//! | `KickConnections` | close live conns | — |
//! | `TearJournalTail` | — | drop newest record |
//! | `FailStorage` | — | appends fail |
//! | `HealStorage` | — | appends recover |

use std::fmt;

use crate::error::{MqError, MqResult};
use crate::journal::MemJournal;

use super::tcp::TcpAcceptor;

/// One scripted fault, interpreted by whichever component it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sever the component: an acceptor stops taking connections and
    /// closes live ones. Senders observe an unavailable transport and back
    /// off until [`FaultAction::Heal`].
    Partition,
    /// Undo a [`FaultAction::Partition`].
    Heal,
    /// Make the next `n` transfers fail *after* any receiver-side effect:
    /// a TCP acceptor commits the next `n` bursts but closes the
    /// connection instead of acking — the classic duplicate-generating
    /// fault that receiver dedup absorbs.
    DropNext(u64),
    /// Hard-close every live connection once (transient network blip,
    /// unlike the sustained [`FaultAction::Partition`]).
    KickConnections,
    /// Tear the newest journal record off, as if its final write was
    /// interrupted; recovery silently stops before it.
    TearJournalTail,
    /// Make journal appends fail until [`FaultAction::HealStorage`].
    FailStorage,
    /// Undo a [`FaultAction::FailStorage`].
    HealStorage,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Partition => write!(f, "partition"),
            FaultAction::Heal => write!(f, "heal"),
            FaultAction::DropNext(n) => write!(f, "drop_next({n})"),
            FaultAction::KickConnections => write!(f, "kick_connections"),
            FaultAction::TearJournalTail => write!(f, "tear_journal_tail"),
            FaultAction::FailStorage => write!(f, "fail_storage"),
            FaultAction::HealStorage => write!(f, "heal_storage"),
        }
    }
}

/// A component that can have faults scripted into it.
///
/// Implementations apply the actions they can express and refuse the rest
/// with [`MqError::Transport`] naming the fault point — a failure schedule
/// aimed at the wrong component is a scenario bug, not a silent no-op.
pub trait FaultPlane: Send + Sync + fmt::Debug {
    /// Stable name of this fault point (e.g. `tcp:QM.B`, `journal`),
    /// used in schedules and errors.
    fn fault_point(&self) -> String;

    /// Applies one fault action.
    ///
    /// # Errors
    ///
    /// [`MqError::Transport`] when this component cannot express `action`.
    fn apply_fault(&self, action: FaultAction) -> MqResult<()>;
}

/// Builds the standard refusal for an unsupported action.
fn unsupported(point: &dyn FaultPlane, action: FaultAction) -> MqError {
    MqError::Transport {
        peer: point.fault_point(),
        reason: format!("fault point cannot express {action}"),
    }
}

impl FaultPlane for TcpAcceptor {
    fn fault_point(&self) -> String {
        format!("tcp:{}", self.manager_name())
    }

    fn apply_fault(&self, action: FaultAction) -> MqResult<()> {
        match action {
            FaultAction::Partition => {
                self.set_paused(true);
                self.kick_all();
                Ok(())
            }
            FaultAction::Heal => {
                self.set_paused(false);
                Ok(())
            }
            FaultAction::DropNext(n) => {
                self.inject_drop_before_ack(n);
                Ok(())
            }
            FaultAction::KickConnections => {
                self.kick_all();
                Ok(())
            }
            _ => Err(unsupported(self, action)),
        }
    }
}

impl FaultPlane for MemJournal {
    fn fault_point(&self) -> String {
        "journal".to_owned()
    }

    fn apply_fault(&self, action: FaultAction) -> MqResult<()> {
        match action {
            FaultAction::TearJournalTail => {
                self.tear_tail();
                Ok(())
            }
            FaultAction::FailStorage => {
                self.set_failing(true);
                Ok(())
            }
            FaultAction::HealStorage => {
                self.set_failing(false);
                Ok(())
            }
            _ => Err(unsupported(self, action)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmgr::QueueManager;

    #[test]
    fn acceptor_applies_wire_faults_and_refuses_storage_faults() {
        let qm = QueueManager::builder("QM.B").build().unwrap();
        let acceptor = TcpAcceptor::bind(&qm, "127.0.0.1:0").unwrap();
        let plane: &dyn FaultPlane = acceptor.as_ref();
        assert_eq!(plane.fault_point(), "tcp:QM.B");
        for action in [
            FaultAction::Partition,
            FaultAction::Heal,
            FaultAction::DropNext(2),
            FaultAction::KickConnections,
        ] {
            plane.apply_fault(action).unwrap();
        }
        match plane.apply_fault(FaultAction::TearJournalTail).unwrap_err() {
            MqError::Transport { peer, reason } => {
                assert_eq!(peer, "tcp:QM.B");
                assert!(reason.contains("tear_journal_tail"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        qm.shutdown();
    }

    #[test]
    fn journal_storage_faults_via_plane() {
        let journal = MemJournal::new();
        let plane: &dyn FaultPlane = journal.as_ref();
        plane.apply_fault(FaultAction::FailStorage).unwrap();
        assert!(journal.is_failing());
        plane.apply_fault(FaultAction::HealStorage).unwrap();
        assert!(!journal.is_failing());
        assert!(plane.apply_fault(FaultAction::Partition).is_err());
        assert_eq!(plane.fault_point(), "journal");
    }
}
