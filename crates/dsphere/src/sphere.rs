//! Dependency-Spheres: atomic units-of-work over conditional messages and
//! transactional resources (paper §3).
//!
//! A [`DSphere`] is "a global context inside of which various conditional
//! messages may occur", demarcated with `begin_DS` / `commit_DS` /
//! `abort_DS` ([`DSphereService::begin`], [`DSphere::try_commit`],
//! [`DSphere::abort`]). Its two defining properties, both from §3.1:
//!
//! * **Messages are sent immediately** — unlike ordinary messaging
//!   transactions, publication is *not* bound to the sphere commit; the
//!   messages go out, are monitored and evaluated as usual.
//! * **Outcome actions are deferred** — compensation or success
//!   notifications for each member message are initiated only when the
//!   sphere terminates, based on the *overall* sphere outcome: the sphere
//!   succeeds iff every member message succeeded *and* every enlisted
//!   transactional resource votes commit (§3.2). If the sphere fails, all
//!   member messages are compensated — including those that individually
//!   succeeded — and all resources roll back.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use condmsg::config::DEFAULT_OUTCOME_QUEUE;
use condmsg::{
    CondError, CondMessageId, Condition, ConditionalMessenger, MessageOutcome, MessageStatus,
    SendOptions,
};
use mq::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, TraceStage, Wait};
use simtime::{Millis, Time};

use crate::otx::{Transaction, TransactionManager, TransactionalResource, Xid};

/// Pre-registered `dsphere.*` metric cells.
#[derive(Debug)]
struct SphereMetrics {
    /// Spheres begun (`dsphere.begun`).
    begun: Arc<Counter>,
    /// Spheres terminated committed (`dsphere.committed`).
    committed: Arc<Counter>,
    /// Spheres terminated aborted (`dsphere.aborted`).
    aborted: Arc<Counter>,
    /// Spheres currently open (`dsphere.active`, with high-water mark).
    active: Arc<Gauge>,
}

impl SphereMetrics {
    fn registered(registry: &MetricsRegistry) -> SphereMetrics {
        SphereMetrics {
            begun: registry.counter("dsphere.begun"),
            committed: registry.counter("dsphere.committed"),
            aborted: registry.counter("dsphere.aborted"),
            active: registry.gauge("dsphere.active"),
        }
    }

    fn update_active(&self) {
        let terminated = self.committed.get() + self.aborted.get();
        self.active.set(self.begun.get().saturating_sub(terminated));
    }
}

/// Errors reported by the D-Sphere service.
#[derive(Debug)]
#[non_exhaustive]
pub enum SphereError {
    /// The underlying conditional-messaging layer failed.
    Cond(CondError),
    /// The sphere has already terminated; no further work may join it.
    Terminated,
}

impl fmt::Display for SphereError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SphereError::Cond(e) => write!(f, "conditional messaging error: {e}"),
            SphereError::Terminated => write!(f, "dependency-sphere already terminated"),
        }
    }
}

impl std::error::Error for SphereError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SphereError::Cond(e) => Some(e),
            SphereError::Terminated => None,
        }
    }
}

impl From<CondError> for SphereError {
    fn from(e: CondError) -> Self {
        SphereError::Cond(e)
    }
}

/// Convenience result alias.
pub type SphereResult<T> = Result<T, SphereError>;

/// Final outcome of a Dependency-Sphere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SphereOutcome {
    /// Every member message succeeded and all resources committed.
    Committed,
    /// The sphere failed; resources rolled back, compensations released.
    Aborted {
        /// Why the sphere failed (first message failure, resource veto,
        /// timeout, or explicit abort).
        reason: String,
    },
}

impl SphereOutcome {
    /// `true` for [`SphereOutcome::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, SphereOutcome::Committed)
    }
}

impl fmt::Display for SphereOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SphereOutcome::Committed => write!(f, "committed"),
            SphereOutcome::Aborted { reason } => write!(f, "aborted: {reason}"),
        }
    }
}

/// Factory for Dependency-Spheres over a conditional messenger and a
/// transaction manager (paper Fig. 10: the D-Sphere service sits on the
/// conditional messaging service and the object transaction service).
pub struct DSphereService {
    messenger: Arc<ConditionalMessenger>,
    txm: Arc<TransactionManager>,
    metrics: SphereMetrics,
}

impl fmt::Debug for DSphereService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DSphereService")
            .field("manager", &self.messenger.manager().name())
            .finish()
    }
}

impl DSphereService {
    /// Creates a service with its own transaction manager.
    pub fn new(messenger: Arc<ConditionalMessenger>) -> Arc<DSphereService> {
        let metrics = SphereMetrics::registered(messenger.manager().obs().metrics());
        Arc::new(DSphereService {
            messenger,
            txm: TransactionManager::new(),
            metrics,
        })
    }

    /// The conditional messenger spheres send through.
    pub fn messenger(&self) -> &Arc<ConditionalMessenger> {
        &self.messenger
    }

    /// The transaction manager resources enlist with.
    pub fn tx_manager(&self) -> &Arc<TransactionManager> {
        &self.txm
    }

    /// A point-in-time snapshot of every metric registered against the
    /// underlying manager's observability hub (including the `dsphere.*`
    /// metrics).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.messenger.manager().metrics_snapshot()
    }

    /// Begins a sphere with no timeout (`begin_DS`).
    pub fn begin(self: &Arc<Self>) -> DSphere {
        self.begin_sphere(None)
    }

    /// Begins a sphere that fails if still undecided after `timeout`.
    pub fn begin_with_timeout(self: &Arc<Self>, timeout: Millis) -> DSphere {
        self.begin_sphere(Some(timeout))
    }

    fn begin_sphere(self: &Arc<Self>, timeout: Option<Millis>) -> DSphere {
        let now = self.messenger.manager().clock().now();
        self.metrics.begun.incr();
        self.metrics.update_active();
        self.messenger.manager().trace().record(
            now,
            TraceStage::SphereBegin,
            None,
            None,
            match timeout {
                Some(t) => format!("timeout {t}"),
                None => String::new(),
            },
        );
        let tx = self.txm.begin();
        DSphere {
            service: self.clone(),
            messages: Vec::new(),
            xid: tx.xid(),
            phase: Phase::Open(tx),
            began_at: now,
            deadline: timeout.map(|t| now + t),
        }
    }
}

/// Where a sphere is between `begin_DS` and the end of its termination.
enum Phase {
    /// Messages may join and resources enlist in the transaction.
    Open(Transaction),
    /// The outcome is decided and the resources have ended with it; the
    /// members are still owed their outcome actions.
    Terminating(SphereOutcome),
    /// Every member's actions are released.
    Terminated(SphereOutcome),
}

/// An open Dependency-Sphere.
pub struct DSphere {
    service: Arc<DSphereService>,
    messages: Vec<CondMessageId>,
    /// The resource transaction's id, taken at `begin`.
    xid: Xid,
    phase: Phase,
    began_at: Time,
    deadline: Option<Time>,
}

impl fmt::Debug for DSphere {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DSphere")
            .field("messages", &self.messages.len())
            .field("began_at", &self.began_at)
            .field("deadline", &self.deadline)
            .field("terminated", &self.outcome())
            .finish()
    }
}

impl DSphere {
    /// The ids of the conditional messages sent inside this sphere.
    pub fn message_ids(&self) -> &[CondMessageId] {
        &self.messages
    }

    /// The sphere's resource-transaction id; pass it to resource
    /// operations ([`crate::resources::KvStore::put`] etc.).
    pub fn xid(&self) -> Xid {
        self.xid
    }

    /// When the sphere began, on the messenger's clock.
    pub fn began_at(&self) -> Time {
        self.began_at
    }

    /// The sphere's timeout deadline, if one was set.
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// The outcome, once terminated.
    pub fn outcome(&self) -> Option<&SphereOutcome> {
        match &self.phase {
            Phase::Terminated(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// A point-in-time snapshot of every metric registered against the
    /// underlying manager's observability hub.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.service.metrics_snapshot()
    }

    /// Records a sphere termination in metrics and the lifecycle trace.
    fn record_termination(&self, outcome: &SphereOutcome) {
        let metrics = &self.service.metrics;
        let now = self.service.messenger.manager().clock().now();
        let (stage, detail) = match outcome {
            SphereOutcome::Committed => {
                metrics.committed.incr();
                (TraceStage::SphereCommit, String::new())
            }
            SphereOutcome::Aborted { reason } => {
                metrics.aborted.incr();
                (TraceStage::SphereAbort, reason.clone())
            }
        };
        metrics.update_active();
        self.service
            .messenger
            .manager()
            .trace()
            .record(now, stage, None, None, detail);
    }

    fn check_active(&self) -> SphereResult<()> {
        match self.phase {
            Phase::Open(_) => Ok(()),
            _ => Err(SphereError::Terminated),
        }
    }

    /// Sends a conditional message inside the sphere. The message goes out
    /// *immediately* (§3.1), but its outcome actions are deferred until the
    /// sphere terminates.
    ///
    /// # Errors
    ///
    /// [`SphereError::Terminated`]; condition/messaging errors.
    pub fn send_message(
        &mut self,
        payload: impl Into<Bytes>,
        condition: &Condition,
    ) -> SphereResult<CondMessageId> {
        self.send_with(payload, None, condition, SendOptions::default())
    }

    /// Sends a conditional message with application compensation data.
    ///
    /// # Errors
    ///
    /// See [`DSphere::send_message`].
    pub fn send_message_with_compensation(
        &mut self,
        payload: impl Into<Bytes>,
        compensation: impl Into<Bytes>,
        condition: &Condition,
    ) -> SphereResult<CondMessageId> {
        self.send_with(
            payload,
            Some(compensation.into()),
            condition,
            SendOptions::default(),
        )
    }

    /// Fully general sphere send; `defer_outcome_actions` is forced on.
    ///
    /// # Errors
    ///
    /// See [`DSphere::send_message`].
    pub fn send_with(
        &mut self,
        payload: impl Into<Bytes>,
        compensation: Option<Bytes>,
        condition: &Condition,
        mut options: SendOptions,
    ) -> SphereResult<CondMessageId> {
        self.check_active()?;
        options.defer_outcome_actions = true;
        let id = self
            .service
            .messenger
            .send_with(payload, compensation, condition, options)?;
        self.messages.push(id);
        Ok(id)
    }

    /// Enlists a transactional resource (its staged work under
    /// [`DSphere::xid`] commits or rolls back with the sphere, §3.2).
    ///
    /// # Errors
    ///
    /// [`SphereError::Terminated`].
    pub fn enlist(&mut self, resource: Arc<dyn TransactionalResource>) -> SphereResult<()> {
        match &mut self.phase {
            Phase::Open(tx) => {
                tx.enlist(resource);
                Ok(())
            }
            _ => Err(SphereError::Terminated),
        }
    }

    /// Attempts `commit_DS`: pumps the evaluation manager and, if every
    /// member message is decided (or the sphere deadline has passed),
    /// terminates the sphere and returns its outcome. Returns `Ok(None)`
    /// while member evaluations are still pending.
    ///
    /// # Errors
    ///
    /// Messaging failures. Safe to retry: once the outcome is decided a
    /// retry re-runs the one transaction that releases every member.
    /// [`CondError::UnknownMessage`] for a decided member whose notification
    /// someone else took: the sphere is its members' one consumer.
    pub fn try_commit(&mut self) -> SphereResult<Option<SphereOutcome>> {
        if !matches!(self.phase, Phase::Open(_)) {
            return self.terminate(None).map(Some);
        }
        self.service.messenger.pump()?;
        let now = self.service.messenger.manager().clock().now();

        let mut pending: Vec<CondMessageId> = Vec::new();
        let mut first_failure: Option<String> = None;
        for id in &self.messages {
            match self.service.messenger.status(*id) {
                MessageStatus::Pending => pending.push(*id),
                MessageStatus::Decided(n) => {
                    if n.outcome == MessageOutcome::Failure && first_failure.is_none() {
                        first_failure = Some(format!(
                            "conditional message {id} failed: {}",
                            n.reason.unwrap_or_else(|| "condition violated".into())
                        ));
                    }
                }
                MessageStatus::Unknown => {
                    return Err(SphereError::Cond(CondError::UnknownMessage(*id)))
                }
            }
        }

        if !pending.is_empty() {
            match self.deadline {
                Some(d) if now >= d => {
                    // Sphere timeout: undecided members count as failed.
                    self.service
                        .messenger
                        .force_fail(&pending, "D-Sphere timeout")?;
                    if first_failure.is_none() {
                        first_failure = Some("D-Sphere timeout".to_owned());
                    }
                }
                _ => return Ok(None),
            }
        }
        self.terminate(first_failure).map(Some)
    }

    /// Blocking `commit_DS`: re-attempts [`DSphere::try_commit`] until the
    /// sphere terminates, parking between attempts on the outcome queue for
    /// the first member still pending. Its verdict wakes the wait, and so
    /// does the sphere's deadline, on the manager's clock: the sphere ends
    /// once every member is decided or that deadline passes, and nothing
    /// else. The wait peeks at the notification and leaves it:
    /// `try_commit` reads the verdict from
    /// [`ConditionalMessenger::status`], and the release is the members'
    /// only consumer. Without a sphere timeout it returns once every member
    /// is decided, which per-message evaluation timeouts guarantee.
    ///
    /// A member's notification must not be taken while this runs: the wait
    /// for it would then end only at the sphere's deadline, and without
    /// one never. Taken before, it is reported at once.
    ///
    /// # Errors
    ///
    /// Messaging failures, and [`CondError::UnknownMessage`] for a member
    /// whose notification someone else took.
    pub fn commit_blocking(mut self) -> SphereResult<SphereOutcome> {
        let messenger = self.service.messenger.clone();
        let outcomes = messenger.manager().queue(DEFAULT_OUTCOME_QUEUE).map_err(CondError::from)?;
        loop {
            if let Some(outcome) = self.try_commit()? {
                return Ok(outcome);
            }
            let pending = self
                .messages
                .iter()
                .find(|id| messenger.status(**id) == MessageStatus::Pending);
            if let Some(id) = pending {
                let now = messenger.manager().clock().now();
                let wait = self.deadline.map_or(Wait::Forever, |d| Wait::Timeout(d.since(now)));
                outcomes.peek_by_correlation(id.as_u128(), wait).map_err(CondError::from)?;
            }
        }
    }

    /// `abort_DS`: fails all member messages still pending, rolls back the
    /// resource transaction, and releases compensations for *every* member
    /// message.
    ///
    /// # Errors
    ///
    /// Messaging failures.
    pub fn abort(&mut self, reason: impl Into<String>) -> SphereResult<SphereOutcome> {
        let reason = reason.into();
        if matches!(self.phase, Phase::Open(_)) {
            // Forcing a decided member leaves its verdict as it is.
            let messenger = &self.service.messenger;
            messenger.pump()?;
            messenger.force_fail(&self.messages, format!("D-Sphere aborted: {reason}"))?;
        }
        self.terminate(Some(reason))
    }

    /// Terminates the sphere. An open one ends its resource transaction —
    /// two-phase commit when there is no `failure`, rollback otherwise —
    /// which fixes the outcome; then every member's outcome actions are
    /// released under it in one transaction, which also consumes the
    /// members' notifications: the sphere is their consumer of record, and
    /// its outcome already carries the aggregate verdict. A release that
    /// fails released nothing and leaves the sphere terminating: the retry
    /// (of `try_commit` or `abort`) runs it again under the same outcome.
    fn terminate(&mut self, failure: Option<String>) -> SphereResult<SphereOutcome> {
        let outcome = match &mut self.phase {
            Phase::Terminated(outcome) => return Ok(outcome.clone()),
            Phase::Terminating(outcome) => outcome.clone(),
            Phase::Open(tx) => match failure {
                // Every member succeeded: 2PC over the resources decides.
                None => match tx.commit_in_place() {
                    Ok(()) => SphereOutcome::Committed,
                    Err(aborted) => SphereOutcome::Aborted {
                        reason: aborted.to_string(),
                    },
                },
                Some(reason) => {
                    tx.rollback_in_place();
                    SphereOutcome::Aborted { reason }
                }
            },
        };
        let group = match outcome {
            SphereOutcome::Committed => MessageOutcome::Success,
            SphereOutcome::Aborted { .. } => MessageOutcome::Failure,
        };
        let messenger = &self.service.messenger;
        if let Err(e) = messenger.release_outcome_actions(&self.messages, group) {
            self.phase = Phase::Terminating(outcome);
            return Err(e.into());
        }
        self.record_termination(&outcome);
        self.phase = Phase::Terminated(outcome.clone());
        Ok(outcome)
    }
}

impl Drop for DSphere {
    fn drop(&mut self) {
        if self.outcome().is_none() {
            // Undemarcated sphere: abort, best effort (C-DTOR-FAIL).
            let _ = self.abort("sphere dropped without commit or abort");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{Calendar, KvStore, ProbeResource};
    use condmsg::{ConditionalReceiver, Destination, MessageKind};
    use mq::QueueManager;
    use simtime::SimClock;
    use std::time::Duration;

    struct Fixture {
        clock: Arc<SimClock>,
        qmgr: Arc<QueueManager>,
        service: Arc<DSphereService>,
    }

    fn setup() -> Fixture {
        let clock = SimClock::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .build()
            .unwrap();
        for q in ["Q.A", "Q.B", "Q.C"] {
            qmgr.create_queue(q).unwrap();
        }
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let service = DSphereService::new(messenger);
        Fixture {
            clock,
            qmgr,
            service,
        }
    }

    fn dest(queue: &str, window: Millis) -> Condition {
        Destination::queue("QM1", queue)
            .pickup_within(window)
            .into()
    }

    fn read_all(qmgr: &Arc<QueueManager>, queue: &str) -> Vec<condmsg::ReceivedMessage> {
        let mut receiver = ConditionalReceiver::new(qmgr.clone()).unwrap();
        let mut out = Vec::new();
        while let Some(m) = receiver.read_message(queue, Wait::NoWait).unwrap() {
            out.push(m);
        }
        out
    }

    #[test]
    fn messages_are_sent_immediately_not_bound_to_commit() {
        let f = setup();
        let mut sphere = f.service.begin();
        sphere
            .send_message("now!", &dest("Q.A", Millis(100)))
            .unwrap();
        // Visible on the destination queue before any commit_DS.
        assert_eq!(f.qmgr.queue("Q.A").unwrap().depth(), 1);
        sphere.abort("test cleanup").unwrap();
    }

    #[test]
    fn sphere_commits_when_all_members_succeed() {
        let f = setup();
        let kv = KvStore::new("db");
        let mut sphere = f.service.begin();
        sphere.enlist(kv.clone()).unwrap();
        kv.put(sphere.xid(), "state", "scheduled");
        let m1 = sphere.send_message("a", &dest("Q.A", Millis(100))).unwrap();
        let m2 = sphere.send_message("b", &dest("Q.B", Millis(100))).unwrap();
        assert_eq!(sphere.message_ids(), &[m1, m2]);

        // Receivers pick both up in time.
        f.clock.advance(Millis(10));
        assert_eq!(read_all(&f.qmgr, "Q.A").len(), 1);
        assert_eq!(read_all(&f.qmgr, "Q.B").len(), 1);

        let outcome = sphere.try_commit().unwrap().expect("decided");
        assert!(outcome.is_committed());
        assert_eq!(
            kv.get("state"),
            Some("scheduled".into()),
            "resource committed"
        );
        // No compensations delivered anywhere.
        assert_eq!(f.qmgr.queue("Q.A").unwrap().depth(), 0);
        assert_eq!(f.qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
    }

    #[test]
    fn try_commit_waits_while_pending() {
        let f = setup();
        let mut sphere = f.service.begin();
        sphere.send_message("a", &dest("Q.A", Millis(100))).unwrap();
        assert_eq!(sphere.try_commit().unwrap(), None, "still pending");
        f.clock.advance(Millis(10));
        read_all(&f.qmgr, "Q.A");
        let outcome = sphere.try_commit().unwrap().unwrap();
        assert!(outcome.is_committed());
    }

    #[test]
    fn commit_blocking_wakes_on_timer_decision() {
        // System clock, no daemon, no sphere timeout: the member's
        // deadline timer decides the failure and its notification on the
        // outcome queue is what wakes commit_blocking.
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        qmgr.create_queue("Q.A").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        let service = DSphereService::new(messenger);
        let mut sphere = service.begin();
        sphere.send_message("a", &dest("Q.A", Millis(40))).unwrap();
        let start = std::time::Instant::now();
        let outcome = sphere.commit_blocking().unwrap();
        let took = start.elapsed();
        assert!(!outcome.is_committed(), "unread member fails the sphere");
        assert!(took < Duration::from_secs(1), "woke after {took:?}");
        assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
    }

    /// A member whose notification another consumer took leaves nothing
    /// to wait for: the sphere reports it instead of parking.
    #[test]
    fn commit_blocking_reports_a_member_whose_notification_was_taken() {
        let f = setup();
        let mut sphere = f.service.begin();
        let id = sphere.send_message("a", &dest("Q.A", Millis(100))).unwrap();
        f.clock.advance(Millis(10));
        read_all(&f.qmgr, "Q.A");
        let taken = f.service.messenger.take_outcome(id, Wait::NoWait).unwrap();
        assert!(taken.is_some(), "decided");
        match sphere.commit_blocking() {
            Err(SphereError::Cond(CondError::UnknownMessage(unknown))) => assert_eq!(unknown, id),
            other => panic!("expected UnknownMessage, got {other:?}"),
        }
    }

    #[test]
    fn one_failed_message_fails_the_whole_sphere() {
        let f = setup();
        let kv = KvStore::new("db");
        let mut sphere = f.service.begin();
        sphere.enlist(kv.clone()).unwrap();
        kv.put(sphere.xid(), "state", "should-not-commit");
        sphere.send_message("a", &dest("Q.A", Millis(100))).unwrap();
        sphere.send_message("b", &dest("Q.B", Millis(50))).unwrap();
        // Only Q.A is read; Q.B's pick-up window lapses.
        f.clock.advance(Millis(10));
        read_all(&f.qmgr, "Q.A");
        f.clock.advance(Millis(60));
        let outcome = sphere.try_commit().unwrap().unwrap();
        match &outcome {
            SphereOutcome::Aborted { reason } => {
                assert!(reason.contains("failed"), "{reason}")
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(kv.get("state"), None, "resource rolled back");
        // Backward dependency: the *successful* message on Q.A is
        // compensated too.
        let a_msgs = read_all(&f.qmgr, "Q.A");
        assert_eq!(a_msgs.len(), 1, "compensation for the consumed original");
        assert_eq!(a_msgs[0].kind(), MessageKind::Compensation);
        // Q.B: original still unread + compensation → annihilate on read.
        assert!(read_all(&f.qmgr, "Q.B").is_empty());
        assert_eq!(f.qmgr.queue("Q.B").unwrap().depth(), 0);
    }

    #[test]
    fn resource_veto_fails_sphere_and_compensates_messages() {
        let f = setup();
        let veto = ProbeResource::vetoing("veto", "business rule violated");
        let mut sphere = f.service.begin();
        sphere.enlist(veto.clone()).unwrap();
        sphere.send_message("a", &dest("Q.A", Millis(100))).unwrap();
        f.clock.advance(Millis(5));
        read_all(&f.qmgr, "Q.A");
        let outcome = sphere.try_commit().unwrap().unwrap();
        match &outcome {
            SphereOutcome::Aborted { reason } => {
                assert!(reason.contains("business rule violated"), "{reason}")
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(veto.rolled_back(), 1);
        // The message succeeded individually, yet is compensated because
        // the sphere failed.
        let comps = read_all(&f.qmgr, "Q.A");
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].kind(), MessageKind::Compensation);
        assert!(comps[0].is_system_compensation());
    }

    #[test]
    fn sphere_timeout_fails_pending_members() {
        let f = setup();
        let mut sphere = f.service.begin_with_timeout(Millis(200));
        assert_eq!(sphere.deadline(), Some(Time(200)));
        sphere
            .send_message("a", &dest("Q.A", Millis(10_000)))
            .unwrap();
        assert_eq!(sphere.try_commit().unwrap(), None);
        f.clock.advance(Millis(250));
        let outcome = sphere.try_commit().unwrap().unwrap();
        match &outcome {
            SphereOutcome::Aborted { reason } => {
                assert!(reason.contains("timeout"), "{reason}")
            }
            other => panic!("expected timeout abort, got {other:?}"),
        }
    }

    #[test]
    fn explicit_abort_compensates_everything() {
        let f = setup();
        let cal = Calendar::new("calendar");
        let mut sphere = f.service.begin();
        sphere.enlist(cal.clone()).unwrap();
        cal.schedule(sphere.xid(), "alice", 10, "meeting");
        sphere
            .send_message_with_compensation("invite", "cancelled", &dest("Q.A", Millis(100)))
            .unwrap();
        f.clock.advance(Millis(5));
        read_all(&f.qmgr, "Q.A");
        let outcome = sphere.abort("contract negotiation fell through").unwrap();
        assert!(!outcome.is_committed());
        assert_eq!(cal.event("alice", 10), None, "calendar rolled back");
        let comps = read_all(&f.qmgr, "Q.A");
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].payload_str(), Some("cancelled"));
    }

    #[test]
    fn terminated_sphere_rejects_further_work() {
        let f = setup();
        let mut sphere = f.service.begin();
        sphere.abort("done").unwrap();
        assert!(matches!(
            sphere.send_message("x", &dest("Q.A", Millis(10))),
            Err(SphereError::Terminated)
        ));
        assert!(matches!(
            sphere.enlist(ProbeResource::new("r")),
            Err(SphereError::Terminated)
        ));
        // try_commit / abort after termination return the prior outcome.
        assert_eq!(
            sphere.try_commit().unwrap().unwrap(),
            SphereOutcome::Aborted {
                reason: "done".into()
            }
        );
        assert_eq!(
            sphere.abort("again").unwrap(),
            SphereOutcome::Aborted {
                reason: "done".into()
            }
        );
    }

    #[test]
    fn dropped_sphere_aborts() {
        let f = setup();
        let kv = KvStore::new("db");
        {
            let mut sphere = f.service.begin();
            sphere.enlist(kv.clone()).unwrap();
            kv.put(sphere.xid(), "k", "v");
            sphere.send_message("x", &dest("Q.A", Millis(100))).unwrap();
            // dropped without demarcation
        }
        assert_eq!(kv.get("k"), None);
        // Compensation (annihilating the unread original) awaits on Q.A.
        assert!(read_all(&f.qmgr, "Q.A").is_empty());
        assert_eq!(f.qmgr.queue("Q.A").unwrap().depth(), 0);
    }

    #[test]
    fn empty_sphere_commits_trivially() {
        let f = setup();
        let mut sphere = f.service.begin();
        let outcome = sphere.try_commit().unwrap().unwrap();
        assert!(outcome.is_committed());
        assert_eq!(outcome.to_string(), "committed");
    }

    #[test]
    fn a_termination_whose_release_fails_releases_no_member_until_a_retry_releases_all() {
        // Both members fail, their actions deferred to the sphere. The first
        // termination's record is refused (storage down), the second cannot
        // route member 1's compensation (its destination queue is gone).
        // Neither releases anything; the retry once healed releases every
        // member exactly once.
        let clock = SimClock::new();
        let journal = mq::journal::MemJournal::new();
        let qmgr = QueueManager::builder("QM1")
            .clock(clock.clone())
            .journal(journal.clone())
            .build()
            .unwrap();
        for q in ["Q.A", "Q.B"] {
            qmgr.create_queue(q).unwrap();
        }
        let service = DSphereService::new(ConditionalMessenger::new(qmgr.clone()).unwrap());
        let mut sphere = service.begin();
        for (queue, undo) in [("Q.A", "undo a"), ("Q.B", "undo b")] {
            let cond = dest(queue, Millis(50));
            sphere
                .send_message_with_compensation("x", undo, &cond)
                .unwrap();
        }
        clock.advance(Millis(100));
        let unreleased = || {
            assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 2);
            assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 2);
            assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 1, "only the original");
        };

        journal.set_failing(true);
        assert!(sphere.try_commit().is_err());
        unreleased();
        journal.set_failing(false);
        qmgr.delete_queue("Q.B").unwrap();
        assert!(sphere.try_commit().is_err(), "member 1 has nowhere to go");
        unreleased();
        assert_eq!(sphere.outcome(), None);
        assert!(sphere
            .send_message("late", &dest("Q.A", Millis(50)))
            .is_err());
        qmgr.create_queue("Q.B").unwrap();
        let outcome = sphere.try_commit().unwrap().unwrap();
        assert!(!outcome.is_committed());
        assert_eq!(sphere.outcome(), Some(&outcome));
        let metrics = qmgr.metrics_snapshot();
        assert_eq!(metrics.counter("cond.comp.released"), 2);
        assert_eq!(metrics.counter("dsphere.aborted"), 1);
        assert_eq!(qmgr.queue("DS.COMP.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("DS.OUTCOME.Q").unwrap().depth(), 0);
        assert_eq!(qmgr.queue("Q.A").unwrap().depth(), 2, "original + undo");
        assert_eq!(qmgr.queue("Q.B").unwrap().depth(), 1, "the undo, once");
        assert_eq!(sphere.abort("again").unwrap(), outcome);
    }

    #[test]
    fn two_spheres_are_independent() {
        let f = setup();
        let mut s1 = f.service.begin();
        let mut s2 = f.service.begin();
        s1.send_message("one", &dest("Q.A", Millis(100))).unwrap();
        s2.send_message("two", &dest("Q.B", Millis(50))).unwrap();
        f.clock.advance(Millis(10));
        read_all(&f.qmgr, "Q.A"); // only sphere 1's message is read
        f.clock.advance(Millis(60)); // sphere 2's window lapses
        let o1 = s1.try_commit().unwrap().unwrap();
        let o2 = s2.try_commit().unwrap().unwrap();
        assert!(o1.is_committed());
        assert!(!o2.is_committed());
    }
}
