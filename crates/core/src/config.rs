//! Configuration of the conditional-messaging system's service queues.
//!
//! The paper's architecture (Fig. 9) uses five dedicated persistent queues;
//! the defaults here follow its naming exactly.

use simtime::Millis;

/// Sender-side log queue: send records and observed acknowledgments, the
/// WAL from which a restarted sender rebuilds evaluation state.
pub const DEFAULT_SLOG_QUEUE: &str = "DS.SLOG.Q";

/// Sender-side acknowledgment queue receivers direct their acks to.
pub const DEFAULT_ACK_QUEUE: &str = "DS.ACK.Q";

/// Sender-side queue parking pre-generated compensation messages.
pub const DEFAULT_COMP_QUEUE: &str = "DS.COMP.Q";

/// Sender-side queue receiving outcome notifications for the application.
pub const DEFAULT_OUTCOME_QUEUE: &str = "DS.OUTCOME.Q";

/// Receiver-side log queue recording message consumption.
pub const DEFAULT_RLOG_QUEUE: &str = "DS.RLOG.Q";

/// Sender-side history queue of decided outcomes. Kept separate from the
/// (hot) sender log so the active-log purges stay proportional to the
/// number of *in-flight* conditional messages.
pub const DEFAULT_DONE_QUEUE: &str = "DS.DONE.Q";

/// Queue names and behavioural defaults for one conditional-messaging
/// service instance.
#[derive(Debug, Clone)]
pub struct CondConfig {
    /// Sender log queue name (default [`DEFAULT_SLOG_QUEUE`]).
    pub slog_queue: String,
    /// Acknowledgment queue name (default [`DEFAULT_ACK_QUEUE`]).
    pub ack_queue: String,
    /// Compensation queue name (default [`DEFAULT_COMP_QUEUE`]).
    pub comp_queue: String,
    /// Outcome queue name (default [`DEFAULT_OUTCOME_QUEUE`]).
    pub outcome_queue: String,
    /// Receiver log queue name (default [`DEFAULT_RLOG_QUEUE`]).
    pub rlog_queue: String,
    /// Decided-outcome history queue name (default [`DEFAULT_DONE_QUEUE`]).
    pub done_queue: String,
    /// Whether success notifications are sent to all destinations when a
    /// message succeeds (paper §2.6; per-send overridable).
    pub success_notifications: bool,
    /// Evaluation timeout applied when a send specifies none. `None` means
    /// evaluation runs until the condition's own deadlines decide it.
    pub default_evaluation_timeout: Option<Millis>,
    /// Extra time past a condition deadline before a *missing*
    /// acknowledgment counts as a violation, covering acks still in
    /// transit from remote receivers. Ack timestamps are always compared
    /// against the true deadline. The paper's Example 2 uses a 20 s
    /// condition with a 21 s evaluation timeout — i.e. one second of
    /// grace. Default: zero (decide eagerly at the deadline).
    pub ack_grace: Millis,
    /// Maximum acknowledgments drained from the ack queue under a single
    /// messaging transaction (one journal commit per batch instead of one
    /// per ack). Default: 64.
    pub ack_batch: usize,
    /// Run the [static condition analyzer](crate::analyze) on every send:
    /// error-severity findings (statically unsatisfiable trees) reject the
    /// send with [`CondError::Analysis`](crate::CondError) before any
    /// destination put; warnings are counted in the `cond.analyze.*`
    /// metrics. Default: on.
    pub analyze_sends: bool,
}

impl Default for CondConfig {
    fn default() -> Self {
        CondConfig {
            slog_queue: DEFAULT_SLOG_QUEUE.to_owned(),
            ack_queue: DEFAULT_ACK_QUEUE.to_owned(),
            comp_queue: DEFAULT_COMP_QUEUE.to_owned(),
            outcome_queue: DEFAULT_OUTCOME_QUEUE.to_owned(),
            rlog_queue: DEFAULT_RLOG_QUEUE.to_owned(),
            done_queue: DEFAULT_DONE_QUEUE.to_owned(),
            success_notifications: false,
            default_evaluation_timeout: None,
            ack_grace: Millis::ZERO,
            ack_batch: 64,
            analyze_sends: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_queue_names() {
        let c = CondConfig::default();
        assert_eq!(c.slog_queue, "DS.SLOG.Q");
        assert_eq!(c.ack_queue, "DS.ACK.Q");
        assert_eq!(c.comp_queue, "DS.COMP.Q");
        assert_eq!(c.outcome_queue, "DS.OUTCOME.Q");
        assert_eq!(c.rlog_queue, "DS.RLOG.Q");
        assert_eq!(c.done_queue, "DS.DONE.Q");
        assert!(!c.success_notifications);
        assert!(c.default_evaluation_timeout.is_none());
        assert_eq!(c.ack_grace, Millis::ZERO);
        assert_eq!(c.ack_batch, 64);
        assert!(c.analyze_sends);
    }
}
