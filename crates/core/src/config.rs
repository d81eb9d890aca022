//! Configuration of the conditional-messaging system's service queues.
//!
//! The paper's architecture (Fig. 9) uses five dedicated persistent queues,
//! and these five are all there are: four on the sender, `DS.RLOG.Q` on
//! the receiver. The defaults here follow its naming exactly.

use std::sync::OnceLock;

use simtime::Millis;

/// Sender-side log queue: send records and observed acknowledgments, the
/// WAL from which a restarted sender rebuilds evaluation state.
// lint: registry-sink wire-string
pub const DEFAULT_SLOG_QUEUE: &str = "DS.SLOG.Q";

/// Sender-side acknowledgment queue receivers direct their acks to.
// lint: registry-sink wire-string
pub const DEFAULT_ACK_QUEUE: &str = "DS.ACK.Q";

/// Sender-side queue parking pre-generated compensation messages.
// lint: registry-sink wire-string
pub const DEFAULT_COMP_QUEUE: &str = "DS.COMP.Q";

/// Sender-side queue receiving outcome notifications for the application:
/// the one record of a verdict, until it is consumed.
// lint: registry-sink wire-string
pub const DEFAULT_OUTCOME_QUEUE: &str = "DS.OUTCOME.Q";

/// Receiver-side log queue recording message consumption.
// lint: registry-sink wire-string
pub const DEFAULT_RLOG_QUEUE: &str = "DS.RLOG.Q";

/// Maximum acknowledgments drained from the ack queue under a single
/// messaging transaction (one journal commit per batch instead of one per
/// ack). Only acknowledgments that queued — none while a messenger is
/// attached and staging — are drained this way.
pub const ACK_BATCH: usize = 64;

/// How long after a cycle that storage refused, or acknowledgments the
/// messenger could not stage, its retry timer runs the next cycle. Each
/// retry that fails again re-arms it, the way a deadline timer re-arms.
pub const RETRY_BACKOFF: Millis = Millis(10);

/// The acknowledgment grace of one conditional-messaging service
/// instance. Its queue names are fixed: the `DEFAULT_*_QUEUE` constants.
#[derive(Debug, Clone, Default)]
pub struct CondConfig {
    /// Extra time past a condition deadline before a *missing*
    /// acknowledgment counts as a violation, covering acks still in
    /// transit from remote receivers. Ack timestamps are always compared
    /// against the true deadline. The paper's Example 2 uses a 20 s
    /// condition with a 21 s evaluation timeout — i.e. one second of
    /// grace. Default: zero (decide eagerly at the deadline).
    pub ack_grace: Millis,
}

/// The sender's service queue names, as owned strings for callers that
/// compare them against [`mq::QueueManager::queue_names`]
/// (`ConditionalMessenger::config`). Always the `DEFAULT_*_QUEUE`
/// constants.
#[derive(Debug)]
pub struct ServiceQueues {
    /// [`DEFAULT_SLOG_QUEUE`].
    pub slog_queue: String,
    /// [`DEFAULT_ACK_QUEUE`].
    pub ack_queue: String,
    /// [`DEFAULT_COMP_QUEUE`].
    pub comp_queue: String,
    /// [`DEFAULT_OUTCOME_QUEUE`].
    pub outcome_queue: String,
}

impl ServiceQueues {
    /// The one value.
    pub(crate) fn get() -> &'static ServiceQueues {
        static QUEUES: OnceLock<ServiceQueues> = OnceLock::new();
        QUEUES.get_or_init(|| ServiceQueues {
            slog_queue: DEFAULT_SLOG_QUEUE.to_owned(),
            ack_queue: DEFAULT_ACK_QUEUE.to_owned(),
            comp_queue: DEFAULT_COMP_QUEUE.to_owned(),
            outcome_queue: DEFAULT_OUTCOME_QUEUE.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_queue_names() {
        assert_eq!(DEFAULT_SLOG_QUEUE, "DS.SLOG.Q");
        assert_eq!(DEFAULT_ACK_QUEUE, "DS.ACK.Q");
        assert_eq!(DEFAULT_COMP_QUEUE, "DS.COMP.Q");
        assert_eq!(DEFAULT_OUTCOME_QUEUE, "DS.OUTCOME.Q");
        assert_eq!(DEFAULT_RLOG_QUEUE, "DS.RLOG.Q");
        assert_eq!(ServiceQueues::get().ack_queue, DEFAULT_ACK_QUEUE);
        assert_eq!(CondConfig::default().ack_grace, Millis::ZERO);
    }
}
