//! Push-based conditional consumption.
//!
//! The paper notes that "in messaging systems, it is common practice to
//! perform the processing of a message in a transaction" (§2.4). A
//! [`ConditionalListener`] packages that practice: a background thread
//! reads conditional messages inside a receiver transaction and hands them
//! to a callback; committing the transaction produces the processed-ack,
//! rolling back redelivers with no acknowledgment — the same rules as the
//! pull API, without the consumer loop boilerplate. The loop itself is
//! `mq`'s [`Listener::run`]; this module supplies the receiver transaction.

#[cfg(test)]
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mq::listener::{DeliveryTx, Listener, ListenerStats};
use mq::{MqError, MqResult, QueueManager, Wait};
use simtime::Millis;

use crate::error::{CondError, CondResult};
use crate::receiver::{ConditionalReceiver, ReceivedMessage};

/// Outcome of processing one delivered message: `Commit` makes the
/// consumption permanent and, for conditional originals, emits the
/// processed-ack; `Rollback` redelivers (backout counting applies) with no
/// acknowledgment.
pub use mq::listener::Disposition as Processing;

/// The processing callback.
pub type ProcessingCallback = dyn FnMut(&ReceivedMessage) -> Processing + Send;

/// A conditional listener's transaction: one receiver-transaction read.
struct ReceiverTx {
    receiver: ConditionalReceiver,
    queue: String,
}

impl DeliveryTx for ReceiverTx {
    type Item = ReceivedMessage;

    fn take(&mut self) -> MqResult<Option<ReceivedMessage>> {
        let stopped = |e: CondError| MqError::ManagerStopped(e.to_string());
        self.receiver.begin_tx().map_err(stopped)?;
        // Short timed read (not NoWait): a queue that is non-empty but
        // holds nothing deliverable yet (e.g. a deferred compensation)
        // must not busy-spin.
        let msg = self
            .receiver
            .read_message(&self.queue, Wait::Timeout(Millis(20)))
            .map_err(stopped)?;
        if msg.is_none() {
            self.receiver.rollback_tx().map_err(stopped)?;
        }
        Ok(msg)
    }

    fn end(&mut self, commit: bool) -> bool {
        let committed = commit && self.receiver.commit_tx().is_ok();
        if !committed {
            let _ = self.receiver.rollback_tx();
        }
        committed
    }
}

/// A running conditional push consumer; stops (and joins) on drop.
#[derive(Debug)]
pub struct ConditionalListener(Listener);

impl ConditionalListener {
    /// Spawns a listener processing conditional messages from `queue` with
    /// the given recipient identity.
    ///
    /// # Errors
    ///
    /// Queue-creation failures (the receiver log queue is ensured);
    /// [`CondError::Daemon`] when the OS refuses to spawn the thread.
    pub fn spawn(
        qmgr: Arc<QueueManager>,
        queue: impl Into<String>,
        recipient: Option<String>,
        mut callback: Box<ProcessingCallback>,
    ) -> CondResult<ConditionalListener> {
        let queue = queue.into();
        // Park on the queue while it is idle; a not-yet-created queue is
        // read with the plain timed read instead.
        let watched = qmgr.queue(&queue).ok();
        // Construct the receiver up front so setup errors surface here.
        let receiver = match recipient {
            Some(recipient) => ConditionalReceiver::with_identity(qmgr, recipient)?,
            None => ConditionalReceiver::new(qmgr)?,
        };
        let tx = ReceiverTx {
            receiver,
            queue: queue.clone(),
        };
        let thread = format!("condmsg-listener-{queue}");
        Listener::run(thread, queue, watched, tx, move |msg, _| callback(msg))
            .map(ConditionalListener)
            .map_err(|e| CondError::Daemon(e.to_string()))
    }

    /// The queue this listener consumes.
    pub fn queue(&self) -> &str {
        self.0.queue()
    }

    /// Listener statistics (`delivered` counts committed processing).
    pub fn stats(&self) -> &ListenerStats {
        self.0.stats()
    }

    /// Stops the listener and waits for its thread to exit.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, Destination};
    use crate::tests::wait_for;
    use crate::messenger::ConditionalMessenger;
    use crate::wire::{MessageKind, MessageOutcome};

    fn setup() -> (Arc<QueueManager>, Arc<ConditionalMessenger>) {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        qmgr.create_queue("Q.WORK").unwrap();
        let messenger = ConditionalMessenger::new(qmgr.clone()).unwrap();
        (qmgr, messenger)
    }

    fn processing_condition() -> Condition {
        Destination::queue("QM1", "Q.WORK")
            .process_within(Millis(5_000))
            .into()
    }

    #[test]
    fn committed_processing_satisfies_processing_condition() {
        let (qmgr, messenger) = setup();
        let listener = ConditionalListener::spawn(
            qmgr.clone(),
            "Q.WORK",
            Some("worker-1".into()),
            Box::new(|msg| {
                assert_eq!(msg.kind(), MessageKind::Original);
                Processing::Commit
            }),
        )
        .unwrap();
        let id = messenger
            .send_message("job", &processing_condition())
            .unwrap();
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(5_000)))
            .unwrap()
            .expect("decided");
        assert_eq!(outcome.outcome, MessageOutcome::Success);
        // The outcome is decided the moment the processing ack commits;
        // the listener bumps its counter just after, so wait for it.
        wait_for("processed counted", || listener.stats().delivered.get() == 1);
    }

    #[test]
    fn rollbacks_then_commit_retry_path() {
        let (qmgr, messenger) = setup();
        let failures_left = Arc::new(std::sync::atomic::AtomicUsize::new(2));
        let fl = failures_left.clone();
        let listener = ConditionalListener::spawn(
            qmgr.clone(),
            "Q.WORK",
            None,
            Box::new(move |_msg| {
                if fl
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    Processing::Rollback
                } else {
                    Processing::Commit
                }
            }),
        )
        .unwrap();
        let id = messenger
            .send_message("flaky job", &processing_condition())
            .unwrap();
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(5_000)))
            .unwrap()
            .expect("decided");
        assert_eq!(
            outcome.outcome,
            MessageOutcome::Success,
            "third attempt commits"
        );
        assert_eq!(listener.stats().rolled_back.get(), 2);
        // The counter lands just after the commit that decided the
        // outcome; wait for it instead of racing the listener thread.
        wait_for("processed counted", || listener.stats().delivered.get() == 1);
    }

    #[test]
    fn panicking_callback_rolls_back_without_ack() {
        let (qmgr, messenger) = setup();
        let listener = ConditionalListener::spawn(
            qmgr.clone(),
            "Q.WORK",
            None,
            Box::new(|msg| {
                if msg.payload_str() == Some("boom") {
                    panic!("processing exploded");
                }
                Processing::Commit
            }),
        )
        .unwrap();
        messenger
            .send_message("boom", &processing_condition())
            .unwrap();
        wait_for("panic caught", || listener.stats().panics.get() >= 1);
        // No acknowledgment was produced by the failed attempts so far.
        // (The message keeps being redelivered until backout; we only
        // assert the no-ack-on-rollback property here.)
        assert_eq!(listener.stats().delivered.get(), 0);
    }

    #[test]
    fn stop_is_idempotent() {
        let (qmgr, _messenger) = setup();
        let mut listener =
            ConditionalListener::spawn(qmgr, "Q.WORK", None, Box::new(|_| Processing::Commit))
                .unwrap();
        listener.stop();
        listener.stop();
        assert_eq!(listener.queue(), "Q.WORK");
    }
}
