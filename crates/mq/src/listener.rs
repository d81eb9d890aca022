//! Push-based message consumption (the JMS `MessageListener` analog).
//!
//! A [`Listener`] runs a background thread that delivers each arriving
//! message to a callback. Delivery is transactional: the callback runs
//! inside a messaging transaction holding the consumed message, and its
//! [`Disposition`] decides between commit (message consumed, staged puts
//! released) and rollback (message redelivered, counting toward the
//! backout threshold). A panicking callback rolls back too — a poison
//! message therefore ends up on the dead-letter queue instead of wedging
//! the listener.
//!
//! [`Listener::run`] is the push-consumer skeleton every listener shares
//! (thread, stop flag, idle park, panic-safe disposition, statistics);
//! what a listener delivers in is its [`DeliveryTx`] — a [`Session`] here,
//! a conditional receiver's transaction in `condmsg`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{MqError, MqResult};
use crate::message::Message;
use crate::qmgr::QueueManager;
use crate::queue::{Queue, Wait};
use crate::session::Session;
use crate::stats::Counter;

/// What the listener should do with the delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Commit the delivery transaction (message consumed).
    Commit,
    /// Roll back: the message returns to the queue and is redelivered
    /// (dead-lettered past the backout threshold).
    Rollback,
}

/// The delivery callback: receives the message and a session holding the
/// open delivery transaction (replies/forwards staged on it commit
/// atomically with the consumption).
pub type Callback = dyn FnMut(&Message, &mut Session) -> Disposition + Send;

/// Per-listener statistics.
#[derive(Debug, Default)]
pub struct ListenerStats {
    /// Deliveries committed.
    pub delivered: Counter,
    /// Deliveries rolled back (by disposition or panic).
    pub rolled_back: Counter,
    /// Callback panics caught.
    pub panics: Counter,
}

/// The transaction a push consumer delivers in, driven by
/// [`Listener::run`].
pub trait DeliveryTx: Send + 'static {
    /// What the callback is handed.
    type Item;

    /// Opens a transaction holding the next deliverable message. `Ok(None)`
    /// leaves nothing open (there was nothing to deliver); an error stops
    /// the listener.
    ///
    /// # Errors
    ///
    /// The manager stopped.
    fn take(&mut self) -> MqResult<Option<Self::Item>>;

    /// Ends the open transaction — commits it when `commit`, else rolls it
    /// back (a refused commit rolls back too) — and returns whether it
    /// committed.
    fn end(&mut self, commit: bool) -> bool;
}

/// A [`Listener::spawn`] listener's transaction: one get on a session.
struct SessionTx {
    session: Session,
    queue: String,
}

impl DeliveryTx for SessionTx {
    type Item = Message;

    fn take(&mut self) -> MqResult<Option<Message>> {
        self.session.begin()?;
        let msg = self.session.get(&self.queue, Wait::NoWait)?;
        if msg.is_none() {
            // Raced with another consumer.
            self.session.rollback_for_retry()?;
        }
        Ok(msg)
    }

    fn end(&mut self, commit: bool) -> bool {
        let committed = commit && self.session.commit().is_ok();
        if !committed {
            let _ = self.session.rollback();
        }
        committed
    }
}

/// A running push consumer; stops (and joins) on drop.
pub struct Listener {
    queue: String,
    stop: Arc<AtomicBool>,
    /// Woken by a stop, for a loop parked on it.
    watched: Option<Arc<Queue>>,
    handle: Option<std::thread::JoinHandle<()>>,
    stats: Arc<ListenerStats>,
}

impl fmt::Debug for Listener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Listener")
            .field("queue", &self.queue)
            .field("delivered", &self.stats.delivered.get())
            .finish()
    }
}

impl Listener {
    /// Spawns a listener on `queue`.
    ///
    /// # Errors
    ///
    /// [`MqError::QueueNotFound`] when the queue does not exist;
    /// [`MqError::Io`] when the OS refuses to spawn the thread.
    pub fn spawn(
        qmgr: Arc<QueueManager>,
        queue: impl Into<String>,
        mut callback: Box<Callback>,
    ) -> MqResult<Listener> {
        let queue = queue.into();
        let watched = qmgr.queue(&queue)?; // validate up front
        let tx = SessionTx {
            session: qmgr.session(),
            queue: queue.clone(),
        };
        let thread = format!("mq-listener-{queue}");
        Listener::run(thread, queue, Some(watched), tx, move |msg, tx| {
            callback(msg, &mut tx.session)
        })
        .map_err(MqError::Io)
    }

    /// Runs `callback` over every message `tx` takes, on a thread named
    /// `thread`: the loop parks on `watched` while it is empty, hands each
    /// message to the callback inside its transaction, and ends the
    /// transaction as the callback decides — rolled back when it panics.
    ///
    /// # Errors
    ///
    /// The OS refused to spawn the thread.
    pub fn run<T: DeliveryTx>(
        thread: String,
        queue: String,
        watched: Option<Arc<Queue>>,
        mut tx: T,
        mut callback: impl FnMut(&T::Item, &mut T) -> Disposition + Send + 'static,
    ) -> std::io::Result<Listener> {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ListenerStats::default());
        let (stop2, stats2, watched2) = (stop.clone(), stats.clone(), watched.clone());
        let handle = std::thread::Builder::new().name(thread).spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                // Park on the queue's condvar while idle: no transaction
                // (or transaction churn) until a message is available or
                // the listener stops.
                let ready = |depth| depth > 0 || stop2.load(Ordering::SeqCst);
                if let Some(Err(_)) = watched2.as_ref().map(|q| q.wait_until(None, ready)) {
                    return; // manager stopped
                }
                if stop2.load(Ordering::SeqCst) {
                    continue;
                }
                let item = match tx.take() {
                    Ok(Some(item)) => item,
                    Ok(None) => continue,
                    Err(_) => return, // manager stopped
                };
                // Catch panics so a poison message rolls back (and
                // eventually dead-letters) instead of killing the thread.
                let decided = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    callback(&item, &mut tx)
                }));
                match decided {
                    Ok(Disposition::Commit) => {
                        if tx.end(true) {
                            stats2.delivered.incr();
                        }
                    }
                    Ok(Disposition::Rollback) | Err(_) => {
                        tx.end(false);
                        stats2.rolled_back.incr();
                        if decided.is_err() {
                            stats2.panics.incr();
                        }
                    }
                }
            }
        })?;
        Ok(Listener {
            queue,
            stop,
            watched,
            handle: Some(handle),
            stats,
        })
    }

    /// The queue this listener consumes.
    pub fn queue(&self) -> &str {
        &self.queue
    }

    /// Listener statistics.
    pub fn stats(&self) -> &ListenerStats {
        &self.stats
    }

    /// Stops the listener and waits for its thread to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(queue) = &self.watched {
            queue.wake();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::wait_for;
    use crate::qmgr::{ManagerConfig, DEAD_LETTER_QUEUE};
    use parking_lot::Mutex;
    use simtime::SimClock;

    /// A listener on a simulated clock that nobody advances stops and
    /// joins at once, whether its stop lands before it parks, while it is
    /// parked, or after an arrival has ended the park.
    #[test]
    fn a_listener_on_an_unadvanced_sim_clock_stops_at_once() {
        for when in ["before", "during", "after"] {
            let qmgr = QueueManager::builder("QM1").clock(SimClock::new()).build().unwrap();
            let queue = qmgr.create_queue("IN").unwrap();
            let (entered, in_callback) = std::sync::mpsc::channel();
            let (release, released) = std::sync::mpsc::channel();
            let mut listener = Listener::spawn(
                qmgr.clone(),
                "IN",
                Box::new(move |_, _| {
                    entered.send(()).unwrap();
                    released.recv().unwrap();
                    Disposition::Commit
                }),
            )
            .unwrap();
            match when {
                "during" => wait_for("parked", || queue.parked() == 1),
                "after" => {
                    qmgr.put("IN", Message::text("m").build()).unwrap();
                    in_callback.recv().unwrap();
                }
                _ => {}
            }
            let stop = listener.stop.clone();
            let stopper = std::thread::spawn(move || listener.stop());
            if when == "after" {
                wait_for("stop set", || stop.load(Ordering::SeqCst));
                release.send(()).unwrap();
            }
            wait_for(&format!("stopped {when} the park"), || stopper.is_finished());
            stopper.join().unwrap();
        }
    }

    #[test]
    fn listener_delivers_messages_in_order() {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        qmgr.create_queue("IN").unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut listener = Listener::spawn(
            qmgr.clone(),
            "IN",
            Box::new(move |msg, _session| {
                seen2.lock().push(msg.payload_str().unwrap().to_owned());
                Disposition::Commit
            }),
        )
        .unwrap();
        for i in 0..10 {
            qmgr.put("IN", Message::text(format!("m{i}")).build())
                .unwrap();
        }
        wait_for("10 deliveries", || seen.lock().len() == 10);
        listener.stop();
        assert_eq!(
            *seen.lock(),
            (0..10).map(|i| format!("m{i}")).collect::<Vec<_>>()
        );
        assert_eq!(listener.stats().delivered.get(), 10);
        assert_eq!(qmgr.queue("IN").unwrap().depth(), 0);
    }

    #[test]
    fn staged_replies_commit_with_the_delivery() {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        qmgr.create_queue("IN").unwrap();
        qmgr.create_queue("OUT").unwrap();
        let _listener = Listener::spawn(
            qmgr.clone(),
            "IN",
            Box::new(|msg, session| {
                let reply = Message::text(format!("re: {}", msg.payload_str().unwrap())).build();
                session.put("OUT", reply).expect("stage reply");
                Disposition::Commit
            }),
        )
        .unwrap();
        qmgr.put("IN", Message::text("ping").build()).unwrap();
        wait_for("reply", || qmgr.queue("OUT").unwrap().depth() == 1);
        let reply = qmgr.get("OUT", Wait::NoWait).unwrap().unwrap();
        assert_eq!(reply.payload_str(), Some("re: ping"));
    }

    #[test]
    fn rollback_redelivers_until_dead_lettered() {
        let qmgr = QueueManager::builder("QM1")
            .config(ManagerConfig {
                backout_threshold: 2,
                ..ManagerConfig::default()
            })
            .build()
            .unwrap();
        qmgr.create_queue("IN").unwrap();
        let attempts = Arc::new(Counter::default());
        let attempts2 = attempts.clone();
        let _listener = Listener::spawn(
            qmgr.clone(),
            "IN",
            Box::new(move |_msg, _session| {
                attempts2.incr();
                Disposition::Rollback
            }),
        )
        .unwrap();
        qmgr.put("IN", Message::text("poison").build()).unwrap();
        wait_for("dead letter", || {
            qmgr.queue(DEAD_LETTER_QUEUE).unwrap().depth() == 1
        });
        assert!(
            attempts.get() >= 3,
            "initial + redeliveries: {}",
            attempts.get()
        );
        assert_eq!(qmgr.queue("IN").unwrap().depth(), 0);
    }

    #[test]
    fn panicking_callback_rolls_back_and_survives() {
        let qmgr = QueueManager::builder("QM1")
            .config(ManagerConfig {
                backout_threshold: 1,
                ..ManagerConfig::default()
            })
            .build()
            .unwrap();
        qmgr.create_queue("IN").unwrap();
        let listener = Listener::spawn(
            qmgr.clone(),
            "IN",
            Box::new(|msg, _session| {
                if msg.payload_str() == Some("boom") {
                    panic!("callback exploded");
                }
                Disposition::Commit
            }),
        )
        .unwrap();
        qmgr.put("IN", Message::text("boom").build()).unwrap();
        qmgr.put("IN", Message::text("fine").build()).unwrap();
        wait_for("panic handled + good message delivered", || {
                listener.stats().panics.get() >= 1 && listener.stats().delivered.get() >= 1
            });
        wait_for("poison dead-lettered", || {
            qmgr.queue(DEAD_LETTER_QUEUE).unwrap().depth() == 1
        });
    }

    #[test]
    fn spawn_on_missing_queue_fails() {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        assert!(Listener::spawn(qmgr, "NOPE", Box::new(|_, _| Disposition::Commit)).is_err());
    }

    #[test]
    fn stop_is_idempotent() {
        let qmgr = QueueManager::builder("QM1").build().unwrap();
        qmgr.create_queue("IN").unwrap();
        let mut listener =
            Listener::spawn(qmgr, "IN", Box::new(|_, _| Disposition::Commit)).unwrap();
        listener.stop();
        listener.stop();
        assert_eq!(listener.queue(), "IN");
    }
}
