//! `condmsg` — conditional messaging: reliable messaging extended with
//! application conditions.
//!
//! A Rust reproduction of *"Extending Reliable Messaging with Application
//! Conditions"* (Tai, Mikalsen, Rouvellou, Sutton — ICDCS 2002). Standard
//! messaging middleware guarantees delivery to *queues*; conditional
//! messaging extends that guarantee management to **final recipients**: an
//! application attaches a [`condition::Condition`] to a message — time
//! constraints on the *pick-up* and the *processing* of the message by
//! (sets of) recipients — and the middleware monitors, evaluates and acts
//! on the outcome:
//!
//! * [`ConditionalMessenger`] (sender side) fans the message out, logs it,
//!   parks compensation messages, consumes implicit acknowledgments and
//!   evaluates the condition to a success/failure outcome.
//! * [`ConditionalReceiver`] (receiver side) generates the implicit
//!   acknowledgments — a read-ack for a non-transactional read, a
//!   processed-ack bound to the receiver's transaction commit — and
//!   implements compensation annihilation/delivery.
//!
//! # Quick start
//!
//! ```
//! use condmsg::{Condition, ConditionalMessenger, ConditionalReceiver, Destination};
//! use condmsg::wire::MessageOutcome;
//! use mq::{QueueManager, Wait};
//! use simtime::{Millis, SimClock};
//!
//! let clock = SimClock::new();
//! let qmgr = QueueManager::builder("QM1").clock(clock.clone()).build()?;
//! qmgr.create_queue("ORDERS")?;
//!
//! let messenger = ConditionalMessenger::new(qmgr.clone())?;
//! let condition: Condition = Destination::queue("QM1", "ORDERS")
//!     .pickup_within(Millis(20_000))
//!     .into();
//! let id = messenger.send_message("order #1", &condition)?;
//!
//! let mut receiver = ConditionalReceiver::new(qmgr.clone())?;
//! receiver.read_message("ORDERS", Wait::NoWait)?.expect("delivered");
//!
//! // The read's acknowledgment decided the message; the verdict waits on
//! // DS.OUTCOME.Q, correlated by the conditional-message id.
//! let outcome = messenger.take_outcome(id, Wait::NoWait)?.expect("decided");
//! assert_eq!(outcome.outcome, MessageOutcome::Success);
//! # Ok::<(), condmsg::CondError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod condition;
pub mod config;
mod error;
pub mod eval;
mod ids;
pub mod listener;
mod messenger;
mod metrics;
pub mod pubsub;
mod receiver;
mod shape;
pub mod wire;

pub use analyze::{analyze, analyze_with, AnalyzeContext, AnalyzeError, Diagnostic};
pub use condition::{Condition, Destination, DestinationSet};
pub use config::CondConfig;
pub use error::{CondError, CondResult};
pub use eval::{AckState, CompiledCondition, Dimension, Verdict};
pub use ids::CondMessageId;
pub use listener::{ConditionalListener, Processing};
pub use messenger::{ConditionalMessenger, EvaluationDaemon, MessageStatus};
pub use receiver::{ConditionalReceiver, ReceivedMessage};
pub use wire::{
    AckKind, Acknowledgment, MessageKind, MessageOutcome, OutcomeNotification, SendOptions,
};
