//! Conditional messaging: reliable messaging extended with application
//! conditions — a comprehensive Rust implementation of Tai, Mikalsen,
//! Rouvellou & Sutton, *"Extending Reliable Messaging with Application
//! Conditions"* (ICDCS 2002), including every substrate the middleware
//! depends on.
//!
//! This facade crate re-exports the four workspace layers:
//!
//! * [`simtime`] — virtual/system clocks; every timeout in the stack is
//!   deterministic under test.
//! * [`mq`] — the reliable message-queuing substrate: queue managers,
//!   journaled persistence with crash recovery, transacted sessions,
//!   correlation-id point reads, topics, push listeners, and
//!   store-and-forward channels over TCP.
//! * [`condmsg`] — the paper's contribution: condition trees on pick-up
//!   and processing deadlines, implicit acknowledgments, evaluation to a
//!   success/failure outcome, success notifications and compensation
//!   (including queue-side annihilation).
//! * [`dsphere`] — Dependency-Spheres: atomic units-of-work grouping
//!   conditional messages with distributed transactional resources (2PC).
//!
//! See the repository README for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-reproduction results.
//!
//! # Example
//!
//! ```
//! use conditional_messaging::condmsg::{ConditionalMessenger, ConditionalReceiver, Destination};
//! use conditional_messaging::condmsg::{Condition, MessageOutcome};
//! use conditional_messaging::mq::{QueueManager, Wait};
//! use conditional_messaging::simtime::{Millis, SimClock};
//!
//! let clock = SimClock::new();
//! let qmgr = QueueManager::builder("QM1").clock(clock.clone()).build()?;
//! qmgr.create_queue("ORDERS")?;
//! let messenger = ConditionalMessenger::new(qmgr.clone())?;
//!
//! let condition: Condition = Destination::queue("QM1", "ORDERS")
//!     .pickup_within(Millis(20_000))
//!     .into();
//! let id = messenger.send_message("order #42", &condition)?;
//!
//! let mut receiver = ConditionalReceiver::new(qmgr)?;
//! receiver.read_message("ORDERS", Wait::NoWait)?.expect("delivered");
//! let outcome = messenger.take_outcome(id, Wait::NoWait)?.expect("decided");
//! assert_eq!(outcome.outcome, MessageOutcome::Success);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use condmsg;
pub use dsphere;
pub use mq;
pub use simtime;
