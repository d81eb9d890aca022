//! `dsphere` — Dependency-Spheres: atomic units-of-work grouping
//! conditional messages and distributed transactional resources (paper
//! §3 of *"Extending Reliable Messaging with Application Conditions"*,
//! ICDCS 2002, building on the authors' EDOC 2001 D-Spheres service).
//!
//! The crate has three layers:
//!
//! * [`otx`] — a miniature distributed transaction service (the CORBA
//!   OTS / JTS substrate): [`otx::TransactionManager`] runs two-phase
//!   commit over anything implementing [`otx::TransactionalResource`].
//! * [`resources`] — in-memory transactional resources used by the
//!   examples and experiments: a [`resources::KvStore`], a
//!   [`resources::Calendar`] with double-booking constraints, room
//!   reservations, and a failure-injection probe.
//! * [`sphere`] — the [`DSphere`] itself: `begin_DS` / `commit_DS` /
//!   `abort_DS` over conditional messages (sent immediately, outcome
//!   actions deferred) coupled with enlisted resources.
//!
//! # Example
//!
//! ```
//! use condmsg::{ConditionalMessenger, ConditionalReceiver, Destination};
//! use dsphere::{DSphereService, KvStore};
//! use mq::{QueueManager, Wait};
//! use simtime::{Millis, SimClock};
//!
//! let clock = SimClock::new();
//! let qmgr = QueueManager::builder("QM1").clock(clock.clone()).build()?;
//! qmgr.create_queue("NOTIFY")?;
//! let messenger = ConditionalMessenger::new(qmgr.clone())?;
//! let service = DSphereService::new(messenger);
//! let db = KvStore::new("contract-db");
//!
//! let mut sphere = service.begin();
//! sphere.enlist(db.clone()).map_err(|e| e.to_string())?;
//! db.put(sphere.xid(), "contract", "signed");
//! sphere
//!     .send_message(
//!         "contract signed",
//!         &Destination::queue("QM1", "NOTIFY").pickup_within(Millis(1_000)).into(),
//!     )
//!     .map_err(|e| e.to_string())?;
//!
//! // The notification is read in time…
//! clock.advance(Millis(10));
//! let mut receiver = ConditionalReceiver::new(qmgr.clone())?;
//! receiver.read_message("NOTIFY", Wait::NoWait)?;
//!
//! // …so the sphere commits: message success + database update, atomically.
//! let outcome = sphere.try_commit().map_err(|e| e.to_string())?.expect("decided");
//! assert!(outcome.is_committed());
//! assert_eq!(db.get("contract"), Some("signed".into()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod otx;
pub mod resources;
pub mod sphere;

pub use otx::{Transaction, TransactionManager, TransactionalResource, TxAborted, Vote, Xid};
pub use resources::{Calendar, KvStore, ProbeResource, RoomReservations};
pub use sphere::{DSphere, DSphereService, SphereError, SphereOutcome, SphereResult};
