//! Declarative scenario engine for the conditional-messaging harness.
//!
//! A scenario is a declarative description of a whole experiment:
//! managers and their topology (channels over loopback TCP, multi-hop
//! federation with routing groups), queues, actor populations
//! sending conditional messages with templated condition trees,
//! acknowledgment behaviors with latency distributions, a failure
//! schedule (partitions, relay crash-and-rebuild, storage faults), and
//! a verdict oracle. Scenarios are written as `.toml` files (see
//! `scenarios/` at the repo root) and decoded into the typed model in
//! [`spec`]; the [`compile`] step lowers a spec onto the real harness,
//! [`exec`] drives it on simulated time — so a run is a pure function of
//! its spec — and [`oracle`] asserts that every declared message reached
//! exactly one terminal outcome — success, compensation, or annihilation —
//! with counts matching the declaration.
//!
//! ```no_run
//! use cond_scenario::{exec, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml_str(
//!     &std::fs::read_to_string("scenarios/iot_fleet.toml")?,
//! )?;
//! let report = exec::run(&spec, /* quick */ true)?;
//! assert!(report.oracle.passed(), "{}", report.oracle);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod error;
pub mod exec;
pub mod oracle;
pub mod spec;
pub mod toml;

pub use error::{ScenarioError, ScenarioResult};
pub use exec::{run, RunReport};
pub use oracle::{OracleCheck, OracleReport};
pub use spec::{
    AckMode, AckerSpec, ActorMode, ActorSpec, ChannelSpec, ConditionSpec, DelaySpec, DestSpec,
    Expect, FaultActionSpec, FaultSpec, ManagerSpec, MetricExpect, OracleSpec, QueueSpec,
    RouteSpec, ScenarioSpec, SetSpec, TriggerSpec,
};
