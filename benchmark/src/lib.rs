//! `condbench` — one durable end-to-end benchmark of the conditional
//! messaging stack: conditional send → fan-out → pick-up → implicit ack →
//! `DS.ACK.Q` → verdict → success notification / compensation, measured
//! from outside the program with a per-layer budget.
//!
//! See `benchmark/README.md` for the workloads, the metrics, the
//! predictions and how to run, trace and compare.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod load;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod world;

/// Error type of the benchmark: anything the stack or the OS can raise,
/// rendered for the operator.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Result alias used throughout the benchmark.
pub type BenchResult<T> = Result<T, BenchError>;
