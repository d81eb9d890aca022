//! Shared harness code for the benchmarks and the `exp_*` experiment
//! binaries: workload builders, a deterministic scenario driver, and the
//! **application-level baseline** (S22 in DESIGN.md) — what a sender has
//! to hand-roll *without* conditional messaging, used as the comparator
//! the paper argues against ("applications themselves are forced to
//! implement the management of such conditions on messages").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use condmsg::ConditionalMessenger;
use mq::journal::NullJournal;
use mq::{Obs, QueueManager, SharedClock};
use simtime::{SimClock, SystemClock};

static SHARED_OBS: OnceLock<Arc<Obs>> = OnceLock::new();

/// The experiment-wide observability hub. Every world built by this
/// harness reports into it, so metrics aggregate across all runs of a
/// binary and a single [`emit_metrics`] at the end covers them all.
pub fn shared_obs() -> Arc<Obs> {
    SHARED_OBS.get_or_init(Obs::new).clone()
}

/// A ready-to-use single-manager world for experiments.
pub struct World {
    /// The queue manager.
    pub qmgr: Arc<QueueManager>,
    /// The conditional messaging service attached to it.
    pub messenger: Arc<ConditionalMessenger>,
}

/// Builds a world on a system clock with the given application queues and
/// a null journal (pure in-memory throughput; persistence is measured
/// separately in `mq_core`).
pub fn system_world(queues: &[String]) -> World {
    build_world(SystemClock::new(), queues)
}

/// Builds a deterministic world on the given sim clock.
pub fn sim_world(clock: Arc<SimClock>, queues: &[String]) -> World {
    build_world(clock, queues)
}

fn build_world(clock: SharedClock, queues: &[String]) -> World {
    let qmgr = QueueManager::builder("QM1")
        .clock(clock)
        .journal(NullJournal::new())
        .obs(shared_obs())
        .build()
        .expect("queue manager");
    for q in queues {
        qmgr.create_queue(q).expect("queue");
    }
    let messenger = ConditionalMessenger::new(qmgr.clone()).expect("messenger");
    World { qmgr, messenger }
}

/// Names `n` destination queues `Q.D0..Q.Dn`.
pub fn queue_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("Q.D{i}")).collect()
}

/// Prints the experiment-wide metrics snapshot at the tail of an
/// experiment binary: every `mq.*` / `cond.*` / `dsphere.*` metric
/// registered by any world this binary built, as `name value` lines.
pub fn emit_metrics() {
    let snapshot = shared_obs().snapshot();
    println!();
    println!(
        "### metrics ({} of {} populated)",
        snapshot.populated(),
        snapshot.len()
    );
    print!("{}", snapshot.render());
}

/// Writes an experiment's JSON result file `name` (a `BENCH_*.json`): a
/// full run into the working directory, where the committed result lives;
/// a `--quick` run under `target/bench-quick/`, so a gate run leaves the
/// committed file alone.
pub fn write_bench_json(name: &str, quick: bool, json: &str) {
    let path = if quick {
        Path::new("target/bench-quick").join(name)
    } else {
        PathBuf::from(name)
    };
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// Nearest-rank percentile of `samples` for `p` in `[0, 1]`, or 0 when
/// empty. Copies and sorts internally; every `exp_*` binary used to
/// hand-roll this.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// [`percentile`] over float samples (NaNs sort last), or NaN when empty.
pub fn percentile_f64(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Arithmetic mean of `samples`, or NaN when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}
