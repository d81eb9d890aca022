//! The verdict oracle: after a run, assert that every declared message
//! reached **exactly one** terminal outcome — success, compensation
//! (failure), or annihilation — with counts matching the scenario's
//! declarations, and that the world drained cleanly.

use std::fmt;

use condmsg::config::DEFAULT_OUTCOME_QUEUE;

use crate::compile::Compiled;
use crate::spec::{ActorMode, Expect};

/// One named pass/fail assertion with its evidence.
#[derive(Debug, Clone)]
pub struct OracleCheck {
    /// Check name, e.g. `actor:keeper` or `conservation`.
    pub name: String,
    /// Whether the check held.
    pub pass: bool,
    /// Human-readable evidence (counts, depths, …).
    pub detail: String,
}

/// The oracle's full verdict over a run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Every assertion the oracle made.
    pub checks: Vec<OracleCheck>,
}

impl OracleReport {
    /// Whether every check held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Number of failed checks.
    pub fn failed_count(&self) -> usize {
        self.checks.iter().filter(|c| !c.pass).count()
    }

    fn check(&mut self, name: impl Into<String>, pass: bool, detail: impl Into<String>) {
        self.checks.push(OracleCheck {
            name: name.into(),
            pass,
            detail: detail.into(),
        });
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "[{}] {}: {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        write!(
            f,
            "oracle: {}/{} checks passed",
            self.checks.len() - self.failed_count(),
            self.checks.len()
        )
    }
}

/// Per-actor outcome counts the executor accumulates.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActorTally {
    /// Sends (or sphere rounds) that were accepted.
    pub(crate) sent: u64,
    /// Sends rejected at the send call itself.
    pub(crate) send_errors: u64,
    /// Success verdicts observed via outcome notifications.
    pub(crate) success: u64,
    /// Failure verdicts observed via outcome notifications.
    pub(crate) failure: u64,
    /// Sends with no outcome notification once the run settled.
    pub(crate) undecided: u64,
    /// Committed sphere rounds.
    pub(crate) committed: u64,
    /// Aborted sphere rounds.
    pub(crate) aborted: u64,
    /// For `expect = "sampled"`: the exact success count implied by the
    /// seeded acknowledgment delays and the pickup window.
    pub(crate) expected_success: Option<u64>,
}

/// Runs every oracle check against the settled world; `tally` is aligned
/// with [`Compiled::actors`].
pub(crate) fn evaluate(world: &Compiled, tally: &[ActorTally]) -> OracleReport {
    let mut report = OracleReport::default();

    // Per-actor declared expectations.
    for (actor, t) in world.actors.iter().zip(tally) {
        let name = format!("actor:{}", actor.spec.name);
        let planned = actor.count;
        let detail = format!(
            "planned={planned} sent={} send_errors={} success={} failure={} undecided={} \
             committed={} aborted={}",
            t.sent, t.send_errors, t.success, t.failure, t.undecided, t.committed, t.aborted
        );
        let pass = match actor.spec.expect {
            Expect::Success => {
                t.sent == planned && t.success == planned && t.failure == 0 && t.undecided == 0
            }
            Expect::Failure => {
                t.sent == planned && t.failure == planned && t.success == 0 && t.undecided == 0
            }
            Expect::Sampled => match t.expected_success {
                Some(want) => {
                    t.sent == planned
                        && t.success == want
                        && t.failure == planned - want
                        && t.undecided == 0
                }
                None => false,
            },
            Expect::SendError => t.send_errors == planned && t.sent == 0,
            Expect::Commit => t.sent == planned && t.committed == planned && t.aborted == 0,
            Expect::Abort => t.sent == planned && t.aborted == planned && t.committed == 0,
        };
        report.check(name, pass, detail);
    }

    // Exactly-one-outcome conservation over every tracked conditional
    // send: each either errored at send, or reached exactly one of
    // success / failure. Undecided messages fail the run.
    let mut sent = 0_u64;
    let mut decided = 0_u64;
    let mut undecided = 0_u64;
    for (actor, t) in world.actors.iter().zip(tally) {
        if matches!(actor.spec.mode, ActorMode::Send) {
            sent += t.sent;
            decided += t.success + t.failure;
            undecided += t.undecided;
        }
    }
    report.check(
        "conservation",
        decided == sent && undecided == 0,
        format!("sent={sent} decided={decided} undecided={undecided}"),
    );

    // The messengers must have nothing left in flight, and every outcome
    // notification must have been consumed (exactly-once delivery of
    // verdicts to the application).
    for (name, messenger) in &world.messengers {
        let pending = messenger.pending_count();
        report.check(
            format!("pending:{name}"),
            pending == 0,
            format!("{pending} conditional messages still pending"),
        );
        let depth = world.depth(name, DEFAULT_OUTCOME_QUEUE);
        report.check(
            format!("outcomes-consumed:{name}"),
            depth == Some(0),
            format!("{DEFAULT_OUTCOME_QUEUE} depth {depth:?}"),
        );
    }

    // Dead-letter queues stay empty, and every declared application queue
    // is drained after the sweep: originals read or annihilated,
    // compensations consumed.
    for (name, rt) in &world.managers {
        let depth = world.depth(name, mq::DEAD_LETTER_QUEUE);
        report.check(
            format!("dlq:{name}"),
            depth == Some(0),
            format!("dead-letter depth {depth:?}"),
        );
        for q in &rt.queues {
            let depth = world.depth(name, q);
            report.check(
                format!("drained:{name}/{q}"),
                depth == Some(0),
                format!("depth {depth:?}"),
            );
        }
    }

    // Declared metric floors.
    let snapshot = world.obs.snapshot();
    for m in &world.oracle.metrics {
        let got = snapshot.counter(&m.metric);
        report.check(
            format!("metric:{}", m.metric),
            got >= m.min,
            format!("{got} >= {}", m.min),
        );
    }

    // Declared lifecycle stages must have been traced. The seen-mask is
    // consulted (not the retained events): at 1M messages the bounded
    // ring has long since evicted the early-life stages.
    if !world.oracle.stages.is_empty() {
        let trace = world.obs.trace();
        for stage in &world.oracle.stages {
            let seen = mq::TraceStage::ALL
                .iter()
                .find(|s| s.to_string() == *stage)
                .is_some_and(|s| trace.stage_seen(*s));
            report.check(
                format!("stage:{stage}"),
                seen,
                if seen { "traced" } else { "never traced" }.to_owned(),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_formats_and_counts() {
        let mut r = OracleReport::default();
        r.check("a", true, "ok");
        r.check("b", false, "bad");
        assert!(!r.passed());
        assert_eq!(r.failed_count(), 1);
        let text = r.to_string();
        assert!(text.contains("[PASS] a"), "{text}");
        assert!(text.contains("[FAIL] b"), "{text}");
        assert!(text.contains("1/2"), "{text}");
    }
}
