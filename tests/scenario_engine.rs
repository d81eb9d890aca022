//! Scenario-engine ports of the hand-coded integration flows.
//!
//! The originals stay in place as goldens (`tests/end_to_end.rs`,
//! `tests/failure_injection.rs`); these tests re-declare the same flows
//! as TOML scenarios, decoded by the same parser the shipped
//! `scenarios/*.toml` go through, and assert the engine's oracle
//! reproduces the original assertions: every message reaches exactly
//! one of success / compensation / annihilation, and the counts match
//! the declarations. One paper "day" is scaled to 1000 ms, as in
//! `tests/end_to_end.rs`.

use cond_scenario::{exec, ScenarioError, ScenarioSpec};

fn spec(src: &str) -> ScenarioSpec {
    ScenarioSpec::from_toml_str(src).unwrap()
}

/// Paper Fig. 4 / the first case of end_to_end
/// `example1_recipient_behaviours_match_the_paper_rules`:
/// receiver3 must process within 7 days, two of the other three must
/// process within 11 days, and everyone must pick up within 2 days.
/// Process-mode ackers on all four queues satisfy every clause; the
/// oracle must see nothing but success.
#[test]
fn example1_success_when_all_conditions_met() {
    let spec = spec(
        r#"
name = "example1-success"
seed = 5

[[managers]]
name = "QM1"

[[queues]]
manager = "QM1"
name = "Q.R1"

[[queues]]
manager = "QM1"
name = "Q.R2"

[[queues]]
manager = "QM1"
name = "Q.R3"

[[queues]]
manager = "QM1"
name = "Q.R4"

[[actors]]
name = "meeting"
manager = "QM1"
count = 3
payload = "meeting notification {i}"

[actors.condition]
kind = "set"
pickup_within_ms = 2000

[[actors.condition.members]]
manager = "QM1"
queue = "Q.R3"
recipient = "receiver3"
process_within_ms = 7000

[[actors.condition.members]]
kind = "set"
process_within_ms = 11000
min_process = 2

[[actors.condition.members.members]]
manager = "QM1"
queue = "Q.R1"
recipient = "receiver1"

[[actors.condition.members.members]]
manager = "QM1"
queue = "Q.R2"
recipient = "receiver2"

[[actors.condition.members.members]]
manager = "QM1"
queue = "Q.R4"
recipient = "receiver4"

[[ackers]]
manager = "QM1"
queue = "Q.R1"
recipient = "receiver1"
mode = "process"
delay = { ms = 50 }

[[ackers]]
manager = "QM1"
queue = "Q.R2"
recipient = "receiver2"
mode = "process"
delay = { ms = 50 }

[[ackers]]
manager = "QM1"
queue = "Q.R3"
recipient = "receiver3"
mode = "process"
delay = { ms = 50 }

[[ackers]]
manager = "QM1"
queue = "Q.R4"
recipient = "receiver4"
mode = "process"
delay = { ms = 50 }
"#,
    );
    let report = exec::run(&spec, false).unwrap();
    assert_eq!(report.sent, 3);
    assert_eq!(report.success, 3, "{}", report.oracle);
    assert_eq!(report.failure, 0);
    assert!(report.oracle.passed(), "{}", report.oracle);
}

/// end_to_end's Fig. 1 case "one recipient never reads": the same shape,
/// but one destination queue has no receiver at all, so the all-must-pick-up
/// root window expires and the verdict must be failure — for every
/// message, with no stragglers and no duplicated outcomes.
#[test]
fn example1_fails_on_missed_pickup() {
    // Three of four read promptly; Q.R4 is never served.
    let spec = spec(
        r#"
name = "example1-missed-pickup"
seed = 6

[[managers]]
name = "QM1"

[[queues]]
manager = "QM1"
name = "Q.R4"

[[queues]]
manager = "QM1"
name = "Q.R1"

[[queues]]
manager = "QM1"
name = "Q.R2"

[[queues]]
manager = "QM1"
name = "Q.R3"

[[actors]]
name = "meeting"
manager = "QM1"
count = 2
payload = "meeting notification {i}"
expect = "failure"

[actors.condition]
kind = "set"
pickup_within_ms = 2000

[[actors.condition.members]]
manager = "QM1"
queue = "Q.R1"
recipient = "receiver1"

[[actors.condition.members]]
manager = "QM1"
queue = "Q.R2"
recipient = "receiver2"

[[actors.condition.members]]
manager = "QM1"
queue = "Q.R3"
recipient = "receiver3"

[[actors.condition.members]]
manager = "QM1"
queue = "Q.R4"

[[ackers]]
manager = "QM1"
queue = "Q.R1"
recipient = "receiver1"
delay = { ms = 1000 }

[[ackers]]
manager = "QM1"
queue = "Q.R2"
recipient = "receiver2"
delay = { ms = 1000 }

[[ackers]]
manager = "QM1"
queue = "Q.R3"
recipient = "receiver3"
delay = { ms = 1000 }
"#,
    );
    let report = exec::run(&spec, false).unwrap();
    assert_eq!(report.sent, 2);
    assert_eq!(report.failure, 2, "{}", report.oracle);
    assert_eq!(report.success, 0);
    assert!(report.oracle.passed(), "{}", report.oracle);
}

/// end_to_end `example2_times_out_when_nobody_reads`, declared in TOML:
/// a compensated send to a queue nobody reads must fail by deadline,
/// release its compensation, and annihilate against the unread original
/// — leaving the destination queue empty, which the oracle's
/// `destinations_drained` + stage checks prove.
#[test]
fn example2_timeout_annihilates_via_toml() {
    let src = r#"
name = "example2-timeout"
seed = 9

[[managers]]
name = "QM1"

[[queues]]
manager = "QM1"
name = "Q.CENTRAL"

[[actors]]
name = "flights"
manager = "QM1"
count = 4
payload = "incoming flight {i}"
compensation = "cancel flight {i}"
expect = "failure"
evaluation_timeout_ms = 21000

[actors.condition]
manager = "QM1"
queue = "Q.CENTRAL"
pickup_within_ms = 20000

[oracle]

[[oracle.metrics]]
metric = "cond.verdict.failure"
min = 4

[[oracle.metrics]]
metric = "cond.comp.released"
min = 4

[[oracle.stages]]
stage = "comp-released"

[[oracle.stages]]
stage = "annihilated"
"#;
    let spec = ScenarioSpec::from_toml_str(src).unwrap();
    let report = exec::run(&spec, false).unwrap();
    assert_eq!(report.sent, 4);
    assert_eq!(report.failure, 4, "{}", report.oracle);
    assert_eq!(report.success, 0);
    assert!(report.oracle.passed(), "{}", report.oracle);
}

/// failure_injection `failed_conditional_send_leaves_no_state_behind` +
/// the heal path, declared in TOML: the manager's journal fails before
/// the first send (every send must be
/// rejected cleanly, leaving no pending state), heals before the second
/// actor (whose sends must then succeed end to end). The oracle's
/// conservation checks prove nothing was half-sent either way.
#[test]
fn storage_faults_reject_sends_cleanly_then_heal() {
    let src = r#"
name = "storage-faults"
seed = 13

[[managers]]
name = "QM1"

[[queues]]
manager = "QM1"
name = "Q.APP"

[[actors]]
name = "doomed"
manager = "QM1"
count = 3
payload = "doomed-{i}"
expect = "send_error"

[actors.condition]
manager = "QM1"
queue = "Q.APP"
pickup_within_ms = 1000

[[actors]]
name = "retry"
manager = "QM1"
count = 3
payload = "retry-{i}"

[actors.condition]
manager = "QM1"
queue = "Q.APP"
pickup_within_ms = 1000

[[ackers]]
manager = "QM1"
queue = "Q.APP"

[[faults]]
point = "journal:QM1"
action = "fail_storage"
after_fraction = 0.0

[[faults]]
point = "journal:QM1"
action = "heal_storage"
after_fraction = 0.5

[oracle]

[[oracle.metrics]]
metric = "cond.verdict.success"
min = 3
"#;
    let spec = ScenarioSpec::from_toml_str(src).unwrap();
    let report = exec::run(&spec, false).unwrap();
    assert_eq!(report.send_errors, 3, "{}", report.oracle);
    assert_eq!(report.sent, 3);
    assert_eq!(report.success, 3, "{}", report.oracle);
    assert!(report.oracle.passed(), "{}", report.oracle);
}

/// An inline copy of `scenarios/fig8_relay_crash.toml`, oracle and all:
/// the crashed relay `QM.B` is declared by name alone, with no journal
/// setting. Every manager journals, so custody of the six envelopes in
/// its transmission queue survives the crash-rebuild and the oracle
/// passes. A relay whose journal kept nothing would come back empty, and
/// the run would stall at the delivery barrier.
#[test]
fn a_relay_crash_keeps_custody_without_a_journal_line() {
    let src = r#"
name = "fig8-relay-crash"
seed = 802

[[managers]]
name = "QM.A"

[[managers]]
name = "QM.B"

[[managers]]
name = "QM.C"

[[queues]]
manager = "QM.C"
name = "Q.KEEP"

[[queues]]
manager = "QM.C"
name = "Q.DROP"

[[channels]]
from = "QM.A"
to = "QM.B"

[[channels]]
from = "QM.C"
to = "QM.B"

[[channels]]
from = "QM.B"
to = "QM.C"
from_start = false

[[channels]]
from = "QM.B"
to = "QM.A"
from_start = false

[[routes]]
manager = "QM.A"
via = ["SYSTEM.XMIT.QM.B"]

[[routes]]
manager = "QM.C"
via = ["SYSTEM.XMIT.QM.B"]

[[routes]]
manager = "QM.B"
to = "QM.C"
via = ["SYSTEM.XMIT.QM.C"]

[[routes]]
manager = "QM.B"
to = "QM.A"
via = ["SYSTEM.XMIT.QM.A"]

[[actors]]
name = "keeper"
manager = "QM.A"
count = 3
payload = "keep-{i}"
compensation = "undo-keep-{i}"
expect = "success"

[actors.condition]
manager = "QM.C"
queue = "Q.KEEP"
pickup_within_ms = 20000

[[actors]]
name = "dropper"
manager = "QM.A"
count = 3
payload = "drop-{i}"
compensation = "undo-drop-{i}"
expect = "failure"

[actors.condition]
manager = "QM.C"
queue = "Q.DROP"
pickup_within_ms = 300

[[ackers]]
manager = "QM.C"
queue = "Q.KEEP"

[[faults]]
point = "crash:QM.B"
action = "crash_rebuild"

[faults.when_depth]
manager = "QM.B"
queue = "SYSTEM.XMIT.QM.C"
min_depth = 6

[oracle]

[[oracle.metrics]]
metric = "mq.relay.forwarded"
min = 6

[[oracle.metrics]]
metric = "cond.comp.released"
min = 3

[[oracle.metrics]]
metric = "cond.verdict.success"
min = 3

[[oracle.stages]]
stage = "send"

[[oracle.stages]]
stage = "relay-forwarded"

[[oracle.stages]]
stage = "comp-released"

[[oracle.stages]]
stage = "annihilated"
"#;
    let spec = ScenarioSpec::from_toml_str(src).unwrap();
    let report = exec::run(&spec, false).unwrap();
    assert_eq!(report.sent, 6);
    assert!(report.oracle.passed(), "{}", report.oracle);
}

/// The spec layer rejects malformed declarations rather than letting a
/// wrong scenario run: unknown fault actions, the retired `clock` and
/// `journal` keys, inverted uniform delays, faults with two triggers and sampled actors
/// without a pickup window are spec errors, not runtime surprises.
#[test]
fn malformed_scenarios_are_rejected_before_running() {
    let bad_action = r#"
name = "bad"
[[managers]]
name = "QM1"
[[faults]]
point = "journal:QM1"
action = "melt"
"#;
    assert!(ScenarioSpec::from_toml_str(bad_action).is_err());

    // Every scenario runs on simulated time and every manager keeps a
    // journal; the keys that once chose a wall-clock executor or a
    // journal-less manager are now unknown keys like any other.
    let clock_key = "name = \"bad\"\nclock = \"real\"\n[[managers]]\nname = \"QM1\"\n";
    let journal_key = "name = \"bad\"\n[[managers]]\nname = \"QM1\"\njournal = \"mem\"\n";
    for (src, key) in [(clock_key, "clock"), (journal_key, "journal")] {
        match ScenarioSpec::from_toml_str(src) {
            Err(ScenarioError::Spec(reason)) => {
                assert!(reason.contains(&format!("unknown key `{key}`")), "{reason}")
            }
            other => panic!("expected the `{key}` key to be refused, got {other:?}"),
        }
    }

    // Each of these decoded without complaint once: the inverted range
    // sampled as a fixed `min_ms`, and the second trigger was dropped.
    let inverted_uniform = r#"
name = "bad"
[[managers]]
name = "QM1"
[[ackers]]
manager = "QM1"
queue = "Q.SLOW"
delay = { kind = "uniform", min_ms = 9, max_ms = 5 }
"#;
    let two_triggers = r#"
name = "bad"
[[managers]]
name = "QM1"
[[faults]]
point = "tcp:QM1"
action = "partition"
at_ms = 100
after_fraction = 0.5
"#;
    for (src, block) in [(inverted_uniform, "Q.SLOW"), (two_triggers, "tcp:QM1")] {
        match ScenarioSpec::from_toml_str(src) {
            Err(ScenarioError::Spec(reason)) => assert!(reason.contains(block), "{reason}"),
            other => panic!("expected a spec error naming `{block}`, got {other:?}"),
        }
    }

    let sampled_without_window = spec(
        r#"
name = "bad"
[[managers]]
name = "QM1"
[[actors]]
name = "a"
manager = "QM1"
expect = "sampled"
[actors.condition]
manager = "QM1"
queue = "Q"
"#,
    );
    assert!(sampled_without_window.validate().is_err());

    let undeclared_journal = spec(
        r#"
name = "bad-point"
[[managers]]
name = "QM1"
[[queues]]
manager = "QM1"
name = "Q"
[[actors]]
name = "a"
manager = "QM1"
[actors.condition]
manager = "QM1"
queue = "Q"
[[faults]]
point = "journal:QM9"
action = "fail_storage"
after_fraction = 0.0
"#,
    );
    // The fault names the journal of a manager the spec never declares —
    // compilation must refuse it.
    match exec::run(&undeclared_journal, false) {
        Err(ScenarioError::Spec(reason)) => assert!(reason.contains("journal:QM9"), "{reason}"),
        other => panic!("expected journal:QM9 to be refused, got {other:?}"),
    }
}

/// Simulated time over the one wire: two managers joined by loopback TCP,
/// a few hundred sends fanned over eight device queues, a seeded Pareto
/// acker, and the fleet's acceptor partitioned, healed and made to lose
/// acknowledgments while the sends go out. The verdicts are fixed by the
/// seeded acknowledgment timeline, not by when the wire delivers: two runs
/// of the same seed split success and failure identically, and each split
/// is the oracle's expected one (the sampled actor's check passes only on
/// the exact expected success count).
#[test]
fn sim_mode_on_the_one_wire_is_deterministic() {
    let spec = spec(
        r#"
name = "one-wire-determinism"
seed = 23

[[managers]]
name = "QM.CLOUD"

[[managers]]
name = "QM.FLEET"

[[queues]]
manager = "QM.FLEET"
name = "Q.DEV.{i}"
count = 8

[[channels]]
from = "QM.CLOUD"
to = "QM.FLEET"

[[channels]]
from = "QM.FLEET"
to = "QM.CLOUD"

[[actors]]
name = "fleet"
manager = "QM.CLOUD"
count = 300
payload = "cmd-{i}"
compensation = "revoke-{i}"
expect = "sampled"

[actors.condition]
manager = "QM.FLEET"
queue = "Q.DEV.{i%8}"
pickup_within_ms = 5000

[[ackers]]
manager = "QM.FLEET"
queue = "Q.DEV.{i}"
count = 8
delay = { kind = "pareto", scale_ms = 500.0, alpha = 1.2, cap_ms = 20000 }

[[faults]]
point = "tcp:QM.FLEET"
action = "partition"
after_fraction = 0.25

[[faults]]
point = "tcp:QM.FLEET"
action = "heal"
after_fraction = 0.4

[[faults]]
point = "tcp:QM.FLEET"
action = "drop_next"
n = 5
after_fraction = 0.6
"#,
    );
    let split = || {
        let report = exec::run(&spec, false).unwrap();
        assert_eq!(report.sent, 300);
        assert!(report.oracle.passed(), "{}", report.oracle);
        (report.success, report.failure)
    };
    let first = split();
    assert_eq!(first.0 + first.1, 300);
    assert!(first.0 > 0 && first.1 > 0, "both outcomes occur: {first:?}");
    assert_eq!(split(), first, "same seed, same split");
}

/// The two small flagships, the Fig. 8 relay crash and the D-Sphere
/// branch round with its relay crash, each run twice in quick mode: the
/// oracle passes and both runs end identically, because every scenario
/// runs on simulated time and the wire decides only when a message lands,
/// never its outcome. A passing oracle already pins the verdict and
/// sphere counts, so the comparison is over what it leaves free: the
/// compensations the sweep consumed, every verdict latency, and the key
/// counters (relay forwards, released compensations, annihilations),
/// which the oracle only bounds from below.
#[test]
fn relay_crash_and_sphere_flagships_are_deterministic() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    for file in ["fig8_relay_crash.toml", "msmq_branches.toml"] {
        let src = std::fs::read_to_string(dir.join(file)).unwrap();
        let spec = ScenarioSpec::from_toml_str(&src).unwrap();
        let outcome = || {
            let r = exec::run(&spec, true).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(r.oracle.passed(), "{file}:\n{}", r.oracle);
            let verdicts = (r.sent, r.success, r.failure);
            let spheres = (r.spheres_committed, r.spheres_aborted);
            (
                verdicts,
                spheres,
                r.comps_swept,
                r.verdict_latency_ms,
                r.metrics,
            )
        };
        let first = outcome();
        assert_eq!(outcome(), first, "{file}: same seed, same outcome");
    }
}

/// Every shipped `scenarios/*.toml` decodes and validates, so a broken
/// shipped scenario fails `cargo test`, not only the `exp_scenario` run.
#[test]
fn every_shipped_scenario_decodes_and_validates() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut decoded = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let src = std::fs::read_to_string(&path).unwrap();
            let spec = ScenarioSpec::from_toml_str(&src)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            decoded += 1;
        }
    }
    assert!(decoded > 0, "no scenarios under {}", dir.display());
}
