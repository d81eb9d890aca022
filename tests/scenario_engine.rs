//! Scenario-engine ports of the hand-coded integration flows.
//!
//! The originals stay in place as goldens (`tests/end_to_end.rs`,
//! `tests/failure_injection.rs`); these tests re-declare the same flows
//! as scenario specs — builder API and TOML — and assert the engine's
//! oracle reproduces the original assertions: every message reaches
//! exactly one of success / compensation / annihilation, and the counts
//! match the declarations.

use cond_scenario::{
    exec, AckerSpec, ActorSpec, ChannelSpec, DelaySpec, DestSpec, Expect, FaultActionSpec,
    FaultSpec, ManagerSpec, QueueSpec, ScenarioSpec, SetSpec,
};

/// One paper "day", scaled as in `tests/end_to_end.rs`.
const DAY: u64 = 1_000;

/// Paper Fig. 4 / end_to_end `example1_success_when_all_conditions_met`:
/// receiver3 must process within 7 days, two of the other three must
/// process within 11 days, and everyone must pick up within 2 days.
/// Process-mode ackers on all four queues satisfy every clause; the
/// oracle must see nothing but success.
#[test]
fn example1_success_when_all_conditions_met() {
    let condition = SetSpec::new()
        .member(
            DestSpec::new("QM1", "Q.R3")
                .recipient("receiver3")
                .process_within_ms(7 * DAY),
        )
        .member(
            SetSpec::new()
                .member(DestSpec::new("QM1", "Q.R1").recipient("receiver1"))
                .member(DestSpec::new("QM1", "Q.R2").recipient("receiver2"))
                .member(DestSpec::new("QM1", "Q.R4").recipient("receiver4"))
                .process_within_ms(11 * DAY)
                .min_process(2),
        )
        .pickup_within_ms(2 * DAY);
    let mut spec = ScenarioSpec::new("example1-success")
        .seed(5)
        .manager(ManagerSpec::new("QM1"))
        .actor(ActorSpec::new("meeting", "QM1", 3, condition).payload("meeting notification {i}"));
    for (q, r) in [
        ("Q.R1", "receiver1"),
        ("Q.R2", "receiver2"),
        ("Q.R3", "receiver3"),
        ("Q.R4", "receiver4"),
    ] {
        spec = spec
            .queue(QueueSpec::new("QM1", q))
            .acker(
                AckerSpec::new("QM1", q)
                    .recipient(r)
                    .process()
                    .delay(DelaySpec::Fixed { ms: 50 }),
            );
    }
    let report = exec::run(&spec, false).unwrap();
    assert_eq!(report.sent, 3);
    assert_eq!(report.success, 3, "{}", report.oracle);
    assert_eq!(report.failure, 0);
    assert!(report.oracle.passed(), "{}", report.oracle);
}

/// end_to_end `example1_fails_on_missed_pickup`: the same shape, but one
/// destination queue has no receiver at all, so the all-must-pick-up
/// root window expires and the verdict must be failure — for every
/// message, with no stragglers and no duplicated outcomes.
#[test]
fn example1_fails_on_missed_pickup() {
    let condition = SetSpec::new()
        .member(DestSpec::new("QM1", "Q.R1").recipient("receiver1"))
        .member(DestSpec::new("QM1", "Q.R2").recipient("receiver2"))
        .member(DestSpec::new("QM1", "Q.R3").recipient("receiver3"))
        .member(DestSpec::new("QM1", "Q.R4"))
        .pickup_within_ms(2 * DAY);
    let mut spec = ScenarioSpec::new("example1-missed-pickup")
        .seed(6)
        .manager(ManagerSpec::new("QM1"))
        .queue(QueueSpec::new("QM1", "Q.R4"))
        .actor(
            ActorSpec::new("meeting", "QM1", 2, condition)
                .payload("meeting notification {i}")
                .expect(Expect::Failure),
        );
    // Three of four read promptly; Q.R4 is never served.
    for (q, r) in [
        ("Q.R1", "receiver1"),
        ("Q.R2", "receiver2"),
        ("Q.R3", "receiver3"),
    ] {
        spec = spec.queue(QueueSpec::new("QM1", q)).acker(
            AckerSpec::new("QM1", q)
                .recipient(r)
                .delay(DelaySpec::Fixed { ms: DAY }),
        );
    }
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
clock = "sim"

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
/// the heal path, declared in TOML: with the manager on a faultable
/// journal, storage fails before the first send (every send must be
/// rejected cleanly, leaving no pending state), heals before the second
/// actor (whose sends must then succeed end to end). The oracle's
/// conservation checks prove nothing was half-sent either way.
#[test]
fn storage_faults_reject_sends_cleanly_then_heal() {
    let src = r#"
name = "storage-faults"
seed = 13
clock = "sim"

[[managers]]
name = "QM1"
journal = "faultable"

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

/// The spec layer rejects malformed declarations rather than letting a
/// wrong scenario run: unknown fault actions and sampled actors without
/// a pickup window are spec errors, not runtime surprises.
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

    let sampled_without_window = ScenarioSpec::new("bad")
        .manager(ManagerSpec::new("QM1"))
        .actor(ActorSpec::new("a", "QM1", 1, DestSpec::new("QM1", "Q")).expect(Expect::Sampled));
    assert!(sampled_without_window.validate().is_err());

    let fraction_fault = ScenarioSpec::new("bad-point")
        .manager(ManagerSpec::new("QM1"))
        .queue(QueueSpec::new("QM1", "Q"))
        .actor(ActorSpec::new("a", "QM1", 1, DestSpec::new("QM1", "Q")))
        .fault(FaultSpec::at_fraction(
            "journal:QM1",
            FaultActionSpec::FailStorage,
            0.0,
        ));
    // The fault names a journal point but the manager has no faultable
    // journal — compilation must refuse it.
    assert!(exec::run(&fraction_fault, false).is_err());
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
    let fault = |action, fraction| FaultSpec::at_fraction("tcp:QM.FLEET", action, fraction);
    let spec = ScenarioSpec::new("one-wire-determinism")
        .seed(23)
        .manager(ManagerSpec::new("QM.CLOUD"))
        .manager(ManagerSpec::new("QM.FLEET"))
        .queue(QueueSpec::new("QM.FLEET", "Q.DEV.{i}").fan(8, 0))
        .channel(ChannelSpec::new("QM.CLOUD", "QM.FLEET"))
        .channel(ChannelSpec::new("QM.FLEET", "QM.CLOUD"))
        .actor(
            ActorSpec::new(
                "fleet",
                "QM.CLOUD",
                300,
                DestSpec::new("QM.FLEET", "Q.DEV.{i%8}").pickup_within_ms(5_000),
            )
            .payload("cmd-{i}")
            .compensation("revoke-{i}")
            .expect(Expect::Sampled),
        )
        .acker(
            AckerSpec::new("QM.FLEET", "Q.DEV.{i}")
                .fan(8, 0)
                .delay(DelaySpec::Pareto {
                    scale_ms: 500.0,
                    alpha: 1.2,
                    cap_ms: 20_000,
                }),
        )
        .fault(fault(FaultActionSpec::Partition, 0.25))
        .fault(fault(FaultActionSpec::Heal, 0.4))
        .fault(fault(FaultActionSpec::DropNext(5), 0.6));
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
