//! E1 — paper Fig. 1/Fig. 4 (Example 1): the group-meeting notification.
//!
//! Reproduces the verdict the conditional messaging system reaches for a
//! sweep of recipient behaviours against the Fig. 4 condition, and checks
//! every verdict against a hand-written oracle of the paper's rules:
//!
//! * all 4 recipients must read within 2 days;
//! * receiver3 must process within 7 days;
//! * ≥2 of the other three must process within 11 days.
//!
//! Recipients read at one time and (when processing) commit their
//! transaction later, like a real application would. Deterministic
//! (SimClock); one "day" is scaled to 1000 logical ms.
//!
//! A transactional read produces its one acknowledgment (carrying both
//! the read and the commit time) when the transaction commits, and the
//! engine decides at each deadline on the evidence it holds by then. The
//! sender therefore runs with an `ack_grace` covering the longest
//! read-to-commit lag of the sweep: a missing acknowledgment counts as a
//! violation only after the grace, while the times inside an
//! acknowledgment are always held against the true deadlines — which is
//! what the oracle checks.

use cond_bench::{emit_metrics, header, row, shared_obs, workload};
use condmsg::{CondConfig, ConditionalMessenger, ConditionalReceiver, MessageOutcome};
use mq::journal::NullJournal;
use mq::{QueueManager, Wait};
use simtime::{Clock, Millis, SimClock};

const DAY: u64 = 1_000;

/// Longest read-to-commit lag in the sweep (read day 1, commit day 12).
const ACK_GRACE: u64 = 11 * DAY;

/// What one recipient does. `read_day` is when it reads; `commit_day`
/// (≥ read_day), when present, means the read happens inside a receiver
/// transaction committed that day (i.e. the recipient *processes*).
#[derive(Debug, Clone, Copy)]
struct Behaviour {
    read_day: Option<u64>,
    commit_day: Option<u64>,
}

fn b(read_day: Option<u64>, commit_day: Option<u64>) -> Behaviour {
    Behaviour {
        read_day,
        commit_day,
    }
}

fn scenario(label: &str, behaviours: [Behaviour; 4]) -> (String, bool, bool) {
    let clock = SimClock::new();
    // Leaf order in the Fig. 4 condition: Q.R3, Q.R1, Q.R2, Q.R4.
    let queues: Vec<String> = ["Q.R3", "Q.R1", "Q.R2", "Q.R4"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let qmgr = QueueManager::builder("QM1")
        .clock(clock.clone())
        .journal(NullJournal::new())
        .obs(shared_obs())
        .build()
        .unwrap();
    for queue in &queues {
        qmgr.create_queue(queue).unwrap();
    }
    let messenger = ConditionalMessenger::with_config(
        qmgr.clone(),
        CondConfig {
            ack_grace: Millis(ACK_GRACE),
            ..CondConfig::default()
        },
    )
    .unwrap();
    let id = messenger
        .send_message("meeting notification", &workload::example1(DAY))
        .unwrap();

    #[derive(Clone, Copy, PartialEq)]
    enum Action {
        ReadNonTx(usize),
        ReadInTx(usize),
        Commit(usize),
    }
    let mut events: Vec<(u64, Action)> = Vec::new();
    for (leaf, behaviour) in behaviours.iter().enumerate() {
        match (behaviour.read_day, behaviour.commit_day) {
            (Some(r), Some(c)) => {
                assert!(c >= r, "commit cannot precede the read");
                events.push((r * DAY, Action::ReadInTx(leaf)));
                events.push((c * DAY, Action::Commit(leaf)));
            }
            (Some(r), None) => events.push((r * DAY, Action::ReadNonTx(leaf))),
            (None, _) => {}
        }
    }
    events.sort_by_key(|(t, _)| *t);

    let mut receivers: Vec<ConditionalReceiver> = (0..4)
        .map(|_| ConditionalReceiver::new(qmgr.clone()).unwrap())
        .collect();
    for (at, action) in events {
        let now = clock.now().as_millis();
        if at > now {
            clock.advance(Millis(at - now));
        }
        match action {
            Action::ReadNonTx(leaf) => {
                receivers[leaf]
                    .read_message(&queues[leaf], Wait::NoWait)
                    .unwrap()
                    .unwrap();
            }
            Action::ReadInTx(leaf) => {
                receivers[leaf].begin_tx().unwrap();
                receivers[leaf]
                    .read_message(&queues[leaf], Wait::NoWait)
                    .unwrap()
                    .unwrap();
            }
            Action::Commit(leaf) => receivers[leaf].commit_tx().unwrap(),
        }
    }
    // Past the last deadline (day 11) plus the grace.
    clock.advance(Millis(12 * DAY + ACK_GRACE));
    let outcome = messenger.take_outcome(id, Wait::NoWait).unwrap().unwrap();
    let success = outcome.outcome == MessageOutcome::Success;

    // Oracle, straight from the paper's rules. Leaf 0 = receiver3.
    let all_read = behaviours
        .iter()
        .all(|b| matches!(b.read_day, Some(d) if d <= 2));
    let r3_processed = matches!(behaviours[0].commit_day, Some(d) if d <= 7);
    let others_processed = behaviours[1..]
        .iter()
        .filter(|b| matches!(b.commit_day, Some(d) if d <= 11))
        .count();
    let oracle = all_read && r3_processed && others_processed >= 2;
    (label.to_owned(), success, oracle)
}

fn main() {
    let cases: Vec<(String, bool, bool)> = vec![
        scenario(
            "everyone reads day 1; r3+r1+r2 commit day 1",
            [
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(1), None),
            ],
        ),
        scenario(
            "read day 1; r3 commits day 6, r1+r4 day 10",
            [
                b(Some(1), Some(6)),
                b(Some(1), Some(10)),
                b(Some(1), None),
                b(Some(1), Some(10)),
            ],
        ),
        scenario(
            "r3 commits too late (day 8)",
            [
                b(Some(1), Some(8)),
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(1), None),
            ],
        ),
        scenario(
            "only one of the other three processes",
            [
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(1), None),
                b(Some(1), None),
            ],
        ),
        scenario(
            "one recipient reads on day 3 (window is 2 days)",
            [
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(3), None),
            ],
        ),
        scenario(
            "one recipient never reads",
            [
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(None, None),
            ],
        ),
        scenario(
            "two others commit exactly at day 11 (boundary, inclusive)",
            [
                b(Some(1), Some(1)),
                b(Some(1), Some(11)),
                b(Some(1), Some(11)),
                b(Some(1), None),
            ],
        ),
        scenario(
            "r3 commits exactly at day 7 (boundary, inclusive)",
            [
                b(Some(1), Some(7)),
                b(Some(1), Some(1)),
                b(Some(1), Some(1)),
                b(Some(2), None),
            ],
        ),
        scenario(
            "three others all commit late (day 12)",
            [
                b(Some(1), Some(1)),
                b(Some(1), Some(12)),
                b(Some(1), Some(12)),
                b(Some(1), Some(12)),
            ],
        ),
    ];

    println!("# E1 — Example 1 (Fig. 1/4): meeting notification verdict matrix\n");
    header(&["scenario", "system verdict", "oracle", "agree"]);
    let mut all_agree = true;
    for (label, verdict, oracle) in &cases {
        let agree = verdict == oracle;
        all_agree &= agree;
        row(&[
            label.clone(),
            if *verdict { "SUCCESS" } else { "FAILURE" }.into(),
            if *oracle { "success" } else { "failure" }.into(),
            if agree { "yes" } else { "NO" }.into(),
        ]);
    }
    println!();
    println!(
        "{} / {} scenarios agree with the paper-rule oracle",
        cases.iter().filter(|(_, v, o)| v == o).count(),
        cases.len()
    );
    assert!(all_agree, "verdict mismatch against the oracle");
    emit_metrics();
}
