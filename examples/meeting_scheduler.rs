//! The paper's Example 1 (Fig. 1 / Fig. 4): a group-meeting notification
//! sent to four recipients on four queues.
//!
//! Conditions (paper §2.1, scaled from days to milliseconds):
//! * all four recipients must *read* the notification within 2 "days";
//! * receiver3 must *process* it (update the calendar) within 7 "days";
//! * at least two of the other three must process it within 11 "days".
//!
//! The example runs the scenario twice: once with cooperative recipients
//! (meeting scheduled — success notifications confirm it) and once where
//! receiver3 never processes (meeting cancelled — compensation messages go
//! out and annihilate or undo the invitations).
//!
//! Run with: `cargo run --example meeting_scheduler`

use std::sync::Arc;

use conditional_messaging::condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, DestinationSet, MessageKind,
    MessageOutcome, SendOptions,
};
use conditional_messaging::mq::{QueueManager, Wait};
use conditional_messaging::simtime::Millis;

/// One paper "day", scaled to keep the example fast.
const DAY: u64 = 100;

const RECIPIENTS: [&str; 4] = ["receiver1", "receiver2", "receiver3", "receiver4"];

fn queue_for(recipient: &str) -> String {
    format!("Q.{}", recipient.to_uppercase())
}

fn fig4_condition() -> Condition {
    let qr3 = Destination::queue("QM1", queue_for("receiver3"))
        .recipient("receiver3")
        .process_within(Millis(7 * DAY));
    let others = DestinationSet::of(vec![
        Destination::queue("QM1", queue_for("receiver1"))
            .recipient("receiver1")
            .into(),
        Destination::queue("QM1", queue_for("receiver2"))
            .recipient("receiver2")
            .into(),
        Destination::queue("QM1", queue_for("receiver4"))
            .recipient("receiver4")
            .into(),
    ])
    .process_within(Millis(11 * DAY))
    .min_process(2);
    DestinationSet::of(vec![qr3.into(), others.into()])
        .pickup_within(Millis(2 * DAY))
        .into()
}

/// A participant: reads the invitation and, if cooperative, processes it
/// inside a receiver transaction (calendar update), which produces the
/// processed-ack on commit.
fn run_participant(
    qmgr: Arc<QueueManager>,
    name: &'static str,
    cooperative: bool,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut receiver = ConditionalReceiver::with_identity(qmgr, name).expect("receiver");
        let queue = queue_for(name);
        let Ok(Some(invite)) = receiver.read_message(&queue, Wait::Timeout(Millis(5 * DAY))) else {
            return;
        };
        if invite.kind() != MessageKind::Original {
            return;
        }
        if cooperative {
            // Transactional processing: update the calendar, then commit —
            // the processed-ack is bound to this commit (paper §2.4).
            receiver.begin_tx().expect("begin");
            println!("  [{name}] processing: {:?}", invite.payload_str().unwrap());
            receiver.commit_tx().expect("commit");
        } else {
            println!("  [{name}] read the invite but never processes it");
            // Non-transactional read already acked receipt; processing is
            // never acknowledged.
        }
        // Wait for the follow-up (success notification or compensation).
        if let Ok(Some(followup)) = receiver.read_message(&queue, Wait::Timeout(Millis(30 * DAY))) {
            match followup.kind() {
                MessageKind::SuccessNotification => {
                    println!("  [{name}] confirmation: the meeting is scheduled")
                }
                MessageKind::Compensation => println!(
                    "  [{name}] compensation: {}",
                    followup.payload_str().unwrap_or("(meeting cancelled)")
                ),
                other => println!("  [{name}] unexpected follow-up {other:?}"),
            }
        }
    })
}

fn run_scenario(label: &str, cooperative_r3: bool) -> Result<(), Box<dyn std::error::Error>> {
    println!("--- {label} ---");
    let qmgr = QueueManager::builder("QM1").build()?;
    for r in RECIPIENTS {
        qmgr.create_queue(queue_for(r))?;
    }
    let messenger = ConditionalMessenger::new(qmgr.clone())?;

    let participants: Vec<_> = RECIPIENTS
        .iter()
        .map(|r| run_participant(qmgr.clone(), r, *r != "receiver3" || cooperative_r3))
        .collect();

    let id = messenger.send_with(
        "group meeting: 2026-07-10 10:00, room R101",
        Some("meeting cancelled: conditions not met".into()),
        &fig4_condition(),
        SendOptions {
            success_notifications: Some(true),
            evaluation_timeout: Some(Millis(20 * DAY)),
            ..SendOptions::default()
        },
    )?;
    println!("sent meeting notification {id}");

    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(40 * DAY)))?
        .expect("outcome decided");
    match outcome.outcome {
        MessageOutcome::Success => println!("=> meeting SCHEDULED (all conditions met)"),
        MessageOutcome::Failure => println!(
            "=> meeting CANCELLED ({})",
            outcome.reason.as_deref().unwrap_or("conditions violated")
        ),
    }
    for p in participants {
        let _ = p.join();
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run_scenario("scenario A: everyone cooperates", true)?;
    run_scenario("scenario B: receiver3 never processes", false)?;
    Ok(())
}
