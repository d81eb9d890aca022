//! Conditional publish/subscribe: the paper's concept applied to the
//! pub/sub messaging model (§2's "specific models of conditional messaging
//! can be defined with respect to … publish/subscribe systems").
//!
//! A market-data publisher pushes a trading-halt notice to a topic and
//! requires that *at least two* of its subscriber desks pick the notice up
//! within the window; otherwise the notice is withdrawn via compensation
//! messages.
//!
//! Run with: `cargo run --example conditional_pubsub`

use std::sync::Arc;

use conditional_messaging::condmsg::{
    ConditionalMessenger, ConditionalReceiver, DestinationSet, MessageKind, MessageOutcome,
    SendOptions,
};
use conditional_messaging::mq::topic::Topic;
use conditional_messaging::mq::{QueueManager, Wait};
use conditional_messaging::simtime::Millis;

const WINDOW: Millis = Millis(200);

fn desk(
    qmgr: Arc<QueueManager>,
    queue: String,
    name: &'static str,
    responsive: bool,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        if !responsive {
            // This desk is away from the terminal.
            return;
        }
        let mut receiver = ConditionalReceiver::with_identity(qmgr, name).expect("receiver");
        if let Ok(Some(notice)) = receiver.read_message(&queue, Wait::Timeout(Millis(500))) {
            println!(
                "  [{name}] received: {}",
                notice.payload_str().unwrap_or("?")
            );
        }
        // Wait for the follow-up (success confirmation or withdrawal).
        if let Ok(Some(followup)) = receiver.read_message(&queue, Wait::Timeout(Millis(2_000))) {
            match followup.kind() {
                MessageKind::SuccessNotification => {
                    println!("  [{name}] confirmed: halt is in effect")
                }
                MessageKind::Compensation => println!(
                    "  [{name}] withdrawn: {}",
                    followup.payload_str().unwrap_or("(system compensation)")
                ),
                other => println!("  [{name}] unexpected follow-up {other:?}"),
            }
        }
    })
}

fn run(label: &str, responsive_desks: usize) -> Result<(), Box<dyn std::error::Error>> {
    println!("--- {label} ---");
    let qmgr = QueueManager::builder("EXCHANGE").build()?;
    let messenger = ConditionalMessenger::new(qmgr.clone())?;
    let topic = Topic::open(qmgr.clone(), "halts")?;

    let desks = ["equities", "options", "futures"];
    let handles: Vec<_> = desks
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let queue = topic.subscribe(name).expect("subscribe");
            desk(qmgr.clone(), queue, name, i < responsive_desks)
        })
        .collect();

    let (id, n) = messenger.publish_conditional(
        &topic,
        "TRADING HALT: XYZ pending news",
        Some("halt notice withdrawn".into()),
        &DestinationSet::empty().pickup_within(WINDOW).min_pickup(2),
        SendOptions {
            success_notifications: Some(true),
            evaluation_timeout: Some(WINDOW + Millis(50)),
            ..SendOptions::default()
        },
    )?;
    println!("published halt notice {id} to {n} desks (need ≥2 pick-ups in {WINDOW})");

    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(5_000)))?
        .expect("outcome decided");
    match outcome.outcome {
        MessageOutcome::Success => println!("=> quorum reached: halt CONFIRMED"),
        MessageOutcome::Failure => println!(
            "=> quorum missed: halt WITHDRAWN ({})",
            outcome.reason.as_deref().unwrap_or("window passed")
        ),
    }
    for h in handles {
        let _ = h.join();
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run("scenario A: all three desks responsive", 3)?;
    run(
        "scenario B: only one desk responsive (quorum of 2 missed)",
        1,
    )?;
    Ok(())
}
