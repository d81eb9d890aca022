//! Quickstart: send one conditional message, watch it succeed.
//!
//! Run with: `cargo run --example quickstart`

use conditional_messaging::condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageOutcome,
};
use conditional_messaging::mq::{QueueManager, Wait};
use conditional_messaging::simtime::Millis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A queue manager with one application queue.
    let qmgr = QueueManager::builder("QM1").build()?;
    qmgr.create_queue("ORDERS")?;

    // 2. Attach the conditional messaging service (creates DS.SLOG.Q,
    //    DS.ACK.Q, DS.COMP.Q, DS.OUTCOME.Q). Its evaluation manager needs no
    //    thread: acks are evaluated as they commit, deadlines by the clock.
    let messenger = ConditionalMessenger::new(qmgr.clone())?;

    // 3. Send a message that must be picked up within one second.
    let condition: Condition = Destination::queue("QM1", "ORDERS")
        .pickup_within(Millis(1_000))
        .into();
    let id = messenger.send_message("order #42: 12 widgets", &condition)?;
    println!("sent conditional message {id}");

    // 4. A receiver reads it through the conditional API — the read-ack is
    //    generated implicitly.
    let mut receiver = ConditionalReceiver::with_identity(qmgr.clone(), "warehouse")?;
    let order = receiver
        .read_message("ORDERS", Wait::Timeout(Millis(500)))?
        .expect("order delivered");
    println!("warehouse read: {:?}", order.payload_str().unwrap());

    // 5. The sender learns the outcome on DS.OUTCOME.Q.
    let outcome = messenger
        .take_outcome(id, Wait::Timeout(Millis(2_000)))?
        .expect("outcome decided");
    println!(
        "outcome: {} (decided at {})",
        outcome.outcome, outcome.decided_at
    );
    assert_eq!(outcome.outcome, MessageOutcome::Success);
    Ok(())
}
