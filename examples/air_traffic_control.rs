//! The paper's Example 2 (Fig. 2 / Fig. 5): incoming flights are announced
//! on one shared queue; *any one* controller must pick each flight up
//! within 20 seconds (scaled down here), otherwise exception handling
//! starts.
//!
//! Several controller threads compete on the shared queue. We inject a
//! staffing gap mid-run — flights announced during the gap miss their
//! pick-up window, their conditional messages fail, and the compensation
//! messages drive the escalation path.
//!
//! Run with: `cargo run --example air_traffic_control`

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use conditional_messaging::condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, MessageKind, MessageOutcome,
    SendOptions,
};
use conditional_messaging::mq::{QueueManager, Wait};
use conditional_messaging::simtime::Millis;

/// The paper's 20-second pick-up window, scaled 200x down.
const PICKUP_WINDOW: Millis = Millis(100);
/// The paper's 21-second evaluation timeout, scaled likewise.
const EVAL_TIMEOUT: Millis = Millis(105);

const CONTROLLERS: usize = 3;
const FLIGHTS: usize = 12;

fn flight_condition() -> Condition {
    // One shared queue, anonymous recipient: whoever reads first, acks.
    Destination::queue("QM1", "Q.CENTRAL")
        .pickup_within(PICKUP_WINDOW)
        .into()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qmgr = QueueManager::builder("QM1").build()?;
    qmgr.create_queue("Q.CENTRAL")?;
    let messenger = ConditionalMessenger::new(qmgr.clone())?;

    let on_duty = Arc::new(AtomicBool::new(true));
    let stop = Arc::new(AtomicBool::new(false));
    let handled = Arc::new(AtomicUsize::new(0));

    // Controllers: competing consumers on the shared queue.
    let controllers: Vec<_> = (0..CONTROLLERS)
        .map(|i| {
            let qmgr = qmgr.clone();
            let on_duty = on_duty.clone();
            let stop = stop.clone();
            let handled = handled.clone();
            std::thread::spawn(move || {
                let name: &'static str = Box::leak(format!("controller-{i}").into_boxed_str());
                let mut receiver =
                    ConditionalReceiver::with_identity(qmgr, name).expect("receiver");
                while !stop.load(Ordering::SeqCst) {
                    if !on_duty.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    match receiver.read_message("Q.CENTRAL", Wait::Timeout(Millis(20))) {
                        Ok(Some(msg)) if msg.kind() == MessageKind::Original => {
                            println!("  [{name}] accepted {}", msg.payload_str().unwrap_or("?"));
                            handled.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(Some(msg)) if msg.kind() == MessageKind::Compensation => {
                            // Delivered only if this side consumed the
                            // original; in this scenario originals are
                            // annihilated instead.
                            println!("  [{name}] late compensation for a consumed flight");
                        }
                        _ => {}
                    }
                }
            })
        })
        .collect();

    // Announce flights; controllers walk out mid-run.
    let mut ids = Vec::new();
    for n in 0..FLIGHTS {
        if n == FLIGHTS / 3 {
            println!("!! all controllers off duty (shift change)");
            on_duty.store(false, Ordering::SeqCst);
        }
        if n == 2 * FLIGHTS / 3 {
            println!("!! controllers back on duty");
            on_duty.store(true, Ordering::SeqCst);
        }
        let id = messenger.send_with(
            format!("flight UA-{:03} approaching sector 7", 100 + n),
            None,
            &flight_condition(),
            SendOptions {
                evaluation_timeout: Some(EVAL_TIMEOUT),
                ..SendOptions::default()
            },
        )?;
        ids.push((n, id));
        std::thread::sleep(Duration::from_millis(40));
    }

    // Collect outcomes.
    let mut ok = 0;
    let mut escalated = 0;
    for (n, id) in ids {
        let outcome = messenger
            .take_outcome(id, Wait::Timeout(Millis(2_000)))?
            .expect("every flight decided");
        match outcome.outcome {
            MessageOutcome::Success => ok += 1,
            MessageOutcome::Failure => {
                escalated += 1;
                println!(
                    "=> flight #{n} NOT picked up in {PICKUP_WINDOW}: escalating ({})",
                    outcome.reason.as_deref().unwrap_or("deadline passed")
                );
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    for c in controllers {
        let _ = c.join();
    }

    println!();
    println!(
        "flights announced: {FLIGHTS}; accepted in time: {ok}; escalated: {escalated}; \
         controller pick-ups: {}",
        handled.load(Ordering::SeqCst)
    );
    assert_eq!(ok + escalated, FLIGHTS);
    assert!(escalated > 0, "the staffing gap must cause escalations");
    assert!(ok > 0, "staffed periods must succeed");
    Ok(())
}
