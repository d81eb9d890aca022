//! The system under test, assembled from public API only: a chain of 1–3
//! queue managers on [`SegmentedJournal`]s, duplex loopback-TCP channels
//! between neighbours, one `Obs` per manager, a [`ConditionalMessenger`]
//! with its polling daemon on the head and application queues on the tail.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use condmsg::{
    Condition, ConditionalMessenger, ConditionalReceiver, Destination, DestinationSet,
    EvaluationDaemon,
};
use mq::channel::Channel;
use mq::journal::{Journal, SegmentConfig, SegmentedJournal};
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{Obs, QueueManager, SystemClock, DEAD_LETTER_QUEUE};
use simtime::Millis;

use crate::span::{JournalStats, Recorder, SpanJournal};
use crate::spec::{Workload, BACKGROUND_WINDOW_MS, FAILURE_WINDOW_MS, SUCCESS_WINDOW_MS};
use crate::BenchResult;

/// Queue the tail application blocks on.
pub const Q_IN: &str = "Q.IN";
/// Queue nobody reads in time (failure class).
pub const Q_HOLD: &str = "Q.HOLD";
/// Scratch queue for the traced run's queue/store micro timings.
pub const Q_SCRATCH: &str = "Q.SCRATCH";
/// Foreground tree leaves (`deep_pending`).
pub const FOREGROUND_LEAVES: [&str; 4] = ["Q.F0", "Q.F1", "Q.F2", "Q.F3"];
/// Background tree leaves (`deep_pending`).
pub const BACKGROUND_LEAVES: [&str; 4] = ["Q.B0", "Q.B1", "Q.B2", "Q.B3"];

/// Poll interval handed to `spawn_daemon`, as the issue fixes it.
pub const DAEMON_POLL: Duration = Duration::from_millis(1);

const ROLES: [&str; 3] = ["head", "relay", "tail"];

/// Manager name for a role.
pub fn manager_name(role: &str) -> String {
    format!("QM.{}", role.to_uppercase())
}

/// The roles of an `n`-manager chain, head first.
pub fn roles(managers: usize) -> Vec<&'static str> {
    match managers {
        1 => vec!["head"],
        2 => vec!["head", "tail"],
        _ => ROLES.to_vec(),
    }
}

/// A put-watcher's view of one queue: how many puts became visible and
/// when the latest did. The stepped driver waits on it instead of polling.
#[derive(Debug, Default)]
pub struct ArrivalStamp {
    state: Mutex<(u64, Option<Instant>)>,
    changed: Condvar,
}

impl ArrivalStamp {
    /// Registers a stamp as a put watcher on `queue` of `qm`.
    pub fn watch(qm: &QueueManager, queue: &str) -> BenchResult<Arc<ArrivalStamp>> {
        let stamp = Arc::new(ArrivalStamp::default());
        let cell = stamp.clone();
        qm.queue(queue)?.add_put_watcher(Arc::new(move || {
            let now = Instant::now();
            let mut state = cell.state.lock().expect("arrival stamp poisoned");
            state.0 += 1;
            state.1 = Some(now);
            cell.changed.notify_all();
        }));
        Ok(stamp)
    }

    /// Puts seen so far.
    pub fn count(&self) -> u64 {
        self.state.lock().expect("arrival stamp poisoned").0
    }

    /// Waits until more than `seen` puts have landed; returns the instant
    /// of the latest one, or `None` on timeout.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> Option<Instant> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("arrival stamp poisoned");
        while state.0 <= seen {
            let left = deadline.checked_duration_since(Instant::now())?;
            state = self
                .changed
                .wait_timeout(state, left)
                .expect("arrival stamp poisoned")
                .0;
        }
        state.1
    }
}

/// Put watchers the traced run places at the hop boundaries.
#[derive(Debug, Clone)]
pub struct Watchers {
    /// Destination `Q.IN` on the tail: a forwarded original became visible.
    pub forward: Arc<ArrivalStamp>,
    /// Head `DS.ACK.Q`: a returned acknowledgment became visible.
    pub ack: Arc<ArrivalStamp>,
    /// Relay's outbound transmission queue towards the tail (3-manager
    /// chains): the relay took custody.
    pub relay: Option<Arc<ArrivalStamp>>,
}

/// One manager of the chain.
pub struct Node {
    /// `head`, `relay` or `tail`.
    pub role: &'static str,
    /// The manager.
    pub qm: Arc<QueueManager>,
    /// Its journal root.
    pub journal_dir: PathBuf,
    /// Counters of the [`SpanJournal`] around its journal.
    pub journal_stats: Arc<JournalStats>,
    _acceptor: Option<Arc<TcpAcceptor>>,
}

/// The assembled system plus the handles the generator drives it through.
pub struct World {
    /// Managers, head first.
    pub nodes: Vec<Node>,
    /// The clock all managers share (ack timestamps cross managers).
    pub clock: Arc<SystemClock>,
    /// Sender-side service on the head.
    pub messenger: Arc<ConditionalMessenger>,
    /// The polling evaluation daemon (absent while the traced run steps
    /// the round trip itself).
    pub daemon: Option<EvaluationDaemon>,
    /// Span recorder shared by the journal wrappers (switched on only
    /// while a traced run steps round trips).
    pub recorder: Arc<Recorder>,
    /// Hop-boundary put watchers (traced runs on a chain only).
    pub watchers: Option<Watchers>,
    /// Ids of the background conditional messages loaded in set-up.
    pub background: Vec<condmsg::CondMessageId>,
    segment: SegmentConfig,
    _channels: Vec<Channel>,
}

fn open_journal(
    dir: &Path,
    segment: &SegmentConfig,
    stats: &Arc<JournalStats>,
    recorder: &Arc<Recorder>,
) -> BenchResult<Arc<dyn Journal>> {
    let journal = SegmentedJournal::open(dir, segment.clone())?;
    Ok(SpanJournal::wrap(journal, stats.clone(), recorder.clone()))
}

impl World {
    /// Builds the topology `workload` asks for under `root` (one journal
    /// directory per manager), connects the channels, creates the
    /// application queues, starts the daemon and loads the background
    /// pending messages. Every journal sits behind a [`SpanJournal`] that
    /// counts appends and bytes (two clock reads and a few relaxed atomics
    /// per append); `traced` additionally keeps per-append durations and
    /// installs the hop-boundary put watchers.
    pub fn build(
        workload: &Workload,
        root: &Path,
        traced: bool,
        background: usize,
    ) -> BenchResult<World> {
        let clock = SystemClock::new();
        let recorder = Recorder::new();
        let segment = SegmentConfig {
            sync_every_append: workload.fsync,
            ..SegmentConfig::default()
        };
        let mut nodes = Vec::new();
        for role in roles(workload.managers) {
            let journal_dir = root.join(role);
            let journal_stats = JournalStats::new(role, traced);
            let journal = open_journal(&journal_dir, &segment, &journal_stats, &recorder)?;
            let qm = QueueManager::builder(manager_name(role))
                .clock(clock.clone())
                .obs(Obs::new())
                .journal(journal)
                .build()?;
            let acceptor = if workload.managers > 1 {
                Some(TcpAcceptor::bind(&qm, "127.0.0.1:0")?)
            } else {
                None
            };
            nodes.push(Node {
                role,
                qm,
                journal_dir,
                journal_stats,
                _acceptor: acceptor,
            });
        }

        // Duplex channels between neighbours; a relay routes each endpoint
        // through the neighbour on that side (as exp_federation's chain).
        let mut channels = Vec::new();
        for i in 0..nodes.len().saturating_sub(1) {
            for (from, to) in [(i, i + 1), (i + 1, i)] {
                let addr = nodes[to]
                    ._acceptor
                    .as_ref()
                    .expect("chain managers have acceptors")
                    .local_addr();
                channels.push(Channel::connect_tcp(
                    &nodes[from].qm,
                    nodes[to].qm.name(),
                    addr,
                    TcpConfig::default(),
                )?);
            }
        }
        let head = nodes[0].qm.clone();
        let tail = nodes[nodes.len() - 1].qm.clone();
        if nodes.len() == 3 {
            head.define_route(tail.name(), &format!("SYSTEM.XMIT.{}", nodes[1].qm.name()))?;
            tail.define_route(head.name(), &format!("SYSTEM.XMIT.{}", nodes[1].qm.name()))?;
        }

        if workload.tree {
            for queue in FOREGROUND_LEAVES.iter().chain(&BACKGROUND_LEAVES) {
                tail.create_queue(*queue)?;
            }
        } else {
            tail.create_queue(Q_IN)?;
            tail.create_queue(Q_HOLD)?;
        }
        let messenger = ConditionalMessenger::new(head.clone())?;
        let watchers = if traced && nodes.len() > 1 {
            Some(Watchers {
                forward: ArrivalStamp::watch(&tail, Q_IN)?,
                ack: ArrivalStamp::watch(&head, &messenger.config().ack_queue)?,
                relay: match nodes.get(1).filter(|_| nodes.len() == 3) {
                    Some(relay) => Some(ArrivalStamp::watch(
                        &relay.qm,
                        &format!("SYSTEM.XMIT.{}", tail.name()),
                    )?),
                    None => None,
                },
            })
        } else {
            None
        };
        let mut world = World {
            nodes,
            clock,
            messenger,
            daemon: None,
            recorder,
            watchers,
            background: Vec::with_capacity(background),
            segment,
            _channels: channels,
        };
        let condition = world.tree_condition(&BACKGROUND_LEAVES, BACKGROUND_WINDOW_MS);
        for i in 0..background {
            let id = world.messenger.send_message_with_compensation(
                format!("background {i}"),
                "undo background",
                &condition,
            )?;
            world.background.push(id);
        }
        // Started after the load: a daemon polling every millisecond would
        // full-scan the growing pending table all through it.
        world.start_daemon()?;
        Ok(world)
    }

    /// The sending manager.
    pub fn head(&self) -> &Arc<QueueManager> {
        &self.nodes[0].qm
    }

    /// The destination manager (the head itself in a 1-manager world).
    pub fn tail(&self) -> &Arc<QueueManager> {
        &self.nodes[self.nodes.len() - 1].qm
    }

    /// Success-class condition of the chain workloads: one leaf on the
    /// tail's `Q.IN`.
    pub fn success_condition(&self) -> Condition {
        Destination::queue(self.tail().name(), Q_IN)
            .pickup_within(Millis(SUCCESS_WINDOW_MS))
            .into()
    }

    /// Failure-class condition: `Q.IN` is read, `Q.HOLD` never in time.
    pub fn failure_condition(&self) -> Condition {
        let window = Millis(FAILURE_WINDOW_MS);
        DestinationSet::of(vec![
            Destination::queue(self.tail().name(), Q_IN)
                .pickup_within(window)
                .into(),
            Destination::queue(self.tail().name(), Q_HOLD)
                .pickup_within(window)
                .into(),
        ])
        .into()
    }

    /// The 4-leaf two-level tree `all(any(L0,L1), min 1 of {L2,L3})`.
    pub fn tree_condition(&self, leaves: &[&str; 4], window_ms: u64) -> Condition {
        let window = Millis(window_ms);
        let leaf = |q: &str| Condition::from(Destination::queue(self.tail().name(), q));
        let any = |a: &str, b: &str| {
            DestinationSet::of(vec![leaf(a), leaf(b)])
                .pickup_within(window)
                .min_pickup(1)
        };
        DestinationSet::of(vec![
            any(leaves[0], leaves[1]).into(),
            any(leaves[2], leaves[3]).into(),
        ])
        .into()
    }

    /// A receiver for the destination application.
    pub fn receiver(&self) -> BenchResult<ConditionalReceiver> {
        Ok(ConditionalReceiver::with_identity(
            self.tail().clone(),
            "condbench-tail",
        )?)
    }

    /// Stops the evaluation daemon (joined before this returns).
    pub fn stop_daemon(&mut self) {
        self.daemon = None;
    }

    /// Restarts the evaluation daemon if it is not running.
    pub fn start_daemon(&mut self) -> BenchResult<()> {
        if self.daemon.is_none() {
            self.daemon = Some(self.messenger.spawn_daemon(DAEMON_POLL)?);
        }
        Ok(())
    }

    /// Crashes the (single) manager, reopens the same journal root and
    /// rebuilds manager and messenger over it. Returns how long the
    /// manager build (journal replay included) and the messenger rebuild
    /// took. The daemon stays stopped; callers restart it when done.
    pub fn crash_and_recover(&mut self) -> BenchResult<(Duration, Duration)> {
        self.stop_daemon();
        let node = &mut self.nodes[0];
        node.qm.shutdown();
        node.qm.crash();
        let reopen = Instant::now();
        let journal = open_journal(
            &node.journal_dir,
            &self.segment,
            &node.journal_stats,
            &self.recorder,
        )?;
        node.qm = QueueManager::builder(manager_name(node.role))
            .clock(self.clock.clone())
            .obs(Obs::new())
            .journal(journal)
            .build()?;
        let manager_time = reopen.elapsed();
        let rebuild = Instant::now();
        self.messenger = ConditionalMessenger::new(node.qm.clone())?;
        Ok((manager_time, rebuild.elapsed()))
    }

    /// Depth of every queue that must be empty when a run ends: the
    /// application queues, every transmission queue, the dead-letter
    /// queues and the sender's service queues. Returns the non-empty ones
    /// as `(manager, queue, depth)`.
    pub fn undrained_queues(&self) -> Vec<(String, String, usize)> {
        let service = self.messenger.config();
        let mut left = Vec::new();
        for node in &self.nodes {
            for name in node.qm.queue_names() {
                let must_be_empty = name == DEAD_LETTER_QUEUE
                    || name.starts_with("SYSTEM.XMIT.")
                    || name.starts_with("Q.")
                    || (node.role == "head"
                        && [
                            &service.ack_queue,
                            &service.comp_queue,
                            &service.outcome_queue,
                            &service.slog_queue,
                        ]
                        .contains(&&name));
                if !must_be_empty {
                    continue;
                }
                let depth = node.qm.queue(&name).map_or(0, |q| q.depth());
                if depth > 0 {
                    left.push((node.qm.name().to_owned(), name, depth));
                }
            }
        }
        left
    }

    /// Stops every background thread of the system under test and joins
    /// it: the daemon, then each manager's channels and acceptors.
    pub fn shutdown(mut self) {
        self.stop_daemon();
        for node in &self.nodes {
            node.qm.shutdown();
        }
    }
}
