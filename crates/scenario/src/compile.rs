//! Lowering a [`ScenarioSpec`] onto the real harness.
//!
//! Compilation expands every templated block (managers, queues,
//! channels, routes, ackers) over its index range, builds the queue
//! managers on one shared simulated clock and observability hub, binds a
//! loopback acceptor on every manager a channel targets, connects the
//! declared channels over loopback TCP, applies the routing declarations,
//! instantiates one conditional messenger per sending manager, and
//! resolves fault triggers against the expanded plan. The result is a
//! [`Compiled`] world the executor ([`crate::exec`]) drives.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use condmsg::{Condition, ConditionalMessenger, Destination, DestinationSet};
use dsphere::DSphereService;
use mq::channel::Channel;
use mq::journal::MemJournal;
use mq::transport::tcp::{TcpAcceptor, TcpConfig};
use mq::{Obs, QueueManager};
use simtime::{Millis, SimClock};

use crate::error::{spec_err, ScenarioResult};
use crate::spec::{
    AckMode, ActorSpec, ConditionSpec, DelaySpec, DestSpec, FaultActionSpec, ScenarioSpec,
    SetSpec, TriggerSpec,
};
use crate::spec::{expand_idx, expand_msg};

/// TCP tuned for loopback chaos runs: fast reconnect so crash-rebuild
/// and kicked connections heal well inside a wait's no-progress bound.
pub(crate) fn scenario_tcp_config() -> TcpConfig {
    TcpConfig {
        connect_timeout: std::time::Duration::from_millis(1_000),
        read_timeout: std::time::Duration::from_millis(1_500),
        heartbeat_interval: std::time::Duration::from_millis(200),
        backoff_initial: std::time::Duration::from_millis(5),
        backoff_max: std::time::Duration::from_millis(100),
        expected_peer: None,
    }
}

/// One live queue manager plus everything needed to crash-rebuild it.
pub(crate) struct ManagerRt {
    pub(crate) qmgr: Arc<QueueManager>,
    /// The journal shared across rebuilds — recovery replays it — and the
    /// storage-fault surface `journal:<manager>` points script.
    pub(crate) journal: Arc<MemJournal>,
    /// The listener of a manager some channel targets — the `tcp:<manager>`
    /// fault point — and its address, rebound on crash-rebuild.
    pub(crate) acceptor: Option<Arc<TcpAcceptor>>,
    pub(crate) addr: Option<SocketAddr>,
    /// Application queues declared on this manager (re-ensured on rebuild).
    pub(crate) queues: Vec<String>,
}

/// One expanded channel declaration (a single `from -> to` edge).
#[derive(Debug, Clone)]
pub(crate) struct ChannelDecl {
    pub(crate) from: String,
    pub(crate) to: String,
    pub(crate) from_start: bool,
}

/// A connected channel, kept alive for the run.
pub(crate) struct ChannelRt {
    pub(crate) decl: ChannelDecl,
    /// Held so the mover thread outlives compilation; never read.
    pub(crate) _channel: Channel,
}

/// One expanded routing declaration.
#[derive(Debug, Clone)]
pub(crate) struct RouteDecl {
    pub(crate) manager: String,
    pub(crate) to: Option<String>,
    pub(crate) via: Vec<String>,
}

/// Where a fault lands, resolved from the `point` syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PointKind {
    /// `tcp:<manager>` — that manager's acceptor.
    Tcp { manager: String },
    /// `journal:<manager>` — that manager's in-memory journal.
    Journal { manager: String },
    /// `crash:<manager>` — executor-level crash-and-rebuild.
    Crash { manager: String },
}

/// A fault trigger with fractions resolved to absolute send indexes.
#[derive(Debug, Clone)]
pub(crate) enum ResolvedTrigger {
    /// Fire just before the send with this global index.
    AtSend(u64),
    /// Fire once the scenario clock reaches this time.
    AtMs(u64),
    /// Fire once a queue's depth reaches the threshold.
    WhenDepth {
        manager: String,
        queue: String,
        min_depth: u64,
    },
}

/// One scheduled fault, ready to fire.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFault {
    pub(crate) point: PointKind,
    pub(crate) action: FaultActionSpec,
    pub(crate) trigger: ResolvedTrigger,
}

/// One acknowledging receiver over a single concrete queue.
#[derive(Debug, Clone)]
pub(crate) struct AckerRt {
    pub(crate) manager: String,
    pub(crate) queue: String,
    pub(crate) recipient: Option<String>,
    pub(crate) mode: AckMode,
    pub(crate) delay: DelaySpec,
}

/// One actor with its per-run message count resolved.
#[derive(Debug, Clone)]
pub(crate) struct ActorRt {
    pub(crate) spec: ActorSpec,
    pub(crate) count: u64,
    /// Worst-case milliseconds from send to a deadline-driven verdict for
    /// this actor's condition shape, or to its sphere's timeout: how far
    /// the executor's final advance must reach.
    pub(crate) horizon_ms: u64,
}

/// A compiled, live scenario world.
pub struct Compiled {
    /// The one clock every manager runs on; only the executor moves it.
    pub(crate) clock: Arc<SimClock>,
    pub(crate) obs: Arc<Obs>,
    pub(crate) managers: HashMap<String, ManagerRt>,
    pub(crate) channels: Vec<ChannelRt>,
    /// Every expanded channel edge, including deferred ones — consulted
    /// when a manager is crash-rebuilt to re-establish its outbound edges.
    pub(crate) decls: Vec<ChannelDecl>,
    pub(crate) routes: Vec<RouteDecl>,
    pub(crate) messengers: HashMap<String, Arc<ConditionalMessenger>>,
    pub(crate) spheres: HashMap<String, Arc<DSphereService>>,
    pub(crate) faults: Vec<CompiledFault>,
    pub(crate) actors: Vec<ActorRt>,
    pub(crate) ackers: Vec<AckerRt>,
    /// `(manager, queue)` → index into `ackers`.
    pub(crate) ack_plan: HashMap<(String, String), usize>,
    pub(crate) oracle: crate::spec::OracleSpec,
}

impl Compiled {
    /// The shared observability hub all managers report into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The depth of `queue` on `manager`, if both exist.
    pub(crate) fn depth(&self, manager: &str, queue: &str) -> Option<u64> {
        let queue = self.managers.get(manager)?.qmgr.queue(queue).ok()?;
        Some(queue.depth() as u64)
    }
}

/// Compiles `spec` into a live world. `quick` selects the actors'
/// `quick_count` populations and scales fractional fault triggers.
///
/// # Errors
///
/// [`crate::ScenarioError::Spec`] for dangling references (a channel to
/// an undeclared manager, a storage fault on an undeclared manager, …) and
/// any harness error while building the world.
pub fn compile(spec: &ScenarioSpec, quick: bool) -> ScenarioResult<Compiled> {
    spec.validate()?;
    let clock = SimClock::new();
    let obs = Arc::new(Obs::default());

    let mut managers: HashMap<String, ManagerRt> = HashMap::new();
    for block in &spec.managers {
        for i in block.offset..block.offset + block.count {
            let name = expand_idx(&block.name, i);
            if managers.contains_key(&name) {
                return Err(spec_err(format!("duplicate manager `{name}`")));
            }
            let journal = MemJournal::new();
            let qmgr = QueueManager::builder(&name)
                .clock(clock.clone())
                .obs(obs.clone())
                .journal(journal.clone())
                .build()?;
            managers.insert(
                name,
                ManagerRt {
                    qmgr,
                    journal,
                    acceptor: None,
                    addr: None,
                    queues: Vec::new(),
                },
            );
        }
    }

    for block in &spec.queues {
        for i in block.offset..block.offset + block.count {
            let mgr_name = expand_idx(&block.manager, i);
            let q_name = expand_idx(&block.name, i);
            let rt = managers
                .get_mut(&mgr_name)
                .ok_or_else(|| spec_err(format!("queue on undeclared manager `{mgr_name}`")))?;
            rt.qmgr.ensure_queue(&q_name)?;
            rt.queues.push(q_name);
        }
    }

    // Expand channel edges, bind one acceptor on every manager an edge
    // targets, and connect the from-start edges now.
    let mut decls = Vec::new();
    for block in &spec.channels {
        for i in block.offset..block.offset + block.count {
            decls.push(ChannelDecl {
                from: expand_idx(&block.from, i),
                to: expand_idx(&block.to, i),
                from_start: block.from_start,
            });
        }
    }
    for decl in &decls {
        let rt = managers
            .get_mut(&decl.to)
            .ok_or_else(|| spec_err(format!("channel to undeclared manager `{}`", decl.to)))?;
        if rt.acceptor.is_none() {
            let acceptor = TcpAcceptor::bind(&rt.qmgr, "127.0.0.1:0")?;
            rt.addr = Some(acceptor.local_addr());
            rt.acceptor = Some(acceptor);
        }
    }
    let mut channels = Vec::new();
    for decl in &decls {
        if decl.from_start {
            channels.push(connect_edge(&managers, decl)?);
        }
    }

    // Routing declarations come after channels: a later `define_route` /
    // group on the same remote overrides the channel's auto-route, which
    // is how federation topologies (spoke -> relay -> hub) are declared.
    let mut routes = Vec::new();
    for block in &spec.routes {
        for i in block.offset..block.offset + block.count {
            routes.push(RouteDecl {
                manager: expand_idx(&block.manager, i),
                to: block.to.as_ref().map(|t| expand_idx(t, i)),
                via: block.via.iter().map(|v| expand_idx(v, i)).collect(),
            });
        }
    }
    for route in &routes {
        apply_route(&managers, route)?;
    }

    // One messenger per sending manager. Acks evaluate on arrival and
    // deadline verdicts and retries fire from armed timers: no messenger
    // runs a thread.
    let mut messengers: HashMap<String, Arc<ConditionalMessenger>> = HashMap::new();
    let mut spheres: HashMap<String, Arc<DSphereService>> = HashMap::new();
    let mut actors = Vec::new();
    let mut total_sends = 0_u64;
    for actor in &spec.actors {
        let rt = managers
            .get(&actor.manager)
            .ok_or_else(|| spec_err(format!("actor on undeclared manager `{}`", actor.manager)))?;
        if !messengers.contains_key(&actor.manager) {
            let messenger = ConditionalMessenger::new(rt.qmgr.clone())?;
            messengers.insert(actor.manager.clone(), messenger);
        }
        if matches!(actor.mode, crate::spec::ActorMode::Sphere { .. })
            && !spheres.contains_key(&actor.manager)
        {
            let messenger = &messengers[&actor.manager];
            spheres.insert(actor.manager.clone(), DSphereService::new(messenger.clone()));
        }
        let count = actor.resolved_count(quick);
        total_sends += count;
        let sphere_timeout_ms = match actor.mode {
            crate::spec::ActorMode::Sphere { timeout_ms } => timeout_ms,
            crate::spec::ActorMode::Send => 0,
        };
        actors.push(ActorRt {
            spec: actor.clone(),
            count,
            horizon_ms: (condition_horizon_ms(&actor.condition)
                + actor.evaluation_timeout_ms.unwrap_or(0))
            .max(sphere_timeout_ms),
        });
    }

    // Acknowledging receivers, one per concrete queue.
    let mut ackers = Vec::new();
    let mut ack_plan = HashMap::new();
    for block in &spec.ackers {
        for i in block.offset..block.offset + block.count {
            let mgr_name = expand_idx(&block.manager, i);
            let q_name = expand_idx(&block.queue, i);
            let rt = managers
                .get(&mgr_name)
                .ok_or_else(|| spec_err(format!("acker on undeclared manager `{mgr_name}`")))?;
            if !rt.queues.iter().any(|q| q == &q_name) {
                return Err(spec_err(format!(
                    "acker on undeclared queue `{q_name}` of `{mgr_name}`"
                )));
            }
            let idx = ackers.len();
            ackers.push(AckerRt {
                manager: mgr_name.clone(),
                queue: q_name.clone(),
                recipient: block.recipient.as_ref().map(|r| expand_idx(r, i)),
                mode: block.mode,
                delay: block.delay.clone(),
            });
            if ack_plan.insert((mgr_name, q_name), idx).is_some() {
                return Err(spec_err("two ackers over the same queue"));
            }
        }
    }

    let mut faults = Vec::new();
    for fault in &spec.faults {
        let point = parse_point(&fault.point)?;
        validate_point(&point, &fault.action, &managers, &actors, &ackers)?;
        let trigger = match &fault.trigger {
            TriggerSpec::AtMs(ms) => ResolvedTrigger::AtMs(*ms),
            TriggerSpec::AfterFraction(f) => {
                let at = ((total_sends as f64) * f).ceil() as u64;
                ResolvedTrigger::AtSend(at.min(total_sends))
            }
            TriggerSpec::WhenDepth {
                manager,
                queue,
                min_depth,
            } => {
                if !managers.contains_key(manager) {
                    return Err(spec_err(format!(
                        "fault trigger watches undeclared manager `{manager}`"
                    )));
                }
                ResolvedTrigger::WhenDepth {
                    manager: manager.clone(),
                    queue: queue.clone(),
                    min_depth: *min_depth,
                }
            }
        };
        faults.push(CompiledFault {
            point,
            action: fault.action,
            trigger,
        });
    }

    Ok(Compiled {
        clock,
        obs,
        managers,
        channels,
        decls,
        routes,
        messengers,
        spheres,
        faults,
        actors,
        ackers,
        ack_plan,
        oracle: spec.oracle.clone(),
    })
}

/// Connects one expanded edge to its target's acceptor.
pub(crate) fn connect_edge(
    managers: &HashMap<String, ManagerRt>,
    decl: &ChannelDecl,
) -> ScenarioResult<ChannelRt> {
    let from = managers
        .get(&decl.from)
        .ok_or_else(|| spec_err(format!("channel from undeclared manager `{}`", decl.from)))?;
    let addr = managers
        .get(&decl.to)
        .and_then(|to| to.addr)
        .ok_or_else(|| spec_err(format!("channel to `{}`, which binds no acceptor", decl.to)))?;
    let channel = Channel::connect_tcp(&from.qmgr, &decl.to, addr, scenario_tcp_config())?;
    Ok(ChannelRt {
        decl: decl.clone(),
        _channel: channel,
    })
}

/// Applies one routing declaration to its manager.
pub(crate) fn apply_route(
    managers: &HashMap<String, ManagerRt>,
    route: &RouteDecl,
) -> ScenarioResult<()> {
    let rt = managers
        .get(&route.manager)
        .ok_or_else(|| spec_err(format!("route on undeclared manager `{}`", route.manager)))?;
    match (&route.to, route.via.len()) {
        (_, 0) => Err(spec_err("route with empty `via`")),
        (Some(to), 1) => Ok(rt.qmgr.define_route(to, &route.via[0])?),
        (Some(to), _) => Ok(rt.qmgr.define_route_group(to, &route.via)?),
        (None, _) => Ok(rt.qmgr.define_default_route(&route.via)?),
    }
}

fn parse_point(point: &str) -> ScenarioResult<PointKind> {
    let (kind, rest) = point
        .split_once(':')
        .ok_or_else(|| spec_err(format!("fault point `{point}` has no `kind:` prefix")))?;
    match kind {
        "tcp" => Ok(PointKind::Tcp {
            manager: rest.to_owned(),
        }),
        "journal" => Ok(PointKind::Journal {
            manager: rest.to_owned(),
        }),
        "crash" => Ok(PointKind::Crash {
            manager: rest.to_owned(),
        }),
        other => Err(spec_err(format!("unknown fault point kind `{other}`"))),
    }
}

fn validate_point(
    point: &PointKind,
    action: &FaultActionSpec,
    managers: &HashMap<String, ManagerRt>,
    actors: &[ActorRt],
    ackers: &[AckerRt],
) -> ScenarioResult<()> {
    match point {
        PointKind::Tcp { manager } => {
            let ok = managers.get(manager).is_some_and(|m| m.acceptor.is_some());
            if !ok {
                return Err(spec_err(format!(
                    "fault point tcp:{manager} matches no manager a channel targets"
                )));
            }
        }
        PointKind::Journal { manager } => {
            if !managers.contains_key(manager) {
                return Err(spec_err(format!(
                    "fault point journal:{manager} matches no manager"
                )));
            }
        }
        PointKind::Crash { manager } => {
            if !managers.contains_key(manager) {
                return Err(spec_err(format!(
                    "fault point crash:{manager} matches no manager"
                )));
            }
            if !matches!(action, FaultActionSpec::CrashRebuild) {
                return Err(spec_err("crash: points only take action crash_rebuild"));
            }
            if actors.iter().any(|a| a.spec.manager == *manager) {
                return Err(spec_err(format!(
                    "crash:{manager} targets a manager hosting actors; only pure relays \
                     can be crash-rebuilt"
                )));
            }
            if ackers.iter().any(|a| a.manager == *manager) {
                return Err(spec_err(format!(
                    "crash:{manager} targets a manager hosting ackers; their receivers \
                     would be left holding the dead manager"
                )));
            }
        }
    }
    Ok(())
}

/// Instantiates the condition tree for message `i` of an actor.
pub(crate) fn build_condition(spec: &ConditionSpec, i: u64) -> Condition {
    match spec {
        ConditionSpec::Dest(d) => Condition::from(build_dest(d, i, d.offset)),
        ConditionSpec::Set(s) => Condition::from(build_set(s, i)),
    }
}

fn build_dest(d: &DestSpec, i: u64, m: u64) -> Destination {
    let mut dest = Destination::queue(expand_msg(&d.manager, i, m), expand_msg(&d.queue, i, m));
    if let Some(r) = &d.recipient {
        dest = dest.recipient(expand_msg(r, i, m));
    }
    if let Some(ms) = d.pickup_within_ms {
        dest = dest.pickup_within(Millis(ms));
    }
    if let Some(ms) = d.process_within_ms {
        dest = dest.process_within(Millis(ms));
    }
    dest
}

fn build_set(s: &SetSpec, i: u64) -> DestinationSet {
    let mut members = Vec::new();
    for member in &s.members {
        match member {
            ConditionSpec::Dest(d) => {
                for m in d.offset..d.offset + d.count {
                    members.push(Condition::from(build_dest(d, i, m)));
                }
            }
            ConditionSpec::Set(inner) => members.push(Condition::from(build_set(inner, i))),
        }
    }
    let mut set = DestinationSet::of(members);
    if let Some(ms) = s.pickup_within_ms {
        set = set.pickup_within(Millis(ms));
    }
    if let Some(ms) = s.process_within_ms {
        set = set.process_within(Millis(ms));
    }
    if let Some(n) = s.min_pickup {
        set = set.min_pickup(n);
    }
    if let Some(n) = s.max_pickup {
        set = set.max_pickup(n);
    }
    if let Some(n) = s.min_process {
        set = set.min_process(n);
    }
    if let Some(n) = s.max_process {
        set = set.max_process(n);
    }
    set
}

/// Worst-case milliseconds from send to a deadline verdict: the longest
/// pickup window plus the longest process window anywhere in the tree.
pub(crate) fn condition_horizon_ms(spec: &ConditionSpec) -> u64 {
    fn walk(spec: &ConditionSpec, pickup: &mut u64, process: &mut u64) {
        match spec {
            ConditionSpec::Dest(d) => {
                *pickup = (*pickup).max(d.pickup_within_ms.unwrap_or(0));
                *process = (*process).max(d.process_within_ms.unwrap_or(0));
            }
            ConditionSpec::Set(s) => {
                *pickup = (*pickup).max(s.pickup_within_ms.unwrap_or(0));
                *process = (*process).max(s.process_within_ms.unwrap_or(0));
                for m in &s.members {
                    walk(m, pickup, process);
                }
            }
        }
    }
    let (mut pickup, mut process) = (0, 0);
    walk(spec, &mut pickup, &mut process);
    pickup + process
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
name = "tiny"

[[managers]]
name = "QM.{i}"
count = 2

[[queues]]
manager = "QM.1"
name = "Q.APP"

[[channels]]
from = "QM.0"
to = "QM.1"

[[actors]]
name = "a"
manager = "QM.0"
count = 3

[actors.condition]
manager = "QM.1"
queue = "Q.APP"
pickup_within_ms = 500

[[ackers]]
manager = "QM.1"
queue = "Q.APP"
"#;

    /// The tiny scenario with `extra` TOML appended.
    fn tiny_spec(extra: &str) -> ScenarioSpec {
        ScenarioSpec::from_toml_str(&format!("{TINY}{extra}")).unwrap()
    }

    #[test]
    fn compiles_and_expands() {
        let world = compile(&tiny_spec(""), false).unwrap();
        assert_eq!(world.managers.len(), 2);
        assert!(world.managers.contains_key("QM.0"));
        assert!(world.managers.contains_key("QM.1"));
        assert_eq!(world.channels.len(), 1);
        assert_eq!(world.actors.iter().map(|a| a.count).sum::<u64>(), 3);
        assert_eq!(world.ackers.len(), 1);
        assert_eq!(world.ack_plan[&("QM.1".to_owned(), "Q.APP".to_owned())], 0);
        assert!(world.messengers.contains_key("QM.0"));
        for (_, m) in world.managers {
            m.qmgr.shutdown();
        }
    }

    #[test]
    fn rejects_dangling_references() {
        let spec = tiny_spec("[[queues]]\nmanager = \"QM.9\"\nname = \"Q.X\"\n");
        let Err(e) = compile(&spec, false) else {
            panic!("expected a dangling-reference error");
        };
        assert!(e.to_string().contains("QM.9"), "{e}");
    }

    #[test]
    fn rejects_crash_on_actor_manager() {
        let spec = tiny_spec(
            "[[faults]]\npoint = \"crash:QM.0\"\naction = \"crash_rebuild\"\nafter_fraction = 0.5\n",
        );
        let Err(e) = compile(&spec, false) else {
            panic!("expected a crash-target error");
        };
        assert!(e.to_string().contains("hosting actors"), "{e}");
    }

    #[test]
    fn fraction_triggers_resolve_to_send_indexes() {
        let spec = tiny_spec(
            "[[faults]]\npoint = \"tcp:QM.1\"\naction = \"partition\"\nafter_fraction = 0.5\n",
        );
        let world = compile(&spec, false).unwrap();
        match &world.faults[0].trigger {
            ResolvedTrigger::AtSend(n) => assert_eq!(*n, 2),
            other => panic!("unexpected trigger {other:?}"),
        }
        for (_, m) in world.managers {
            m.qmgr.shutdown();
        }
    }

    #[test]
    fn condition_instantiation_expands_members() {
        let scenario = tiny_spec(
            r#"
[[actors]]
name = "fan"
manager = "QM.0"

[actors.condition]
kind = "set"
pickup_within_ms = 500

[[actors.condition.members]]
manager = "QM.B{m}"
queue = "Q.SYNC"
count = 3
"#,
        );
        let spec = &scenario.actors[1].condition;
        let cond = build_condition(spec, 7);
        let leaves = cond.leaves();
        assert_eq!(leaves.len(), 3);
        assert_eq!(leaves[0].address().manager, "QM.B0");
        assert_eq!(leaves[2].address().manager, "QM.B2");
        assert_eq!(condition_horizon_ms(spec), 500);
    }
}
