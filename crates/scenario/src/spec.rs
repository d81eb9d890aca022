//! The typed scenario model: what a `.toml` scenario file declares,
//! decoded by [`ScenarioSpec::from_toml_str`] before compilation onto
//! the harness.
//!
//! A scenario names managers and their topology, queues, actor
//! populations with templated condition trees, acknowledgment behaviors
//! with latency distributions, a failure schedule, and the oracle's
//! expectations. Templates in names and payloads are expanded per index:
//! `{i}` is the entity index (message index inside actors, queue index
//! inside queues/ackers, manager index inside manager blocks), `{m}` is
//! the member index inside a destination-set fan, and `{i%N}` /`{m%N}`
//! take the index modulo `N`.

use crate::error::{spec_err, ScenarioResult};
use crate::toml::{self, Value};

// ------------------------------------------------------------ expansion --

/// Expands `{var}` / `{var%N}` placeholders using the given variable
/// bindings; unknown placeholders are left verbatim.
pub fn expand_vars(template: &str, vars: &[(char, u64)]) -> String {
    let chars: Vec<char> = template.chars().collect();
    let mut out = String::with_capacity(template.len() + 8);
    let mut k = 0;
    while k < chars.len() {
        if chars[k] == '{' {
            if let Some(close) = chars[k..].iter().position(|c| *c == '}') {
                let inner: String = chars[k + 1..k + close].iter().collect();
                if let Some(rep) = expand_one(&inner, vars) {
                    out.push_str(&rep);
                    k += close + 1;
                    continue;
                }
            }
        }
        out.push(chars[k]);
        k += 1;
    }
    out
}

fn expand_one(inner: &str, vars: &[(char, u64)]) -> Option<String> {
    let (name, modulus) = match inner.split_once('%') {
        Some((n, m)) => (n, Some(m.trim().parse::<u64>().ok()?)),
        None => (inner, None),
    };
    let name = name.trim();
    let mut it = name.chars();
    let c = it.next()?;
    if it.next().is_some() {
        return None;
    }
    let val = vars.iter().find(|(n, _)| *n == c)?.1;
    Some(match modulus {
        Some(m) if m > 0 => (val % m).to_string(),
        _ => val.to_string(),
    })
}

/// Expands a template over a single entity index `i`.
pub fn expand_idx(template: &str, i: u64) -> String {
    expand_vars(template, &[('i', i)])
}

/// Expands a template over a message index `i` and a member index `m`.
pub fn expand_msg(template: &str, i: u64, m: u64) -> String {
    expand_vars(template, &[('i', i), ('m', m)])
}

// ----------------------------------------------------------- spec types --

/// One queue-manager population (templated over `{i}` when `count > 1`).
#[derive(Debug, Clone)]
pub struct ManagerSpec {
    /// Manager name template.
    pub name: String,
    /// Number of managers this block expands to.
    pub count: u64,
    /// Starting index for `{i}`.
    pub offset: u64,
}

/// One application-queue population on a manager.
#[derive(Debug, Clone)]
pub struct QueueSpec {
    /// Owning manager (template over `{i}`).
    pub manager: String,
    /// Queue name template.
    pub name: String,
    /// Number of queues this block expands to.
    pub count: u64,
    /// Starting index for `{i}`.
    pub offset: u64,
}

/// One unidirectional channel population between managers, each channel
/// over loopback TCP to an acceptor on its receiving manager.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// Sending manager (template over `{i}`).
    pub from: String,
    /// Receiving manager (template over `{i}`).
    pub to: String,
    /// Whether the channel is connected at scenario start. Deferred
    /// channels (`false`) are connected only when their `from` manager
    /// goes through a `crash_rebuild` fault — the Fig. 8 "crashed
    /// mid-handoff" construction.
    pub from_start: bool,
    /// Number of channels this block expands to.
    pub count: u64,
    /// Starting index for `{i}`.
    pub offset: u64,
}

/// One routing declaration on a manager.
#[derive(Debug, Clone)]
pub struct RouteSpec {
    /// Manager the route is defined on (template over `{i}`).
    pub manager: String,
    /// Remote manager the route targets (template over `{i}`); `None`
    /// declares the manager's *default* route instead.
    pub to: Option<String>,
    /// Transmission queues the route spreads over (a single entry is a
    /// plain route; several form a route group).
    pub via: Vec<String>,
    /// Number of routes this block expands to.
    pub count: u64,
    /// Starting index for `{i}`.
    pub offset: u64,
}

/// A condition-tree shape, templated over the message index `{i}` and
/// (inside set fans) the member index `{m}`.
#[derive(Debug, Clone)]
pub enum ConditionSpec {
    /// A single-destination condition.
    Dest(DestSpec),
    /// A destination-set condition.
    Set(SetSpec),
}

/// A destination leaf (or a fan of leaves when used as a set member with
/// `count > 1`).
#[derive(Debug, Clone)]
pub struct DestSpec {
    /// Destination manager (template).
    pub manager: String,
    /// Destination queue (template).
    pub queue: String,
    /// Required recipient identity (template), if any.
    pub recipient: Option<String>,
    /// Pick-up window.
    pub pickup_within_ms: Option<u64>,
    /// Processing window.
    pub process_within_ms: Option<u64>,
    /// Fan width when this appears as a set member: expands to `count`
    /// leaves with `{m}` bound to `offset..offset+count`.
    pub count: u64,
    /// Starting member index for `{m}`.
    pub offset: u64,
}

/// A destination-set node.
#[derive(Debug, Clone)]
pub struct SetSpec {
    /// Member conditions (leaf fans or nested sets).
    pub members: Vec<ConditionSpec>,
    /// Set-level pick-up window.
    pub pickup_within_ms: Option<u64>,
    /// Set-level processing window.
    pub process_within_ms: Option<u64>,
    /// Minimum pick-ups required.
    pub min_pickup: Option<u32>,
    /// Maximum pick-ups allowed.
    pub max_pickup: Option<u32>,
    /// Minimum processings required.
    pub min_process: Option<u32>,
    /// Maximum processings allowed.
    pub max_process: Option<u32>,
}

/// How an actor produces its messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorMode {
    /// Plain conditional sends.
    Send,
    /// Each "message" is one dependency-sphere round containing a single
    /// conditional send, committed (or aborted) before the next round.
    Sphere {
        /// Sphere timeout; pending member verdicts past it are
        /// force-failed and the sphere aborts.
        timeout_ms: u64,
    },
}

/// The declared per-message expectation the oracle enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every message must reach `Success`.
    Success,
    /// Every message must reach `Failure` (and its compensation path).
    Failure,
    /// Outcomes follow the sampled acknowledgment delays: the executor
    /// computes the exact expected success/failure split from the seeded
    /// samples and the pick-up window. Requires a root `dest` condition
    /// with `pickup_within_ms`.
    Sampled,
    /// Every send must fail at the send call itself (storage faults).
    SendError,
    /// Every sphere round must commit.
    Commit,
    /// Every sphere round must abort.
    Abort,
}

/// One actor population: a templated stream of conditional messages (or
/// sphere rounds) with a declared expectation.
#[derive(Debug, Clone)]
pub struct ActorSpec {
    /// Actor name (diagnostics and oracle rows).
    pub name: String,
    /// Manager the actor sends from.
    pub manager: String,
    /// Messages (or sphere rounds) in a full run.
    pub count: u64,
    /// Override for `--quick` runs.
    pub quick_count: Option<u64>,
    /// Payload template (`{i}`).
    pub payload: String,
    /// Compensation payload template, if the sends carry one.
    pub compensation: Option<String>,
    /// Send or sphere mode.
    pub mode: ActorMode,
    /// Declared expectation.
    pub expect: Expect,
    /// Per-send evaluation timeout.
    pub evaluation_timeout_ms: Option<u64>,
    /// The condition-tree shape.
    pub condition: ConditionSpec,
}

impl ActorSpec {
    /// Message count for this run mode.
    pub fn resolved_count(&self, quick: bool) -> u64 {
        if quick {
            self.quick_count.unwrap_or(self.count)
        } else {
            self.count
        }
    }
}

/// Acknowledgment latency distribution (seeded, deterministic).
#[derive(Debug, Clone)]
pub enum DelaySpec {
    /// Fixed delay.
    Fixed {
        /// Delay in milliseconds.
        ms: u64,
    },
    /// Uniform over `[min_ms, max_ms]`.
    Uniform {
        /// Inclusive lower bound.
        min_ms: u64,
        /// Inclusive upper bound.
        max_ms: u64,
    },
    /// Heavy-tailed Pareto: `scale_ms / u^(1/alpha)`, capped.
    Pareto {
        /// Scale (the distribution's minimum).
        scale_ms: f64,
        /// Tail exponent; smaller is heavier.
        alpha: f64,
        /// Hard cap on sampled delays.
        cap_ms: u64,
    },
}

/// What an acknowledging receiver does with each message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Non-transactional read (read-ack only).
    Read,
    /// Transactional read + commit (read-ack then process-ack).
    Process,
}

/// One acknowledging-receiver population over a queue fan.
#[derive(Debug, Clone)]
pub struct AckerSpec {
    /// Manager the queues live on (template over `{i}`).
    pub manager: String,
    /// Queue name template.
    pub queue: String,
    /// Receiver identity template, if acks must carry one.
    pub recipient: Option<String>,
    /// Read or process behavior.
    pub mode: AckMode,
    /// Latency distribution before each read.
    pub delay: DelaySpec,
    /// Number of queues covered.
    pub count: u64,
    /// Starting index for `{i}`.
    pub offset: u64,
}

/// A fault action, mirroring [`mq::FaultAction`] plus the executor-level
/// crash-and-rebuild recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultActionSpec {
    /// Partition the fault point.
    Partition,
    /// Heal a partition.
    Heal,
    /// Drop the next `n` transfers.
    DropNext(u64),
    /// Kick all live connections.
    KickConnections,
    /// Tear the newest journal record off.
    TearJournalTail,
    /// Start failing journal appends.
    FailStorage,
    /// Stop failing journal appends.
    HealStorage,
    /// Crash the manager and rebuild it from its journal (same name,
    /// same address, deferred channels connected, routes reapplied).
    CrashRebuild,
}

/// When a fault fires.
#[derive(Debug, Clone)]
pub enum TriggerSpec {
    /// At this many milliseconds of scenario clock.
    AtMs(u64),
    /// Just before the send whose global index is this fraction of the
    /// total planned sends (scales with `--quick`).
    AfterFraction(f64),
    /// When a queue's depth first reaches `min_depth`.
    WhenDepth {
        /// Manager owning the queue.
        manager: String,
        /// Queue name.
        queue: String,
        /// Depth threshold.
        min_depth: u64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Fault point: `tcp:<manager>` (the acceptor every channel into
    /// that manager connects to), `journal:<manager>`, or
    /// `crash:<manager>`.
    pub point: String,
    /// The action.
    pub action: FaultActionSpec,
    /// When it fires.
    pub trigger: TriggerSpec,
}

/// A minimum-value assertion on a run-wide metric counter.
#[derive(Debug, Clone)]
pub struct MetricExpect {
    /// Metric name (validated against `mq::obs`'s registry by cond-verify).
    pub metric: String,
    /// Minimum value after the run.
    pub min: u64,
}

/// The oracle's declared expectations beyond per-actor outcomes.
#[derive(Debug, Clone)]
pub struct OracleSpec {
    /// Metric floors.
    pub metrics: Vec<MetricExpect>,
    /// Trace stages that must appear in the lifecycle trace.
    pub stages: Vec<String>,
}

/// A complete scenario declaration.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name.
    pub name: String,
    /// Seed for every deterministic sampler in the run.
    pub seed: u64,
    /// Manager populations.
    pub managers: Vec<ManagerSpec>,
    /// Queue populations.
    pub queues: Vec<QueueSpec>,
    /// Channel populations.
    pub channels: Vec<ChannelSpec>,
    /// Routing declarations.
    pub routes: Vec<RouteSpec>,
    /// Actor populations.
    pub actors: Vec<ActorSpec>,
    /// Acknowledging receivers.
    pub ackers: Vec<AckerSpec>,
    /// Failure schedule.
    pub faults: Vec<FaultSpec>,
    /// Oracle expectations.
    pub oracle: OracleSpec,
}

impl ScenarioSpec {
    /// Parses a scenario from TOML source.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Toml`](crate::ScenarioError::Toml) on syntax errors,
    /// [`ScenarioError::Spec`](crate::ScenarioError::Spec)
    /// on structural problems.
    pub fn from_toml_str(src: &str) -> ScenarioResult<ScenarioSpec> {
        let root = toml::parse(src)?;
        decode_scenario(&root)
    }

    /// Structural validation beyond what decoding enforces.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`](crate::ScenarioError::Spec) naming the
    /// violation.
    pub fn validate(&self) -> ScenarioResult<()> {
        if self.managers.is_empty() {
            return Err(spec_err("scenario declares no managers"));
        }
        if self.actors.is_empty() {
            return Err(spec_err("scenario declares no actors"));
        }
        for a in &self.actors {
            if matches!(a.expect, Expect::Sampled) {
                let ok = matches!(
                    &a.condition,
                    ConditionSpec::Dest(d) if d.pickup_within_ms.is_some() && d.count == 1
                );
                if !ok {
                    return Err(spec_err(format!(
                        "actor `{}`: expect=\"sampled\" requires a single-destination \
                         condition with pickup_within_ms",
                        a.name
                    )));
                }
            }
            let sphere_expect = matches!(a.expect, Expect::Commit | Expect::Abort);
            let sphere_mode = matches!(a.mode, ActorMode::Sphere { .. });
            if sphere_expect != sphere_mode {
                return Err(spec_err(format!(
                    "actor `{}`: commit/abort expectations and sphere mode go together",
                    a.name
                )));
            }
            if let ConditionSpec::Dest(d) = &a.condition {
                if d.count != 1 {
                    return Err(spec_err(format!(
                        "actor `{}`: a root dest condition cannot fan (count must be 1)",
                        a.name
                    )));
                }
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------- toml decoding --

fn want_table<'v>(v: &'v Value, ctx: &str) -> ScenarioResult<&'v Value> {
    if v.as_table().is_some() {
        Ok(v)
    } else {
        Err(spec_err(format!("{ctx}: expected a table, got {}", v.type_name())))
    }
}

fn known_keys(v: &Value, allowed: &[&str], ctx: &str) -> ScenarioResult<()> {
    if let Some(t) = v.as_table() {
        for k in t.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(spec_err(format!("{ctx}: unknown key `{k}`")));
            }
        }
    }
    Ok(())
}

fn req_str(v: &Value, key: &str, ctx: &str) -> ScenarioResult<String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| spec_err(format!("{ctx}: missing string key `{key}`")))
}

fn opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_owned)
}

fn opt_u64(v: &Value, key: &str, ctx: &str) -> ScenarioResult<Option<u64>> {
    match v.get(key) {
        None => Ok(None),
        Some(val) => match val.as_int() {
            Some(n) if n >= 0 => Ok(Some(n as u64)),
            _ => Err(spec_err(format!(
                "{ctx}: `{key}` must be a non-negative integer"
            ))),
        },
    }
}

fn u64_or(v: &Value, key: &str, default: u64, ctx: &str) -> ScenarioResult<u64> {
    Ok(opt_u64(v, key, ctx)?.unwrap_or(default))
}

fn opt_u32(v: &Value, key: &str, ctx: &str) -> ScenarioResult<Option<u32>> {
    Ok(opt_u64(v, key, ctx)?.map(|n| n as u32))
}

fn f64_or(v: &Value, key: &str, default: f64, ctx: &str) -> ScenarioResult<f64> {
    match v.get(key) {
        None => Ok(default),
        Some(val) => val
            .as_float()
            .ok_or_else(|| spec_err(format!("{ctx}: `{key}` must be a number"))),
    }
}

fn bool_or(v: &Value, key: &str, default: bool, ctx: &str) -> ScenarioResult<bool> {
    match v.get(key) {
        None => Ok(default),
        Some(val) => val
            .as_bool()
            .ok_or_else(|| spec_err(format!("{ctx}: `{key}` must be a boolean"))),
    }
}

fn str_array(v: &Value, key: &str, ctx: &str) -> ScenarioResult<Vec<String>> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| spec_err(format!("{ctx}: missing array key `{key}`")))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        out.push(
            item.as_str()
                .map(str::to_owned)
                .ok_or_else(|| spec_err(format!("{ctx}: `{key}` entries must be strings")))?,
        );
    }
    Ok(out)
}

fn blocks<'v>(root: &'v Value, key: &str) -> ScenarioResult<Vec<&'v Value>> {
    match root.get(key) {
        None => Ok(Vec::new()),
        Some(Value::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for (k, item) in items.iter().enumerate() {
                out.push(want_table(item, &format!("[[{key}]] #{k}"))?);
            }
            Ok(out)
        }
        Some(other) => Err(spec_err(format!(
            "`{key}` must be an array of tables, got {}",
            other.type_name()
        ))),
    }
}

fn decode_scenario(root: &Value) -> ScenarioResult<ScenarioSpec> {
    known_keys(
        root,
        &[
            "name", "seed", "managers", "queues", "channels", "routes", "actors", "ackers",
            "faults", "oracle",
        ],
        "scenario",
    )?;
    let name = req_str(root, "name", "scenario")?;
    let seed = u64_or(root, "seed", 1, "scenario")?;

    let empty = Value::Table(Default::default());
    let oracle = match root.get("oracle") {
        Some(o) => want_table(o, "oracle")?,
        None => &empty,
    };
    Ok(ScenarioSpec {
        name,
        seed,
        managers: decode_blocks(root, "managers", decode_manager)?,
        queues: decode_blocks(root, "queues", decode_queue)?,
        channels: decode_blocks(root, "channels", decode_channel)?,
        routes: decode_blocks(root, "routes", decode_route)?,
        actors: decode_blocks(root, "actors", decode_actor)?,
        ackers: decode_blocks(root, "ackers", decode_acker)?,
        faults: decode_blocks(root, "faults", decode_fault)?,
        oracle: decode_oracle(oracle)?,
    })
}

fn decode_blocks<T>(
    root: &Value,
    key: &str,
    decode: fn(&Value) -> ScenarioResult<T>,
) -> ScenarioResult<Vec<T>> {
    blocks(root, key)?.into_iter().map(decode).collect()
}

fn decode_manager(v: &Value) -> ScenarioResult<ManagerSpec> {
    let ctx = "[[managers]]";
    known_keys(v, &["name", "count", "offset"], ctx)?;
    Ok(ManagerSpec {
        name: req_str(v, "name", ctx)?,
        count: u64_or(v, "count", 1, ctx)?,
        offset: u64_or(v, "offset", 0, ctx)?,
    })
}

fn decode_queue(v: &Value) -> ScenarioResult<QueueSpec> {
    let ctx = "[[queues]]";
    known_keys(v, &["manager", "name", "count", "offset"], ctx)?;
    Ok(QueueSpec {
        manager: req_str(v, "manager", ctx)?,
        name: req_str(v, "name", ctx)?,
        count: u64_or(v, "count", 1, ctx)?,
        offset: u64_or(v, "offset", 0, ctx)?,
    })
}

fn decode_channel(v: &Value) -> ScenarioResult<ChannelSpec> {
    let ctx = "[[channels]]";
    known_keys(v, &["from", "to", "from_start", "count", "offset"], ctx)?;
    Ok(ChannelSpec {
        from: req_str(v, "from", ctx)?,
        to: req_str(v, "to", ctx)?,
        from_start: bool_or(v, "from_start", true, ctx)?,
        count: u64_or(v, "count", 1, ctx)?,
        offset: u64_or(v, "offset", 0, ctx)?,
    })
}

fn decode_route(v: &Value) -> ScenarioResult<RouteSpec> {
    let ctx = "[[routes]]";
    known_keys(v, &["manager", "to", "via", "count", "offset"], ctx)?;
    Ok(RouteSpec {
        manager: req_str(v, "manager", ctx)?,
        to: opt_str(v, "to"),
        via: str_array(v, "via", ctx)?,
        count: u64_or(v, "count", 1, ctx)?,
        offset: u64_or(v, "offset", 0, ctx)?,
    })
}

fn decode_condition(v: &Value, ctx: &str) -> ScenarioResult<ConditionSpec> {
    let kind = opt_str(v, "kind").unwrap_or_else(|| "dest".to_owned());
    match kind.as_str() {
        "dest" => {
            known_keys(
                v,
                &[
                    "kind", "manager", "queue", "recipient", "pickup_within_ms",
                    "process_within_ms", "count", "offset",
                ],
                ctx,
            )?;
            Ok(ConditionSpec::Dest(DestSpec {
                manager: req_str(v, "manager", ctx)?,
                queue: req_str(v, "queue", ctx)?,
                recipient: opt_str(v, "recipient"),
                pickup_within_ms: opt_u64(v, "pickup_within_ms", ctx)?,
                process_within_ms: opt_u64(v, "process_within_ms", ctx)?,
                count: u64_or(v, "count", 1, ctx)?,
                offset: u64_or(v, "offset", 0, ctx)?,
            }))
        }
        "set" => {
            known_keys(
                v,
                &[
                    "kind", "members", "pickup_within_ms", "process_within_ms", "min_pickup",
                    "max_pickup", "min_process", "max_process",
                ],
                ctx,
            )?;
            let raw = v
                .get("members")
                .and_then(Value::as_array)
                .ok_or_else(|| spec_err(format!("{ctx}: set condition needs [[…members]]")))?;
            let mut members = Vec::with_capacity(raw.len());
            for (k, m) in raw.iter().enumerate() {
                members.push(decode_condition(m, &format!("{ctx}.members #{k}"))?);
            }
            Ok(ConditionSpec::Set(SetSpec {
                members,
                pickup_within_ms: opt_u64(v, "pickup_within_ms", ctx)?,
                process_within_ms: opt_u64(v, "process_within_ms", ctx)?,
                min_pickup: opt_u32(v, "min_pickup", ctx)?,
                max_pickup: opt_u32(v, "max_pickup", ctx)?,
                min_process: opt_u32(v, "min_process", ctx)?,
                max_process: opt_u32(v, "max_process", ctx)?,
            }))
        }
        other => Err(spec_err(format!("{ctx}: unknown condition kind `{other}`"))),
    }
}

fn decode_actor(v: &Value) -> ScenarioResult<ActorSpec> {
    let ctx = "[[actors]]";
    known_keys(
        v,
        &[
            "name", "manager", "count", "quick_count", "payload", "compensation", "mode",
            "sphere_timeout_ms", "expect", "evaluation_timeout_ms", "condition",
        ],
        ctx,
    )?;
    let name = req_str(v, "name", ctx)?;
    let ctx = &format!("actor `{name}`");
    let mode = match opt_str(v, "mode").as_deref() {
        None | Some("send") => ActorMode::Send,
        Some("sphere") => ActorMode::Sphere {
            timeout_ms: u64_or(v, "sphere_timeout_ms", 5_000, ctx)?,
        },
        Some(other) => return Err(spec_err(format!("{ctx}: unknown mode `{other}`"))),
    };
    let expect = match opt_str(v, "expect").as_deref() {
        None | Some("success") => Expect::Success,
        Some("failure") => Expect::Failure,
        Some("sampled") => Expect::Sampled,
        Some("send_error") => Expect::SendError,
        Some("commit") => Expect::Commit,
        Some("abort") => Expect::Abort,
        Some(other) => return Err(spec_err(format!("{ctx}: unknown expect `{other}`"))),
    };
    let condition = decode_condition(
        v.get("condition")
            .ok_or_else(|| spec_err(format!("{ctx}: missing [actors.condition]")))?,
        &format!("{ctx}.condition"),
    )?;
    Ok(ActorSpec {
        name,
        manager: req_str(v, "manager", ctx)?,
        count: u64_or(v, "count", 1, ctx)?,
        quick_count: opt_u64(v, "quick_count", ctx)?,
        payload: opt_str(v, "payload").unwrap_or_else(|| "payload-{i}".to_owned()),
        compensation: opt_str(v, "compensation"),
        mode,
        expect,
        evaluation_timeout_ms: opt_u64(v, "evaluation_timeout_ms", ctx)?,
        condition,
    })
}

fn decode_delay(v: &Value, ctx: &str) -> ScenarioResult<DelaySpec> {
    match opt_str(v, "kind").as_deref() {
        None | Some("fixed") => Ok(DelaySpec::Fixed {
            ms: u64_or(v, "ms", 0, ctx)?,
        }),
        Some("uniform") => {
            let min_ms = u64_or(v, "min_ms", 0, ctx)?;
            let max_ms = u64_or(v, "max_ms", 0, ctx)?;
            if min_ms > max_ms {
                return Err(spec_err(format!(
                    "{ctx}: uniform delay has min_ms {min_ms} > max_ms {max_ms}"
                )));
            }
            Ok(DelaySpec::Uniform { min_ms, max_ms })
        }
        Some("pareto") => Ok(DelaySpec::Pareto {
            scale_ms: f64_or(v, "scale_ms", 1.0, ctx)?,
            alpha: f64_or(v, "alpha", 1.5, ctx)?,
            cap_ms: u64_or(v, "cap_ms", u64::MAX, ctx)?,
        }),
        Some(other) => Err(spec_err(format!("{ctx}: unknown delay kind `{other}`"))),
    }
}

fn decode_acker(v: &Value) -> ScenarioResult<AckerSpec> {
    let ctx = "[[ackers]]";
    known_keys(
        v,
        &["manager", "queue", "recipient", "mode", "delay", "count", "offset"],
        ctx,
    )?;
    let queue = req_str(v, "queue", ctx)?;
    let ctx = &format!("acker `{queue}`");
    let mode = match opt_str(v, "mode").as_deref() {
        None | Some("read") => AckMode::Read,
        Some("process") => AckMode::Process,
        Some(other) => return Err(spec_err(format!("{ctx}: unknown ack mode `{other}`"))),
    };
    let delay = match v.get("delay") {
        None => DelaySpec::Fixed { ms: 0 },
        Some(d) => decode_delay(want_table(d, &format!("{ctx}.delay"))?, &format!("{ctx}.delay"))?,
    };
    Ok(AckerSpec {
        manager: req_str(v, "manager", ctx)?,
        queue,
        recipient: opt_str(v, "recipient"),
        mode,
        delay,
        count: u64_or(v, "count", 1, ctx)?,
        offset: u64_or(v, "offset", 0, ctx)?,
    })
}

fn decode_fault(v: &Value) -> ScenarioResult<FaultSpec> {
    let ctx = "[[faults]]";
    known_keys(
        v,
        &["point", "action", "n", "at_ms", "after_fraction", "when_depth"],
        ctx,
    )?;
    let point = req_str(v, "point", ctx)?;
    let ctx = &format!("fault `{point}`");
    let action = match req_str(v, "action", ctx)?.as_str() {
        "partition" => FaultActionSpec::Partition,
        "heal" => FaultActionSpec::Heal,
        "drop_next" => FaultActionSpec::DropNext(u64_or(v, "n", 1, ctx)?),
        "kick_connections" => FaultActionSpec::KickConnections,
        "tear_journal_tail" => FaultActionSpec::TearJournalTail,
        "fail_storage" => FaultActionSpec::FailStorage,
        "heal_storage" => FaultActionSpec::HealStorage,
        "crash_rebuild" => FaultActionSpec::CrashRebuild,
        other => return Err(spec_err(format!("{ctx}: unknown action `{other}`"))),
    };
    let triggers = ["at_ms", "when_depth", "after_fraction"];
    if triggers.iter().filter(|k| v.get(k).is_some()).count() > 1 {
        return Err(spec_err(format!(
            "{ctx}: at most one of `at_ms`, `when_depth` and `after_fraction` may be given"
        )));
    }
    let trigger = if let Some(at) = opt_u64(v, "at_ms", ctx)? {
        TriggerSpec::AtMs(at)
    } else if let Some(w) = v.get("when_depth") {
        let wctx = &format!("{ctx}.when_depth");
        known_keys(w, &["manager", "queue", "min_depth"], wctx)?;
        TriggerSpec::WhenDepth {
            manager: req_str(w, "manager", wctx)?,
            queue: req_str(w, "queue", wctx)?,
            min_depth: u64_or(w, "min_depth", 1, wctx)?,
        }
    } else {
        TriggerSpec::AfterFraction(f64_or(v, "after_fraction", 0.0, ctx)?)
    };
    Ok(FaultSpec {
        point,
        action,
        trigger,
    })
}

fn decode_oracle(v: &Value) -> ScenarioResult<OracleSpec> {
    let ctx = "[oracle]";
    known_keys(v, &["metrics", "stages"], ctx)?;
    let mut oracle = OracleSpec {
        metrics: Vec::new(),
        stages: Vec::new(),
    };
    for b in blocks(v, "metrics")? {
        let mctx = "[[oracle.metrics]]";
        known_keys(b, &["metric", "min"], mctx)?;
        oracle.metrics.push(MetricExpect {
            metric: req_str(b, "metric", mctx)?,
            min: u64_or(b, "min", 1, mctx)?,
        });
    }
    for b in blocks(v, "stages")? {
        let sctx = "[[oracle.stages]]";
        known_keys(b, &["stage"], sctx)?;
        oracle.stages.push(req_str(b, "stage", sctx)?);
    }
    Ok(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_covers_plain_modulo_and_unknown() {
        assert_eq!(expand_idx("Q.DEV.{i}", 7), "Q.DEV.7");
        assert_eq!(expand_idx("Q.DEV.{i%4}", 7), "Q.DEV.3");
        assert_eq!(expand_msg("m{m}-i{i}", 2, 5), "m5-i2");
        assert_eq!(expand_idx("keep {braces}", 1), "keep {braces}");
        assert_eq!(expand_idx("{i%0}", 9), "9", "zero modulus is ignored");
    }

    #[test]
    fn decodes_a_full_scenario() {
        let src = r#"
name = "demo"
seed = 7

[[managers]]
name = "QM.B{i}"
count = 2

[[queues]]
manager = "QM.B{i}"
name = "Q.SYNC"
count = 2

[[channels]]
from = "QM.B0"
to = "QM.B1"
from_start = false

[[routes]]
manager = "QM.B0"
to = "QM.B1"
via = ["SYSTEM.XMIT.QM.B1"]

[[actors]]
name = "sender"
manager = "QM.B0"
count = 10
quick_count = 2
payload = "p-{i}"
compensation = "c-{i}"
expect = "failure"

[actors.condition]
kind = "set"
pickup_within_ms = 500

[[actors.condition.members]]
manager = "QM.B{m}"
queue = "Q.SYNC"
count = 2

[[ackers]]
manager = "QM.B1"
queue = "Q.SYNC"
mode = "process"
[ackers.delay]
kind = "uniform"
min_ms = 1
max_ms = 5

[[faults]]
point = "crash:QM.B0"
action = "crash_rebuild"
[faults.when_depth]
manager = "QM.B0"
queue = "SYSTEM.XMIT.QM.B1"
min_depth = 3

[[oracle.metrics]]
metric = "cond.sent"
min = 10
[[oracle.stages]]
stage = "comp-released"
"#;
        let spec = ScenarioSpec::from_toml_str(src).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.managers[0].count, 2);
        assert!(!spec.channels[0].from_start);
        let actor = &spec.actors[0];
        assert_eq!(actor.resolved_count(true), 2);
        assert_eq!(actor.resolved_count(false), 10);
        assert_eq!(actor.expect, Expect::Failure);
        match &actor.condition {
            ConditionSpec::Set(s) => {
                assert_eq!(s.pickup_within_ms, Some(500));
                assert_eq!(s.members.len(), 1);
                match &s.members[0] {
                    ConditionSpec::Dest(d) => assert_eq!(d.count, 2),
                    other => panic!("expected dest fan, got {other:?}"),
                }
            }
            other => panic!("expected set, got {other:?}"),
        }
        assert!(matches!(spec.ackers[0].mode, AckMode::Process));
        assert!(matches!(
            spec.ackers[0].delay,
            DelaySpec::Uniform { min_ms: 1, max_ms: 5 }
        ));
        assert!(matches!(
            spec.faults[0].trigger,
            TriggerSpec::WhenDepth { min_depth: 3, .. }
        ));
        assert_eq!(spec.oracle.metrics[0].metric, "cond.sent");
        assert_eq!(spec.oracle.stages[0], "comp-released");
        spec.validate().unwrap();
    }

    #[test]
    fn rejects_unknown_keys_and_bad_enums() {
        assert!(ScenarioSpec::from_toml_str("name = \"x\"\nbogus = 1").is_err());
        let e = ScenarioSpec::from_toml_str(
            "name = \"x\"\n[[actors]]\nname = \"a\"\nmanager = \"Q\"\nexpect = \"maybe\"\n[actors.condition]\nmanager = \"Q\"\nqueue = \"Q\"",
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown expect"), "{e}");
    }

    #[test]
    fn validation_requires_pickup_window_for_sampled() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
name = "s"
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
        )
        .unwrap();
        assert!(spec.validate().is_err());
    }
}
