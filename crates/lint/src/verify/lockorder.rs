//! Lock-order pass: held-set propagation, ABBA detection, and declared
//! never-hold disciplines.
//!
//! The pass walks every function body tracking which locks are held
//! (sticky `let guard = ….lock();` bindings until scope end or
//! `drop(guard)`; other acquisitions as statement-scoped temporaries),
//! records a global ordering edge `A -> B` whenever `B` is acquired with
//! `A` held — directly or transitively through resolved calls — and
//! reports:
//!
//! * `lock-order`: lock pairs acquired in both orders (potential ABBA
//!   deadlock), with both acquisition sites, mirroring the runtime
//!   deadlock detector's output.
//! * `never-hold`: a call that can reach the function named in a
//!   `// lint: never-hold(<lock>) across <fn>` annotation while the
//!   lock is held — and an annotation whose `<fn>` is neither defined
//!   nor called anywhere in the workspace, which would otherwise check
//!   nothing.

use std::collections::{HashMap, HashSet};

use crate::parser::{Block, Event, FnDef, Stmt};
use crate::{Finding, LintRule};

use super::{FnId, TypeRef, Workspace};

#[derive(Debug, Clone)]
struct Site {
    path: String,
    line: u32,
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.path, self.line)
    }
}

#[derive(Debug, Clone)]
struct Held {
    lock: String,
    site: Site,
    guard: Option<String>,
}

/// An observed ordering edge: `to` acquired while `from` held.
struct Edge {
    hold: Site,
    acq: Site,
    via: Option<String>,
}

#[derive(Default)]
struct FnFacts {
    locals: HashMap<String, String>,
    /// Direct lock acquisitions (lock, line).
    direct: Vec<(String, u32)>,
    /// Resolved callees.
    callees: Vec<FnId>,
    /// All call names appearing in the body (resolved or not).
    names: HashSet<String>,
}

/// Runs the pass over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let ids: Vec<FnId> = (0..ws.fns.len()).collect();
    let mut facts: Vec<FnFacts> = Vec::with_capacity(ids.len());
    for id in &ids {
        facts.push(prewalk(ws, &ws.fns[*id]));
    }

    // Fixpoint: transitively acquired locks (with a representative site)
    // and transitively reachable call names.
    let mut trans: Vec<HashMap<String, Site>> = facts
        .iter()
        .zip(ws.fns.iter())
        .map(|(f, d)| {
            f.direct
                .iter()
                .map(|(l, ln)| (l.clone(), Site { path: d.path.clone(), line: *ln }))
                .collect()
        })
        .collect();
    let mut reach: Vec<HashSet<String>> = facts.iter().map(|f| f.names.clone()).collect();
    loop {
        let mut changed = false;
        for id in &ids {
            for callee in facts[*id].callees.clone() {
                let add: Vec<(String, Site)> = trans[callee]
                    .iter()
                    .filter(|(l, _)| !trans[*id].contains_key(*l))
                    .map(|(l, s)| (l.clone(), s.clone()))
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    trans[*id].extend(add);
                }
                let add: Vec<String> =
                    reach[callee].difference(&reach[*id]).cloned().collect();
                if !add.is_empty() {
                    changed = true;
                    reach[*id].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: HashMap<(String, String), Edge> = HashMap::new();
    let mut findings = Vec::new();
    // A discipline whose target was renamed or deleted matches no call
    // and would pass vacuously from then on. A target may be foreign
    // (`sync_data`) or a callback parameter (`sink`): then it is alive as
    // long as something still calls it by that name.
    for nh in &ws.never_holds {
        let defined = ws.fns.iter().any(|f| f.name == nh.target);
        if !defined && !facts.iter().any(|f| f.names.contains(&nh.target)) {
            findings.push(Finding {
                rule: LintRule::NeverHold,
                path: nh.path.clone(),
                line: nh.line as usize,
                snippet: format!(
                    "never-hold(`{}`) across `{}` names no function defined or called in the workspace; the discipline checks nothing",
                    nh.lock, nh.target
                ),
            });
        }
    }
    let mut reported: HashSet<(usize, String, u32)> = HashSet::new();
    for id in &ids {
        let Some(body) = &ws.fns[*id].body else { continue };
        let mut ctx = Ctx {
            ws,
            fnd: &ws.fns[*id],
            facts: &facts[*id],
            trans: &trans,
            reach: &reach,
            edges: &mut edges,
            findings: &mut findings,
            reported: &mut reported,
        };
        let mut held = Vec::new();
        walk_block(&mut ctx, body, &mut held);
    }

    findings.extend(report_cycles(&edges));
    findings
}

/// Flow-insensitive prewalk: local types, direct acquisitions, resolved
/// callees, called names.
fn prewalk(ws: &Workspace, fnd: &FnDef) -> FnFacts {
    let mut f = FnFacts::default();
    for (name, ty) in &fnd.params {
        if let TypeRef::Concrete(t) = ws.core_type(ty) {
            f.locals.insert(name.clone(), t);
        }
    }
    let Some(body) = &fnd.body else { return f };
    prewalk_block(ws, fnd, body, &mut f);
    f
}

fn prewalk_block(ws: &Workspace, fnd: &FnDef, b: &Block, f: &mut FnFacts) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { bindings, events, .. } => {
                prewalk_events(ws, fnd, events, f);
                // Infer the binding's type from the outermost call.
                if bindings.len() == 1 {
                    if let Some(Event::Call(c)) = events.first() {
                        if ws.lock_id_of(fnd, c, &f.locals).is_none() {
                            let callees = ws.resolve_call(fnd, c, &f.locals);
                            if let Some(first) = callees.first() {
                                if let TypeRef::Concrete(t) = ws.core_type(&ws.fns[*first].ret) {
                                    f.locals.insert(bindings[0].clone(), t);
                                }
                            }
                        }
                    }
                }
            }
            Stmt::Expr { events, .. } | Stmt::Return { events, .. } => {
                prewalk_events(ws, fnd, events, f);
            }
            Stmt::If { cond, then_b, else_b, .. } => {
                prewalk_events(ws, fnd, cond, f);
                prewalk_block(ws, fnd, then_b, f);
                if let Some(e) = else_b {
                    prewalk_block(ws, fnd, e, f);
                }
            }
            Stmt::Match { scrutinee, arms, .. } => {
                prewalk_events(ws, fnd, scrutinee, f);
                for a in arms {
                    prewalk_block(ws, fnd, &a.body, f);
                }
            }
            Stmt::Loop { header, body, .. } => {
                prewalk_events(ws, fnd, header, f);
                prewalk_block(ws, fnd, body, f);
            }
            Stmt::Nested(b) => prewalk_block(ws, fnd, b, f),
            _ => {}
        }
    }
    if let Some(Stmt::Let { else_block: Some(e), .. }) = b.stmts.last() {
        prewalk_block(ws, fnd, e, f);
    }
}

fn prewalk_events(ws: &Workspace, fnd: &FnDef, events: &[Event], f: &mut FnFacts) {
    for ev in events {
        if let Event::Call(c) = ev {
            // Closure-body calls run when the closure runs (a timer
            // fire, a watcher, another thread) — not under the locks the
            // building code holds, and not as part of this function's
            // lock footprint.
            if c.deferred {
                continue;
            }
            if let Some(lock) = ws.lock_id_of(fnd, c, &f.locals) {
                f.direct.push((lock, c.line));
            } else {
                f.names.insert(c.name.clone());
                f.callees.extend(ws.resolve_call(fnd, c, &f.locals));
            }
        }
    }
}

struct Ctx<'a> {
    ws: &'a Workspace,
    fnd: &'a FnDef,
    facts: &'a FnFacts,
    trans: &'a [HashMap<String, Site>],
    reach: &'a [HashSet<String>],
    edges: &'a mut HashMap<(String, String), Edge>,
    findings: &'a mut Vec<Finding>,
    reported: &'a mut HashSet<(usize, String, u32)>,
}

/// Processes a statement's events: records acquisitions into `temps`,
/// ordering edges, and never-hold violations. Returns the index into
/// `temps` of the final sticky lock acquisition, if any.
fn process_events(
    ctx: &mut Ctx<'_>,
    events: &[Event],
    held: &mut Vec<Held>,
    temps: &mut Vec<Held>,
) -> Option<usize> {
    let mut last_sticky: Option<usize> = None;
    for ev in events {
        match ev {
            Event::Drop { var, .. } => {
                held.retain(|h| h.guard.as_deref() != Some(var.as_str()));
            }
            Event::Call(c) => {
                if c.deferred {
                    continue;
                }
                let site = Site { path: ctx.fnd.path.clone(), line: c.line };
                if let Some(lock) = ctx.ws.lock_id_of(ctx.fnd, c, &ctx.facts.locals) {
                    for h in held.iter().chain(temps.iter()) {
                        if h.lock != lock {
                            record_edge(ctx.edges, &h.lock, &lock, &h.site, &site, None);
                        }
                    }
                    temps.push(Held { lock, site, guard: None });
                    last_sticky = if c.sticky_end { Some(temps.len() - 1) } else { None };
                } else {
                    last_sticky = None;
                    let callees = ctx.ws.resolve_call(ctx.fnd, c, &ctx.facts.locals);
                    // Never-hold: can this call reach a forbidden fn?
                    let mut names: HashSet<&str> = HashSet::new();
                    names.insert(c.name.as_str());
                    for g in &callees {
                        names.extend(ctx.reach[*g].iter().map(String::as_str));
                    }
                    for (idx, nh) in ctx.ws.never_holds.iter().enumerate() {
                        if !names.contains(nh.target.as_str()) {
                            continue;
                        }
                        if let Some(h) =
                            held.iter().chain(temps.iter()).find(|h| h.lock == nh.lock)
                        {
                            let key = (idx, ctx.fnd.path.clone(), c.line);
                            if ctx.reported.insert(key) {
                                ctx.findings.push(Finding {
                                    rule: LintRule::NeverHold,
                                    path: ctx.fnd.path.clone(),
                                    line: c.line as usize,
                                    snippet: format!(
                                        "`{}` (held since {}) is held across call to `{}` (reaches `{}`); declared never-hold at {}:{}",
                                        nh.lock, h.site, c.name, nh.target, nh.path, nh.line
                                    ),
                                });
                            }
                        }
                    }
                    // Transitive acquisitions become ordering edges.
                    for g in &callees {
                        for (lock, acq) in &ctx.trans[*g] {
                            let holders: Vec<Held> =
                                held.iter().chain(temps.iter()).cloned().collect();
                            for h in holders {
                                if h.lock != *lock {
                                    record_edge(
                                        ctx.edges,
                                        &h.lock,
                                        lock,
                                        &h.site,
                                        acq,
                                        Some(format!(
                                            "via `{}` called at {}",
                                            ctx.ws.fns[*g].name, site
                                        )),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    last_sticky
}

fn record_edge(
    edges: &mut HashMap<(String, String), Edge>,
    from: &str,
    to: &str,
    hold: &Site,
    acq: &Site,
    via: Option<String>,
) {
    edges
        .entry((from.to_owned(), to.to_owned()))
        .or_insert_with(|| Edge { hold: hold.clone(), acq: acq.clone(), via });
}

fn walk_block(ctx: &mut Ctx<'_>, b: &Block, held: &mut Vec<Held>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { bindings, events, else_block, .. } => {
                let mut temps = Vec::new();
                let sticky = process_events(ctx, events, held, &mut temps);
                if let Some(e) = else_block {
                    let mut inner = held.clone();
                    inner.extend(temps.iter().cloned());
                    walk_block(ctx, e, &mut inner);
                }
                // The final sticky lock of the initializer becomes a
                // guard bound to the pattern; everything else dies with
                // the statement.
                if let (Some(idx), Some(name)) = (sticky, bindings.first()) {
                    let mut g = temps.swap_remove(idx);
                    g.guard = Some(name.clone());
                    held.push(g);
                }
            }
            Stmt::Expr { events, .. } | Stmt::Return { events, .. } => {
                let mut temps = Vec::new();
                process_events(ctx, events, held, &mut temps);
            }
            Stmt::If { cond, then_b, else_b, .. } => {
                let mut temps = Vec::new();
                process_events(ctx, cond, held, &mut temps);
                // Condition temporaries end before the branches run.
                let mut t = held.clone();
                walk_block(ctx, then_b, &mut t);
                if let Some(e) = else_b {
                    let mut t = held.clone();
                    walk_block(ctx, e, &mut t);
                }
            }
            Stmt::Match { scrutinee, arms, .. } => {
                let mut temps = Vec::new();
                process_events(ctx, scrutinee, held, &mut temps);
                // Scrutinee temporaries live across the arms.
                for a in arms {
                    let mut t = held.clone();
                    t.extend(temps.iter().cloned());
                    walk_block(ctx, &a.body, &mut t);
                }
            }
            Stmt::Loop { header, body, .. } => {
                let mut temps = Vec::new();
                process_events(ctx, header, held, &mut temps);
                // Iterated-expression temporaries live for the whole loop.
                let mut t = held.clone();
                t.extend(temps.iter().cloned());
                walk_block(ctx, body, &mut t);
            }
            Stmt::Nested(inner) => {
                let mut t = held.clone();
                walk_block(ctx, inner, &mut t);
            }
            _ => {}
        }
    }
}

/// Reports each lock pair reachable in both orders, with both sites.
fn report_cycles(edges: &HashMap<(String, String), Edge>) -> Vec<Finding> {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if n == to {
                return true;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut findings = Vec::new();
    for ((a, b), e) in edges {
        // Report each unordered pair once, from the lexically smaller
        // forward edge.
        if a >= b && edges.contains_key(&(b.clone(), a.clone())) {
            continue;
        }
        if !reachable(b, a) {
            continue;
        }
        let reverse = edges.get(&(b.clone(), a.clone()));
        let via = e.via.as_deref().map(|v| format!(" ({v})")).unwrap_or_default();
        let reverse_msg = match reverse {
            Some(r) => {
                let rvia = r.via.as_deref().map(|v| format!(" ({v})")).unwrap_or_default();
                format!(
                    "reverse order at {}: `{}` acquired while `{}` held since {}{}",
                    r.acq, a, b, r.hold, rvia
                )
            }
            None => format!("reverse path `{b}` -> … -> `{a}` exists through intermediate locks"),
        };
        findings.push(Finding {
            rule: LintRule::LockOrder,
            path: e.acq.path.clone(),
            line: e.acq.line as usize,
            snippet: format!(
                "ABBA risk between `{}` and `{}`: `{}` acquired here while `{}` held since {}{}; {}",
                a, b, b, a, e.hold, via, reverse_msg
            ),
        });
    }
    findings
}
