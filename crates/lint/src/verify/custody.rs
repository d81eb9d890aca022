//! Custody pass: every path that takes ownership of a message must
//! reach exactly one terminal.
//!
//! A function annotated `// lint: custody(<var>[, err-reverts])` is
//! checked: once `<var>` is live (a by-value parameter, or bound by a
//! `let`/match-arm/`if let` pattern of that name), every path must
//! discharge it — move it into a call (deliver, dead-letter, journaled
//! handoff, store insert) or return it — before the path ends. Early
//! `return`s, `break`/`continue`, fall-off, and `drop(<var>)` while the
//! message is live are leaks.
//!
//! With `err-reverts`, error exits (`?` and `return Err(…)`) are exempt:
//! the crate-wide contract is that an error leaves the message unacked
//! upstream, so the sender retries. Without it, `?` while live is a
//! leak (strict mode).
//!
//! A deliberate exit can be suppressed with a trailing
//! `// lint: custody-ok(<reason>)` on (or directly above) the exiting line.

use crate::parser::{Block, Event, FnDef, Stmt};
use crate::{Finding, LintRule};

use super::Workspace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotLive,
    Live(u32),
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Falls,
    Diverges,
}

struct Ctx<'a> {
    ws: &'a Workspace,
    fnd: &'a FnDef,
    err_reverts: bool,
    findings: &'a mut Vec<Finding>,
}

#[derive(Debug, Clone)]
struct State {
    tracked: String,
    phase: Phase,
}

/// Runs the pass over every `custody(...)`-annotated function.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for fnd in &ws.fns {
        let Some(spec) = fnd.anns.iter().find_map(|a| a.strip_prefix("custody(")) else {
            continue;
        };
        let Some(close) = spec.find(')') else { continue };
        let mut parts = spec[..close].split(',').map(str::trim);
        let Some(var) = parts.next() else { continue };
        let err_reverts = parts.any(|p| p == "err-reverts");
        let Some(body) = &fnd.body else { continue };
        let mut st = State { tracked: var.to_owned(), phase: Phase::NotLive };
        // A by-value parameter of the tracked name starts live.
        for (name, ty) in &fnd.params {
            if name == var && !ty.starts_with('&') {
                st.phase = Phase::Live(fnd.line);
            }
        }
        let mut ctx = Ctx { ws, fnd, err_reverts, findings: &mut findings };
        let flow = walk_block(&mut ctx, body, &mut st);
        if flow == Flow::Falls {
            if let Phase::Live(since) = st.phase {
                leak(
                    &mut ctx,
                    &mut st,
                    fnd.line,
                    &format!("custody of `{var}` (live since line {since}) leaks at function end"),
                );
            }
        }
    }
    findings
}

fn leak(ctx: &mut Ctx<'_>, st: &mut State, line: u32, msg: &str) {
    st.phase = Phase::Done; // avoid cascading reports on one path
    if let Some(ok_lines) = ctx.ws.custody_ok.get(&ctx.fnd.path) {
        if ok_lines.contains(&line) || ok_lines.contains(&line.saturating_sub(1)) {
            return;
        }
    }
    ctx.findings.push(Finding {
        rule: LintRule::Custody,
        path: ctx.fnd.path.clone(),
        line: line as usize,
        snippet: format!("{msg} (in `{}`, annotated at {}:{})", ctx.fnd.name, ctx.fnd.path, ctx.fnd.line),
    });
}

/// Processes a statement's events against the custody state.
fn process_events(ctx: &mut Ctx<'_>, events: &[Event], st: &mut State) {
    for ev in events {
        match ev {
            Event::Drop { var, line } => {
                if *var == st.tracked {
                    if let Phase::Live(since) = st.phase {
                        leak(
                            ctx,
                            st,
                            *line,
                            &format!(
                                "custody of `{}` (live since line {since}) is silently dropped",
                                var
                            ),
                        );
                    }
                }
            }
            Event::Call(c) => {
                if c.moved.contains(&st.tracked) && matches!(st.phase, Phase::Live(_)) {
                    st.phase = Phase::Done;
                }
            }
        }
    }
}

fn check_try(ctx: &mut Ctx<'_>, st: &mut State, has_try: bool, line: u32) {
    if has_try && !ctx.err_reverts {
        if let Phase::Live(since) = st.phase {
            leak(
                ctx,
                st,
                line,
                &format!(
                    "custody of `{}` (live since line {since}) may leak via `?` error exit",
                    st.tracked
                ),
            );
        }
    }
}

fn walk_block(ctx: &mut Ctx<'_>, b: &Block, st: &mut State) -> Flow {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { bindings, events, idents: _, has_try, else_block, line } => {
                process_events(ctx, events, st);
                check_try(ctx, st, *has_try, *line);
                if let Some(e) = else_block {
                    let mut diverging = st.clone();
                    walk_block(ctx, e, &mut diverging);
                }
                if bindings.contains(&st.tracked) {
                    st.phase = Phase::Live(*line);
                }
            }
            Stmt::Expr { events, idents, has_try, tail, line } => {
                process_events(ctx, events, st);
                check_try(ctx, st, *has_try, *line);
                if *tail && idents.contains(&st.tracked) {
                    st.phase = Phase::Done;
                }
            }
            Stmt::Return { events, idents, first, has_try, line } => {
                process_events(ctx, events, st);
                let is_err = first.as_deref() == Some("Err");
                if idents.contains(&st.tracked) {
                    st.phase = Phase::Done;
                } else if let Phase::Live(since) = st.phase {
                    if !(ctx.err_reverts && (is_err || *has_try)) {
                        leak(
                            ctx,
                            st,
                            *line,
                            &format!(
                                "custody of `{}` (live since line {since}) leaks at early return",
                                st.tracked
                            ),
                        );
                    }
                }
                return Flow::Diverges;
            }
            Stmt::Break { line } | Stmt::Continue { line } => {
                if let Phase::Live(since) = st.phase {
                    leak(
                        ctx,
                        st,
                        *line,
                        &format!(
                            "custody of `{}` (live since line {since}) leaks at loop exit",
                            st.tracked
                        ),
                    );
                }
                return Flow::Diverges;
            }
            Stmt::If { cond, cond_try, cond_bindings, then_b, else_b, line } => {
                process_events(ctx, cond, st);
                check_try(ctx, st, *cond_try, *line);
                let mut then_st = st.clone();
                if cond_bindings.contains(&st.tracked) {
                    then_st.phase = Phase::Live(*line);
                }
                let then_flow = walk_block(ctx, then_b, &mut then_st);
                let mut else_st = st.clone();
                let else_flow = match else_b {
                    Some(e) => walk_block(ctx, e, &mut else_st),
                    None => Flow::Falls,
                };
                let merged = merge(
                    &[(then_flow, then_st.phase), (else_flow, else_st.phase)],
                    st.phase,
                );
                st.phase = merged.1;
                if merged.0 == Flow::Diverges {
                    return Flow::Diverges;
                }
            }
            Stmt::Match { scrutinee, scrutinee_try, arms, line } => {
                process_events(ctx, scrutinee, st);
                check_try(ctx, st, *scrutinee_try, *line);
                let mut outcomes = Vec::new();
                for a in arms {
                    let mut arm_st = st.clone();
                    if a.bindings.contains(&st.tracked) {
                        arm_st.phase = Phase::Live(a.line);
                    }
                    let flow = walk_block(ctx, &a.body, &mut arm_st);
                    outcomes.push((flow, arm_st.phase));
                }
                if !outcomes.is_empty() {
                    let merged = merge(&outcomes, st.phase);
                    st.phase = merged.1;
                    if merged.0 == Flow::Diverges {
                        return Flow::Diverges;
                    }
                }
            }
            Stmt::Loop { header, bindings, body, line } => {
                process_events(ctx, header, st);
                let entry_live = matches!(st.phase, Phase::Live(_));
                let mut body_st = st.clone();
                if bindings.contains(&st.tracked) {
                    body_st.phase = Phase::Live(*line);
                }
                walk_block(ctx, body, &mut body_st);
                if !entry_live {
                    if let Phase::Live(since) = body_st.phase {
                        leak(
                            ctx,
                            &mut body_st,
                            *line,
                            &format!(
                                "custody of `{}` (live since line {since}) leaks at end of a loop iteration",
                                st.tracked
                            ),
                        );
                    }
                }
            }
            Stmt::Nested(inner) => {
                if walk_block(ctx, inner, st) == Flow::Diverges {
                    return Flow::Diverges;
                }
            }
        }
    }
    Flow::Falls
}

/// Merges branch outcomes: any falling branch still live keeps the
/// message live; all-diverging branches diverge.
fn merge(outcomes: &[(Flow, Phase)], before: Phase) -> (Flow, Phase) {
    let falling: Vec<Phase> = outcomes
        .iter()
        .filter(|(f, _)| *f == Flow::Falls)
        .map(|(_, p)| *p)
        .collect();
    if falling.is_empty() {
        return (Flow::Diverges, before);
    }
    for p in &falling {
        if matches!(p, Phase::Live(_)) {
            return (Flow::Falls, *p);
        }
    }
    if falling.contains(&Phase::Done) {
        return (Flow::Falls, Phase::Done);
    }
    (Flow::Falls, before)
}
