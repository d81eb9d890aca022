//! Condvar pass: a `Condvar` field that some function waits on but no
//! `notify_one`/`notify_all` anywhere in its crate wakes. Every wait on
//! it sleeps out its whole timeout, or forever: a sleep-poll the token
//! rule `sleep` cannot see.
//!
//! A wait counts when its receiver is a field chain off `self` ending in
//! a field whose declared type names `Condvar` (`self.cv.wait_for(…)`); a
//! notify counts when its receiver chain ends in a field of that name,
//! however it was reached, so the pass errs towards silence.

use std::collections::HashSet;

use crate::parser::Recv;
use crate::{Finding, LintRule};

use super::{for_each_call, Workspace};

/// The `Condvar` methods that park.
const WAITS: &[&str] = &["wait", "wait_for", "wait_until", "wait_while", "wait_while_for"];

/// The `Condvar` methods that wake.
const NOTIFIES: &[&str] = &["notify_one", "notify_all"];

/// The crate a workspace-relative path belongs to: `crates/<name>/`, or
/// the root package.
fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/").and_then(|rest| rest.find('/')) {
        Some(end) => &path[.."crates/".len() + end + 1],
        None => "",
    }
}

/// Runs the pass.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut notified: HashSet<(&str, &str)> = HashSet::new();
    // (crate, field, `Owner.field`, path, line) of every resolved wait.
    let mut waits = Vec::new();
    for fnd in &ws.fns {
        let Some(body) = &fnd.body else { continue };
        let krate = crate_of(&fnd.path);
        for_each_call(body, &mut |call| {
            let (Recv::SelfChain(fields) | Recv::Local(_, fields)) = &call.recv else { return };
            let Some(field) = fields.last() else { return };
            let on_self = matches!(call.recv, Recv::SelfChain(_));
            if NOTIFIES.contains(&call.name.as_str()) {
                notified.insert((krate, field));
            } else if on_self && WAITS.contains(&call.name.as_str()) {
                let declared = fnd.owner.as_ref().and_then(|owner| ws.field_chain(owner, fields));
                if let Some((on, _)) = declared.filter(|(_, ty)| ty.contains("Condvar")) {
                    waits.push((krate, field, format!("{on}.{field}"), &fnd.path, call.line));
                }
            }
        });
    }
    waits
        .into_iter()
        .filter(|(krate, field, ..)| !notified.contains(&(*krate, field.as_str())))
        .map(|(krate, _, id, path, line)| Finding {
            rule: LintRule::UnnotifiedCondvar,
            path: path.clone(),
            line: line as usize,
            snippet: format!(
                "`{id}` is waited on, but no `notify_one`/`notify_all` in {} wakes it: \
                 every wait sleeps out its timeout",
                if krate.is_empty() { "this crate" } else { krate }
            ),
        })
        .collect()
}
