//! `cond-lint` — project-specific source lints for the
//! conditional-messaging workspace.
//!
//! Clippy catches general Rust hazards; this tool catches the hazards
//! *specific to this codebase's rules of engagement*:
//!
//! | rule | flags | where |
//! |------|-------|-------|
//! | `sleep` | `std::thread::sleep` poll loops | library code |
//! | `std-sync` | `std::sync::Mutex`/`RwLock`/`Condvar` instead of the workspace `parking_lot` | library and binary code |
//! | `wall-clock` | `SystemTime::now` / `Instant::now` bypassing `simtime` | library code |
//! | `unwrap` | `.unwrap()` / `.expect(` panics | library code |
//!
//! The scanner is token-level, not syntactic: it first *cleans* each
//! source file — blanking comments (line and nested block), string and
//! character literals (including raw and byte strings) while preserving
//! line structure — then strips `#[cfg(test)]` regions by brace matching,
//! and only then applies substring rules. That keeps the tool dependency-
//! free (no rustc libs in this offline workspace) while avoiding the
//! classic grep false positives on comments, doc examples and test code.
//!
//! Findings can be suppressed through an allowlist file (default
//! `lint.allow` at the workspace root) of `<rule> <path-prefix>` lines;
//! `--deny` turns any unallowed finding into a non-zero exit.
//!
//! The `crates/simtime` crate is exempt from the `sleep` and `wall-clock`
//! rules by construction: it *is* the timebase, so its `SystemClock` must
//! touch the real clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod verify;

use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LintRule {
    /// `std::thread::sleep` in library code.
    Sleep,
    /// `std::sync` locking primitives instead of `parking_lot`.
    StdSync,
    /// Wall-clock reads bypassing `simtime`.
    WallClock,
    /// `.unwrap()` / `.expect(` outside tests.
    Unwrap,
    /// Potential ABBA lock inversion (cond-verify lock-order pass).
    LockOrder,
    /// Violation of a declared `never-hold(<lock>) across <fn>`
    /// discipline (cond-verify lock-order pass).
    NeverHold,
    /// Leaked message custody (cond-verify custody pass).
    Custody,
    /// Emission missing from its declared registry (cond-verify
    /// registry pass).
    Registry,
}

/// Token-level rules, in reporting order (the cond-verify rules are
/// listed in [`VERIFY_RULES`] and produced by [`verify::run`]).
pub const ALL_RULES: [LintRule; 4] = [
    LintRule::Sleep,
    LintRule::StdSync,
    LintRule::WallClock,
    LintRule::Unwrap,
];

/// The inter-procedural cond-verify rules.
pub const VERIFY_RULES: [LintRule; 4] = [
    LintRule::LockOrder,
    LintRule::NeverHold,
    LintRule::Custody,
    LintRule::Registry,
];

impl LintRule {
    /// The rule's stable name, as used in allowlist files.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::Sleep => "sleep",
            LintRule::StdSync => "std-sync",
            LintRule::WallClock => "wall-clock",
            LintRule::Unwrap => "unwrap",
            LintRule::LockOrder => "lock-order",
            LintRule::NeverHold => "never-hold",
            LintRule::Custody => "custody",
            LintRule::Registry => "registry",
        }
    }

    /// Parses an allowlist rule name (`*` is not a rule; see
    /// [`Allowlist`]).
    pub fn parse(name: &str) -> Option<LintRule> {
        ALL_RULES
            .into_iter()
            .chain(VERIFY_RULES)
            .find(|r| r.name() == name)
    }
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a file participates in linting, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Crate library code: all rules apply.
    Library,
    /// Binary / example entry points (`src/bin`, `main.rs`, `build.rs`):
    /// panicking and real-time reads are accepted, `std-sync` still
    /// applies.
    App,
    /// Test and bench code (`tests/`, `benches/` directories): exempt.
    Test,
}

/// Classifies `path` (workspace-relative, `/`-separated).
pub fn classify(path: &str) -> FileClass {
    let components: Vec<&str> = path.split('/').collect();
    if components
        .iter()
        .any(|c| *c == "tests" || *c == "benches")
    {
        return FileClass::Test;
    }
    let file = components.last().copied().unwrap_or("");
    if components.iter().any(|c| *c == "bin" || *c == "examples")
        || file == "main.rs"
        || file == "build.rs"
    {
        return FileClass::App;
    }
    FileClass::Library
}

/// Whether `rule` applies to a file of class `class` at `path`.
pub fn rule_applies(rule: LintRule, class: FileClass, path: &str) -> bool {
    // simtime implements the clock abstraction itself: it must sleep and
    // read the real clock.
    if path.starts_with("crates/simtime/") && matches!(rule, LintRule::Sleep | LintRule::WallClock)
    {
        return false;
    }
    match class {
        FileClass::Test => false,
        FileClass::App => matches!(rule, LintRule::StdSync),
        FileClass::Library => true,
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: LintRule,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

// ---------------------------------------------------------------- cleaning

/// Blanks comments and string/char literals from Rust source, preserving
/// line structure, so substring rules cannot fire inside them.
///
/// Handles line comments, nested block comments, plain/byte strings with
/// escapes, raw strings (`r"…"`, `r#"…"#`, `br##"…"##`), char literals,
/// and tells lifetimes (`'a`) apart from char literals (`'a'`).
pub fn clean_source(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;

    // Emits `c` verbatim if it is a newline, otherwise a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }

    while i < chars.len() {
        let c = chars[i];
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                blank(&mut out, chars[i]);
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    blank(&mut out, chars[i]);
                    blank(&mut out, chars[i + 1]);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    blank(&mut out, chars[i]);
                    blank(&mut out, chars[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte-raw strings: r"…", r#"…"#, br##"…"##.
        if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"')
                && !prev_is_ident(&chars, i)
            {
                // Emit the prefix as-is, blank the body.
                for &p in &chars[i..=j] {
                    out.push(p);
                }
                i = j + 1;
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut k = 0usize;
                        while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for &p in &chars[i..=i + hashes] {
                                out.push(p);
                            }
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    blank(&mut out, chars[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Plain / byte strings.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' {
                    blank(&mut out, chars[i]);
                    if i + 1 < chars.len() {
                        blank(&mut out, chars[i + 1]);
                    }
                    i += 2;
                } else if chars[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char = match chars.get(i + 1) {
                Some('\\') => true,
                Some(_) => chars.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                out.push('\'');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' {
                        blank(&mut out, chars[i]);
                        if i + 1 < chars.len() {
                            blank(&mut out, chars[i + 1]);
                        }
                        i += 2;
                    } else if chars[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    } else {
                        blank(&mut out, chars[i]);
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

// ----------------------------------------------------------- test regions

/// Blanks every `#[cfg(test)]`-gated item (typically `mod tests { … }`)
/// from *cleaned* source, preserving line structure, so the rules only see
/// production code.
pub fn strip_test_regions(cleaned: &str) -> String {
    const MARKER: &str = "#[cfg(test)]";
    let mut out: Vec<char> = cleaned.chars().collect();
    let mut search_from = 0usize;
    loop {
        let hay: String = out[search_from..].iter().collect();
        let Some(rel) = hay.find(MARKER) else { break };
        // `find` returns a byte offset into a string of 1-byte chars here?
        // Not necessarily: cleaned text retains non-ASCII identifiers.
        // Recompute as a char offset.
        let rel_chars = hay[..rel].chars().count();
        let start = search_from + rel_chars;
        let mut i = start + MARKER.chars().count();
        // Skip following attributes and whitespace to the item itself.
        loop {
            while i < out.len() && out[i].is_whitespace() {
                i += 1;
            }
            if out.get(i) == Some(&'#') && out.get(i + 1) == Some(&'[') {
                let mut depth = 0usize;
                while i < out.len() {
                    match out[i] {
                        '[' => depth += 1,
                        ']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // Consume the item: to the matching `}` of its first top-level
        // brace, or to `;` for brace-less items.
        let mut brace_depth = 0usize;
        let mut entered = false;
        while i < out.len() {
            match out[i] {
                '{' => {
                    brace_depth += 1;
                    entered = true;
                }
                '}' => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        i += 1;
                        break;
                    }
                }
                ';' if !entered => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let end = i.min(out.len());
        for cell in &mut out[start..end] {
            if *cell != '\n' {
                *cell = ' ';
            }
        }
        search_from = i;
    }
    out.into_iter().collect()
}

// ----------------------------------------------------------------- rules

/// Applies the substring rules to one file's cleaned, test-stripped text.
pub fn scan_text(path: &str, text: &str) -> Vec<Finding> {
    let class = classify(path);
    let mut findings = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for rule in ALL_RULES {
            if !rule_applies(rule, class, path) {
                continue;
            }
            if line_matches(rule, line) {
                findings.push(Finding {
                    rule,
                    path: path.to_owned(),
                    line: idx + 1,
                    snippet: String::new(), // filled in from the raw source
                });
            }
        }
    }
    findings
}

fn line_matches(rule: LintRule, line: &str) -> bool {
    match rule {
        LintRule::Sleep => line.contains("std::thread::sleep") || line.contains("thread::sleep("),
        LintRule::StdSync => {
            if let Some(pos) = line.find("std::sync::") {
                let rest = &line[pos + "std::sync::".len()..];
                if rest.starts_with("Mutex")
                    || rest.starts_with("RwLock")
                    || rest.starts_with("Condvar")
                {
                    return true;
                }
                // `use std::sync::{Arc, Mutex};` — look inside the group.
                if let Some(group) = rest.strip_prefix('{') {
                    let group = group.split('}').next().unwrap_or(group);
                    return group.split(',').any(|item| {
                        let item = item.trim();
                        item.starts_with("Mutex")
                            || item.starts_with("RwLock")
                            || item.starts_with("Condvar")
                    });
                }
            }
            false
        }
        LintRule::WallClock => {
            line.contains("SystemTime::now") || line.contains("Instant::now")
        }
        LintRule::Unwrap => {
            if line.contains(".unwrap()") {
                return true;
            }
            // `.expect(` — but not a method named `expect` called on
            // `self` (e.g. a recursive-descent parser's token matcher).
            line.match_indices(".expect(").any(|(pos, _)| {
                let recv = &line[..pos];
                let is_self = recv.ends_with("self")
                    && !recv[..recv.len() - 4]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_');
                !is_self
            })
        }
        // Verify rules are produced by the `verify` passes, never by the
        // token scan.
        LintRule::LockOrder | LintRule::NeverHold | LintRule::Custody | LintRule::Registry => {
            false
        }
    }
}

/// Cleans `src`, strips test regions, scans it, and fills snippets from
/// the original source.
pub fn scan_file(path: &str, src: &str) -> Vec<Finding> {
    let prepared = strip_test_regions(&clean_source(src));
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut findings = scan_text(path, &prepared);
    for f in &mut findings {
        f.snippet = raw_lines
            .get(f.line - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default();
    }
    findings
}

// -------------------------------------------------------------- allowlist

/// A parsed allowlist: `<rule-or-*> <path-prefix>` lines, `#` comments.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(Option<LintRule>, String)>,
}

impl Allowlist {
    /// Parses allowlist text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line (unknown rule
    /// name or missing path).
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
                return Err(format!("allowlist line {}: missing path prefix", idx + 1));
            };
            let rule = if rule == "*" {
                None
            } else {
                Some(
                    LintRule::parse(rule)
                        .ok_or_else(|| format!("allowlist line {}: unknown rule `{rule}`", idx + 1))?,
                )
            };
            entries.push((rule, path.to_owned()));
        }
        Ok(Allowlist { entries })
    }

    /// Whether `finding` is covered by an entry.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries.iter().any(|(rule, prefix)| {
            rule.is_none_or(|r| r == finding.rule) && finding.path.starts_with(prefix)
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ------------------------------------------------------------------ walk

/// Collects the workspace-relative paths of the `.rs` files to lint under
/// `root`: everything except `vendor/`, `target/`, hidden directories and
/// nested workspaces (a package that opted out of this workspace with its
/// own `[workspace]` table, like `benchmark/`, is not this workspace's code).
///
/// # Errors
///
/// Propagates filesystem errors from directory traversal.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "vendor"
                    || name == "target"
                    || name.starts_with('.')
                    || is_workspace_root(&path)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
}

/// Lints every eligible file under `root`, returning all findings (the
/// caller applies the allowlist).
///
/// # Errors
///
/// Propagates filesystem errors from traversal or reads.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in collect_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        findings.extend(scan_file(&rel, &src));
    }
    Ok(findings)
}

/// Runs the token scan *and* the cond-verify inter-procedural passes,
/// returning the merged findings sorted by (path, line, rule) so output
/// is deterministic across filesystems.
///
/// # Errors
///
/// Propagates filesystem errors from traversal or reads.
pub fn run_all(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = run(root)?;
    findings.extend(verify::run(root)?);
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.name()).cmp(&(b.path.as_str(), b.line, b.rule.name()))
    });
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---------------------------------------------------- classification

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/mq/src/queue.rs"), FileClass::Library);
        assert_eq!(classify("crates/core/src/lib.rs"), FileClass::Library);
        assert_eq!(classify("tests/properties.rs"), FileClass::Test);
        assert_eq!(classify("crates/mq/benches/bench.rs"), FileClass::Test);
        assert_eq!(
            classify("crates/bench/src/bin/exp_fig6_overhead.rs"),
            FileClass::App
        );
        assert_eq!(classify("examples/quickstart.rs"), FileClass::App);
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::App);
    }

    #[test]
    fn journal_module_is_fully_linted() {
        // Group-commit followers must park on a condvar, never poll: the
        // sleep rule (and every other library rule) has to cover the
        // journal module's files, while the throughput bench stays App.
        for p in [
            "crates/mq/src/journal/mod.rs",
            "crates/mq/src/journal/segment.rs",
            "crates/mq/src/shard.rs",
        ] {
            assert_eq!(classify(p), FileClass::Library, "{p}");
            for rule in [
                LintRule::Sleep,
                LintRule::StdSync,
                LintRule::WallClock,
                LintRule::Unwrap,
            ] {
                assert!(rule_applies(rule, classify(p), p), "{rule:?} must cover {p}");
            }
        }
        assert_eq!(classify("crates/bench/src/bin/exp_journal.rs"), FileClass::App);
    }

    #[test]
    fn transport_module_is_fully_linted() {
        // The TCP supervisor/acceptor must park on condvars and socket
        // read-timeouts, never thread::sleep, and stay panic-free: every
        // library rule has to cover the transport module's files, while
        // its bench stays App. (The accepted wall-clock exception — the
        // per-batch latency histogram — is documented in lint.allow.)
        for p in [
            "crates/mq/src/transport/mod.rs",
            "crates/mq/src/transport/frame.rs",
            "crates/mq/src/transport/tcp.rs",
        ] {
            assert_eq!(classify(p), FileClass::Library, "{p}");
            for rule in [
                LintRule::Sleep,
                LintRule::StdSync,
                LintRule::WallClock,
                LintRule::Unwrap,
            ] {
                assert!(rule_applies(rule, classify(p), p), "{rule:?} must cover {p}");
            }
        }
        assert_eq!(classify("crates/bench/src/bin/exp_tcp.rs"), FileClass::App);
    }

    #[test]
    fn relay_module_is_fully_linted() {
        // The relay seam sits on the hot delivery path of every transport:
        // it must stay panic-free, condvar-parked and sim-clocked, with
        // zero lint.allow entries of its own — every library rule covers
        // it in full, while its experiment binary stays App.
        let p = "crates/mq/src/relay.rs";
        assert_eq!(classify(p), FileClass::Library);
        for rule in [
            LintRule::Sleep,
            LintRule::StdSync,
            LintRule::WallClock,
            LintRule::Unwrap,
        ] {
            assert!(rule_applies(rule, classify(p), p), "{rule:?} must cover {p}");
        }
        assert_eq!(
            classify("crates/bench/src/bin/exp_federation.rs"),
            FileClass::App
        );
    }

    #[test]
    fn store_module_is_fully_linted() {
        // The storage inversion made these the primary store: the message
        // store's indexes and the segmented journal's roll/checkpoint/
        // truncate machinery must stay panic-free, std::sync-free and
        // sim-clocked — every library rule covers them in full, while the
        // storage experiment binary stays App.
        for p in [
            "crates/mq/src/store.rs",
            "crates/mq/src/journal/segment.rs",
        ] {
            assert_eq!(classify(p), FileClass::Library, "{p}");
            for rule in [
                LintRule::Sleep,
                LintRule::StdSync,
                LintRule::WallClock,
                LintRule::Unwrap,
            ] {
                assert!(rule_applies(rule, classify(p), p), "{rule:?} must cover {p}");
            }
        }
        assert_eq!(classify("crates/bench/src/bin/exp_store.rs"), FileClass::App);
    }

    #[test]
    fn scenario_crate_is_fully_linted() {
        // The scenario engine drives crash-and-rebuild and fault
        // schedules against live managers: its executor must park on
        // condvars (the Pacer), never sleep-poll, stay panic-free, and
        // read only the scenario clock — every library rule covers the
        // whole crate with zero lint.allow entries, while its experiment
        // binary stays App.
        for p in [
            "crates/scenario/src/lib.rs",
            "crates/scenario/src/toml.rs",
            "crates/scenario/src/spec.rs",
            "crates/scenario/src/compile.rs",
            "crates/scenario/src/exec.rs",
            "crates/scenario/src/oracle.rs",
            "crates/scenario/src/pacer.rs",
            "crates/scenario/src/error.rs",
        ] {
            assert_eq!(classify(p), FileClass::Library, "{p}");
            for rule in [
                LintRule::Sleep,
                LintRule::StdSync,
                LintRule::WallClock,
                LintRule::Unwrap,
            ] {
                assert!(rule_applies(rule, classify(p), p), "{rule:?} must cover {p}");
            }
        }
        assert_eq!(
            classify("crates/bench/src/bin/exp_scenario.rs"),
            FileClass::App
        );
    }

    #[test]
    fn simtime_exempt_from_time_rules_only() {
        let p = "crates/simtime/src/lib.rs";
        assert!(!rule_applies(LintRule::Sleep, classify(p), p));
        assert!(!rule_applies(LintRule::WallClock, classify(p), p));
        assert!(rule_applies(LintRule::Unwrap, classify(p), p));
        assert!(rule_applies(LintRule::StdSync, classify(p), p));
    }

    // --------------------------------------------------------- cleaning

    #[test]
    fn cleaning_blanks_comments_and_strings() {
        let src = r#"let x = "std::thread::sleep"; // std::thread::sleep
/* std::thread::sleep /* nested */ still comment */
let y = 1;"#;
        let cleaned = clean_source(src);
        assert!(!cleaned.contains("sleep"), "{cleaned}");
        assert!(cleaned.contains("let y = 1;"));
        assert_eq!(cleaned.lines().count(), src.lines().count());
    }

    #[test]
    fn cleaning_handles_raw_strings_and_chars() {
        let src = "let s = r#\"Instant::now()\"#; let c = '\"'; let l: &'static str = x; Instant::now();";
        let cleaned = clean_source(src);
        // The literal content is blanked, the real call survives.
        assert_eq!(cleaned.matches("Instant::now").count(), 1);
        assert!(cleaned.contains("&'static str"));
    }

    #[test]
    fn cleaning_handles_escaped_quote_in_string() {
        let src = r#"let s = "a\"b.unwrap()c"; s.len();"#;
        let cleaned = clean_source(src);
        assert!(!cleaned.contains(".unwrap()"));
        assert!(cleaned.contains("s.len();"));
    }

    // ----------------------------------------------------- test regions

    #[test]
    fn cfg_test_mod_is_stripped() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\nfn tail() {}\n";
        let stripped = strip_test_regions(clean_source(src).as_str());
        assert!(!stripped.contains("unwrap"));
        assert!(stripped.contains("pub fn f()"));
        assert!(stripped.contains("fn tail()"));
        assert_eq!(stripped.lines().count(), src.lines().count());
    }

    #[test]
    fn cfg_test_with_extra_attribute_is_stripped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn g() { x.unwrap(); } }\nfn keep() {}\n";
        let stripped = strip_test_regions(clean_source(src).as_str());
        assert!(!stripped.contains("unwrap"));
        assert!(stripped.contains("fn keep()"));
    }

    // ------------------------------------------------------------ rules

    #[test]
    fn sleep_rule_fires_in_library_code() {
        let f = scan_file("crates/x/src/lib.rs", "fn f() { std::thread::sleep(d); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, LintRule::Sleep);
        assert_eq!(f[0].line, 1);
        assert!(f[0].snippet.contains("std::thread::sleep"));
    }

    #[test]
    fn sleep_rule_silent_in_tests_and_comments() {
        assert!(scan_file("tests/t.rs", "fn f() { std::thread::sleep(d); }").is_empty());
        assert!(scan_file("crates/x/src/lib.rs", "// std::thread::sleep(d);").is_empty());
        let in_mod =
            "fn ok() {}\n#[cfg(test)]\nmod tests { fn f() { std::thread::sleep(d); } }\n";
        assert!(scan_file("crates/x/src/lib.rs", in_mod).is_empty());
    }

    #[test]
    fn std_sync_rule_fires_on_direct_and_grouped_use() {
        let direct = scan_file("crates/x/src/a.rs", "use std::sync::Mutex;");
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].rule, LintRule::StdSync);
        let grouped = scan_file("crates/x/src/a.rs", "use std::sync::{Arc, RwLock};");
        assert_eq!(grouped.len(), 1);
        let qualified = scan_file("crates/x/src/a.rs", "let m = std::sync::Condvar::new();");
        assert_eq!(qualified.len(), 1);
    }

    #[test]
    fn std_sync_rule_accepts_arc_atomics_and_mpsc() {
        assert!(scan_file("crates/x/src/a.rs", "use std::sync::Arc;").is_empty());
        assert!(scan_file("crates/x/src/a.rs", "use std::sync::{Arc, mpsc};").is_empty());
        assert!(
            scan_file("crates/x/src/a.rs", "use std::sync::atomic::AtomicBool;").is_empty()
        );
    }

    #[test]
    fn std_sync_rule_applies_to_app_code_too() {
        let f = scan_file("crates/bench/src/bin/exp.rs", "use std::sync::Mutex;");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wall_clock_rule_fires_in_library_not_app() {
        let lib = scan_file("crates/x/src/a.rs", "let t = Instant::now();");
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].rule, LintRule::WallClock);
        let sys = scan_file("crates/x/src/a.rs", "let t = SystemTime::now();");
        assert_eq!(sys.len(), 1);
        assert!(scan_file("crates/x/src/bin/b.rs", "let t = Instant::now();").is_empty());
    }

    #[test]
    fn unwrap_rule_fires_on_unwrap_and_expect() {
        let f = scan_file(
            "crates/x/src/a.rs",
            "let a = x.unwrap();\nlet b = y.expect(\"reason\");\n",
        );
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == LintRule::Unwrap));
        assert!(scan_file("tests/t.rs", "x.unwrap();").is_empty());
    }

    #[test]
    fn unwrap_rule_ignores_expect_method_on_self() {
        // A recursive-descent parser's own `expect` token matcher is not
        // `Option::expect`.
        assert!(scan_file(
            "crates/x/src/a.rs",
            "self.expect(&TokenKind::Comma, \"','\")?;"
        )
        .is_empty());
        // …but `Option::expect` on another receiver still fires.
        assert_eq!(
            scan_file("crates/x/src/a.rs", "herself.expect(\"present\");").len(),
            1
        );
    }

    // -------------------------------------------------------- allowlist

    #[test]
    fn allowlist_matches_rule_and_prefix() {
        let list = Allowlist::parse(
            "# wall-clock waits on real time here\nwall-clock crates/mq/src/queue.rs\n* crates/legacy/\n",
        )
        .unwrap();
        assert_eq!(list.len(), 2);
        let hit = Finding {
            rule: LintRule::WallClock,
            path: "crates/mq/src/queue.rs".into(),
            line: 1,
            snippet: String::new(),
        };
        assert!(list.allows(&hit));
        let wrong_rule = Finding {
            rule: LintRule::Unwrap,
            ..hit.clone()
        };
        assert!(!list.allows(&wrong_rule));
        let wildcard = Finding {
            rule: LintRule::Unwrap,
            path: "crates/legacy/src/old.rs".into(),
            line: 1,
            snippet: String::new(),
        };
        assert!(list.allows(&wildcard));
        let other_file = Finding {
            rule: LintRule::WallClock,
            path: "crates/mq/src/session.rs".into(),
            line: 1,
            snippet: String::new(),
        };
        assert!(!list.allows(&other_file));
    }

    #[test]
    fn walk_skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("cond-lint-walk-{}", std::process::id()));
        for dir in ["member/src", "standalone/src"] {
            std::fs::create_dir_all(root.join(dir)).unwrap();
        }
        std::fs::write(root.join("member/Cargo.toml"), "[package]\n").unwrap();
        std::fs::write(root.join("member/src/lib.rs"), "").unwrap();
        std::fs::write(root.join("standalone/Cargo.toml"), "[package]\n\n[workspace]\n").unwrap();
        std::fs::write(root.join("standalone/src/lib.rs"), "").unwrap();
        let files = collect_files(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(files, vec![root.join("member/src/lib.rs")]);
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("wall-clock").is_err());
        assert!(Allowlist::parse("no-such-rule crates/x/").is_err());
        assert!(Allowlist::parse("").unwrap().is_empty());
    }
}
