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
//! There is one front end, the [`lexer`]: each file is read and lexed
//! once, [`lexer::strip_test_code`] removes its `#[cfg(test)]` items,
//! fields and statements, and the remaining tokens feed both the rules
//! above — each a short token pattern, so comments, doc examples and
//! string literals cannot match — and the cond-verify [`parser`]. That
//! keeps the tool dependency-free (no rustc libs in this offline
//! workspace).
//!
//! Findings can be suppressed through an allowlist file (default
//! `lint.allow` at the workspace root) of `<rule> <path-prefix>` lines;
//! `--deny` turns any unallowed finding, or an entry that covers none,
//! into a non-zero exit.
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

use lexer::{lex, strip_test_code, Tok, Token};

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
    /// A `// lint:` annotation of a kind no pass reads.
    Annotation,
    /// A wait on a `Condvar` field nothing in its crate notifies
    /// (cond-verify condvar pass).
    UnnotifiedCondvar,
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
pub const VERIFY_RULES: [LintRule; 6] = [
    LintRule::LockOrder,
    LintRule::NeverHold,
    LintRule::Custody,
    LintRule::Registry,
    LintRule::Annotation,
    LintRule::UnnotifiedCondvar,
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
            LintRule::Annotation => "annotation",
            LintRule::UnnotifiedCondvar => "unnotified-condvar",
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

// ----------------------------------------------------------------- rules

/// Whether the token at `k` is the ident or single punctuation `s`.
fn tok_is(t: &[Token], k: usize, s: &str) -> bool {
    match t.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(id)) => id == s,
        Some(Tok::Punct(c)) => s.chars().eq([*c]),
        _ => false,
    }
}

/// Whether `pat` matches the tokens starting at `k`.
fn seq(t: &[Token], k: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(j, s)| tok_is(t, k + j, s))
}

/// Whether the ident at `k` names a `std::sync` lock: `std::sync::Mutex…`
/// or an element of a (possibly multi-line) `std::sync::{…}` group.
fn std_sync_lock(t: &[Token], k: usize) -> bool {
    let Some(Tok::Ident(id)) = t.get(k).map(|t| &t.tok) else { return false };
    if !["Mutex", "RwLock", "Condvar"].iter().any(|l| id.starts_with(l)) {
        return false;
    }
    let std_sync = |end: usize| end >= 6 && seq(t, end - 6, &["std", ":", ":", "sync", ":", ":"]);
    if std_sync(k) {
        return true;
    }
    if !(k > 0 && (tok_is(t, k - 1, "{") || tok_is(t, k - 1, ","))) {
        return false;
    }
    // Walk back over earlier nested groups to the one holding `k`.
    let mut depth = 0usize;
    for j in (0..k).rev() {
        match t[j].tok {
            Tok::Punct('}') => depth += 1,
            Tok::Punct('{') if depth == 0 => return std_sync(j),
            Tok::Punct('{') => depth -= 1,
            Tok::Punct(';') => return false,
            _ => {}
        }
    }
    false
}

/// Whether `rule` matches at token `k`.
fn rule_matches(rule: LintRule, t: &[Token], k: usize) -> bool {
    match rule {
        LintRule::Sleep => seq(t, k, &["thread", ":", ":", "sleep"]),
        LintRule::StdSync => std_sync_lock(t, k),
        LintRule::WallClock => {
            (tok_is(t, k, "SystemTime") || tok_is(t, k, "Instant"))
                && seq(t, k + 1, &[":", ":", "now"])
        }
        // `.expect(` — but not a method named `expect` called on `self`
        // (e.g. a recursive-descent parser's token matcher).
        LintRule::Unwrap => {
            seq(t, k, &[".", "unwrap", "(", ")"])
                || (seq(t, k, &[".", "expect", "("]) && !(k > 0 && tok_is(t, k - 1, "self")))
        }
        // Verify rules are produced by the `verify` passes.
        LintRule::LockOrder
        | LintRule::NeverHold
        | LintRule::Custody
        | LintRule::Registry
        | LintRule::Annotation
        | LintRule::UnnotifiedCondvar => false,
    }
}

/// Applies the token rules to one file's production tokens: one finding
/// per rule and line, with the snippet taken from the raw `src` line.
fn scan_tokens(path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let class = classify(path);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut findings: Vec<Finding> = Vec::new();
    for rule in ALL_RULES.into_iter().filter(|r| rule_applies(*r, class, path)) {
        for k in (0..tokens.len()).filter(|k| rule_matches(rule, tokens, *k)) {
            let line = tokens[k].line as usize;
            if findings.iter().any(|f| f.rule == rule && f.line == line) {
                continue;
            }
            findings.push(Finding {
                rule,
                path: path.to_owned(),
                line,
                snippet: raw_lines.get(line - 1).map(|l| l.trim().to_owned()).unwrap_or_default(),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Lexes `src`, removes its test code and applies the token rules.
pub fn scan_file(path: &str, src: &str) -> Vec<Finding> {
    let (tokens, _) = strip_test_code(lex(src));
    scan_tokens(path, src, &tokens)
}

// -------------------------------------------------------------- allowlist

/// A parsed allowlist: `<rule-or-*> <path-prefix>` lines, `#` comments.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// `(line, rule, path prefix)`; `None` is the `*` wildcard.
    entries: Vec<(usize, Option<LintRule>, String)>,
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
            entries.push((idx + 1, rule, path.to_owned()));
        }
        Ok(Allowlist { entries })
    }

    /// Whether `finding` is covered by an entry.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries.iter().any(|(_, rule, prefix)| covers(*rule, prefix, finding))
    }

    /// The entries that cover none of `findings`, each formatted as a
    /// finding at its line of the allowlist file `path`.
    pub fn stale(&self, path: &str, findings: &[Finding]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(_, rule, prefix)| !findings.iter().any(|f| covers(*rule, prefix, f)))
            .map(|(line, rule, prefix)| {
                let rule = rule.map_or("*", LintRule::name);
                let entry = format!("{rule} {prefix}");
                format!("{path}:{line}: [{rule}] allowlist entry `{entry}` covers no finding")
            })
            .collect()
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

fn covers(rule: Option<LintRule>, prefix: &str, finding: &Finding) -> bool {
    rule.is_none_or(|r| r == finding.rule) && finding.path.starts_with(prefix)
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

/// Lints the workspace rooted at `root`: one walk, and each non-test file
/// read and lexed once, its production tokens feeding both the token
/// rules and the cond-verify passes. Returns every finding (the caller
/// applies the allowlist), sorted by (path, line, rule) so output is
/// deterministic across filesystems.
///
/// # Errors
///
/// Propagates filesystem errors from traversal or reads.
pub fn run_all(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    for file in collect_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel) == FileClass::Test {
            continue;
        }
        let src = std::fs::read_to_string(&file)?;
        let (tokens, annotations) = strip_test_code(lex(&src));
        findings.extend(scan_tokens(&rel, &src, &tokens));
        parsed.push(parser::parse(&rel, &tokens, annotations));
    }
    findings.extend(verify::run(root, parsed)?);
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
            classify("crates/bench/src/bin/exp_scenario.rs"),
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
        // schedules against live managers: its executor must park on the
        // managers' change signal, never sleep-poll, stay panic-free, and
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
let y = 1; std::thread::sleep(d);"#;
        let f = scan_file("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (LintRule::Sleep, 3));
    }

    #[test]
    fn cleaning_handles_raw_strings_and_chars() {
        let src = "let s = r#\"Instant::now()\"#; let c = '\"'; let l: &'static str = x;\nInstant::now();";
        // The literal content never matches; the real call does.
        let f = scan_file("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (LintRule::WallClock, 2));
    }

    #[test]
    fn cleaning_handles_escaped_quote_in_string() {
        let src = r#"let s = "a\"b.unwrap()c"; s.len();
let t = x.unwrap();"#;
        let f = scan_file("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    // ----------------------------------------------------- test regions

    #[test]
    fn cfg_test_mod_is_stripped() {
        let src = "pub fn f() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\nfn tail() { b.unwrap(); }\n";
        let lines: Vec<usize> = scan_file("crates/x/src/a.rs", src).iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 6]);
    }

    #[test]
    fn cfg_test_with_extra_attribute_is_stripped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn g() { x.unwrap(); } }\nfn keep() { y.unwrap(); }\n";
        let lines: Vec<usize> = scan_file("crates/x/src/a.rs", src).iter().map(|f| f.line).collect();
        assert_eq!(lines, [4]);
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
        let multi_line = scan_file("crates/x/src/a.rs", "use std::sync::{\n    Arc,\n    Mutex,\n};");
        assert_eq!((multi_line.len(), multi_line[0].snippet.as_str()), (1, "Mutex,"));
        let nested = "use std::sync::{atomic::{AtomicBool, Ordering}, Arc, RwLock};";
        assert_eq!(scan_file("crates/x/src/a.rs", nested).len(), 1);
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
    fn allowlist_entry_covering_no_finding_is_stale() {
        let list = Allowlist::parse(
            "# why\nunwrap crates/a/\nwall-clock crates/a/\n* crates/gone/\n",
        )
        .unwrap();
        let findings = scan_file("crates/a/src/lib.rs", "fn f() { x.unwrap(); }");
        assert_eq!(
            list.stale("lint.allow", &findings),
            [
                "lint.allow:3: [wall-clock] allowlist entry `wall-clock crates/a/` covers no finding",
                "lint.allow:4: [*] allowlist entry `* crates/gone/` covers no finding",
            ]
        );
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("wall-clock").is_err());
        assert!(Allowlist::parse("no-such-rule crates/x/").is_err());
        assert!(Allowlist::parse("").unwrap().is_empty());
    }
}
