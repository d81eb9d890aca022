//! `cond-lint` CLI: scans the workspace's non-vendor crates for
//! project-specific hazards. See the library docs for the rules.
//!
//! Usage: `cond-lint [--deny] [--root DIR] [--allow FILE]`
//!
//! * `--deny`  — exit non-zero when any unallowed finding, or any
//!   allowlist entry covering no finding, remains.
//! * `--root`  — workspace root to scan (default: current directory).
//! * `--allow` — allowlist file (default: `<root>/lint.allow` if present).

use std::path::PathBuf;
use std::process::ExitCode;

use cond_lint::{run_all, Allowlist};

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut allow_file: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match argv.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory"),
            },
            "--allow" => match argv.next() {
                Some(file) => allow_file = Some(PathBuf::from(file)),
                None => return usage("--allow requires a file"),
            },
            "--help" | "-h" => {
                println!("usage: cond-lint [--deny] [--root DIR] [--allow FILE]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let allow_path = allow_file.unwrap_or_else(|| root.join("lint.allow"));
    let allowlist = if allow_path.is_file() {
        match std::fs::read_to_string(&allow_path) {
            Ok(text) => match Allowlist::parse(&text) {
                Ok(list) => list,
                Err(e) => {
                    eprintln!("cond-lint: {}: {e}", allow_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("cond-lint: {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Allowlist::default()
    };

    let findings = match run_all(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cond-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    let mut reported = 0usize;
    let mut allowed = 0usize;
    for finding in &findings {
        if allowlist.allows(finding) {
            allowed += 1;
            continue;
        }
        println!("{finding}");
        reported += 1;
    }
    for stale in allowlist.stale(&allow_path.display().to_string(), &findings) {
        println!("{stale}");
        reported += 1;
    }
    eprintln!(
        "cond-lint: {reported} finding(s){}{}",
        if allowed > 0 {
            format!(", {allowed} allowlisted")
        } else {
            String::new()
        },
        if deny { " [--deny]" } else { "" }
    );

    if deny && reported > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("cond-lint: {problem}\nusage: cond-lint [--deny] [--root DIR] [--allow FILE]");
    ExitCode::from(2)
}
