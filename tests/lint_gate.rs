//! The cond-lint gate as a tier-1 test: no finding in the workspace is
//! outside `lint.allow`, and every `lint.allow` entry still covers one —
//! what `cargo run -p cond-lint -- --deny` checks, under `cargo test`.

use std::path::Path;

use cond_lint::{run_all, Allowlist};

#[test]
fn workspace_is_lint_clean_and_every_allowlist_entry_is_live() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("lint.allow")).expect("read lint.allow");
    let allowlist = Allowlist::parse(&text).expect("lint.allow parses");
    let findings = run_all(root).expect("scan the workspace");
    let mut problems: Vec<String> = findings
        .iter()
        .filter(|f| !allowlist.allows(f))
        .map(ToString::to_string)
        .collect();
    problems.extend(allowlist.stale("lint.allow", &findings));
    assert!(
        problems.is_empty(),
        "cond-lint --deny fails:\n{}",
        problems.join("\n")
    );
}
