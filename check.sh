#!/usr/bin/env sh
# Full local gate: release build, test suite (plain and with lock-order
# deadlock detection; the suite includes tests/lint_gate.rs, which runs
# cond-lint against lint.allow), clippy, rustdoc, smoke bench.
#
# `./check.sh --lint-only` runs just the static gates — the cond-lint CLI
# (token rules + cond-verify passes over one lexed, test-stripped copy of
# each file, with their golden fixture corpus) and clippy — for a fast
# pre-commit check.
set -eux

# Non-test source lines per crate, printed for the record and gating
# nothing: each crates/*/src file up to its first top-level
# `#[cfg(test)]`, blank and `//` lines left out.
find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { skip = 0; split(FILENAME, path, "/") }
    skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    /^#\[cfg\(test\)\]/ { skip = 1; next }
    { lines[path[2]]++; total++ }
    END {
        for (crate in lines) printf "non-test lines: %s %d\n", crate, lines[crate]
        printf "non-test lines: total %d\n", total
    }' {} + | sort >&2

if [ "${1:-}" = "--lint-only" ]; then
    # Project-specific source lints and the cond-verify static analyses
    # (lock order, never-hold disciplines, message custody, registries).
    cargo run -q -p cond-lint -- --deny
    # The golden fixture corpus: every seeded violation must still fire
    # with both-site diagnostics, and the clean corpus must stay silent.
    cargo test -q -p cond-lint
    cargo clippy --workspace --all-targets -- -D warnings
    exit 0
fi

cargo build --release
# The append budget on its own line, so a regression in journal records per
# verdict (3 for the two-manager round trip whose receiver and sender both
# wait, 4 when the receiver reads late, 5 when the sender takes its outcome
# late too, 6 for the four-leaf tree) reads as exactly that among the
# suite's output.
cargo test -q --test append_budget
# The send path's heap budget on its own line, so a regression in
# allocations per send or resident bytes per pending four-leaf tree reads
# as exactly that: every send of one condition shares its compiled shape
# (gauge cond.shapes reads 1) and does only per-message work, 16
# allocations with or without the lock-order checker (bound 17), so a send
# that compiles, clones, re-encodes or formats per message, or a store
# table that keeps its peak size once drained, shows up here.
cargo test -q --test resident_bytes
cargo test -q
# Every example runs its `main` to the end and exits 0 (each asserts what
# its scenario must show; `contract_workflow` is the one caller of
# `DSphere::commit_blocking` outside the tests). About 3 s together.
for example in examples/*.rs; do
    cargo run -q --release --example "$(basename "$example" .rs)" > /dev/null
done
# benchmark/ is its own workspace, so the root build never compiles it:
# its tests (a --smoke run of every workload and the BENCHMARK.json drift
# test) are what make an API break there fail here.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
# The same budget from outside, durable (fsync per append, loopback TCP):
# one short condbench run whose driver line must show no failed operation
# and 3 appends per verdict (an acknowledgment is applied by the record
# that delivers it, never queued; a channel handoff is released and rides
# the next record its manager writes, never one of its own at this load;
# the receiver waits in read_message, so the arrival's record is its read
# and holds the original's dedup key, the receiver-log entry and the
# read-ack instead of the original; the sender waits in take_outcome, so
# the verdict's record hands it the notification and no record takes it).
# The window's two edges can each catch a trip with an append still in
# flight on the other manager (a few parts in a thousand at 2 s); a fourth
# record per trip reads 4. The same line must show fewer than 2.10 journal
# bytes per payload byte: a count, stable from run to run (1.98 with one
# compensation parked per message, the original journalled once, by the
# send, every frame's ids and queue names continuing from the frame before
# it in its segment file (mq::codec::IdCursor, NameTable) and its LSN a
# varint). Queueing the original and reading it as a record of its own,
# as before the pick-up was fused, reads 3.19.
condbench_line=$(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload durable_rtt --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$condbench_line" >&2
echo "$condbench_line" |
    grep -E '"failed":0,.*"journal_appends_per_verdict":\{"value":(2\.9[0-9]*|3(\.0[0-4][0-9]*)?),'
echo "$condbench_line" |
    grep -E '"journal_bytes_per_payload_byte":\{"value":([0-1](\.[0-9]*)?|2(\.0[0-9]*)?),'
# The four-leaf tree's bytes, from outside: a deep_pending smoke run (one
# manager, no fsync, 500 background pending four-leaf trees; ~2 s) must
# show no failed operation, 6 appends per verdict and fewer than 3.10
# journal bytes per payload byte. A send parks one compensation for the
# whole message, a failure fans it out per leaf, a verdict is put once, and
# a frame's ids and queue names continue from the frame before it, its LSN
# a varint (3.02). Every queue name spelled out in every frame reads 3.17;
# a second copy of every verdict or one parked copy per leaf reads more.
condbench_line=$(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload deep_pending --seed 1 --smoke --trace 0 | tail -n 1)
echo "$condbench_line" >&2
echo "$condbench_line" |
    grep -E '"failed":0,.*"journal_appends_per_verdict":\{"value":6(\.0*)?,'
echo "$condbench_line" |
    grep -E '"journal_bytes_per_payload_byte":\{"value":([0-2](\.[0-9]*)?|3(\.0[0-9]*)?),'
# Re-run the whole suite with the parking_lot shim's lock-acquisition-order
# checker: an ABBA hazard panics with both acquisition sites.
cargo test -q --workspace --features parking_lot/deadlock_detection
cargo clippy --workspace --all-targets -- -D warnings
# The rustdoc builds without a warning: a backticked path in a doc comment
# that stops resolving (or links a private item) fails here.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline
# The paper's figures are asserted inside `cargo test -q` above, not by
# binaries of their own: Fig. 1/4's nine recipient behaviours against the
# paper-rule oracle in
# tests/end_to_end.rs::example1_recipient_behaviours_match_the_paper_rules;
# Fig. 10's D-Sphere coupling rules in crates/dsphere/src/sphere.rs
# (sphere_commits_when_all_members_succeed,
# one_failed_message_fails_the_whole_sphere,
# resource_veto_fails_sphere_and_compensates_messages,
# sphere_timeout_fails_pending_members); the ack-backlog drain of
# ceil(N / ACK_BATCH) transactions in
# tests/observability.rs::evaluation_engine_reports_metrics.
# Every `--quick` run below writes its BENCH_*.json under
# target/bench-quick/; the committed files are full runs (see the last line).
# Journal group-commit regression gate, on counts (asserted inside the
# binary): fsyncs == appends at 1 writer, <= appends/2 at 8, <= appends/8 at
# 64. The throughput ratio is reported, not asserted.
cargo run --release -p cond-bench --bin exp_journal -- --quick
# Transport smoke: channels over loopback TCP at 1/8/64 pairs; asserts one
# sender session per batch, encode-once, two batches in flight on some
# connection at 8 pairs (a count; msgs/s is only reported) and no reconnect
# storm at 64 pairs.
cargo run --release -p cond-bench --bin exp_tcp -- --quick
# Relay federation: multi-hop chains over loopback TCP (the Fig. 8 crash
# proof is tests/federation.rs and scenarios/fig8_relay_crash.toml).
cargo run --release -p cond-bench --bin exp_federation -- --quick
# Storage inversion gate: on one queue a correlation point read must beat
# a browse-and-find scan at p95, and checkpointed restart must be >= 10x
# faster than replaying the full history (asserted inside the binary).
cargo run --release -p cond-bench --bin exp_store -- --quick
# Declarative scenarios: the three flagship TOMLs (relay crash, D-Sphere
# branch pattern with a relay crash, scaled-down IoT chaos fleet — every
# manager on its own in-memory journal, every channel loopback TCP, every
# run on simulated time) compile, run, and every exactly-one-outcome oracle
# must pass (asserted inside the binary).
cargo run --release -p cond-bench --bin exp_scenario -- --quick
# No gate above may touch a committed result file.
git diff --exit-code -- 'BENCH_*.json'
