#!/usr/bin/env bash
# Tier-1 gate + hygiene + the exact checks.
#
# Everything runs offline: dependencies resolve to the committed
# Cargo.lock and the vendored shims under vendor/ (see README,
# "Offline / vendored builds").
#
# Every stage judges something exact — a test, a lint, a cycle count, a
# digest, bytes — so a green run means the code is right, on any host,
# and no stage rewrites a committed file. No stage compares one
# wall-clock reading with another: speed is judged only by alternating
# parent/change pairs of `xmt-perfbench` (benchmark/README.md, README
# "Showing a speed change"). Every stage runs even when an earlier one
# failed and prints its wall seconds; the failed stages are listed at
# the end and the exit status is non-zero if any.
set -uo pipefail
cd "$(dirname "$0")"

failed=()
stage() {
    local name=$1 t0=$SECONDS
    shift
    echo "== $name =="
    if ! "$@"; then
        echo "!! stage failed: $name"
        failed+=("$name")
    fi
    echo "-- $name: $((SECONDS - t0)) s"
}

stage "build (release)" cargo build --workspace --release

stage "tests" cargo test --workspace -q

stage "rustfmt" cargo fmt --all --check

stage "clippy" cargo clippy --workspace --all-targets -- -D warnings

# Informational, exact, read-only: the non-test line ledger CHANGES.md
# quotes — per crate, the lines of every .rs file under src/ before its
# first `#[cfg(test)]`, then the same count over all of crates/. It
# compares nothing; a PR that claims "less code" quotes it before and
# after.
line_ledger() {
    local count='FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
    for c in crates/*/; do
        printf '  %-10s src %6d\n' "$(basename "$c")" \
            "$(find "$c/src" -name '*.rs' -print0 | xargs -0 awk "$count")"
    done
    printf '  %-14s %6d\n' "crates/" "$(find crates -name '*.rs' -print0 | xargs -0 awk "$count")"
}
stage "non-test line ledger (informational)" line_ledger

# Two-pass pipeline over every golden workload, scaling case, FFT plan
# and XMTC sample: structure / def-before-use / dead-store / race
# analysis, symbolic translation validation of the block-compiled
# lowering (including the trace cache a probed run actually replayed),
# and the static traffic/roofline analyzer cross-checked against
# IntervalProbe measurements — the paper-scale FFT must classify
# bandwidth-bound (DESIGN.md §12, §17). Every pass runs on every target
# every time (about a second); the JSON artifact is CI-archivable.
# Exit 1 on any finding or failed cross-check.
stage "static analysis: front half + transval + traffic (xmt-lint)" \
    cargo run --release -p xmt-bench --bin xmt_lint -- --artifact target/xmt-lint.json

# The exact pass against the committed baseline, read-only (DESIGN.md
# §10): every golden workload under every engine x translation tier x
# {healthy, benign fault plan, seeded soft faults}, every paper-scale
# case under every engine x tier — statistics and spawn digests equal
# to the Reference/interpreter run, trace stats repeating — then each
# case's simulated cycles, spawn digest and trace row against
# BENCH_sim.json, and the host-time ledger accounting for >= 95 % of
# Machine::run. The rates in BENCH_sim.json are informational and are
# not looked at; `bench_sim OUT.json` re-records the file.
stage "simulator exact pass vs BENCH_sim.json" \
    cargo run --release -p xmt-bench --bin bench_sim -- --check BENCH_sim.json

# The debug-profile workspace run covers the threaded engine on the
# cheap scaling cases; the release-only (#[ignore]) tests pin the
# reference/fast-forward engines and the dense 65536-point case too.
# park_boundary rides along (--include-ignored runs its one plain test):
# the wakes a parked cluster replays when it leaves, checked under the
# codegen the benchmark times.
stage "paper-scale golden constants + park boundary (release profile)" \
    cargo test --release -p xmt-integration --test golden_scaling --test park_boundary -q \
    -- --include-ignored

# `paper fault_sweep` validates the golden FFT under escalating soft-fault
# rates, degraded topologies and a watchdog-tripping stuck TCU; the
# fault_resilience suite (rerun explicitly here as the resilience gate)
# covers seeded replay on generated programs and checkpoint/restore
# equivalence on every golden case — and, sliced eight ways, on every
# paper-scale case (the dense one is #[ignore]d out of the debug suite).
stage "fault smoke: sweep" cargo run --release -p xmt-bench --bin paper -- fault_sweep
stage "fault smoke: checkpoint round-trip" \
    cargo test --release -p xmt-integration --test fault_resilience -q -- --include-ignored

# The paper's evaluation, executed: every `paper` command spawned as a
# process — tier-1 already ran the quick ones unoptimised; this adds the
# full table4/table5, the three ablations and the paper-scale capture —
# plus fig3.svg, the Table IV model row and the docs' command names held
# to what the binary does.
stage "paper binary: every command, release" \
    cargo test --release -p xmt-bench --test paper_cli -q -- --include-ignored

# The simulation-as-a-service gate (DESIGN.md §16): submits the five
# paper configurations as one batch, kills a worker mid-job, and
# asserts the preempted/resumed results are bit-identical to direct
# runs; resubmitting the sweep must be served from the content cache
# byte-equal, probe streams must be identical across preemption, and
# concurrent submitters must observe identical bytes (proptest).
stage "job server smoke: preemption, cache identity, worker kill" \
    cargo test --release -p xmt-integration --test server_jobs -q

# The job table's memory (DESIGN.md §16), no benchmark needed: 40 000
# in-process cache-hit jobs may grow VmRSS by at most 0.5 KiB each — a
# finished job keeps its status and a share of the cached report bytes,
# nothing else. Its own test binary; skips where /proc is absent.
stage "job table memory: <= 0.5 KiB per finished job" \
    cargo test --release -p xmt-server --test job_table_memory -q

# The networked job service gate (DESIGN.md §18), three layers:
#   wire_properties — proptest fuzz of every trust-boundary decoder
#     (journal + TCP frames): arbitrary / truncated / bit-flipped bytes
#     must yield typed errors, never a panic.
#   net_service — loopback soak: concurrent multi-tenant clients over a
#     kill_worker, typed QuotaExceeded/Overloaded shedding beside
#     charge-free cache hits, deadline expiry + torn frames + dropped
#     connections without wedging, and a journal-snapshot restart that
#     finishes every job byte-identically under its original id.
#   crash_restart — process level: SIGKILL the real xmt_jobd mid-batch
#     on the paper sweep, restart on the same journal, and require
#     byte-identical reports and probe rows, exactly one terminal state
#     per job (zero lost, zero duplicated), and pre-crash idempotency
#     tokens still resolving to the original ids.
stage "network smoke: wire_properties" cargo test --release -p xmt-integration --test wire_properties -q
stage "network smoke: net_service" cargo test --release -p xmt-integration --test net_service -q
stage "network smoke: crash_restart" cargo test --release -p xmt-server --test crash_restart -q

# The benchmark crate is outside the workspace, so `cargo test
# --workspace` never reaches its unit tests (quantiles, JSON, compare,
# tracer, and the BENCHMARK.json <-> metrics-table check).
stage "repository benchmark: unit tests" \
    cargo test --offline --manifest-path benchmark/Cargo.toml

# benchmark/ (BENCHMARK.json) in ~20 s with tiny op counts: every
# workload's cycles, spawn digest and result bytes are checked against
# BENCH_sim.json / a direct run, the traced passes exercise every
# per-layer metric, and the service's sliced (checkpoint/resume) path
# must agree with an uninterrupted run.
stage "repository benchmark: smoke run of every workload, traced" \
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke --traced

if ((${#failed[@]})); then
    echo "ci.sh: ${#failed[@]} stage(s) failed:"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "ci.sh: all green"
