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

# The API docs build with every rustdoc lint an error: each intra-doc
# link resolves, and none points at an item the docs do not show.
stage "rustdoc (warnings denied)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Informational, exact, read-only: the non-test line ledger CHANGES.md
# quotes — per crate, the lines of every .rs file under src/ before the
# `#[cfg(test)]` that opens a `mod` (a `#[cfg(test)]` on a `use`, a field
# or a function counts as code), then the same count over all of
# crates/. It compares nothing; a PR that claims "less code" quotes it
# before and after.
line_ledger() {
    local count='FNR == 1 { n += held; held = t = 0 }
        t { next }
        held { held = 0; if (/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { t = 1; next } n++ }
        /#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + held }'
    for c in crates/*/; do
        printf '  %-10s src %6d\n' "$(basename "$c")" \
            "$(find "$c/src" -name '*.rs' -print0 | xargs -0 awk "$count")"
    done
    printf '  %-14s %6d\n' "crates/" "$(find crates -name '*.rs' -print0 | xargs -0 awk "$count")"
}
stage "non-test line ledger (informational)" line_ledger

# The static-analysis gate (xmt_bench::lint; DESIGN.md §12, §17) over
# every golden workload, paper-scale case, FFT plan and XMTC sample:
# structure / def-before-use / dead-store / race analysis, symbolic
# translation validation of the block-compiled lowering, and the static
# traffic/roofline analyzer with its pinned verdicts — the paper-scale
# FFT must classify bandwidth-bound. Every golden and paper-scale case
# is also run probed: each per-phase measurement must fall inside its
# predicted interval, and the trace cache the run replayed must
# validate. About 5 s, peaking near 200 MiB; it takes no arguments and
# writes no artifact. Exit 1 on any finding.
stage "static analysis: front half + transval + traffic (xmt-lint)" \
    cargo run --release -p xmt-bench --bin xmt_lint

# The exact pass against the committed baseline, read-only (DESIGN.md
# §10): through the determinism matrix (xmt_bench::matrix), every
# golden workload under every engine x translation tier x {healthy,
# benign fault plan, seeded soft faults}, every paper-scale case under
# every engine x tier — statistics, spawn log, memory and global
# registers equal to the Reference/interpreter run, trace stats
# repeating — then each case's simulated cycles, spawn digest,
# statistics and trace row against BENCH_sim.json (and each
# paper-scale case's exact host work counts: cluster steps taken and
# parked), and the host-time ledger accounting for >= 95 % of
# Machine::run. The rates in BENCH_sim.json are informational and are
# not looked at; `bench_sim OUT.json` re-records the file.
stage "simulator exact pass vs BENCH_sim.json" \
    cargo run --release -p xmt-bench --bin bench_sim -- --check BENCH_sim.json

# The determinism matrix's release-only cells (#[ignore]d out of the
# debug suite): the dense 65536-point case's default cell and its chain
# of eight checkpoint slices, held to the Reference/interpreter oracle
# and to its BENCH_sim.json row (`bench_sim --check` above already runs
# every paper-scale case under every engine and tier). park_boundary
# rides along (--include-ignored runs its one plain test): the wakes a
# parked cluster replays when it leaves, checked under the codegen the
# benchmark times.
stage "determinism matrix, release-only cells + park boundary (release profile)" \
    cargo test --release -p xmt-integration --test determinism --test park_boundary -q \
    -- --include-ignored

# The substrates alone under release codegen: every component pin
# (MoT, butterfly, module + channel) and property test again, plus the
# release-only recomputation of EXPERIMENTS.md's "Interconnect
# saturation" table — its five rows at the three decimals printed there.
stage "substrate pins + saturation table (release profile)" \
    cargo test --release -p xmt-integration --test substrate_properties -q -- --include-ignored

# `paper fault_sweep` validates the golden FFT under escalating soft-fault
# rates, degraded topologies and a watchdog-tripping stuck TCU; the
# fault_resilience suite (rerun explicitly here as the resilience gate)
# covers seeded replay on generated programs and checkpoint/restore
# equivalence on every golden case, mid-trace on both tiers and under
# soft faults (the paper-scale slices are the determinism matrix's,
# above).
stage "fault smoke: sweep" cargo run --release -p xmt-bench --bin paper -- fault_sweep
stage "fault smoke: checkpoint round-trip" \
    cargo test --release -p xmt-integration --test fault_resilience -q -- --include-ignored

# The paper's evaluation, executed: every `paper` command spawned as a
# process — tier-1 already ran the quick ones unoptimised; this adds the
# full table4/table5 and the three ablations —
# plus fig3.svg, the Table IV model row and the docs' command names held
# to what the binary does.
stage "paper binary: every command, release" \
    cargo test --release -p xmt-bench --test paper_cli -q -- --include-ignored

# The simulation-as-a-service gate (DESIGN.md §16): submits the five
# paper configurations as one batch, kills a worker mid-job, and
# asserts the preempted and rerun results are bit-identical to direct
# runs; resubmitting the sweep must be served from the content cache
# byte-equal, probe streams must be identical across preemption, and
# concurrent submitters must observe identical bytes (proptest).
stage "job server smoke: preemption, cache identity, worker kill" \
    cargo test --release -p xmt-integration --test server_jobs -q

# The job table's memory (DESIGN.md §16), no benchmark needed: the
# table keeps the newest 4 096 terminal jobs, so 40 000 in-process
# cache-hit jobs, each with a token of its own, must retire exactly
# 40 016 - 4 096 rows and grow VmRSS by at most 0.029 KiB each, leave a
# row slab of no more slots than the 4 096 terminal rows and the
# unfinished ones, and a token store holding one tenant name — rows in
# one slab found through an index of slot numbers, not in a map of
# 88-byte buckets with two tenant strings per row (0.060-0.077 KiB per
# hit); then, in a process of their own on a table
# filled to its bound, 2 000 cold jobs of four or more slices may grow
# it by at most 0.5 KiB each beyond the report bytes they keep
# — a finished job keeps its status and its report, nothing else (no
# paused machine outlives its job). It also holds two exact counts:
# the 40 000 hits share one (dims, copies), so programs_digested must
# be 1 — a hit that rebuilds its FFT program to make its content
# address fails here, not on a clock — and the hits, resolved at
# admission, must add fewer than 40 idle_wakeups — a server that wakes
# its idle worker for every resolved job adds about one per hit. Its
# own test binary, each phase in a child process; skips where /proc is
# absent.
stage "job table memory: slab table, <= 0.029 KiB per hit, <= 0.5 KiB per cold job" \
    cargo test --release -p xmt-server --test job_table_memory -q

# The simulated machine's memory (DESIGN.md §10), no benchmark needed:
# building and running the 65 536-TCU fft_xmt64k_n8192 in-process may
# grow VmRSS by at most 5.75 MiB — clusters no thread reaches hold no
# issue records and no register store, cache sets no access reaches
# hold no tag words, and the butterfly's stage rings hold only the
# flits staged at once — and the dense fft_xmt8k_n65536 (#[ignore]d out
# of the debug suite) by at most 8 MiB — its transactions travel as
# their own tags, each network holds its waiting flits in one arena
# sized to what waits at once, and the memory modules share one pair of
# arenas for their queued, waiting and maturing requests. Each measures
# in a process of its own; skips where /proc is absent.
stage "machine memory: 64k machine <= 5.75 MiB, dense 8k <= 8 MiB" \
    cargo test --release -p xmt-integration --test machine_memory -q -- --include-ignored

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
