#!/usr/bin/env bash
# Tier-1 gate + hygiene + simulator-throughput capture.
#
# Everything runs offline: dependencies resolve to the committed
# Cargo.lock and the vendored shims under vendor/ (see README,
# "Offline / vendored builds").
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace -q

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== static analysis: front half + transval + traffic (xmt-lint) =="
# Two-pass pipeline over every golden workload, scaling case, FFT plan
# and XMTC sample: structure / def-before-use / dead-store / race
# analysis, symbolic translation validation of the block-compiled
# lowering (including the trace cache a probed run actually replayed),
# and the static traffic/roofline analyzer cross-checked against
# IntervalProbe measurements — the paper-scale FFT must classify
# bandwidth-bound (DESIGN.md §12, §17). Clean results are cached under
# target/xmt-lint-cache/ keyed by program digest; the JSON artifact is
# CI-archivable. Exit 1 on any finding or failed cross-check.
cargo run --release -p xmt-bench --bin xmt_lint -- --artifact target/xmt-lint.json

echo "== simulator throughput + paper-scale scaling gate -> BENCH_sim.json =="
# --check regresses the gate against the committed baseline: exit 1 if
# any workload's simulated cycle count drifts, or if the fast-forward
# engine falls below 1.0x over reference on any golden workload.
# --scaling additionally runs the 4096/8192/65536-TCU golden FFTs under
# all three engines, asserts identical cycles and spawn digests, and
# fails if the threaded engine falls below 0.9x reference cycles/s on
# any of them (the "Threaded must win at paper scale" gate, with slack
# for CI jitter; see DESIGN.md §14).
cargo run --release -p xmt-bench --bin bench_sim -- --scaling BENCH_sim.json --check BENCH_sim.json

echo "== paper-scale golden constants (release profile) =="
# The debug-profile workspace run covers the threaded engine on the
# cheap scaling cases; the release-only (#[ignore]) tests pin the
# reference/fast-forward engines and the dense 65536-point case too.
cargo test --release -p xmt-integration --test golden_scaling -q -- --ignored

echo "== probe zero-interference check =="
# Rerun every golden workload with an IntervalProbe attached: probed
# cycle counts must be bit-identical to the unprobed runs and the
# committed baseline, and probe totals must equal the run aggregates.
cargo run --release -p xmt-bench --bin bench_sim -- --probe --check BENCH_sim.json

echo "== block-compiled tier: zero interference + throughput gate =="
# Tier-on runs must be bit-identical to tier-off under all three
# engines on every golden workload (stats, spawn digests, seeded fault
# replay), trace-cache statistics must be deterministic across repeated
# runs, no paper-scale FFT may regress past 0.9x with the tier on, and
# the best tier-on fast-forward speedup must clear 1.5x (DESIGN.md §15).
cargo run --release -p xmt-bench --bin bench_sim -- --tier --check BENCH_sim.json

echo "== fault layer: zero interference + deterministic replay =="
# Benign fault plans must not perturb a single cycle of any golden
# workload (vs the committed baseline), and fixed-seed soft-fault runs
# must replay bit-identically under all three engines (DESIGN.md §13).
cargo run --release -p xmt-bench --bin bench_sim -- --faults --check BENCH_sim.json

echo "== fault smoke: sweep + checkpoint round-trip =="
# fault_sweep validates the golden FFT under escalating soft-fault
# rates, degraded topologies and a watchdog-tripping stuck TCU; the
# fault_resilience suite (rerun explicitly here as the resilience gate)
# covers seeded replay on generated programs and checkpoint/restore
# equivalence on every golden case — and, sliced eight ways, on every
# paper-scale case (the dense one is #[ignore]d out of the debug suite).
cargo run --release -p xmt-bench --bin fault_sweep
cargo test --release -p xmt-integration --test fault_resilience -q -- --include-ignored

echo "== job server smoke: preemption, cache identity, worker kill =="
# The simulation-as-a-service gate (DESIGN.md §16): submits the five
# paper configurations as one batch, kills a worker mid-job, and
# asserts the preempted/resumed results are bit-identical to direct
# runs; resubmitting the sweep must be served from the content cache
# byte-equal, probe streams must be identical across preemption, and
# concurrent submitters must observe identical bytes (proptest).
cargo test --release -p xmt-integration --test server_jobs -q

echo "== network smoke: TCP protocol, WAL crash recovery, quotas, backpressure =="
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
cargo test --release -p xmt-integration --test wire_properties -q
cargo test --release -p xmt-integration --test net_service -q
cargo test --release -p xmt-server --test crash_restart -q

echo "== repository benchmark: smoke run of every workload, traced =="
# benchmark/ (BENCHMARK.json) in ~20 s with tiny op counts: every
# workload's cycles, spawn digest and result bytes are checked against
# BENCH_sim.json / a direct run, the traced passes exercise every
# per-layer metric, and the service's sliced (checkpoint/resume) path
# must agree with an uninterrupted run.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke --traced

echo "ci.sh: all green"
