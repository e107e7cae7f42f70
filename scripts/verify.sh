#!/usr/bin/env bash
# Tier-1 verification, fully offline: the workspace must build, every test
# must pass — on a 1-thread pool AND on an 8-thread pool, since every
# parallel path guarantees thread-count-invariant results — and no workspace
# dependency may point at a registry; the build is self-contained by
# construction (see README.md "Zero dependencies").
#
# Flags:
#   --soak   additionally run the 60-second serving soak harness
#            (100k-record mixed workload; fails on invariant violations or
#            unbounded memory growth) and the 1M-record store-backed
#            scored-matches run (peak-RSS-below-baseline assertion).
#            Skipped by default: together they add minutes of wall clock
#            to an otherwise fast gate.
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK=0
for arg in "$@"; do
    case "$arg" in
        --soak) SOAK=1 ;;
        *)
            echo "usage: scripts/verify.sh [--soak]" >&2
            exit 2
            ;;
    esac
done

# Serialize every cargo invocation in this script against concurrent runs.
# Parallel `cargo test`/`cargo build` processes sharing one `target/` race on
# build artifacts (doctest binaries in particular), which shows up as flaky
# "No such file or directory" doctest failures. An exclusive flock on a file
# next to target/ makes the whole verification critical-section.
mkdir -p target
exec 9>target/.verify.lock
if command -v flock >/dev/null 2>&1; then
    flock 9
fi

echo "== checking that all workspace dependencies are path-only =="
# Inside any [dependencies]-like section, a quoted version number (e.g.
# `rand = "0.10"` or `version = "1"`) means a registry lookup; every entry
# must be a `{ path = ... }` or `{ workspace = true }` reference.
if ! awk '
    /^\[/ { in_dep = ($0 ~ /dependencies(\]|\.)/) }
    in_dep && /"[0-9]/ && !/path *=/ {
        printf "%s:%d: registry dependency: %s\n", FILENAME, FNR, $0; bad = 1
    }
    END { exit bad }
' Cargo.toml crates/*/Cargo.toml; then
    echo "error: registry dependencies found (listed above)" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo test --offline (EM_THREADS=1) =="
EM_THREADS=1 cargo test -q --offline --workspace

echo "== cargo test --offline (EM_THREADS=8) =="
EM_THREADS=8 cargo test -q --offline --workspace

echo "== determinism harness with the feature cache disabled (EM_FEATCACHE=off) =="
# PreparedDataset::prepare must fall back to the uncached &str path and
# still be bit-identical at any thread count.
EM_FEATCACHE=off EM_THREADS=8 cargo test -q --offline -p automl-em --test determinism --test featcache_props

echo "== determinism harness under the EM_BINNED override (on, then off) =="
# Forcing every Best-splitter fit through the binned engine (and binned
# fits back to exact) must keep the whole harness bit-identical across
# thread counts. The first run leaves EM_THREADS unset so the in-process
# 1-vs-8 pool flips execute too.
EM_BINNED=on cargo test -q --offline -p automl-em --test determinism
EM_BINNED=off EM_THREADS=8 cargo test -q --offline -p automl-em --test determinism

echo "== weak supervision smoke (LF set -> label model -> AutoML, 1 and 8 threads) =="
# End to end with zero hand labels: apply an LF set, fit the generative
# label model, train AutoML-EM through the sample-weight path. The test
# asserts test F1 above a 0.6 floor; the exp_weak run prints the
# weak-vs-active comparison from the real binary. Run at both pool sizes:
# LF application and the label-model fit guarantee bit-identical results at
# any EM_THREADS (the determinism harness asserts the equality).
EM_THREADS=1 cargo test -q --offline -p em-weak --test weak_props \
    weak_automl_labels_fodors_zagats_with_zero_hand_labels
EM_THREADS=8 cargo test -q --offline -p em-weak --test weak_props \
    weak_automl_labels_fodors_zagats_with_zero_hand_labels
EM_THREADS=1 cargo run -q --release --offline -p em-bench --bin exp_weak -- \
    --scale 0.3 --budget 4 --only fodors
EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin exp_weak -- \
    --scale 0.3 --budget 4 --only fodors

echo "== serve smoke test (search -> save/load artifact -> stream -> in-memory parity) =="
# serve_demo searches a small pipeline, round-trips it through a model
# artifact, streams the full 110-record query table through
# Matcher::match_stream, and asserts the streamed output is bit-identical
# to the in-memory predict path (so streamed F1 == in-memory F1 by
# construction); it also prints precision/recall/F1 against the gold pairs.
EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin serve_demo

echo "== metrics endpoint smoke test (EM_METRICS, 1 and 8 threads) =="
# With EM_METRICS set, serve_demo serves /metrics and /healthz while it
# streams, cross-checks the windowed batch-latency quantiles against the
# post-hoc trace histogram, and still asserts bit-identical output — at
# both pool sizes, so the endpoint provably never feeds back into results.
EM_METRICS=127.0.0.1:0 EM_THREADS=1 cargo run -q --release --offline -p em-bench --bin serve_demo
EM_METRICS=127.0.0.1:0 EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin serve_demo

echo "== store-backed serving smoke (10k records: build -> snapshot -> reopen -> stream) =="
# bench_serve_scale's scored section streams the catalog into a CatalogStore
# + persistent index, reopens both from disk, serves a trained artifact over
# the store with match_stream, and asserts the output is bit-identical to
# the double-resident in-memory path (including across a thread flip). The
# report lands in a temp file: this is a correctness gate, not a bench run.
SCALE_OUT="$(mktemp /tmp/em-verify-scale-XXXXXX.json)"
cargo run -q --release --offline -p em-bench --bin bench_serve_scale -- \
    --sizes 10000 --ops 2000 --out "$SCALE_OUT"
rm -f "$SCALE_OUT"

echo "== benchmark self-check (perfbench: all three workloads, small sizes) =="
# perfbench is a workspace of its own (path dependencies on crates/*). Its
# self-check runs search, serve_store and serve_repeat timed and traced,
# twice each: every output must match the uncached reference path bit for
# bit, and the exact work counters must repeat across the two runs.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

if [ "$SOAK" = 1 ]; then
    echo "== soak: 60s mixed serving workload at 100k records (--soak) =="
    # Sustained churn against the persistent sharded index: periodic
    # invariant verification and snapshots, recovery parity at shutdown,
    # and an RSS growth ceiling. Nonzero exit on any violation.
    EM_THREADS=8 cargo run -q --release --offline -p em-bench --bin soak_serve -- \
        --records 100000 --seconds 60

    echo "== soak: store-backed scored matches at 1M records (--soak) =="
    # The full-size tentpole check: a million-record catalog streamed into
    # the store, served end to end, with the store-side peak RSS asserted
    # strictly below the double-resident in-memory baseline.
    SCALE_OUT="$(mktemp /tmp/em-verify-scale-1m-XXXXXX.json)"
    cargo run -q --release --offline -p em-bench --bin bench_serve_scale -- \
        --sizes 1000000 --out "$SCALE_OUT"
    rm -f "$SCALE_OUT"
fi

echo "verify: OK"
