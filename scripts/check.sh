#!/usr/bin/env sh
# Repo-wide checks, in the order a reviewer cares about them: formatting,
# lints (warnings are errors), the repo-specific lint gate, the full test
# suite, then an end-to-end invariant-audit smoke.
# Everything runs offline — the two external deps are vendored shims.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== static-analysis (token-aware determinism & panic-freedom gate)"
cargo run -q -p heteroprio-lint --bin audit-lint

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== benchmark package tests (its own workspace; the run API's outside caller)"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== perf smoke + regression gate (>20% tasks/sec loss vs committed baseline fails)"
# Release mode: the gate compares wall-clock throughput against the
# committed BENCH_kernel.json, and debug timings always "regress".
cargo run -q --release -p heteroprio-cli -- perf --smoke --against BENCH_kernel.json

echo "== scheduler-cost smoke (wall-clock times, so printed, not diffed)"
cargo run -q --release -p heteroprio-experiments --bin complexity 100 1000

echo "== committed results: the deterministic experiment binaries reproduce results/"
# complexity.txt records wall-clock timings, so it is not re-run here; every
# other binary is. The full fig7 sweep (Figures 7-9) takes minutes, so only
# its N <= 32 rows are re-run, against the same rows of results/fig7.txt;
# the N = 48 and 64 rows are regenerated by hand.
for bin in table1 table2 fig1_example fig4_5 fig6 heuristics_comparison timeline robustness \
    faults; do
    cargo run -q --release -p heteroprio-experiments --bin "$bin" | diff -u "results/$bin.txt" - \
        || { echo "results/$bin.txt is stale: regenerate it (see results/README.md)"; exit 1; }
done
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
grep -vE '^(48|64) ' results/fig7.txt > "$tmp/fig7.txt"
cargo run -q --release -p heteroprio-experiments --bin fig7 4 6 8 10 12 16 20 24 32 \
    | diff -u "$tmp/fig7.txt" - \
    || { echo "results/fig7.txt is stale: regenerate it (see results/README.md)"; exit 1; }

echo "== audit smoke: record a trace, then re-audit it from disk"
printf '8 1\n4 1\n2 2\n1 4\n3 3\n' > "$tmp/instance.txt"
cargo run -q -p heteroprio-cli -- schedule --cpus 2 --gpus 1 --audit \
    --trace "$tmp/trace.jsonl" "$tmp/instance.txt" > /dev/null
cargo run -q -p heteroprio-cli -- audit --cpus 2 --gpus 1 \
    --trace "$tmp/trace.jsonl" "$tmp/instance.txt"
cargo run -q -p heteroprio-cli -- audit cholesky 8 --cpus 2 --gpus 1
# Every factorization generator, end to end through the DAG engine.
cargo run -q -p heteroprio-cli -- audit qr 16 --cpus 4 --gpus 2
cargo run -q -p heteroprio-cli -- audit lu 16 --cpus 4 --gpus 2
# 19,600 tasks, a DAG stream of Pick decisions: the pop-order rule must stay
# sub-linear per pop (a full ready-set scan per pop makes this step seconds
# long in the debug build).
cargo run -q -p heteroprio-cli -- audit cholesky 48 --cpus 20 --gpus 4

echo "== example smoke: the runtime front-end under four schedulers, each run validated"
# TMPDIR: the example writes its Gantt chart to the temp directory.
TMPDIR="$tmp" cargo run -q --release --example submission_api 6 > /dev/null

echo "== recovery smoke: journal a run, kill it mid-flight, resume, diff traces and the export"
cargo run -q -p heteroprio-cli -- schedule --cpus 2 --gpus 1 \
    --trace "$tmp/reference.jsonl" "$tmp/instance.txt" > /dev/null
cargo run -q -p heteroprio-cli -- schedule --cpus 2 --gpus 1 \
    --journal "$tmp/run.journal" --crash-at 14 \
    --snapshot "$tmp/run.ckpt" --checkpoint-every 2 "$tmp/instance.txt" > /dev/null
cargo run -q -p heteroprio-cli -- resume --journal "$tmp/run.journal" \
    --snapshot "$tmp/run.ckpt" --cpus 2 --gpus 1 \
    --trace "$tmp/resumed.jsonl" "$tmp/instance.txt" > /dev/null
diff "$tmp/reference.jsonl" "$tmp/resumed.jsonl"
# The resumed binary journal, exported, is the reference trace again.
cargo run -q -p heteroprio-cli -- export --journal "$tmp/run.journal" \
    --trace "$tmp/exported.jsonl" > /dev/null
diff "$tmp/reference.jsonl" "$tmp/exported.jsonl"

echo "== dag recovery smoke: every DAG scheduler, and a faulty run, crashes, resumes and exports"
crash=40
for run in hp dualhp heft list "hp --faults w1@20+30,fail=0.05,seed=3 --exec-jitter 0.2"; do
    rm -f "$tmp/dag.journal" "$tmp/dag.ckpt"
    # Unquoted on purpose: the last entry carries its fault flags.
    # shellcheck disable=SC2086
    set -- cholesky 6 --cpus 2 --gpus 1 --algo $run
    cargo run -q -p heteroprio-cli -- dag "$@" --trace "$tmp/dag-reference.jsonl" > /dev/null
    cargo run -q -p heteroprio-cli -- dag "$@" --journal "$tmp/dag.journal" --crash-at "$crash" \
        --snapshot "$tmp/dag.ckpt" --checkpoint-every 8 > /dev/null
    cargo run -q -p heteroprio-cli -- resume "$@" --journal "$tmp/dag.journal" \
        --snapshot "$tmp/dag.ckpt" --trace "$tmp/dag-resumed.jsonl" > /dev/null
    diff "$tmp/dag-reference.jsonl" "$tmp/dag-resumed.jsonl"
    cargo run -q -p heteroprio-cli -- export --journal "$tmp/dag.journal" \
        --trace "$tmp/dag-exported.jsonl" > /dev/null
    diff "$tmp/dag-reference.jsonl" "$tmp/dag-exported.jsonl"
    crash=$((100 - crash))
done

echo "== three-class smoke: audit, then crash, resume and diff at k = 3"
k3="cpu=2,gpu=1,fpga=1"
printf '8 1 4\n4 1 2\n2 2 1\n1 4 4\n3 3 1\n' > "$tmp/k3.txt"
cargo run -q -p heteroprio-cli -- schedule --platform "$k3" --audit "$tmp/k3.txt" > /dev/null
cargo run -q -p heteroprio-cli -- schedule --platform "$k3" \
    --trace "$tmp/k3-reference.jsonl" "$tmp/k3.txt" > /dev/null
cargo run -q -p heteroprio-cli -- schedule --platform "$k3" \
    --journal "$tmp/k3.journal" --crash-at 10 \
    --snapshot "$tmp/k3.ckpt" --checkpoint-every 2 "$tmp/k3.txt" > /dev/null
cargo run -q -p heteroprio-cli -- resume --journal "$tmp/k3.journal" \
    --snapshot "$tmp/k3.ckpt" --platform "$k3" \
    --trace "$tmp/k3-resumed.jsonl" "$tmp/k3.txt" > /dev/null
diff "$tmp/k3-reference.jsonl" "$tmp/k3-resumed.jsonl"

echo "all checks passed"
