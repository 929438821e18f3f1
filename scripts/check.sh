#!/usr/bin/env bash
# CI-style gate: formatting, lints, tests, and an end-to-end smoke run.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cs-lint: determinism-and-invariant gate (DESIGN.md §14)"
cargo build -q --release -p cs-lint
lint_bin=target/release/cs-lint
lint_t0=$(date +%s%N)
"${lint_bin}"
lint_ms=$(( ($(date +%s%N) - lint_t0) / 1000000 ))
echo "    self-scan took ${lint_ms} ms (budget: 2000 ms)"
if [ "${lint_ms}" -ge 2000 ]; then
    echo "    FAIL: cs-lint self-scan blew its 2 s budget" >&2
    exit 1
fi

echo "==> cs-lint --json smoke (schema: tool, files_scanned, rule_counts)"
lint_json=$("${lint_bin}" --json)
echo "${lint_json}" | grep -q '"tool": "cs-lint"'
echo "${lint_json}" | grep -q '"files_scanned": '
echo "${lint_json}" | grep -q '"rule_counts": '

echo "==> cs-lint --fix-annotations --apply smoke (idempotent on a scratch tree)"
apply_dir=$(mktemp -d)
trap 'rm -rf "${apply_dir}"' EXIT
mkdir -p "${apply_dir}/crates/relaynet/src"
printf '[package]\nname = "scratch-root"\n' > "${apply_dir}/Cargo.toml"
printf '[package]\nname = "relaynet"\n' > "${apply_dir}/crates/relaynet/Cargo.toml"
printf 'pub fn child(master: &SimRng) -> SimRng {\n    master.derive("child")\n}\n' \
    > "${apply_dir}/crates/relaynet/src/lib.rs"
if "${lint_bin}" --root "${apply_dir}" > /dev/null; then
    echo "    FAIL: scratch tree should have findings before apply" >&2
    exit 1
fi
"${lint_bin}" --root "${apply_dir}" --fix-annotations --apply > /dev/null
"${lint_bin}" --root "${apply_dir}" > /dev/null   # clean after apply
cp "${apply_dir}/crates/relaynet/src/lib.rs" "${apply_dir}/before.rs"
"${lint_bin}" --root "${apply_dir}" --fix-annotations --apply > /dev/null
cmp -s "${apply_dir}/before.rs" "${apply_dir}/crates/relaynet/src/lib.rs" || {
    echo "    FAIL: second --apply pass was not a no-op" >&2
    exit 1
}

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> smoke: cargo run --example quickstart"
cargo run -q --release --example quickstart

echo "==> smoke: cargo run --example churn_web (workload engine: multi-stream + churn)"
cargo run -q --release --example churn_web

echo "==> smoke: cargo run --example path_policies (selection seam: all four policies)"
cargo run -q --release --example path_policies

echo "==> smoke: cargo run --example async_sweep (threaded runtime + oracle check)"
cargo run -q --release --example async_sweep

echo "==> smoke: cargo run --example consensus_scale (7k-relay directory + epoch churn)"
cargo run -q --release --example consensus_scale

echo "==> smoke: cargo run --example fault_storm (crash injection + recovery loop)"
cargo run -q --release --example fault_storm

echo "==> smoke: cargo run --example telemetry_scale (7k-relay sketch quantiles + Prometheus golden file)"
cargo run -q --release --example telemetry_scale

echo "==> threaded-runtime differential suite (oracle fingerprints)"
cargo test -q --test async_runtime

echo "==> fault-recovery suite (conservation + fingerprint invariance under faults)"
cargo test -q --test fault_recovery

echo "==> telemetry differential suite (sketch vs exact CDF, shuffle-merge invariance)"
cargo test -q --test telemetry_sketch

echo "==> bench smoke: CS_BENCH_FAST=1 (3 samples; sanity, not measurement)"
echo "    (includes overlay/star_async_* — threaded-runtime scaling cases + pool-flatness asserts)"
CS_BENCH_FAST=1 cargo bench -q -p cs-bench --bench bench_codec
CS_BENCH_FAST=1 cargo bench -q -p cs-bench --bench bench_simcore
CS_BENCH_FAST=1 cargo bench -q -p cs-bench --bench bench_overlay

echo "==> all checks passed"
