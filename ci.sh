#!/usr/bin/env bash
# Local CI gate: formatting, lints, the test suites, the benchmark build,
# and the perf gates. Every perf bound is a row of GATES in
# crates/bench/src/gates.rs; `regress` applies them to each perf report.
#
#   ./ci.sh            # run everything
#   ./ci.sh --no-lint  # skip fmt/clippy (e.g. on toolchains without them)
set -euo pipefail
cd "$(dirname "$0")"

run_lint=1
if [[ "${1:-}" == "--no-lint" ]]; then
    run_lint=0
fi

if [[ $run_lint -eq 1 ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1 and every member crate's tests: cargo test -q --workspace"
cargo test -q --workspace

echo "==> scalar twin: tier-1 and the plan crates' tests with DS_SIMD=off"
DS_SIMD=off cargo test -q -p devicescope -p ds-neural -p ds-camal

echo "==> benchmark: perfbench builds and passes its tests with its lockfile unchanged"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> perf: smoke at 2 workers under DS_FAULT (serving must degrade, not abort)"
DS_FAULT=gaps:0.05,spikes:0.01 DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin perf -- --smoke --out target/ci_perf_smoke.json

echo "==> perf: scalar twin with DS_SIMD=off"
twin_log="target/ci_perf_twin.log"
DS_SIMD=off DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin perf -- --smoke --out target/ci_perf_twin.json | tee "$twin_log"
grep -q '^simd: scalar' "$twin_log" \
    || { echo "ci: DS_SIMD=off run did not dispatch the scalar twins" >&2; exit 1; }

echo "==> obs: trace smoke (DS_OBS=trace export must validate)"
trace_json="target/ci_trace.json"
trace_log="target/ci_trace.log"
rm -f "$trace_json"
DS_OBS=trace DS_TRACE="$trace_json" DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin perf -- --trace-smoke --out target/ci_trace_perf.json | tee "$trace_log"
grep -q 'trace ok:' "$trace_log" \
    || { echo "ci: trace smoke did not report a validated trace" >&2; exit 1; }
test -s "$trace_json" \
    || { echo "ci: DS_TRACE export $trace_json is missing or empty" >&2; exit 1; }

echo "==> perf: regress each report against results/BENCH_perf.json"
status=0
for run in smoke twin; do
    cargo run -q --release -p ds-bench --bin regress -- \
        --fresh "target/ci_perf_$run.json" --out "target/ci_regress_$run.json" || status=1
done
[[ $status -eq 0 ]] || { echo "ci: perf regression (see target/ci_regress_*.json)" >&2; exit 1; }

echo "ci: all checks passed"
