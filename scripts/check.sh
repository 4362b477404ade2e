#!/usr/bin/env sh
# Repo-wide gate: formatting, lints, offline build, full test suite.
# Run from anywhere; everything executes against the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors; vendored shims excluded)"
cargo clippy --offline --workspace --all-targets \
  --exclude criterion --exclude proptest --exclude rand \
  --exclude serde --exclude serde_derive \
  -- -D warnings

echo "==> cargo doc (broken or ambiguous intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps \
  --exclude criterion --exclude proptest --exclude rand \
  --exclude serde --exclude serde_derive

# The lint step also writes a SARIF copy of its findings into the
# observability dir so CI can upload it with the other artifacts; the
# self-benchmark line (files scanned, wall time) goes to stderr.
SHIELD5G_OBS_DIR="${SHIELD5G_OBS_DIR:-target/obs}"
case "$SHIELD5G_OBS_DIR" in
  /*) ;;
  *) SHIELD5G_OBS_DIR="$(pwd)/$SHIELD5G_OBS_DIR" ;;
esac
export SHIELD5G_OBS_DIR

mkdir -p "$SHIELD5G_OBS_DIR"

echo "==> shield5g-lint (secret taint / enclave boundary / determinism / layer order / span discipline / panic budget)"
cargo run --offline -q -p shield5g-lint -- --format sarif > /dev/null || {
  echo "lint findings (full report):" >&2
  cargo run --offline -q -p shield5g-lint || true
  exit 1
}
echo "    ok $SHIELD5G_OBS_DIR/lint_findings.sarif ($(wc -c < "$SHIELD5G_OBS_DIR/lint_findings.sarif") bytes)"

echo "==> cargo build (offline)"
cargo build --offline --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> build the criterion micro benches and perfbench, then self-test perfbench"
# Both call the crypto primitives (Aes128, Sha256) and the enclave vault
# directly, so an API change that breaks them must fail here. Perfbench
# also drives the pool, the middleware layers and the engine through
# their public APIs; its short-mode self-test (about 5 s) checks that
# every workload still runs correct with no failed operation and
# repeats its simulated metrics exactly.
cargo bench --offline --no-run -p shield5g-bench --features criterion \
  --bench micro_crypto --bench micro_enclave
cargo build --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/selftest.py

echo "==> bench smoke (pool_scaling + ablation_optimizations + fault_sweep + degradation_sweep, one rep)"
# Absolute SHIELD5G_OBS_DIR (exported above): cargo runs bench binaries
# with the *package* directory as cwd, so a relative artifact dir would
# land under crates/bench/.
SHIELD5G_BENCH_SMOKE=1 cargo bench --offline -p shield5g-bench --bench pool_scaling
SHIELD5G_BENCH_SMOKE=1 cargo bench --offline -p shield5g-bench --bench ablation_optimizations
SHIELD5G_BENCH_SMOKE=1 cargo bench --offline -p shield5g-bench --bench fault_sweep
SHIELD5G_BENCH_SMOKE=1 cargo bench --offline -p shield5g-bench --bench degradation_sweep

echo "==> thread-count byte-identity (pool_scaling, fault_sweep, degradation_sweep smoke: 1 vs 2 threads, runner line masked)"
# The sweep runner promises artifacts that are a pure function of the
# job list: the same smoke sweep on 1 and 2 threads must render
# byte-identical BENCH points and observability exports. Only the
# one-line '"runner"' wall-time block may differ, so it is masked out
# before comparing. POSIX sh: temp dirs + grep -v, no process
# substitution.
IDENT_DIR="$SHIELD5G_OBS_DIR/thread_identity"
rm -rf "$IDENT_DIR"
mkdir -p "$IDENT_DIR/t1" "$IDENT_DIR/t2"
for bench in pool_scaling fault_sweep degradation_sweep; do
  for threads in 1 2; do
    SHIELD5G_BENCH_SMOKE=1 SHIELD5G_BENCH_THREADS=$threads \
      SHIELD5G_OBS_DIR="$IDENT_DIR/t$threads" \
      cargo bench --offline -p shield5g-bench --bench "$bench" > /dev/null
  done
done
for artifact in \
  BENCH_pool_scaling.json BENCH_fault_sweep.json BENCH_degradation.json \
  pool_scaling_metrics.prom pool_scaling_metrics.jsonl pool_scaling_spans.jsonl; do
  grep -v '"runner"' "$IDENT_DIR/t1/$artifact" > "$IDENT_DIR/t1/$artifact.masked"
  grep -v '"runner"' "$IDENT_DIR/t2/$artifact" > "$IDENT_DIR/t2/$artifact.masked"
  if ! cmp -s "$IDENT_DIR/t1/$artifact.masked" "$IDENT_DIR/t2/$artifact.masked"; then
    echo "thread-count identity broken: $artifact differs between 1 and 2 threads" >&2
    diff "$IDENT_DIR/t1/$artifact.masked" "$IDENT_DIR/t2/$artifact.masked" >&2 || true
    exit 1
  fi
  echo "    ok $artifact byte-identical across thread counts"
done
rm -rf "$IDENT_DIR"

echo "==> observability artifacts (machine-readable bench output, non-empty)"
for artifact in \
  BENCH_pool_scaling.json BENCH_ablation.json BENCH_fault_sweep.json \
  BENCH_degradation.json \
  pool_scaling_metrics.prom pool_scaling_metrics.jsonl pool_scaling_spans.jsonl \
  lint_findings.sarif; do
  path="$SHIELD5G_OBS_DIR/$artifact"
  if [ ! -s "$path" ]; then
    echo "missing or empty observability artifact: $path" >&2
    exit 1
  fi
  echo "    ok $path ($(wc -c < "$path") bytes)"
done
# Whatever else landed in the artifact dir (CI uploads all of it) must
# not be empty either.
for path in "$SHIELD5G_OBS_DIR"/*; do
  if [ ! -s "$path" ]; then
    echo "empty observability artifact: $path" >&2
    exit 1
  fi
done

echo "All checks passed."
