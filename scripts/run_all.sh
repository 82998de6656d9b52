#!/usr/bin/env bash
# Builds everything, runs the full test suite (incl. sidq-lint and the
# nodiscard compile probe), regenerates every experiment table, and runs the
# examples. Mirrors EXPERIMENTS.md's provenance.
#
# A failing binary fails the whole run, loudly and by name: a bench that
# dies halfway must never be mistaken for one that was merely skipped (the
# same silent-drop failure mode sidq exists to prevent in sensor data).
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Forced-scalar store and query leg: the software CRC32C is the oracle the
# SSE4.2 path is checked against, so the store suites run once more with
# it pinned. Every block and manifest CRC must match either way. The
# batched range query calls the dispatched leaf_scan directly, so the
# uncertain range and kNN suites run on the scalar tier too.
SIDQ_FORCE_ISA=scalar ctest --test-dir build --output-on-failure \
  --no-tests=error \
  -R '^(Crc32cTest|Crc32cKernelTest|BlockFormatTest|ManifestTest|StoreTest|StoreCacheTest|StoreCrashTest|ProbRangeTest|KnnTest)\.'

# Lint engine self-test against the fixture corpus (also a ctest, but run
# explicitly so a broken linter is named here, not buried in a ctest list),
# then the repo lint with the machine-readable report CI publishes.
python3 scripts/sidq_lint_selftest.py
python3 scripts/sidq_lint.py --format=json > /dev/null

# Runs every executable in a directory; aborts naming the first failure.
run_dir() {
  local dir="$1" ran=0
  for bin in "$dir"/*; do
    [[ -f "$bin" && -x "$bin" ]] || continue  # skip CMake droppings
    echo "== running ${bin} =="
    local rc=0
    "$bin" || rc=$?
    if [[ "$rc" -ne 0 ]]; then
      echo "FAILED: ${bin} (exit ${rc})" >&2
      exit 1
    fi
    ran=$((ran + 1))
  done
  if [[ "$ran" -eq 0 ]]; then
    echo "FAILED: no executables found in ${dir}" >&2
    exit 1
  fi
}

run_dir build/bench
run_dir build/examples

# Observability determinism gate: the same seeded run exported twice, at
# different worker counts, must produce byte-identical metrics and trace
# JSON (DESIGN.md "Observability"). cmp, not a parser: the contract is
# bytes.
obs_tmp="$(mktemp -d)"
trap 'rm -rf "${obs_tmp}"' EXIT
build/examples/fleet_cleaning --threads 1 \
  --metrics-out "${obs_tmp}/m1.json" --trace-out "${obs_tmp}/t1.json" \
  > /dev/null
build/examples/fleet_cleaning --threads 8 \
  --metrics-out "${obs_tmp}/m8.json" --trace-out "${obs_tmp}/t8.json" \
  > /dev/null
cmp "${obs_tmp}/m1.json" "${obs_tmp}/m8.json" || {
  echo "FAILED: metrics export differs across worker counts" >&2; exit 1; }
cmp "${obs_tmp}/t1.json" "${obs_tmp}/t8.json" || {
  echo "FAILED: trace export differs across worker counts" >&2; exit 1; }
echo "obs determinism gate: OK"

# Stream replay determinism gate: record an event log once, replay it at 1
# and 8 workers, and require byte-identical stream-output JSON (each replay
# also self-checks against the batch reference and exits nonzero on
# divergence). Again cmp, not a parser: the contract is bytes.
build/examples/fleet_cleaning --record-log "${obs_tmp}/events.log" > /dev/null
build/examples/fleet_cleaning --replay "${obs_tmp}/events.log" --threads 1 \
  --stream-out "${obs_tmp}/stream1.json" > /dev/null
build/examples/fleet_cleaning --replay "${obs_tmp}/events.log" --threads 8 \
  --stream-out "${obs_tmp}/stream8.json" > /dev/null
cmp "${obs_tmp}/stream1.json" "${obs_tmp}/stream8.json" || {
  echo "FAILED: stream replay differs across worker counts" >&2; exit 1; }
echo "stream determinism gate: OK"

# Durable-store recovery gate: ingest the cleaned stream into the segment
# store, take a canonical scan, tear the segment tail the way a power cut
# would (partial append past the committed manifest), and require that
# recovery (a) serves a byte-identical scan -- the torn bytes were never
# committed, so nothing readable may change -- and (b) is idempotent: a
# second reopen finds a clean store and scans identically. cmp, not a
# parser: the contract is bytes.
build/examples/fleet_cleaning --replay "${obs_tmp}/events.log" --threads 4 \
  --store-dir "${obs_tmp}/store" > /dev/null
build/examples/fleet_cleaning --store-dir "${obs_tmp}/store" \
  --store-scan "${obs_tmp}/scan_clean.txt" > /dev/null
tail_seg="$(ls "${obs_tmp}/store"/*.seg | sort | tail -1)"
printf 'torn-append-garbage' >> "${tail_seg}"
build/examples/fleet_cleaning --store-dir "${obs_tmp}/store" \
  --store-scan "${obs_tmp}/scan_torn.txt" > /dev/null
cmp "${obs_tmp}/scan_clean.txt" "${obs_tmp}/scan_torn.txt" || {
  echo "FAILED: store scan after torn-tail recovery differs" >&2; exit 1; }
build/examples/fleet_cleaning --store-dir "${obs_tmp}/store" \
  --store-scan "${obs_tmp}/scan_again.txt" > /dev/null
cmp "${obs_tmp}/scan_torn.txt" "${obs_tmp}/scan_again.txt" || {
  echo "FAILED: store recovery is not idempotent" >&2; exit 1; }
echo "store recovery gate: OK"

# Compaction gate: grow a multi-segment store (repeated ingests of the same
# log compose by append), corrupt an interior block of the first rolled
# segment the way bad media would, and require that (a) compaction rewrites
# that segment smaller, (b) the readable rows before and after compaction
# are byte-identical -- maintenance reclaims space, it never touches data --
# and (c) a second pass finds nothing to do. cmp, not a parser: the
# contract is bytes.
for _ in $(seq 1 10); do
  build/examples/fleet_cleaning --replay "${obs_tmp}/events.log" --threads 4 \
    --store-dir "${obs_tmp}/cstore" > /dev/null
done
first_seg="${obs_tmp}/cstore/000000.seg"
printf 'CORRUPTION' | dd of="${first_seg}" bs=1 seek=40 conv=notrunc \
  2> /dev/null
build/examples/fleet_cleaning --store-dir "${obs_tmp}/cstore" \
  --store-scan "${obs_tmp}/cscan_pocked.txt" > /dev/null
pre_size="$(stat -c %s "${first_seg}")"
build/examples/fleet_cleaning --store-dir "${obs_tmp}/cstore" --compact \
  | grep -q "compacted 1 segment" || {
  echo "FAILED: compaction did not rewrite the pocked segment" >&2; exit 1; }
post_size="$(stat -c %s "${first_seg}")"
if [[ "${post_size}" -ge "${pre_size}" ]]; then
  echo "FAILED: compaction reclaimed no bytes" \
       "(${pre_size} -> ${post_size})" >&2
  exit 1
fi
build/examples/fleet_cleaning --store-dir "${obs_tmp}/cstore" \
  --store-scan "${obs_tmp}/cscan_compacted.txt" > /dev/null
cmp "${obs_tmp}/cscan_pocked.txt" "${obs_tmp}/cscan_compacted.txt" || {
  echo "FAILED: compaction changed the readable rows" >&2; exit 1; }
build/examples/fleet_cleaning --store-dir "${obs_tmp}/cstore" --compact \
  | grep -q "nothing to compact" || {
  echo "FAILED: compaction is not idempotent" >&2; exit 1; }
echo "store compaction gate: OK"

# Refresh the recorded parallel-execution perf artifact (also re-checks the
# serial-vs-parallel determinism gate and the <=5% instrumentation-overhead
# gate baked into the bench). The instrumented run's metrics snapshot rides
# along inside the artifact.
python3 scripts/bench_json.py --out BENCH_exec.json \
  --attach obs_metrics="${obs_tmp}/bench_metrics.json" \
  build/bench/bench_exec_fleet --metrics-out "${obs_tmp}/bench_metrics.json"

# Kernel dispatch gate: the runtime-dispatched tiers (whatever this CPU
# offers) and the forced-scalar reference tier must produce byte-identical
# per-primitive checksums. cmp, not a parser: the contract is bytes.
build/bench/bench_kernels --quick \
  --checksums-out "${obs_tmp}/ck_dispatch.txt" > /dev/null
SIDQ_FORCE_ISA=scalar build/bench/bench_kernels --quick \
  --checksums-out "${obs_tmp}/ck_scalar.txt" > /dev/null
cmp "${obs_tmp}/ck_dispatch.txt" "${obs_tmp}/ck_scalar.txt" || {
  echo "FAILED: dispatched kernel checksums differ from forced-scalar" >&2
  exit 1
}
echo "kernel dispatch gate: OK"

# Refresh the columnar-kernel perf artifact (the bench itself enforces the
# kernel-vs-scalar bit-identity gate and exits nonzero on any mismatch).
python3 scripts/bench_json.py --out BENCH_kernels.json build/bench/bench_kernels

# Refresh the streaming-ingestion perf artifact (the bench enforces the
# serial-engine == batch-reference == parallel-replay checksum gate).
python3 scripts/bench_json.py --out BENCH_stream.json build/bench/bench_stream

# Refresh the durable-store perf artifact (the bench enforces the
# store-backed scan == in-memory path checksum gate and exits nonzero on
# any mismatch or failed recovery).
python3 scripts/bench_json.py --out BENCH_store.json build/bench/bench_store

echo "run_all: OK"
