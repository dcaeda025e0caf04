#!/usr/bin/env bash
# One-shot verification gate: configure, build, run the full test suite,
# the verification layer, and the tracked solver benchmark with schema
# validation. This is the tier-1 entry point — if this script exits 0 the
# tree is good.
#
# Usage: scripts/check.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

step() { printf '\n== %s ==\n' "$*"; }

step "configure (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S . >/dev/null

step "build (-j${JOBS})"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

step "full test suite"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

step "verification layer (ctest -L verify)"
ctest --test-dir "${BUILD_DIR}" -L verify --output-on-failure -j "${JOBS}"

step "static netlist analysis (sfc_lint over examples/*.cir, text + SARIF)"
# Every shipped example must be fully clean — including the semantic
# interval passes (subthreshold-window, vth-temp-drift, cim-array-shape,
# adc-range): exit 0 means zero findings of any severity. Each deck's
# SARIF log must also satisfy the pinned schema/key-set contract.
for deck in examples/*.cir; do
  "${BUILD_DIR}/tools/sfc_lint" "${deck}"
  "${BUILD_DIR}/tools/sfc_lint" "${deck}" --sarif > "${BUILD_DIR}/lint_example.sarif"
  "${BUILD_DIR}/tools/verify_runner" check-sarif "${BUILD_DIR}/lint_example.sarif" \
    --keys tests/goldens/sarif_keys.json
done
# The acceptance demos must keep failing: a clean exit here means the
# linter lost its teeth. The subthreshold-window deck reads with a 1.6 V
# wordline — statically provable to turn on an erased cell at 85 degC.
for bad in floating-node:'I1 0 x 1u\nC1 x 0 1p\n.end' \
           vsource-loop:'V1 a 0 1\nV2 a 0 2\nR1 a 0 1k\n.end' \
           subthreshold-window:'VG g 0 1.6\nVD d 0 0.05\nZ1 d g 0 state=0\n.end'; do
  rule="${bad%%:*}"
  printf '%b\n' "${bad#*:}" > "${BUILD_DIR}/lint_demo.cir"
  # sfc_lint exits 3 here by design; capture instead of piping so pipefail
  # does not eat the expected nonzero status.
  out="$("${BUILD_DIR}/tools/sfc_lint" "${BUILD_DIR}/lint_demo.cir")" \
    && { echo "sfc_lint passed the ${rule} demo deck (expected exit 3)" >&2
         exit 1; }
  if grep -q "\[${rule}\]" <<<"${out}"; then
    echo "sfc_lint flags the ${rule} demo deck (exit 3, as expected)"
  else
    echo "sfc_lint FAILED to flag the ${rule} demo deck" >&2
    exit 1
  fi
done

step "observability layer (ctest -L trace)"
ctest --test-dir "${BUILD_DIR}" -L trace --output-on-failure -j "${JOBS}"

step "golden / oracle / fuzz summary (verify_runner)"
"${BUILD_DIR}/tools/verify_runner" golden
"${BUILD_DIR}/tools/verify_runner" oracle
"${BUILD_DIR}/tools/verify_runner" fuzz --count 200 --dump "${BUILD_DIR}"

step "solver benchmark smoke + JSON schema validation (traced)"
"${BUILD_DIR}/bench/perf_simulator" --smoke \
  --json "${BUILD_DIR}/BENCH_solver.json" \
  --trace "${BUILD_DIR}/trace_smoke.json" \
  --metrics "${BUILD_DIR}/metrics_smoke.json"
"${BUILD_DIR}/tools/verify_runner" check-bench "${BUILD_DIR}/BENCH_solver.json" \
  --keys tests/goldens/bench_solver_keys.json
# Key-set stability gate: the deterministic counter/histogram names a smoke
# run registers must match the reviewed golden — silent instrumentation
# drift in the solver hot path fails the tree.
"${BUILD_DIR}/tools/verify_runner" check-metrics "${BUILD_DIR}/metrics_smoke.json" \
  --golden tests/goldens/metrics_keys.json

step "SFC_TRACE=OFF build (zero-instrumentation flavour stays green)"
NOTRACE_DIR="${BUILD_DIR}-notrace"
cmake -B "${NOTRACE_DIR}" -S . -DSFC_TRACE=OFF \
  -DSFC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${NOTRACE_DIR}" -j "${JOBS}" \
  --target perf_simulator verify_runner test_trace test_exec
ctest --test-dir "${NOTRACE_DIR}" -L "trace|exec" --output-on-failure -j "${JOBS}"
# The disabled flavour still emits schema-4 BENCH JSON (counters present,
# zero) and must pass the same schema + key-set validation.
"${NOTRACE_DIR}/bench/perf_simulator" --smoke \
  --json "${NOTRACE_DIR}/BENCH_solver.json"
"${NOTRACE_DIR}/tools/verify_runner" check-bench "${NOTRACE_DIR}/BENCH_solver.json" \
  --keys tests/goldens/bench_solver_keys.json

step "UBSan pass (ctest -L \"spice|verify|lint|trace|nn|exec\" under -fsanitize=undefined)"
# -L is an AND filter when repeated; the regex is the union of the labels.
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "${UBSAN_DIR}" -S . -DSFC_SANITIZE=undefined \
  -DSFC_BUILD_BENCH=OFF -DSFC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${UBSAN_DIR}" -j "${JOBS}"
ctest --test-dir "${UBSAN_DIR}" -L "spice|verify|lint|trace|nn|exec" \
  --output-on-failure -j "${JOBS}"
# The interval-oracle fuzz campaign under UBSan: the outward-rounding
# interval arithmetic and the fixpoint engine must be UB-free on 200
# generated decks, with zero solver escapes from the static bounds.
"${UBSAN_DIR}/tools/verify_runner" fuzz --count 200 --dump "${UBSAN_DIR}"

step "clang-tidy (skipped automatically when the binary is absent)"
scripts/tidy.sh "${BUILD_DIR}"

step "all checks passed"
