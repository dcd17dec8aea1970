#!/usr/bin/env bash
# Tier-1 verification: the default build + full test suite, a Release
# (-O3) bit-identity stage, then sanitized configurations — ASan+UBSan
# over the serving planner, the inference server and its substrate,
# then TSan over the concurrency-labelled suites (server lanes, metrics
# sinks, the logger).
#
# Usage: scripts/tier1.sh [jobs]
#
# Set DB_COVERAGE=1 to append a gcov line-coverage stage: the full suite
# runs in an instrumented build (build-coverage/) and a per-module
# line-coverage summary is printed at the end.
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: default build =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "== tier-1: profile report byte-stability =="
# The deterministic-profiling contract: two invocations of the profile
# subcommand on the same zoo model must render byte-identical reports
# (text and JSON), and the lint stage's metric-name allowlist must match
# the tree.
PROFILE_TMP="$(mktemp -d)"
trap 'rm -rf "${PROFILE_TMP}"' EXIT
build/tools/deepburning profile Alexnet > "${PROFILE_TMP}/a.txt"
build/tools/deepburning profile Alexnet > "${PROFILE_TMP}/b.txt"
cmp "${PROFILE_TMP}/a.txt" "${PROFILE_TMP}/b.txt"
build/tools/deepburning profile Alexnet --json > "${PROFILE_TMP}/a.json"
build/tools/deepburning profile Alexnet --json > "${PROFILE_TMP}/b.json"
cmp "${PROFILE_TMP}/a.json" "${PROFILE_TMP}/b.json"
scripts/lint.sh --metrics-only

echo "== tier-1: Release (-O3) bit-identity (ctest -L differential) =="
# The compiler may vectorise the scalar kernels differently at -O3; the
# golden activation digests, the scalar-vs-AVX2 comparison and the
# kernel brute-force tests must still hold bit for bit.
cmake --preset release
cmake --build --preset release -j "${JOBS}" \
  --target differential_test serve_golden_test provisioning_test \
           verifier_oracle_test kernels_test deepburning
ctest --preset release -j "${JOBS}" -L differential
build-release/tests/kernels_test

echo "== tier-1: ASan+UBSan on the concurrent server and its substrate =="
cmake --preset asan
# The pure serving planner (serve_plan_test, including its 10^6-request
# chaos plan), the golden serving oracle and the provisioning oracle
# (image encode, raw-weight decode, the shared snapshot) run here too,
# and so do the kernels and the functional simulator: the int16 tap
# panel packing and the weight-pair reads that may touch the snapshot's
# trailing pad word are where an out-of-bounds read would hide.  So do
# the design serde cases: the decoder reads untrusted cache bytes.
cmake --build --preset asan -j "${JOBS}" \
  --target serve_test serve_plan_test serve_golden_test trace_test \
           common_test perf_model_test host_runtime_test system_sim_test \
           obs_test provisioning_test kernels_test functional_sim_test \
           cluster_test
ctest --preset asan -j "${JOBS}" \
  -R 'Planner|ServeGolden|Provisioning|InferenceServer|PerfTrace|MathUtil|HostRuntime|SystemSim|PerfModel|Metrics|Tracer|ScopedSpan|ChromeTrace|ExportPerfTrace|Kernels|RoundShiftHalfAway|SimArena|FunctionalSim|DesignSerde'

echo "== tier-1: UBSan on the static verifier and RTL lint =="
# The verifier's interval arithmetic (AGU footprints, memory-map overlap
# scans, fold partitions) is exactly where signed overflow and bad shifts
# would hide; pure UBSan runs it at near-native speed, including the
# seeded mutation sweep and the report-digest oracle (VerifierOracle:
# the per-run schedule rules over every zoo design, hand-made
# corruptions and the Explore sweep).
cmake --preset ubsan
cmake --build --preset ubsan -j "${JOBS}" \
  --target analysis_test rtl_test verifier_oracle_test
ctest --preset ubsan -j "${JOBS}" \
  -R 'Diagnostics|Verifier|MutationSweep|DesignCacheVerify|BrokenRuleSweep|Lint|VerifierOracle'

echo "== tier-1: UBSan on the RTL analysis suite (ctest -L rtl) =="
# The elaborator's bit-range bookkeeping and the width-inference
# arithmetic (slice bounds, literal rendering shifts, Tarjan indices)
# run the whole rtl-labelled suite under UBSan: the typed-AST printer
# goldens, the netlist elaborator and the rtl.* mutation sweep.
cmake --build --preset ubsan -j "${JOBS}" --target rtl_test rtl_analysis_test
ctest --preset ubsan -j "${JOBS}" -L rtl

echo "== tier-1: TSan on the thread-labelled suites (ctest -L threads) =="
# cluster_test's pool lanes all read one shared weight snapshot.
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}" \
  --target serve_test obs_test common_test cluster_test
ctest --preset tsan -j "${JOBS}" -L threads

echo "== tier-1: ASan fault campaign (ctest -L faults) =="
# The seeded fault-injection campaign (bit flips, transients, stalls)
# under ASan+UBSan: recovery paths (scrub-and-reload, retries, deadline
# expiry, shedding) must be memory-clean, not just correct.
cmake --build --preset asan -j "${JOBS}" --target fault_test
ctest --preset asan -j "${JOBS}" -L faults

echo "== tier-1: ASan cluster chaos campaign (ctest -L chaos) =="
# Cluster-level resilience under ASan+UBSan: replica crash re-dispatch,
# health-monitor readmission, circuit breaking and hedging must keep
# every request accounted for (and bit-identical where kOk) while the
# recovery paths stay memory-clean.
cmake --build --preset asan -j "${JOBS}" --target chaos_test
ctest --preset asan -j "${JOBS}" -L chaos

echo "== tier-1: ASan DSE campaign (ctest -L dse) + tune byte-stability =="
# The design-space exploration contract under ASan+UBSan: the exhaustive
# cross-check (parallel pruned search == brute-force frontier on every
# zoo model), the Pareto property suite and the sweep grammar must be
# memory-clean.  Then the CLI smoke: the tune report must be
# byte-identical across reruns and across --jobs values.
cmake --build --preset asan -j "${JOBS}" --target dse_test
ctest --preset asan -j "${JOBS}" -L dse
build/tools/deepburning tune MNIST --jobs 1 > "${PROFILE_TMP}/tune_a.txt"
build/tools/deepburning tune MNIST --jobs 8 > "${PROFILE_TMP}/tune_b.txt"
cmp "${PROFILE_TMP}/tune_a.txt" "${PROFILE_TMP}/tune_b.txt"
build/tools/deepburning tune MNIST --jobs 8 --json > "${PROFILE_TMP}/tune_a.json"
build/tools/deepburning tune MNIST --jobs 8 --json > "${PROFILE_TMP}/tune_b.json"
cmp "${PROFILE_TMP}/tune_a.json" "${PROFILE_TMP}/tune_b.json"
# NiN has the most fold segments (up to 53k on a swept candidate) and
# layers (30 coordinator runs) of the zoo.
build/tools/deepburning tune NiN --jobs 1 > "${PROFILE_TMP}/tune_nin_a.txt"
build/tools/deepburning tune NiN --jobs 8 > "${PROFILE_TMP}/tune_nin_b.txt"
cmp "${PROFILE_TMP}/tune_nin_a.txt" "${PROFILE_TMP}/tune_nin_b.txt"
build/tools/deepburning tune NiN --jobs 1 --json > "${PROFILE_TMP}/tune_nin_a.json"
build/tools/deepburning tune NiN --jobs 8 --json > "${PROFILE_TMP}/tune_nin_b.json"
cmp "${PROFILE_TMP}/tune_nin_a.json" "${PROFILE_TMP}/tune_nin_b.json"

echo "== tier-1: bench smoke (perf-trajectory harness + diff tool) =="
# Minimal-run trajectory into a temp dir, then bench_diff.py over the
# committed snapshots: proves the harness runs, the JSON parses, and the
# regression gate works.  Smoke numbers are unwarmed, so the sim compare
# is parse-only (huge tolerance); the serve compare is simulated time
# and must hold to the default 10%.
scripts/bench.sh --smoke "${JOBS}"

if [[ "${DB_COVERAGE:-0}" == "1" ]]; then
  echo "== tier-1: gcov line coverage over the full suite =="
  cmake --preset coverage
  cmake --build --preset coverage -j "${JOBS}"
  ctest --preset coverage -j "${JOBS}"
  # Per-module summary: aggregate each src/<module>'s gcov line rates.
  # gcov writes its .gcov transcripts into the cwd; keep them out of the
  # tree.
  (
    cd build-coverage
    find . -name '*.gcda' -path '*src*' -print0 |
      xargs -0 gcov 2>/dev/null |
      awk '/^File .*\/src\// {
             file = $2; gsub(/'"'"'/, "", file)
             sub(/.*\/src\//, "", file); sub(/\/.*/, "", file)
           }
           /^Lines executed:/ && file != "" {
             split($0, a, ":"); split(a[2], b, "% of ")
             covered[file] += b[2] * b[1] / 100.0; total[file] += b[2]
             file = ""
           }
           END {
             printf "%-12s %10s %10s %8s\n",
                    "module", "lines", "covered", "rate"
             for (m in total)
               printf "%-12s %10d %10d %7.1f%%\n",
                      m, total[m], covered[m], 100.0 * covered[m] / total[m]
           }' | sort
    rm -f ./*.gcov
  )
fi

echo "tier-1 OK"
