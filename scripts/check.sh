#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite,
# then refresh BENCH_tuning.json (the parameter-tuning smoke sweep's
# stable JSON — the perf/selection trajectory tracked across PRs).
#
#   ./scripts/check.sh             # RelWithDebInfo, plain build
#   ./scripts/check.sh --sanitize  # Debug + ASan/UBSan, separate build dir
#   ./scripts/check.sh --quick     # skip ctest-labeled "slow" tests
#                                  # (contention campaigns) and "paper"
#                                  # benches; flags combine
#   ./scripts/check.sh --tsan      # ThreadSanitizer build; runs only the
#                                  # ctest-labeled "concurrency" suites
#   ./scripts/check.sh --native    # -march=native build (FMA where the
#                                  # host has it); runs only the
#                                  # byte-identity suites
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
CTEST_ARGS=()
EXCLUDE_LABELS=()
TSAN=0
NATIVE=0
for arg in "$@"; do
  case "$arg" in
    --sanitize)
      BUILD_DIR=build-sanitize
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
        "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined"
      )
      # The paper benches are full reproductions; the plain leg runs them.
      EXCLUDE_LABELS+=(paper)
      ;;
    --tsan)
      # The worker pool, the workload memos' call_once slots and the shard
      # server's dispatch threads are the shared-state paths; the
      # "concurrency" label selects the suites that drive them.
      TSAN=1
      BUILD_DIR=build-tsan
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
        "-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-omit-frame-pointer"
        "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread"
      )
      CTEST_ARGS+=(-L concurrency)
      ;;
    --native)
      # The byte-identity suites (goldens, hot-path equivalence, ml,
      # attack row order, telemetry, shard server) on a build for this
      # host's ISA: with -ffp-contract=off an FMA-capable target must
      # reproduce every bit of the default build.
      NATIVE=1
      BUILD_DIR=build-native
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
        "-DCMAKE_CXX_FLAGS=-march=native"
      )
      ;;
    --quick)
      # -LE slow keeps the fast suites, which include telemetry_test —
      # the telemetry-on/off and cross-thread determinism guarantees run
      # on every quick pass, not just the full verify.
      EXCLUDE_LABELS+=(slow paper)
      ;;
    *)
      echo "unknown argument: $arg (supported: --sanitize --tsan --native" \
           "--quick)" >&2
      exit 2
      ;;
  esac
done

# One -LE regex: ctest reads repeated -LE options as a conjunction.
if [ ${#EXCLUDE_LABELS[@]} -gt 0 ]; then
  CTEST_ARGS+=(-LE "$(IFS='|'; echo "${EXCLUDE_LABELS[*]}")")
fi

# The ${VAR[@]+...} form keeps `set -u` happy on bash < 4.4 (macOS
# default 3.2), where expanding an empty array is an unbound-variable
# error.
cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR" -j

# The native leg runs the byte-identity suites only, and no smokes.
if [ "$NATIVE" = 1 ]; then
  for suite in defense_golden_test arbitration_golden_test \
               hot_path_equivalence_test ml_test attack_test \
               telemetry_test shard_server_test; do
    "./$BUILD_DIR/$suite" --gtest_brief=1
  done
  exit 0
fi

# CTEST_ARGS must precede the valueless -j, which greedily consumes a
# following argument.
(cd "$BUILD_DIR" && ctest --output-on-failure \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"} -j)

# The TSan leg checks the concurrent paths only; the smokes below run on
# the plain and ASan/UBSan legs.
if [ "$TSAN" = 1 ]; then
  exit 0
fi

# The tuner's smoke sweep doubles as the machine-readable perf record:
# deterministic, so the diff of BENCH_tuning.json across PRs is the
# selection/latency trajectory of the tuning subsystem.
"./$BUILD_DIR/bench_parameter_tuning" --smoke --json BENCH_tuning.json

# The campaign-throughput bench is the hot-path perf record: the campaign
# section of BENCH_campaign.json is deterministic (its diff across PRs is
# a report change), the timing section is the sessions/sec trajectory,
# and the bench's own gates assert byte-identical reports across thread
# counts and with telemetry on.
"./$BUILD_DIR/bench_campaign_throughput" --json BENCH_campaign.json

# The 10k-station scale gate: one dense-wlan-10k cell must generate,
# arbitrate, and score to completion under the smoke's wall-clock budget
# on every leg.
"./$BUILD_DIR/bench_campaign_throughput" --dense-smoke

# A sample telemetry document (metrics + packet trace) from the live
# example session: keeps the exporter surface exercised end-to-end and
# gives CI an artifact to upload per leg. Pretty-print one frame's span
# chain with scripts/trace_dump.py telemetry.json.
OBS_TELEMETRY=telemetry.json "./$BUILD_DIR/live_wlan_session" > /dev/null
test -s telemetry.json

# The drift smoke: the monitored-drift campaign must fire the
# Page–Hinkley rule on its shifted run and stay silent on the stationary
# control (the example exits non-zero otherwise). alerts.json carries the
# windowed series + alerts; inspect with scripts/trace_dump.py --series /
# --alerts alerts.json.
"./$BUILD_DIR/drift_monitor" --out alerts.json > /dev/null
test -s alerts.json

# The privacy smoke: the label-free leakage audit must rank undefended
# traffic above OR by proxy accuracy (the example exits non-zero
# otherwise). privacy.json carries the windowed privacy_* series
# including the per-vMAC-pair divergences; inspect with
# scripts/trace_dump.py --privacy privacy.json.
"./$BUILD_DIR/adaptive_privacy" --out privacy.json > /dev/null
test -s privacy.json

# The shard-server smoke: every engine's report and telemetry folded
# from worker processes must be byte-identical to the in-process run
# (shard_eval exits non-zero on any difference). Each engine runs twice: with
# forked workers, and with --exec fork+exec workers that rebuild the
# engine from its job name, so the wire protocol and the shared serving
# closure cross a real process boundary for all three engines.
for engine in campaign adaptive tuning; do
  "./$BUILD_DIR/shard_eval" --verify --workers 2 --engine "$engine" \
      > /dev/null
  "./$BUILD_DIR/shard_eval" --verify --workers 2 --exec --engine "$engine" \
      > /dev/null
done
