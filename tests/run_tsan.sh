#!/usr/bin/env bash
# Builds the tree under ThreadSanitizer and runs the concurrency-heavy test
# binaries (runtime frames, frame views and partition holders, the
# worker-pool scheduler, the three-job feed pipeline, the fault-injection
# machinery and feed failure policies, node death and failover, the
# observability primitives, the admin server / flight-recorder telemetry
# plane, the LSM dataset's batched writers against its readers,
# the batch/per-record evaluation equivalence suite, and the SQL++ facade's
# feed START/STOP with an update client running against an enriching feed).
# Usage:
#
#   tests/run_tsan.sh [build-dir [test-binary...]]
#
# With no test binaries, the default concurrency suite runs. Pass
# IDEA_SANITIZE=address (or undefined) through the same CMake option for an
# ASan/UBSan run.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-tsan}"
shift $(( $# > 0 ? 1 : 0 ))

TESTS=("$@")
if [ ${#TESTS[@]} -eq 0 ]; then
  TESTS=(runtime_test frame_view_test scheduler_test feed_pipeline_test
         obs_test admin_server_test sqlpp_delta_refresh_test
         fault_injection_test feed_fault_test cluster_ha_test storage_lsm_test
         instance_test batch_eval_equivalence_test)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIDEA_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TESTS[@]}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
for t in "${TESTS[@]}"; do
  echo "== tsan: ${t} =="
  "${BUILD_DIR}/tests/${t}"
done
echo "tsan: all clean"
