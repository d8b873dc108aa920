#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs test binaries against it. The
# sanitizer comes from the IDEA_SANITIZE environment variable (thread,
# address or undefined; default thread), passed to the CMake option of the
# same name. The default suite is the concurrency-heavy one (runtime frames,
# frame views and partition holders, the worker-pool scheduler, the
# three-job feed pipeline, the fault-injection machinery and feed failure
# policies, node death and failover, the observability primitives, the admin
# server / flight-recorder telemetry plane, the LSM dataset's batched writers
# against its readers, the batch/per-record evaluation equivalence suite, and
# the SQL++ facade's feed START/STOP with an update client running against an
# enriching feed).
# Usage:
#
#   [IDEA_SANITIZE=thread|address|undefined] tests/run_tsan.sh [build-dir [test-binary...]]
#
# The build directory defaults to build-tsan, build-asan or build-ubsan.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZE="${IDEA_SANITIZE:-thread}"
case "${SANITIZE}" in
  thread) TAG=tsan ;;
  address) TAG=asan ;;
  undefined) TAG=ubsan ;;
  *)
    echo "IDEA_SANITIZE must be thread, address or undefined, not '${SANITIZE}'" >&2
    exit 2
    ;;
esac
BUILD_DIR="${1:-${REPO_ROOT}/build-${TAG}}"
shift $(( $# > 0 ? 1 : 0 ))

TESTS=("$@")
if [ ${#TESTS[@]} -eq 0 ]; then
  TESTS=(runtime_test frame_view_test scheduler_test feed_pipeline_test
         obs_test admin_server_test sqlpp_delta_refresh_test
         fault_injection_test feed_fault_test cluster_ha_test storage_lsm_test
         instance_test batch_eval_equivalence_test)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIDEA_SANITIZE="${SANITIZE}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TESTS[@]}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
for t in "${TESTS[@]}"; do
  echo "== ${TAG}: ${t} =="
  "${BUILD_DIR}/tests/${t}"
done
echo "${TAG}: all clean"
