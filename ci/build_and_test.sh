#!/usr/bin/env bash
# Configure, build, and run the full test suite for one build type, then
# sweep the backend-sensitive tests over every kxx backend via the
# LICOMK_BACKEND environment hook (kxx::config_from_env).
#
# Usage: ci/build_and_test.sh [Release|Debug] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_TYPE="${1:-Release}"
BUILD_DIR="${2:-build-ci-$(echo "$BUILD_TYPE" | tr '[:upper:]' '[:lower:]')}"
JOBS="$(nproc)"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE="$BUILD_TYPE"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# The kxx suite already parametrizes over backends internally; the model and
# swsim suites honor LICOMK_BACKEND for their generic tests, and the three
# halo suites re-initialize kxx from it before every test (tests/kxx_env.hpp),
# so their pack/unpack kernel (halo_box_copy) runs on every backend. The
# kernel-level suites do the same, so their 2-D/3-D model functors (the
# vertical-mixing kernels of test_vmix included) run on every backend too.
# Sweep all three execution backends to catch backend-conditional
# regressions.
HALO_SUITES='test_halo|test_exchange_group|test_persistent_group'
KERNEL_SUITES='test_dynamics|test_advection|test_polar_filter|test_vmix'
for backend in serial threads athread; do
  echo "=== backend sweep: LICOMK_BACKEND=$backend ==="
  LICOMK_BACKEND="$backend" LICOMK_NUM_THREADS=2 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R "test_kxx|test_swsim|test_model|$HALO_SUITES|$KERNEL_SUITES"
done

# Strict leg: on AthreadSim every dispatched functor must be registered and
# run CPE-resident — an MPE fallback throws instead of silently degrading.
# Exercises the LDM staging path end to end (DoubleBuffered is the default).
echo "=== backend sweep: LICOMK_BACKEND=athread (strict, no MPE fallback) ==="
LICOMK_BACKEND=athread LICOMK_ATHREAD_STRICT=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R "test_kxx|test_swsim|test_model|test_ldm_stage|$HALO_SUITES|$KERNEL_SUITES"
