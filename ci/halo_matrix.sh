#!/usr/bin/env bash
# Halo pack-width matrix: run the halo suites, then the model suite under
# LICOMK_PACK_SIZE in {1,4,8}. Pack-width dispatch must compose with the halo
# group engine (the CRC matrix tests inside test_model then prove
# bit-identity at whatever pack width the env selected).
#
# Usage: ci/halo_matrix.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci-release}"

for suite in test_halo test_exchange_group test_persistent_group; do
  "$BUILD_DIR/tests/$suite" --gtest_brief=1
done
for pack in 1 4 8; do
  echo "--- test_model (LICOMK_PACK_SIZE=$pack) ---"
  LICOMK_PACK_SIZE=$pack "$BUILD_DIR/tests/test_model" --gtest_brief=1
done
echo "halo matrix: halo suites passed, model suite passed at 3 pack widths"
