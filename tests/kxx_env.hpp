// kxx_env.hpp — run every test of a suite on the kxx backend the environment
// selects.
//
// Including this header (once, from the suite's only translation unit)
// registers a gtest listener that re-initializes kxx from
// kxx::config_from_env (LICOMK_BACKEND, LICOMK_NUM_THREADS,
// LICOMK_ATHREAD_STRICT, ...) before each test, Serial by default, so the
// backend sweeps of ci/build_and_test.sh reach the suite's kernels. Doing it
// per test means a test that pins a backend itself (by calling
// kxx::initialize in its body, which runs later and wins) cannot leak that
// backend into the tests after it.
#pragma once

#include <gtest/gtest.h>

#include "kxx/kxx.hpp"

namespace {

class KxxFromEnv : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo&) override {
    namespace kxx = licomk::kxx;
    kxx::initialize(kxx::config_from_env({kxx::Backend::Serial, 1, false}));
  }
};

[[maybe_unused]] const bool kKxxFromEnvRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new KxxFromEnv);
  return true;
}();

}  // namespace
