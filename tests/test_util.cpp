// Unit tests for util: config parsing, SYPD conversion, CRC64, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "crc64_oracle.hpp"
#include "util/config.hpp"
#include "util/crc64.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/sypd.hpp"

namespace lu = licomk::util;
using licomk_test::crc64_bytewise;

TEST(Config, ParsesKeysSectionsAndComments) {
  auto cfg = lu::Config::from_string(R"(
# comment line
nx = 360
[model]
vmix = canuto   # trailing comment
ratio = 2.5
flag = true
)");
  EXPECT_EQ(cfg.get_int("nx"), 360);
  EXPECT_EQ(cfg.get_string("model.vmix"), "canuto");
  EXPECT_DOUBLE_EQ(cfg.get_double("model.ratio"), 2.5);
  EXPECT_TRUE(cfg.get_bool("model.flag"));
}

TEST(Config, MissingKeyThrowsTypedError) {
  lu::Config cfg;
  EXPECT_THROW(cfg.get_string("absent"), licomk::ConfigError);
  EXPECT_EQ(cfg.get_string_or("absent", "dflt"), "dflt");
  EXPECT_EQ(cfg.get_int_or("absent", 7), 7);
}

TEST(Config, MalformedValuesThrow) {
  auto cfg = lu::Config::from_string("a = 12x\nb = yes\nc = 3.5");
  EXPECT_THROW(cfg.get_int("a"), licomk::ConfigError);
  EXPECT_TRUE(cfg.get_bool("b"));
  EXPECT_THROW(cfg.get_int("c"), licomk::ConfigError);
}

TEST(Config, DoublesAcceptSubnormalsAndRejectOverflow) {
  auto cfg = lu::Config::from_string(
      "tiny = 1e-320\nmin = -4.9e-324\nhuge = 1e400\ntrail = 1e-320x");
  const double tiny = cfg.get_double("tiny");
  EXPECT_EQ(tiny, 1e-320);
  EXPECT_EQ(std::fpclassify(tiny), FP_SUBNORMAL);
  EXPECT_EQ(cfg.get_double("min"), -std::numeric_limits<double>::denorm_min());
  EXPECT_THROW(cfg.get_double("huge"), licomk::ConfigError);
  EXPECT_THROW(cfg.get_double("trail"), licomk::ConfigError);
  lu::Config blank;
  blank.set("x", "");
  EXPECT_THROW(blank.get_double("x"), licomk::ConfigError);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(lu::Config::from_string("key_without_value"), licomk::ConfigError);
  EXPECT_THROW(lu::Config::from_string("[unterminated"), licomk::ConfigError);
  EXPECT_THROW(lu::Config::from_string("= novalue"), licomk::ConfigError);
}

TEST(Config, RoundTripsThroughToString) {
  lu::Config cfg;
  cfg.set_int("n", 42);
  cfg.set_double("x", 1.5);
  cfg.set_bool("b", false);
  auto re = lu::Config::from_string(cfg.to_string());
  EXPECT_EQ(re.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(re.get_double("x"), 1.5);
  EXPECT_FALSE(re.get_bool("b"));
}

TEST(Config, SeededMutationsYieldConfigOrConfigError) {
  // Deterministic fuzz of the parser and the typed getters: every mutated
  // text must either parse, with every getter returning a value or throwing
  // ConfigError, or fail to parse with ConfigError. Any other exception (or
  // a sanitizer report) is a parser bug.
  const std::string base =
      "# run\nnx = 360\nny = 218\n[model]\nvmix = canuto  # closure\nratio = 2.5\n"
      "flag = true\n[io]\nout = run.nc\ndays = 10\n";
  const std::vector<std::string> tokens = {
      "[",        "]",     "=",        "#",       "\n",     std::string(1, '\0'),
      "[model",   "[]",    "  ",       "\r\n",    "99999999999999999999999",
      "-99999999999999999999999",      "1e999",   "-1e999", "1e-400",
      "nan",      "inf",   "0x1p3",    "+",       "-",      "1e",
      "9223372036854775807",           "-9223372036854775808",
      "9223372036854775808",           "true",    "= =",    "[a] = 1"};
  std::mt19937_64 rng(0x5eedc0f1u);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::string> lines;
    for (size_t a = 0, b; a < base.size(); a = b + 1) {
      b = base.find('\n', a);
      lines.push_back(base.substr(a, b - a));
    }
    const int edits = 1 + static_cast<int>(pick(4));
    for (int e = 0; e < edits && !lines.empty(); ++e) {
      std::string& line = lines[pick(lines.size())];
      switch (pick(6)) {
        case 0:  // random bytes, NULs and high bytes included
          for (size_t r = pick(4) + 1; r > 0; --r)
            line.insert(pick(line.size() + 1), 1, static_cast<char>(rng() & 0xff));
          break;
        case 1:  // truncated line
          line.resize(pick(line.size() + 1));
          break;
        case 2:  // duplicated line
          lines.insert(lines.begin() + static_cast<long>(pick(lines.size() + 1)),
                       std::string(line));
          break;
        case 3:  // a token spliced in anywhere
          line.insert(pick(line.size() + 1), tokens[pick(tokens.size())]);
          break;
        case 4:  // a value replaced by a token (numbers out of range, ...)
          line = "k" + std::to_string(pick(3)) + " = " + tokens[pick(tokens.size())];
          break;
        default:  // an unterminated section header
          line = "[" + line;
          break;
      }
    }
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    if (pick(4) == 0) text.resize(pick(text.size() + 1));  // truncated mid-line

    lu::Config cfg;
    try {
      cfg = lu::Config::from_string(text);
    } catch (const licomk::ConfigError&) {
      ++rejected;
      continue;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "iteration " << iter << ": from_string threw " << ex.what();
      continue;
    }
    ++parsed;
    for (const std::string& key : cfg.keys()) {
      auto only_config_error = [&](const char* getter, auto&& get) {
        try {
          get();
        } catch (const licomk::ConfigError&) {
        } catch (const std::exception& ex) {
          ADD_FAILURE() << "iteration " << iter << ": " << getter << "(\"" << key
                        << "\") threw " << ex.what();
        }
      };
      only_config_error("get_string", [&] { (void)cfg.get_string(key); });
      only_config_error("get_int", [&] { (void)cfg.get_int(key); });
      only_config_error("get_double", [&] { (void)cfg.get_double(key); });
      only_config_error("get_bool", [&] { (void)cfg.get_bool(key); });
    }
  }
  // The mutations must exercise both outcomes, or the fuzz proves nothing.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

TEST(Sypd, Definition) {
  // Simulating exactly one year in exactly one day => 1 SYPD.
  EXPECT_NEAR(lu::sypd(365.0 * 86400.0, 86400.0), 1.0, 1e-12);
  // Twice as fast => 2 SYPD.
  EXPECT_NEAR(lu::sypd(365.0 * 86400.0, 43200.0), 2.0, 1e-12);
}

TEST(Sypd, DegenerateInputsAreMetricsSafe) {
  // Zero/negative/NaN wall or simulated time must never poison telemetry
  // with inf/NaN — the metric reads 0 ("no throughput measured").
  EXPECT_DOUBLE_EQ(lu::sypd(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(lu::sypd(1.0, -3.0), 0.0);
  EXPECT_DOUBLE_EQ(lu::sypd(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(lu::sypd(-1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(lu::sypd(std::numeric_limits<double>::quiet_NaN(), 1.0), 0.0);
  EXPECT_DOUBLE_EQ(lu::sypd(1.0, std::numeric_limits<double>::quiet_NaN()), 0.0);
  // Tiny-but-positive wall times are clamped, so the result stays finite.
  EXPECT_TRUE(std::isfinite(lu::sypd(365.0 * 86400.0, 1e-300)));
}

TEST(Sypd, WallSecondsPerSimulatedDayInvertsSypd) {
  double w = lu::wall_seconds_per_simulated_day(1.0);
  // One simulated day at 1 SYPD: 86400 / 365 seconds.
  EXPECT_NEAR(w, 86400.0 / 365.0, 1e-9);
}

namespace {
std::vector<unsigned char> random_bytes(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> buf(n);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  return buf;
}
}  // namespace

TEST(Crc64, MatchesPinnedCheckValue) {
  // The CRC-64/XZ check value: crc of the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(lu::crc64(digits, 9), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(lu::crc64(nullptr, 0), 0ull);
}

TEST(Crc64, StreamingEqualsOneShot) {
  std::vector<double> payload(1000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = std::sin(static_cast<double>(i));
  const auto* bytes = reinterpret_cast<const unsigned char*>(payload.data());
  const size_t n = payload.size() * sizeof(double);
  lu::Crc64 streaming;
  size_t cut1 = 37, cut2 = 4099;
  streaming.update(bytes, cut1);
  streaming.update(bytes + cut1, cut2 - cut1);
  streaming.update(bytes + cut2, n - cut2);
  EXPECT_EQ(streaming.value(), lu::crc64(bytes, n));
}

TEST(Crc64, DetectsSingleBitFlipAndTruncation) {
  std::vector<unsigned char> buf(512);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i * 31 + 7);
  const std::uint64_t good = lu::crc64(buf.data(), buf.size());
  buf[200] ^= 0x10;
  EXPECT_NE(lu::crc64(buf.data(), buf.size()), good);
  buf[200] ^= 0x10;
  EXPECT_NE(lu::crc64(buf.data(), buf.size() - 1), good);
  EXPECT_EQ(lu::crc64(buf.data(), buf.size()), good);
}

TEST(Crc64, SlicedBodyMatchesBytewiseOracleAtEveryLengthAndAlignment) {
  const auto buf = random_bytes(64 + 8, 11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint64_t want = crc64_bytewise(p, len);
      EXPECT_EQ(lu::crc64(p, len), want) << "offset " << offset << " len " << len;
      // Streaming with a split at every byte offset of the buffer.
      for (std::size_t cut = 0; cut <= len; ++cut) {
        lu::Crc64 c;
        c.update(p, cut);
        c.update(p + cut, len - cut);
        ASSERT_EQ(c.value(), want) << "offset " << offset << " len " << len << " cut " << cut;
      }
    }
  }
}

TEST(Crc64, StreamingOverRandomSplitsOfOneMiBMatchesOracle) {
  const auto buf = random_bytes(std::size_t{1} << 20, 12);
  const std::uint64_t want = crc64_bytewise(buf.data(), buf.size());
  EXPECT_EQ(lu::crc64(buf.data(), buf.size()), want);
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    lu::Crc64 c;
    std::size_t at = 0;
    while (at < buf.size()) {
      const std::size_t step = std::min<std::size_t>(buf.size() - at, rng() % 70000);
      c.update(buf.data() + at, step);
      at += step;
    }
    EXPECT_EQ(c.value(), want) << "trial " << trial;
  }
}

TEST(Crc64, CombineEqualsDirectCrcOfConcatenation) {
  const std::size_t lens[] = {0, 1, 7, 8, 9, 63, 1000, 65537, 200003};
  const auto buf = random_bytes(2 * 200003, 14);
  for (std::size_t la : lens) {
    for (std::size_t lb : lens) {
      const unsigned char* a = buf.data();
      const unsigned char* b = buf.data() + la;
      const std::uint64_t crc_a = crc64_bytewise(a, la);
      const std::uint64_t crc_b = crc64_bytewise(b, lb);
      EXPECT_EQ(lu::crc64_combine(crc_a, crc_b, lb), crc64_bytewise(a, la + lb))
          << "|A| " << la << " |B| " << lb;
    }
  }
  EXPECT_THROW(lu::crc64_combine(0, 0, std::uint64_t{1} << 61), licomk::InvalidArgument);
}

TEST(Stats, RunningStatsMatchesDirectComputation) {
  lu::RunningStats rs;
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 5);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 5.0;
  EXPECT_NEAR(rs.variance(), var, 1e-12);
}

TEST(Stats, MergeEqualsSequential) {
  lu::RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    double x = std::sin(i * 1.7) * 10.0;
    (i < 4 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(lu::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(lu::percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(lu::percentile(xs, 50.0), 25.0);
  EXPECT_THROW(lu::percentile({}, 50.0), licomk::InvalidArgument);
}

TEST(Stats, CeilDiv) {
  EXPECT_EQ(lu::ceil_div(10, 3), 4);
  EXPECT_EQ(lu::ceil_div(9, 3), 3);
  EXPECT_EQ(lu::ceil_div(1, 64), 1);
}

TEST(Stats, RelDiffAndRms) {
  EXPECT_NEAR(lu::rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(lu::rel_diff(0.0, 0.0), 0.0);
  std::vector<double> xs = {3.0, 4.0};
  EXPECT_NEAR(lu::rms(xs), std::sqrt(12.5), 1e-12);
}
