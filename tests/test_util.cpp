// Unit tests for the util module: stats, tables, config, rng, time.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time_types.hpp"

namespace pgasq {
namespace {

TEST(TimeTypes, Conversions) {
  using namespace literals;
  EXPECT_EQ(1_us, 1000 * 1_ns);
  EXPECT_EQ(from_us(2.89), 2890 * kNanosecond);
  EXPECT_DOUBLE_EQ(to_us(from_us(123.456)), 123.456);
  EXPECT_DOUBLE_EQ(to_ns(1), 0.001);
  EXPECT_EQ(from_ns(0.5634), 563);  // rounds to nearest ps
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, MergeEqualsSequential) {
  Accumulator a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, EmptyAndMergeIntoEmpty) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  Accumulator b;
  b.add(3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(Samples, ExactQuantiles) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.mean(), 50.5, 1e-12);
}

TEST(Samples, CapacityTruncates) {
  Samples s(10);
  for (int i = 0; i < 20; ++i) s.add(i);
  EXPECT_EQ(s.count(), 10u);
  EXPECT_TRUE(s.truncated());
}

TEST(Log2Histogram, Buckets) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Table, AlignsAndFormats) {
  Table t({"a", "bbbb"});
  t.row().add(1).add(2.5, 1);
  t.row().add(std::string("xyz")).add(100);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a  bbbb"), std::string::npos);
  EXPECT_NE(s.find("xyz"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Table, RejectsOverflowAndOrphanAdd) {
  Table t({"one"});
  EXPECT_THROW(t.add("no row yet"), Error);
  t.row().add(1);
  EXPECT_THROW(t.add("overflow"), Error);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "value"});
  t.row().add(std::string("plain")).add(1);
  t.row().add(std::string("has,comma")).add(std::string("has\"quote"));
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\",\"has\"\"quote\"\n"), std::string::npos);
}

TEST(FormatBytes, HumanUnits) {
  EXPECT_EQ(format_bytes(16), "16");
  EXPECT_EQ(format_bytes(2048), "2K");
  EXPECT_EQ(format_bytes(1 << 20), "1M");
  EXPECT_EQ(format_bytes(1500), "1500");  // non-multiple stays raw
}

TEST(Config, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--ranks=64", "net=loggp", "--verbose", "positional"};
  Config c = Config::from_args(5, const_cast<char**>(argv));
  EXPECT_EQ(c.get_int("ranks", 0), 64);
  EXPECT_EQ(c.get_string("net", ""), "loggp");
  EXPECT_TRUE(c.get_bool("verbose", false));
  ASSERT_EQ(c.positional().size(), 1u);
  EXPECT_EQ(c.positional()[0], "positional");
  EXPECT_EQ(c.get_int("absent", -7), -7);
}

TEST(Config, TypeErrors) {
  Config c;
  c.set("x", "abc");
  EXPECT_THROW(c.get_int("x", 0), Error);
  EXPECT_THROW(c.get_double("x", 0.0), Error);
  EXPECT_THROW(c.get_bool("x", false), Error);
  c.set("b", "on");
  EXPECT_TRUE(c.get_bool("b", false));
  // Integers are decimal only: no octal or hex reading, no silent
  // saturation, no fractional or exponent forms.
  c.set("n", "010");
  EXPECT_EQ(c.get_int("n", 0), 10);
  c.set("n", "08");
  EXPECT_EQ(c.get_int("n", 0), 8);
  c.set("n", "-12");
  EXPECT_EQ(c.get_int("n", 0), -12);
  for (const char* bad : {"99999999999999999999", "0x10", "2048.9", "1e10", " 5",
                          "5 ", ""}) {
    c.set("n", bad);
    EXPECT_THROW(c.get_int("n", 0), Error) << bad;
  }
  c.set("d", "1e-3");
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 1e-3);
  for (const char* bad : {"nan", "inf", "1e999", "0.5x", ""}) {
    c.set("d", bad);
    EXPECT_THROW(c.get_double("d", 0.0), Error) << bad;
  }
}

TEST(Config, GetDoublesIsStrict) {
  Config c;
  EXPECT_EQ(c.get_doubles("thetas", {0.99, 0.0}), (std::vector<double>{0.99, 0.0}));
  c.set("thetas", "0.5,1,0.25");
  EXPECT_EQ(c.get_doubles("thetas", {}), (std::vector<double>{0.5, 1.0, 0.25}));
  // A malformed element used to read as 0 (a uniform key draw).
  for (const char* bad : {"0.99,abc", "0.99,", ",1", "0.9;0.5"}) {
    c.set("thetas", bad);
    try {
      c.get_doubles("thetas", {});
      FAIL() << bad << " must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("thetas"), std::string::npos) << e.what();
    }
  }
}

TEST(Config, RejectsUnusedKeys) {
  const char* argv[] = {"prog", "--ranks=4", "--rnaks=8", "--iter=3"};
  const Config c = Config::from_args(4, const_cast<char**>(argv));
  EXPECT_EQ(c.get_int("ranks", 2), 4);
  try {
    c.reject_unused();
    FAIL() << "an unread key must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option iter"), std::string::npos)
        << e.what();
  }
  // A key that was asked for but is absent still counts as known, and
  // is the suggestion for a near miss.
  EXPECT_EQ(c.get_int("iters", 5), 5);
  EXPECT_FALSE(c.has("iter_count"));
  c.get_int("iter", 0);
  try {
    c.reject_unused();
    FAIL() << "rnaks must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option rnaks (did you mean ranks?)"),
              std::string::npos)
        << e.what();
  }
  c.has("rnaks");
  EXPECT_NO_THROW(c.reject_unused());

  // Nothing within edit distance 2: no suggestion.
  Config far;
  far.set("zzzzzz", "1");
  far.get_int("ranks", 1);
  try {
    far.reject_unused();
    FAIL() << "zzzzzz must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos) << e.what();
  }

  // A stray positional token is rejected unless positional() was read.
  const char* stray[] = {"prog", "--ranks=4", "extra"};
  const Config p = Config::from_args(3, const_cast<char**>(stray));
  p.get_int("ranks", 2);
  EXPECT_THROW(p.reject_unused(), Error);
  EXPECT_EQ(p.positional().size(), 1u);
  EXPECT_NO_THROW(p.reject_unused());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(17);
    EXPECT_LT(v, 17u);
    const auto w = r.next_in(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Error, CheckMacroMessage) {
  try {
    PGASQ_CHECK(1 == 2, << "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace pgasq
