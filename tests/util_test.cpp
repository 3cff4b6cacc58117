#include <gtest/gtest.h>
#include <cmath>
#include <cstring>
#include <algorithm>

#include <sstream>

#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace paragraph::util {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(r.uniform_int(5, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng r(5);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, LognormalPositive) {
  Rng r(6);
  for (int i = 0; i < 100; ++i) EXPECT_GT(r.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, WeightedChoiceDistribution) {
  Rng r(7);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[r.weighted_choice({1.0, 2.0, 1.0})];
  EXPECT_GT(counts[1], counts[0]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_THROW(r.weighted_choice({}), std::invalid_argument);
  EXPECT_THROW(r.weighted_choice({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(8);
  std::vector<int> v = {1, 2, 3, 4, 5};
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Rng, ForkIndependence) {
  Rng a(9);
  Rng fork = a.fork();
  EXPECT_NE(a.next(), fork.next());
}

TEST(Strings, SplitBasic) {
  const auto t = split("  a b\tc  ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split("").empty());
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Strings, Predicates) {
  EXPECT_TRUE(starts_with("vdd_core", "vdd"));
  EXPECT_FALSE(starts_with("x", "xyz"));
  EXPECT_TRUE(iequals("VDD", "vdd"));
  EXPECT_FALSE(iequals("VDD", "vd"));
}

struct SpiceNumberCase {
  const char* text;
  double expected;
};

class SpiceNumberTest : public ::testing::TestWithParam<SpiceNumberCase> {};

TEST_P(SpiceNumberTest, ParsesSuffix) {
  double v = 0.0;
  ASSERT_TRUE(parse_spice_number(GetParam().text, v)) << GetParam().text;
  EXPECT_NEAR(v, GetParam().expected, std::abs(GetParam().expected) * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceNumberTest,
    ::testing::Values(SpiceNumberCase{"1.5", 1.5}, SpiceNumberCase{"2k", 2e3},
                      SpiceNumberCase{"3meg", 3e6}, SpiceNumberCase{"1g", 1e9},
                      SpiceNumberCase{"2t", 2e12}, SpiceNumberCase{"7m", 7e-3},
                      SpiceNumberCase{"4u", 4e-6}, SpiceNumberCase{"5n", 5e-9},
                      SpiceNumberCase{"6p", 6e-12}, SpiceNumberCase{"10f", 10e-15},
                      SpiceNumberCase{"2a", 2e-18}, SpiceNumberCase{"-3.5n", -3.5e-9},
                      SpiceNumberCase{"1e-3", 1e-3}, SpiceNumberCase{"1E6", 1e6}));

TEST(Strings, ParseSpiceNumberRejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_spice_number("", v));
  EXPECT_FALSE(parse_spice_number("abc", v));
  EXPECT_FALSE(parse_spice_number("1.5q", v));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(Stats, MeanStd) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> v = {3, -1, 7};
  EXPECT_DOUBLE_EQ(min_of(v), -1);
  EXPECT_DOUBLE_EQ(max_of(v), 7);
  EXPECT_THROW(min_of({}), std::invalid_argument);
}

TEST(Stats, Percentile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

// Selection must not depend on input order: a random-order draw and its
// sorted copy give bit-identical quantiles, ties included.
TEST(Stats, PercentileIgnoresInputOrder) {
  Rng rng(17);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{1000},
                              (std::size_t{1} << 20) + 1}) {
    std::vector<double> v(n);
    // n draws from n + 1 levels: about a third of the values are ties.
    for (double& x : v)
      x = 0.25 * static_cast<double>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      const double a = percentile(v, p);
      const double b = percentile(sorted, p);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "n=" << n << " p=" << p;
    }
  }
}

// Several quantiles selected on one copy, each search limited to the part
// above the previous selection, equal one fresh selection per quantile.
TEST(Stats, PercentilesMatchOneSelectionPerQuantile) {
  Rng rng(23);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{1000},
                              (std::size_t{1} << 20) + 1}) {
    std::vector<double> v(n);
    for (double& x : v)
      x = 0.25 * static_cast<double>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
    const std::vector<double> all =
        percentiles(v, {0.0, 1.0, 25.0, 50.0, 50.0, 95.0, 99.0, 99.9, 100.0});
    std::size_t i = 0;
    for (const double p : {0.0, 1.0, 25.0, 50.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      const double one = percentile(v, p);
      EXPECT_EQ(std::memcmp(&all[i++], &one, sizeof one), 0) << "n=" << n << " p=" << p;
    }
  }
  EXPECT_THROW(percentiles({1, 2, 3}, {95.0, 50.0}), std::invalid_argument);
  EXPECT_THROW(percentiles({}, {50.0}), std::invalid_argument);
}

TEST(Stats, Pearson) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
  const std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(a, flat), 0.0);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row("beta", {2.5}, 1);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RowValidation) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

}  // namespace
}  // namespace paragraph::util
