// Unit tests for util: rng, stats, tables, csv, assertions.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace qip {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(5);
  Rng child1 = a.fork(1);
  Rng child2 = a.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.next() == child2.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, RoundRngIndependentOfOrder) {
  Rng r5 = round_rng(99, 5);
  Rng r2 = round_rng(99, 2);
  Rng r5_again = round_rng(99, 5);
  EXPECT_EQ(r5.next(), r5_again.next());
  (void)r2;
}

// ---------------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(31);
  RunningStats whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10, 10);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

// ---------------------------------------------------------------------------
// TextTable / CSV
// ---------------------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(TextTable, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantViolation);
}

TEST(TextTable, DoubleRows) {
  TextTable t({"x", "y"});
  t.add_row("row", {1.2345}, 2);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
}

TEST(RenderFigure, SeriesLengthsChecked) {
  EXPECT_THROW(
      render_figure("t", "x", {1, 2}, {Series{"s", {1.0}}}),
      InvariantViolation);
}

TEST(RenderFigure, ContainsTitleAndValues) {
  const std::string out =
      render_figure("My Figure", "nn", {50, 100},
                    {Series{"QIP", {1.5, 2.5}}, Series{"Other", {3.0, 4.0}}});
  EXPECT_NE(out.find("My Figure"), std::string::npos);
  EXPECT_NE(out.find("QIP"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b,c"});
  w.write_row("label", {1.5, 2.0});
  EXPECT_EQ(os.str(), "a,\"b,c\"\nlabel,1.5,2\n");
}

// ---------------------------------------------------------------------------
// Assertions / logging
// ---------------------------------------------------------------------------

TEST(Assert, ThrowsWithMessage) {
  try {
    QIP_ASSERT_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Assert, PassesSilently) {
  QIP_ASSERT(1 + 1 == 2);
  QIP_ASSERT_MSG(true, "never evaluated");
}

}  // namespace
}  // namespace qip
