#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "common/report.hpp"
#include "common/stats.hpp"

namespace mempool {
namespace {

TEST(RunningStat, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanMinMax) {
  RunningStat s;
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 14.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(RunningStat, VarianceMatchesTwoPass) {
  RunningStat s;
  const double vals[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  double mean = 0;
  for (double v : vals) mean += v;
  mean /= 8;
  double var = 0;
  for (double v : vals) var += (v - mean) * (v - mean);
  var /= 7;  // sample variance
  for (double v : vals) s.add(v);
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(RunningStat, Reset) {
  RunningStat s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(1.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.7);
  h.add(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
}

TEST(Histogram, NegativeClampsToZeroBucket) {
  Histogram h(1.0, 4);
  h.add(-3.0);
  EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(Histogram, QuantileMedianOfUniform) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(Histogram, StoresBucketsOnlyUpToTheHighestWritten) {
  // The service's latency histograms: 10 µs buckets up to 10 s. Samples
  // below 1 ms touch only the first 100 buckets, so no more are held.
  Histogram h(0.01, 1'000'000);
  for (int i = 0; i < 1000; ++i) h.add(0.999 * i / 1000.0);
  EXPECT_LE(h.buckets().size(), 100u);
  EXPECT_EQ(h.num_buckets(), 1'000'000u);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, UnstoredBucketsAnswerAsZeros) {
  // Same answers as a histogram holding all of its logical buckets: the
  // quantile scan, overflow at the top edge, the JSON form, absorb and
  // restore, including when no bucket is stored at all.
  Histogram only_overflow(1.0, 10);
  only_overflow.add(50.0);
  EXPECT_DOUBLE_EQ(only_overflow.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(only_overflow.quantile(1.0), 10.0);
  EXPECT_EQ(only_overflow.to_json().at("counts").size(), 0u);

  Histogram low(1.0, 10);
  low.add(0.5);
  Histogram high(1.0, 10);
  high.add(7.5);
  high.add(99.0);
  low.absorb(high);
  EXPECT_EQ(low.count(), 3u);
  EXPECT_EQ(low.overflow(), 1u);
  EXPECT_EQ(low.to_json().at("counts").size(), 8u);
  EXPECT_DOUBLE_EQ(low.quantile(0.5), 7.5);

  std::vector<uint64_t> all(10, 0);
  all[2] = 4;
  Histogram restored(1.0, 10);
  restored.restore(all, 4, 0);
  EXPECT_EQ(restored.buckets().size(), 3u);
  EXPECT_DOUBLE_EQ(restored.quantile(0.5), 2.5);
  EXPECT_THROW(restored.restore(std::vector<uint64_t>(3, 0), 0, 0),
               CheckError);
}

TEST(Histogram, BadConstructionThrows) {
  EXPECT_THROW(Histogram(0.0, 10), CheckError);
  EXPECT_THROW(Histogram(1.0, 0), CheckError);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "2345"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2345"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace mempool
