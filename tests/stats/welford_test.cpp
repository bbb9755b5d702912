#include "stats/welford.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vcpusim::stats {
namespace {

TEST(Welford, EmptyAccumulator) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.sample_variance(), 0.0);
}

TEST(Welford, SingleObservation) {
  Welford w;
  w.add(3.0);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.mean(), 3.0);
  EXPECT_EQ(w.sample_variance(), 0.0);
  EXPECT_EQ(w.min(), 3.0);
  EXPECT_EQ(w.max(), 3.0);
}

TEST(Welford, KnownSmallSample) {
  Welford w;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(w.min(), 2.0);
  EXPECT_EQ(w.max(), 9.0);
}

TEST(Welford, MatchesNaiveTwoPass) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(std::sin(i) * 100.0 + 7.0);
  Welford w;
  for (const double x : xs) w.add(x);
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.sample_variance(), var, 1e-6);
}

TEST(Welford, NumericallyStableForLargeOffset) {
  // Classic catastrophic-cancellation case for naive sum-of-squares.
  Welford w;
  const double offset = 1e9;
  for (const double x : {offset + 1, offset + 2, offset + 3}) w.add(x);
  EXPECT_NEAR(w.sample_variance(), 1.0, 1e-6);
}

TEST(Welford, MergeEqualsSequential) {
  Welford a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::cos(i) * 10;
    a.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = std::cos(i) * 10;
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.sample_variance(), all.sample_variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Welford, MergeWithEmptyIsIdentity) {
  Welford a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);

  Welford c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.mean(), mean);
}

TEST(Welford, ResetClears) {
  Welford w;
  w.add(5.0);
  w.reset();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
}

TEST(Welford, StddevIsSqrtOfVariance) {
  Welford w;
  for (const double x : {1.0, 3.0, 5.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.stddev(), std::sqrt(w.sample_variance()));
}

}  // namespace
}  // namespace vcpusim::stats
