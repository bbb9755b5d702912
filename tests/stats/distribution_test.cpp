#include "stats/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <set>

namespace vcpusim::stats {
namespace {

struct SampleStats {
  double mean;
  double variance;
};

SampleStats sample_stats(const Distribution& dist, int n = 200000,
                         std::uint64_t seed = 42) {
  Rng rng(seed);
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = dist.sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  return {mean, sum_sq / n - mean * mean};
}

TEST(Deterministic, AlwaysReturnsValue) {
  Rng rng(1);
  auto d = make_deterministic(3.5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d->sample(rng), 3.5);
  EXPECT_EQ(d->mean(), 3.5);
  EXPECT_EQ(d->variance(), 0.0);
}

TEST(Deterministic, RejectsNegative) {
  EXPECT_THROW(make_deterministic(-1.0), std::invalid_argument);
}

TEST(Uniform, SamplesWithinRange) {
  Rng rng(2);
  auto d = make_uniform(2.0, 8.0);
  for (int i = 0; i < 10000; ++i) {
    const double x = d->sample(rng);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 8.0);
  }
}

TEST(Uniform, MomentsMatchAnalytic) {
  auto d = make_uniform(2.0, 8.0);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, d->mean(), 0.02);
  EXPECT_NEAR(s.variance, d->variance(), 0.05);
}

TEST(Uniform, RejectsBadRange) {
  EXPECT_THROW(make_uniform(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW(make_uniform(-1.0, 2.0), std::invalid_argument);
}

TEST(UniformInt, ProducesAllIntegersInclusive) {
  Rng rng(3);
  auto d = make_uniform_int(1, 10);
  std::set<double> seen;
  for (int i = 0; i < 5000; ++i) {
    const double x = d->sample(rng);
    EXPECT_EQ(x, std::floor(x));
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(UniformInt, MomentsMatchAnalytic) {
  auto d = make_uniform_int(1, 10);
  EXPECT_DOUBLE_EQ(d->mean(), 5.5);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, 5.5, 0.03);
  EXPECT_NEAR(s.variance, d->variance(), 0.1);
}

TEST(Exponential, MomentsMatchAnalytic) {
  auto d = make_exponential(0.25);
  EXPECT_DOUBLE_EQ(d->mean(), 4.0);
  EXPECT_DOUBLE_EQ(d->variance(), 16.0);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, 4.0, 0.05);
  EXPECT_NEAR(s.variance, 16.0, 0.5);
}

TEST(Exponential, NonNegative) {
  Rng rng(4);
  auto d = make_exponential(2.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d->sample(rng), 0.0);
}

TEST(Exponential, RejectsNonPositiveRate) {
  EXPECT_THROW(make_exponential(0.0), std::invalid_argument);
  EXPECT_THROW(make_exponential(-1.0), std::invalid_argument);
}

TEST(Erlang, MomentsMatchAnalytic) {
  auto d = make_erlang(3, 0.5);
  EXPECT_DOUBLE_EQ(d->mean(), 6.0);
  EXPECT_DOUBLE_EQ(d->variance(), 12.0);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, 6.0, 0.06);
  EXPECT_NEAR(s.variance, 12.0, 0.4);
}

TEST(Erlang, KOneEqualsExponentialInDistribution) {
  auto erl = make_erlang(1, 0.5);
  auto exp = make_exponential(0.5);
  EXPECT_DOUBLE_EQ(erl->mean(), exp->mean());
  EXPECT_DOUBLE_EQ(erl->variance(), exp->variance());
}

TEST(Erlang, RejectsBadParams) {
  EXPECT_THROW(make_erlang(0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_erlang(2, 0.0), std::invalid_argument);
}

TEST(TruncatedNormal, NonNegativeSamples) {
  Rng rng(5);
  auto d = make_truncated_normal(2.0, 3.0);  // heavy truncation
  for (int i = 0; i < 20000; ++i) EXPECT_GE(d->sample(rng), 0.0);
}

TEST(TruncatedNormal, MomentsMatchTruncatedAnalytic) {
  auto d = make_truncated_normal(5.0, 2.0);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, d->mean(), 0.03);
  EXPECT_NEAR(s.variance, d->variance(), 0.1);
}

TEST(TruncatedNormal, FarFromZeroMatchesPlainNormal) {
  // With mu >> sigma, truncation is negligible: moments ~ (mu, sigma^2).
  auto d = make_truncated_normal(50.0, 2.0);
  EXPECT_NEAR(d->mean(), 50.0, 1e-6);
  EXPECT_NEAR(d->variance(), 4.0, 1e-6);
}

TEST(Geometric, SupportStartsAtOne) {
  Rng rng(6);
  auto d = make_geometric(0.3);
  for (int i = 0; i < 10000; ++i) {
    const double x = d->sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_EQ(x, std::floor(x));
  }
}

TEST(Geometric, MomentsMatchAnalytic) {
  auto d = make_geometric(0.25);
  EXPECT_DOUBLE_EQ(d->mean(), 4.0);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, 4.0, 0.05);
  EXPECT_NEAR(s.variance, d->variance(), 0.5);
}

TEST(Geometric, POneAlwaysOne) {
  Rng rng(7);
  auto d = make_geometric(1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d->sample(rng), 1.0);
}

TEST(Bernoulli, MeanMatchesP) {
  auto d = make_bernoulli(0.2);
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, 0.2, 0.005);
}

TEST(Bernoulli, OnlyZeroOrOne) {
  Rng rng(8);
  auto d = make_bernoulli(0.5);
  for (int i = 0; i < 1000; ++i) {
    const double x = d->sample(rng);
    EXPECT_TRUE(x == 0.0 || x == 1.0);
  }
}

TEST(Discrete, RespectsWeights) {
  auto d = make_discrete({{1.0, 3.0}, {2.0, 1.0}});
  const auto s = sample_stats(*d);
  EXPECT_NEAR(s.mean, 1.25, 0.01);  // 0.75*1 + 0.25*2
  EXPECT_NEAR(d->mean(), 1.25, 1e-12);
}

TEST(Discrete, ZeroWeightAtomNeverSampled) {
  Rng rng(9);
  auto d = make_discrete({{1.0, 1.0}, {99.0, 0.0}});
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(d->sample(rng), 1.0);
}

TEST(Discrete, RejectsInvalid) {
  EXPECT_THROW(make_discrete({}), std::invalid_argument);
  EXPECT_THROW(make_discrete({{1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(make_discrete({{-1.0, 1.0}}), std::invalid_argument);
}

// --- parse_distribution -----------------------------------------------

struct ParseCase {
  std::string spec;
  double mean;
};

// Without this GoogleTest prints a ParseCase as raw bytes, which include
// the string's heap pointer, so the discovered test names would change
// from one build to the next.
void PrintTo(const ParseCase& p, std::ostream* os) { *os << p.spec; }

class ParseDistribution : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParseDistribution, ParsesAndMeanMatches) {
  const auto& p = GetParam();
  auto d = parse_distribution(p.spec);
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->mean(), p.mean, 1e-9) << p.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ParseDistribution,
    ::testing::Values(
        ParseCase{"deterministic(5)", 5.0},
        ParseCase{"det(2.5)", 2.5},
        ParseCase{"constant(1)", 1.0},
        ParseCase{"uniform(1,9)", 5.0},
        ParseCase{"UNIFORM( 1 , 9 )", 5.0},
        ParseCase{"uniformint(1,10)", 5.5},
        ParseCase{"exponential(0.5)", 2.0},
        ParseCase{"exp(0.1)", 10.0},
        ParseCase{"erlang(2,0.5)", 4.0},
        ParseCase{"geometric(0.2)", 5.0},
        ParseCase{"geo(0.5)", 2.0},
        ParseCase{"bernoulli(0.3)", 0.3}));

TEST(ParseDistributionErrors, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_distribution("nonsense(1)"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("uniform"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("uniform(1)"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("uniform(1,2,3)"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("uniform(a,b)"), std::invalid_argument);
  EXPECT_THROW(parse_distribution(""), std::invalid_argument);
}

TEST(ParseDistributionErrors, DescribeRoundTrips) {
  auto d = parse_distribution("exponential(0.25)");
  auto d2 = parse_distribution(d->describe());
  EXPECT_DOUBLE_EQ(d2->mean(), d->mean());
}

}  // namespace
}  // namespace vcpusim::stats
