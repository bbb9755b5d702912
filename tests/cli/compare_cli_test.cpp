// The `vcpusim compare` verb and the --controller flag: table and CSV
// rendering, the machine-readable JSON schema (validated with the strict
// test parser), scenario [compare] integration and error paths.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "testing/json.hpp"

namespace vcpusim::cli {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult run(std::vector<const char*> args) {
  args.insert(args.begin(), "vcpusim");
  std::ostringstream out, err;
  const int code =
      run_cli(static_cast<int>(args.size()), args.data(), out, err);
  return {code, out.str(), err.str()};
}

/// A small contended system so the verb finishes fast but algorithms
/// actually differ.
const std::vector<const char*> kQuick = {
    "--pcpus", "2",          "--vm",     "2",  "--vm",
    "2",       "--end-time", "200",      "--warmup", "40",
    "--min-replications",    "4",        "--max-replications", "4",
    "--half-width",          "1e-9"};

std::vector<const char*> compare_args(
    std::initializer_list<const char*> extra) {
  std::vector<const char*> args = {"compare"};
  args.insert(args.end(), kQuick.begin(), kQuick.end());
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(CompareCli, PrintsEstimateAndDeltaTables) {
  const auto r = run(compare_args({"--algorithms", "rrs,scs"}));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("| algorithm"), std::string::npos);
  EXPECT_NE(r.out.find("rrs"), std::string::npos);
  EXPECT_NE(r.out.find("d(mean_vcpu_availability) vs rrs"), std::string::npos);
  EXPECT_NE(r.out.find("common random numbers"), std::string::npos);
  EXPECT_NE(r.out.find("baseline rrs"), std::string::npos);
}

TEST(CompareCli, MetricsOutAndProfileCoverEveryAlgorithm) {
  const std::string path = ::testing::TempDir() + "/vcpusim_compare.json";
  const auto plain = run(compare_args({"--algorithms", "rrs,scs"}));
  const auto r = run(compare_args({"--algorithms", "rrs,scs", "--metrics-out",
                                   path.c_str(), "--profile"}));
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  // The comparison itself is untouched; the timings go to stderr.
  EXPECT_EQ(r.out, plain.out);
  EXPECT_NE(r.err.find("| run_point"), std::string::npos) << r.err;
  const auto doc = vcpusim::testing::parse_json(contents.str());
  // Both legs of four replications each.
  EXPECT_EQ(doc.at("counters").at("run.replications").number, 8.0);
  EXPECT_EQ(doc.at("counters").at("profile.run_point.calls").number, 2.0);
}

TEST(CompareCli, BaselineFlagRotatesTheList) {
  const auto r = run(
      compare_args({"--algorithms", "rrs,scs", "--baseline", "scs"}));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("vs scs"), std::string::npos);
  EXPECT_NE(r.out.find("baseline scs"), std::string::npos);
}

TEST(CompareCli, BaselineMustBeInTheList) {
  const auto r = run(
      compare_args({"--algorithms", "rrs,scs", "--baseline", "bvt"}));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("baseline 'bvt' is not in the algorithm list"),
            std::string::npos);
}

TEST(CompareCli, UnknownAlgorithmFails) {
  const auto r = run(compare_args({"--algorithms", "rrs,frobnicate"}));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("frobnicate"), std::string::npos);
}

TEST(CompareCli, CsvEmitsBothTables) {
  const auto r = run(compare_args({"--algorithms", "rrs,scs", "--csv"}));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("algorithm,"), std::string::npos);
  EXPECT_EQ(r.out.find("| algorithm"), std::string::npos);
}

TEST(CompareCli, JsonMatchesTheDocumentedSchema) {
  const auto r = run(compare_args({"--algorithms", "rrs,scs", "--json"}));
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const auto doc = vcpusim::testing::parse_json(r.out);

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("baseline").string, "rrs");
  EXPECT_EQ(doc.at("controller").string, "fixed");
  EXPECT_EQ(doc.at("replications").number, 4.0);
  EXPECT_DOUBLE_EQ(doc.at("confidence").number, 0.95);
  // One seed per replication: the CRN streams shared by every algorithm.
  ASSERT_TRUE(doc.at("seeds").is_array());
  EXPECT_EQ(doc.at("seeds").array.size(), 4u);
  ASSERT_TRUE(doc.at("metrics").is_array());
  const std::size_t metric_count = doc.at("metrics").array.size();
  ASSERT_GT(metric_count, 0u);

  const auto& algorithms = doc.at("algorithms");
  ASSERT_TRUE(algorithms.is_array());
  ASSERT_EQ(algorithms.array.size(), 2u);

  const auto& baseline = algorithms.at(0);
  EXPECT_EQ(baseline.at("name").string, "rrs");
  EXPECT_TRUE(baseline.at("baseline").boolean);
  ASSERT_EQ(baseline.at("estimates").array.size(), metric_count);
  EXPECT_FALSE(baseline.has("deltas"));
  for (const auto& estimate : baseline.at("estimates").array) {
    EXPECT_TRUE(estimate.at("mean").is_number());
    EXPECT_TRUE(estimate.at("half_width").is_number());
    EXPECT_TRUE(estimate.at("metric").is_string());
  }

  const auto& contender = algorithms.at(1);
  EXPECT_EQ(contender.at("name").string, "scs");
  EXPECT_FALSE(contender.at("baseline").boolean);
  ASSERT_EQ(contender.at("deltas").array.size(), metric_count);
  for (const auto& delta : contender.at("deltas").array) {
    EXPECT_TRUE(delta.at("mean").is_number());
    EXPECT_TRUE(delta.at("half_width").is_number());
    EXPECT_TRUE(delta.at("unpaired_half_width").is_number());
    EXPECT_TRUE(delta.at("correlation").is_number());
    // The CRN payoff the schema exists to publish.
    EXPECT_LE(delta.at("half_width").number,
              delta.at("unpaired_half_width").number);
  }
}

TEST(CompareCli, ScenarioCompareBlockSuppliesTheAlgorithmList) {
  const std::string path = ::testing::TempDir() + "/compare_scenario.vcpu";
  {
    std::ofstream file(path);
    file << "pcpus = 2\n"
            "end_time = 200\n"
            "warmup = 40\n"
            "min_replications = 3\n"
            "max_replications = 3\n"
            "half_width = 1e-9\n"
            "[compare]\n"
            "algorithms = rrs, scs\n"
            "baseline = scs\n"
            "[vm]\n"
            "vcpus = 2\n"
            "[vm]\n"
            "vcpus = 2\n";
  }
  const auto r = run({"compare", path.c_str()});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("baseline scs"), std::string::npos);
  EXPECT_NE(r.out.find("rrs"), std::string::npos);
}

TEST(CompareCli, DefaultsToAllRegisteredAlgorithms) {
  // No --algorithms and no [compare] block: every registered algorithm
  // runs, with the configured algorithm as baseline.
  std::vector<const char*> args = {"compare"};
  const std::vector<const char*> tiny = {
      "--pcpus", "2", "--vm", "1", "--end-time", "100", "--warmup", "20",
      "--min-replications", "2", "--max-replications", "2",
      "--half-width", "1e-9", "--algorithm", "scs"};
  args.insert(args.end(), tiny.begin(), tiny.end());
  const auto r = run(args);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("baseline scs"), std::string::npos);
  EXPECT_NE(r.out.find("credit"), std::string::npos);
  EXPECT_NE(r.out.find("bvt"), std::string::npos);
}

// ---------------------------------------------------------------------
// --controller (the run verb flag the compare verb shares).
// ---------------------------------------------------------------------

TEST(CompareCli, ControllerFlagSelectsAntithetic) {
  const auto r = run(compare_args(
      {"--algorithms", "rrs,scs", "--controller", "antithetic", "--json"}));
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const auto doc = vcpusim::testing::parse_json(r.out);
  EXPECT_EQ(doc.at("controller").string, "antithetic");
}

TEST(Cli, ControllerFlagRejectsUnknownNames) {
  const auto r = run({"--controller", "sequential"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("controller"), std::string::npos);
}

TEST(Cli, RunVerbControllerIsOutputInvariant) {
  // The run verb's result table is identical under every controller:
  // same seeds, same fold order, same stopping rule — only the
  // dispatch-time speculation differs. (Antithetic changes the estimator
  // and is exercised separately.)
  const std::vector<const char*> base = {
      "--pcpus", "2", "--vm", "1", "--vm", "1", "--end-time", "300",
      "--warmup", "50", "--max-replications", "4", "--half-width", "1e-9"};
  auto adaptive = base;
  adaptive.insert(adaptive.end(), {"--controller", "adaptive"});
  const auto fixed_run = run(base);
  const auto adaptive_run = run(adaptive);
  EXPECT_EQ(fixed_run.exit_code, 0) << fixed_run.err;
  EXPECT_EQ(adaptive_run.exit_code, 0) << adaptive_run.err;
  EXPECT_EQ(fixed_run.out, adaptive_run.out);
}

}  // namespace
}  // namespace vcpusim::cli
