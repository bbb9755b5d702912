#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

TEST(Cli, HelpPrintsUsage) {
  const auto r = run({"--help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("usage: vcpusim"), std::string::npos);
  EXPECT_NE(r.out.find("--scenario"), std::string::npos);
}

TEST(Cli, ListAlgorithms) {
  const auto r = run({"--list-algorithms"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("rrs"), std::string::npos);
  EXPECT_NE(r.out.find("scs"), std::string::npos);
  EXPECT_NE(r.out.find("rcs"), std::string::npos);
}

TEST(Cli, AlgorithmsVerbListsCatalog) {
  const auto r = run({"algorithms"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  // Every registered algorithm appears with its display name.
  EXPECT_NE(r.out.find("rrs (RRS)"), std::string::npos);
  EXPECT_NE(r.out.find("scs (SCS)"), std::string::npos);
  EXPECT_NE(r.out.find("rcs (RCS)"), std::string::npos);
  EXPECT_NE(r.out.find("credit (Credit)"), std::string::npos);
  // Aliases and option keys with construction-time defaults are listed.
  EXPECT_NE(r.out.find("aliases: round-robin rr"), std::string::npos);
  EXPECT_NE(r.out.find("accounting_period = 30"), std::string::npos);
  EXPECT_NE(r.out.find("skew_threshold = 10.0"), std::string::npos);
  EXPECT_NE(r.out.find("options: none"), std::string::npos);
}

TEST(Cli, AlgorithmsVerbJson) {
  const auto r = run({"algorithms", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"name\": \"rrs\""), std::string::npos);
  EXPECT_NE(r.out.find("\"aliases\": [\"round-robin\", \"rr\"]"),
            std::string::npos);
  EXPECT_NE(r.out.find("\"key\": \"accounting_period\""), std::string::npos);
  EXPECT_NE(r.out.find("\"default\": \"30\""), std::string::npos);
  EXPECT_NE(r.out.find("\"options_struct\": \"sched::CreditOptions\""),
            std::string::npos);
}

TEST(Cli, AlgorithmsVerbUnknownFlagFails) {
  const auto r = run({"algorithms", "--frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const auto r = run({"--frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(Cli, RemovedEngineFlagFailsLoudly) {
  // The simulator has a single kernel; scripts still passing the old
  // engine selector must fail instead of having it silently ignored.
  const auto r = run({"--engine", "compiled"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("unknown option '--engine'"), std::string::npos)
      << r.err;
}

TEST(Cli, MissingValueFails) {
  const auto r = run({"--pcpus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("requires a value"), std::string::npos);
}

TEST(Cli, FlagDrivenRunProducesTable) {
  const auto r = run({"--pcpus", "2", "--vm", "1", "--vm", "1",
                      "--algorithm", "rrs", "--end-time", "300", "--warmup",
                      "50", "--max-replications", "4", "--half-width", "0.1"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("mean_vcpu_availability"), std::string::npos);
  EXPECT_NE(r.out.find("pcpu_utilization"), std::string::npos);
  EXPECT_NE(r.out.find("| metric"), std::string::npos);
}

TEST(Cli, JobsFlagReproducesSequentialOutput) {
  const std::vector<const char*> base = {
      "--pcpus", "2", "--vm", "1", "--vm", "1", "--end-time", "300",
      "--warmup", "50", "--max-replications", "4", "--half-width", "1e-9"};
  auto with_jobs = base;
  with_jobs.insert(with_jobs.end(), {"--jobs", "4"});
  const auto sequential = run(base);
  const auto parallel = run(with_jobs);
  EXPECT_EQ(sequential.exit_code, 0) << sequential.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(sequential.out, parallel.out);
}

TEST(Cli, NegativeJobsFails) {
  const auto r = run({"--jobs", "-2"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos);
}

TEST(Cli, MalformedNumericFlagsFailNamingTheFlag) {
  // Trailing text, fractions for counts, negative counts and out-of-range
  // values are rejected before anything runs, instead of being truncated
  // or wrapped.
  const std::vector<std::vector<const char*>> cases = {
      {"--end-time", "300x"},
      {"--seed", "12abc"},
      {"--jobs", "2x"},
      {"--pcpus", "2.9"},
      {"--max-replications", "-3"},
      {"--min-replications", "1e3"},
      {"--sync", "4294967296"},
      {"--seed", "18446744073709551616"},
      {"--warmup", "nan"},
      {"--half-width", ""},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c[0]) + " '" + c[1] + "'");
    const auto r = run(c);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find(c[0]), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(Cli, CrossFieldRunKnobsFailNamingTheFlags) {
  // Values that parse but cannot run together fail before anything runs,
  // with a message naming the flags (or the default a flag left alone),
  // not the library function that would have rejected them.
  struct Case {
    std::vector<const char*> args;
    std::string message;
  };
  const std::vector<Case> cases = {
      {{"--end-time", "200"},
       "the default --warmup (200) must be below --end-time (200)"},
      {{"--warmup", "500", "--end-time", "300"},
       "--warmup (500) must be below --end-time (300)"},
      {{"--warmup", "-1"}, "--warmup must not be negative, got -1"},
      {{"--end-time", "0"}, "--end-time must be positive, got 0"},
      {{"--max-replications", "1"},
       "--max-replications must be at least 2, got 1"},
      {{"--min-replications", "1"},
       "--min-replications must be at least 2, got 1"},
      {{"--half-width", "-1"}, "--half-width must be positive, got -1"},
      {{"--half-width", "0"}, "--half-width must be positive, got 0"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    const auto r = run(c.args);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.err, "vcpusim: " + c.message + "\n");
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(Cli, EndTimeBeyondTheEventCapFailsAtOnce) {
  // One scheduler Clock event per tick: a horizon past the event cap
  // used to run for as long as it took to reach the cap.
  for (const char* end : {"1e300", "500000001"}) {
    SCOPED_TRACE(end);
    const auto r = run({"--end-time", end});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.err.rfind("vcpusim: --end-time (", 0), 0u) << r.err;
    EXPECT_NE(r.err.find("must not exceed the event cap of 500000000 ticks"),
              std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(Cli, ScenarioValuesOverriddenByFlagsAreCheckedTogether) {
  const std::string path = ::testing::TempDir() + "cli_knobs.scn";
  {
    std::ofstream file(path);
    file << "end_time = 1000\nwarmup = 100\n[vm]\nvcpus = 1\n";
  }
  const auto r = run({"--scenario", path.c_str(), "--end-time", "50"});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.err, "vcpusim: " + path +
                       ": warmup (100) must be below --end-time (50)\n");
}

TEST(Cli, MinAboveMaxReplicationsFails) {
  const auto r = run({"--pcpus", "2", "--vm", "1", "--end-time", "100",
                      "--warmup", "10", "--min-replications", "5",
                      "--max-replications", "3"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("min_replications (5) > max_replications (3)"),
            std::string::npos)
      << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(Cli, RemovedRebuildSystemsFlagFailsLoudly) {
  // Every replication runs on a pooled system; the old opt-out flag is
  // an unknown option now.
  const auto r = run({"--rebuild-systems"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option '--rebuild-systems'"),
            std::string::npos)
      << r.err;
}

TEST(Cli, CsvOutput) {
  const auto r = run({"--pcpus", "2", "--vm", "1", "--end-time", "200",
                      "--warmup", "20", "--max-replications", "3",
                      "--half-width", "0.2", "--csv"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("metric,mean,ci_half_width"), std::string::npos);
}

TEST(Cli, CustomMetricSelection) {
  const auto r = run({"--pcpus", "2", "--vm", "2", "--metric", "throughput",
                      "--metric", "availability[0]", "--end-time", "200",
                      "--warmup", "20", "--max-replications", "3",
                      "--half-width", "0.2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput"), std::string::npos);
  EXPECT_NE(r.out.find("vcpu_availability[0]"), std::string::npos);
  EXPECT_EQ(r.out.find("mean_vcpu_availability"), std::string::npos);
}

TEST(Cli, BadMetricNameFails) {
  const auto r = run({"--metric", "bogus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown metric"), std::string::npos);
}

TEST(Cli, UnknownAlgorithmFails) {
  const auto r = run({"--vm", "1", "--algorithm", "warp"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown scheduling algorithm"), std::string::npos);
}

TEST(Cli, UnknownAlgorithmErrorListsValidNames) {
  const auto r = run({"--vm", "1", "--algorithm", "warp"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("warp"), std::string::npos);
  EXPECT_NE(r.err.find("valid algorithms"), std::string::npos);
  EXPECT_NE(r.err.find("rrs"), std::string::npos);
  EXPECT_NE(r.err.find("rcs"), std::string::npos);
  EXPECT_NE(r.err.find("sedf"), std::string::npos);
}

TEST(Cli, InvalidSystemFails) {
  const auto r = run({"--pcpus", "0", "--vm", "1"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("num_pcpus"), std::string::npos);
}

TEST(Cli, ScenarioFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vcpusim_test.scn";
  {
    std::ofstream file(path);
    file << "pcpus = 2\nend_time = 300\nwarmup = 50\n"
         << "max_replications = 3\nhalf_width = 0.2\n"
         << "metrics = throughput\n"
         << "[vm only]\nvcpus = 2\nsync_ratio = 3\n";
  }
  const auto r = run({"--scenario", path.c_str()});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput"), std::string::npos);
}

TEST(Cli, CompareModeRunsAllAlgorithms) {
  const auto r = run({"--pcpus", "1", "--vm", "1", "--vm", "1", "--compare",
                      "--metric", "availability", "--end-time", "200",
                      "--warmup", "20", "--max-replications", "3",
                      "--half-width", "0.2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("| algorithm"), std::string::npos);
  EXPECT_NE(r.out.find("rrs"), std::string::npos);
  EXPECT_NE(r.out.find("scs"), std::string::npos);
  EXPECT_NE(r.out.find("sedf"), std::string::npos);
  EXPECT_NE(r.out.find("priority"), std::string::npos);
}

TEST(Cli, MissingScenarioFileFails) {
  const auto r = run({"--scenario", "/nonexistent/path.scn"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, LintDefaultSystemIsClean) {
  const auto r = run({"lint"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("0 error(s), 0 warning(s)"), std::string::npos);
}

TEST(Cli, LintJsonOutput) {
  const auto r = run({"lint", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"model\":\"Virtual_System\""), std::string::npos);
  EXPECT_NE(r.out.find("\"errors\":0"), std::string::npos);
}

TEST(Cli, LintAllAlgorithmsIsClean) {
  const auto r = run({"lint", "--all-algorithms", "--strict"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(Cli, LintFlagDrivenSystem) {
  const auto r = run({"lint", "--pcpus", "2", "--vm", "3", "--algorithm",
                      "scs", "--sync", "0"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(Cli, LintScenarioFilePositional) {
  const std::string path = ::testing::TempDir() + "/vcpusim_lint.scn";
  {
    std::ofstream file(path);
    file << "pcpus = 2\n[vm only]\nvcpus = 2\nsync_ratio = 3\n";
  }
  const auto r = run({"lint", path.c_str()});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("0 error(s)"), std::string::npos);
}

TEST(Cli, LintUnknownAlgorithmFailsWithValidNames) {
  const auto r = run({"lint", "--algorithm", "warp"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown scheduling algorithm"), std::string::npos);
  EXPECT_NE(r.err.find("valid algorithms"), std::string::npos);
}

TEST(Cli, LintListChecksCatalog) {
  const auto r = run({"lint", "--list-checks"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("dead-activity"), std::string::npos);
  EXPECT_NE(r.out.find("effect-footprint-mismatch"), std::string::npos);
  EXPECT_NE(r.out.find("probe-budget-exceeded"), std::string::npos);
  EXPECT_NE(r.out.find("[info]"), std::string::npos);
  EXPECT_NE(r.out.find("[error]"), std::string::npos);
}

TEST(Cli, LintListChecksJson) {
  const auto r = run({"lint", "--list-checks", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"checks\":["), std::string::npos);
  EXPECT_NE(r.out.find("\"id\":\"unserialized-shared-write\""),
            std::string::npos);
  EXPECT_NE(r.out.find("\"severity\":\"info\""), std::string::npos);
}

TEST(Cli, LintProveShowsInvariantSection) {
  const auto r = run({"lint", "--prove", "--pcpus", "2", "--vm", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("invariants:"), std::string::npos);
  EXPECT_NE(r.out.find("  invariant: "), std::string::npos);
  EXPECT_NE(r.out.find("  bound: "), std::string::npos);
  EXPECT_NE(r.out.find(" = "), std::string::npos);
}

TEST(Cli, LintProveJsonCarriesInvariantAnalysis) {
  const auto r = run({"lint", "--prove", "--json", "--pcpus", "2", "--vm",
                      "1", "--sync", "0"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"invariant_analysis\":{"), std::string::npos);
  EXPECT_NE(r.out.find("\"budget_exhausted\":false"), std::string::npos);
  EXPECT_NE(r.out.find("\"invariants\":["), std::string::npos);
  EXPECT_NE(r.out.find("\"bounds\":["), std::string::npos);
}

TEST(Cli, LintWithoutProveOmitsInvariantSection) {
  const auto r = run({"lint", "--pcpus", "2", "--vm", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.find("invariants:"), std::string::npos);
}

TEST(Cli, LintProveStrictAcceptsShippedModel) {
  const auto r = run({"lint", "--prove", "--strict", "--pcpus", "4", "--vm",
                      "2", "--vm", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(Cli, LintHelpShowsVerb) {
  const auto r = run({"--help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("vcpusim lint"), std::string::npos);
  EXPECT_NE(r.out.find("--strict"), std::string::npos);
  EXPECT_NE(r.out.find("--all-algorithms"), std::string::npos);
}

}  // namespace
}  // namespace vcpusim::cli
