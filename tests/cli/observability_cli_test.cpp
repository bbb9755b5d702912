// CLI surface of the observability layer: the `trace` verb (sinks,
// categories, --out), the `--metrics-out` registry export, the
// `--profile` bucket table, the options each verb rejects, and the
// `run` verb alias. Output schemas are validated with a real JSON
// parser, not substring probes.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "testing/json.hpp"

namespace vcpusim::cli {
namespace {

using vcpusim::testing::JsonValue;
using vcpusim::testing::parse_json;

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

/// Small, fast, convergent experiment shared by all tests here.
std::vector<const char*> small_run() {
  return {"--pcpus", "2",  "--vm",     "1",
          "--vm",    "1",  "--end-time", "30",
          "--warmup", "5", "--max-replications", "2",
          "--half-width", "0.5"};
}

std::vector<const char*> with(std::vector<const char*> args,
                              std::initializer_list<const char*> extra) {
  args.insert(args.end(), extra);
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CliTrace, JsonlStreamOnStdoutSummaryOnStderr) {
  auto args = small_run();
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  ASSERT_EQ(r.exit_code, 0) << r.err;

  // Every stdout line is a JSON object with the pinned envelope fields.
  std::istringstream lines(r.out);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const auto doc = parse_json(line);
    EXPECT_TRUE(doc.has("kind")) << line;
    EXPECT_TRUE(doc.has("t")) << line;
    ++count;
  }
  EXPECT_GT(count, 50U);
  // The human summary stays off the trace stream.
  EXPECT_NE(r.err.find("traced 2 replications"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("sink jsonl"), std::string::npos);
}

TEST(CliTrace, OutFileMovesSummaryToStdout) {
  const std::string path = ::testing::TempDir() + "/vcpusim_trace.jsonl";
  auto args = with(small_run(), {"--out", path.c_str()});
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  const std::string contents = read_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_FALSE(contents.empty());
  EXPECT_EQ(parse_json(contents.substr(0, contents.find('\n')))
                .at("kind")
                .string,
            "marker");
  EXPECT_NE(r.out.find("traced 2 replications"), std::string::npos);
}

TEST(CliTrace, ChromeSinkEmitsOneValidJsonDocument) {
  auto args = with(small_run(), {"--sink", "chrome"});
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  ASSERT_EQ(r.exit_code, 0) << r.err;

  const auto doc = parse_json(r.out);
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_FALSE(doc.at("traceEvents").array.empty());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
}

TEST(CliTrace, UnknownSinkListsValidNames) {
  auto args = with(small_run(), {"--sink", "bogus"});
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown trace sink 'bogus'"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("chrome"), std::string::npos);
  EXPECT_NE(r.err.find("jsonl"), std::string::npos);
}

TEST(CliTrace, CategoriesFlagFiltersTheStream) {
  auto args = with(small_run(), {"--categories", "fire"});
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  ASSERT_EQ(r.exit_code, 0) << r.err;

  std::istringstream lines(r.out);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(parse_json(line).at("kind").string, "fire") << line;
    ++count;
  }
  EXPECT_GT(count, 0U);
}

TEST(CliTrace, UnknownCategoryListsValidNames) {
  auto args = with(small_run(), {"--categories", "fire,bogus"});
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("bogus"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("sched"), std::string::npos) << r.err;
}

TEST(CliTrace, ByteIdenticalAcrossJobs) {
  auto one = small_run();
  one.insert(one.begin(), "trace");
  auto eight = with(small_run(), {"--jobs", "8"});
  eight.insert(eight.begin(), "trace");
  const auto r1 = run(one);
  const auto r8 = run(eight);
  ASSERT_EQ(r1.exit_code, 0) << r1.err;
  ASSERT_EQ(r8.exit_code, 0) << r8.err;
  EXPECT_EQ(r1.out, r8.out);
}

TEST(CliMetrics, MetricsOutWritesSchemaValidRegistryJson) {
  const std::string path = ::testing::TempDir() + "/vcpusim_metrics.json";
  const auto r = run(with(small_run(), {"--metrics-out", path.c_str()}));
  const std::string contents = read_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.err;

  const auto doc = parse_json(contents);
  for (const char* section :
       {"counters", "gauges", "summaries", "histograms"}) {
    ASSERT_TRUE(doc.has(section)) << section;
    EXPECT_EQ(doc.at(section).type, JsonValue::Type::kObject);
  }
  EXPECT_EQ(doc.at("counters").at("run.replications").number, 2.0);
  EXPECT_GT(doc.at("counters").at("sim.events").number, 0.0);
  EXPECT_GT(doc.at("counters").at("sched.ticks").number, 0.0);
  EXPECT_EQ(doc.at("gauges").at("executor.jobs").number, 1.0);
  const auto& avail = doc.at("summaries").at("metric.mean_vcpu_availability");
  EXPECT_EQ(avail.at("count").number, 2.0);
  EXPECT_GT(avail.at("mean").number, 0.0);
  // No profiling was requested, so no profile.* bucket leaks in.
  EXPECT_EQ(contents.find("\"profile."), std::string::npos);
}

TEST(CliMetrics, CompareModeBuildsOneSystemForEveryAlgorithm) {
  // Every algorithm runs on the same system configuration, so one pool
  // serves them all: the later runs rebind the built system.
  const std::string path = ::testing::TempDir() + "/vcpusim_compare_pool.json";
  const auto r = run(with(small_run(), {"--compare", "--jobs", "1",
                                        "--metrics-out", path.c_str()}));
  const std::string contents = read_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const auto doc = parse_json(contents);
  const auto& counters = doc.at("counters");
  EXPECT_EQ(counters.at("executor.pool_builds").number, 1.0);
  EXPECT_EQ(counters.at("executor.pool_reuses").number,
            counters.at("run.replications").number - 1.0);
}

TEST(CliMetrics, ProfileFlagAddsPhaseTimers) {
  const std::string path = ::testing::TempDir() + "/vcpusim_profile.json";
  const auto r =
      run(with(small_run(), {"--metrics-out", path.c_str(), "--profile"}));
  const std::string contents = read_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.err;

  const auto doc = parse_json(contents);
  const auto& counters = doc.at("counters");
  for (const char* bucket : {"build", "lint", "compile", "reset", "simulate",
                             "decide", "run_point"}) {
    EXPECT_TRUE(counters.has(std::string("profile.") + bucket + ".calls"))
        << bucket;
    EXPECT_TRUE(counters.has(std::string("profile.") + bucket + ".ns"))
        << bucket;
  }
  EXPECT_EQ(counters.at("profile.decide.calls").number,
            counters.at("sched.ticks").number);
  EXPECT_EQ(counters.at("profile.reset.calls").number,
            counters.at("run.replications").number);
}

TEST(CliMetrics, ProfilePrintsBucketTableToStderrOnly) {
  // Without --metrics-out the timings still reach the user, on stderr;
  // stdout stays byte-identical to an unprofiled run.
  const auto plain = run(small_run());
  const auto profiled = run(with(small_run(), {"--profile"}));
  ASSERT_EQ(plain.exit_code, 0) << plain.err;
  ASSERT_EQ(profiled.exit_code, 0) << profiled.err;
  EXPECT_EQ(plain.out, profiled.out);
  EXPECT_TRUE(plain.err.empty()) << plain.err;
  for (const char* row : {"| simulate", "| decide", "| sum", "| run_point"}) {
    EXPECT_NE(profiled.err.find(row), std::string::npos)
        << row << "\n" << profiled.err;
  }
}

TEST(CliTrace, ProfileLeavesTraceBytesUnchanged) {
  auto args = small_run();
  args.insert(args.begin(), "trace");
  const auto plain = run(args);
  const auto profiled = run(with(args, {"--profile"}));
  ASSERT_EQ(plain.exit_code, 0) << plain.err;
  ASSERT_EQ(profiled.exit_code, 0) << profiled.err;
  EXPECT_EQ(plain.out, profiled.out);
  EXPECT_NE(profiled.err.find("| run_point"), std::string::npos)
      << profiled.err;
}

TEST(CliVerbs, EachVerbRejectsTheOptionsItIgnores) {
  const struct {
    const char* verb;
    const char* flag;
  } cases[] = {{"trace", "--compare"},       {"trace", "--csv"},
               {"trace", "--list-algorithms"}, {"compare", "--compare"},
               {"compare", "--list-algorithms"}, {"lint", "--profile"},
               {"lint", "--csv"},            {"lint", "--jobs"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.verb) + " " + c.flag);
    std::vector<const char*> args = {c.verb, c.flag};
    if (std::string(c.flag) == "--jobs") args.push_back("2");
    const auto r = run(args);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
  }
  // lint names the run knobs it would drop, value-taking ones included.
  const auto r = run({"lint", "--pcpus", "2", "--metrics-out", "x.json"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--metrics-out"), std::string::npos) << r.err;
}

TEST(CliVerbs, RunModesRejectTheOptionsTheyIgnore) {
  // --compare runs every algorithm, so a chosen one would be dropped.
  const auto compare = run({"--compare", "--algorithm", "scs"});
  EXPECT_EQ(compare.exit_code, 1);
  EXPECT_TRUE(compare.out.empty()) << compare.out;
  EXPECT_NE(compare.err.find("--algorithm"), std::string::npos)
      << compare.err;
  // --list-algorithms prints the registry and runs nothing.
  const auto list = run({"--list-algorithms", "--metrics-out", "x.json"});
  EXPECT_EQ(list.exit_code, 1);
  EXPECT_TRUE(list.out.empty()) << list.out;
  EXPECT_NE(list.err.find("--list-algorithms"), std::string::npos)
      << list.err;
}

TEST(CliMetrics, MetricsOutUnwritablePathFails) {
  const auto r = run(
      with(small_run(), {"--metrics-out", "/nonexistent/dir/metrics.json"}));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cannot open metrics file"), std::string::npos)
      << r.err;
}

TEST(CliMetrics, TraceVerbHonorsMetricsOut) {
  const std::string path = ::testing::TempDir() + "/vcpusim_tm.json";
  auto args = with(small_run(), {"--metrics-out", path.c_str()});
  args.insert(args.begin(), "trace");
  const auto r = run(args);
  const std::string contents = read_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(parse_json(contents).at("counters").at("run.replications").number,
            2.0);
}

TEST(CliRunVerb, RunVerbMatchesBareInvocation) {
  const auto bare = run(small_run());
  auto verb_args = small_run();
  verb_args.insert(verb_args.begin(), "run");
  const auto verb = run(verb_args);
  ASSERT_EQ(bare.exit_code, 0) << bare.err;
  ASSERT_EQ(verb.exit_code, 0) << verb.err;
  EXPECT_EQ(bare.out, verb.out);
}

TEST(CliTrace, HelpDocumentsObservabilityFlags) {
  const auto r = run({"--help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("vcpusim trace"), std::string::npos);
  EXPECT_NE(r.out.find("--metrics-out"), std::string::npos);
  EXPECT_NE(r.out.find("--profile"), std::string::npos);
  EXPECT_NE(r.out.find("--sink"), std::string::npos);
  EXPECT_NE(r.out.find("--categories"), std::string::npos);
}

}  // namespace
}  // namespace vcpusim::cli
