#include "cli/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/replication.hpp"

namespace vcpusim::cli {
namespace {

Scenario parse(const std::string& text) {
  std::istringstream is(text);
  return parse_scenario(is);
}

TEST(Scenario, MinimalScenario) {
  const auto s = parse(R"(
pcpus = 2
[vm]
vcpus = 1
)");
  EXPECT_EQ(s.spec.system.num_pcpus, 2);
  ASSERT_EQ(s.spec.system.vms.size(), 1u);
  EXPECT_EQ(s.spec.system.vms[0].num_vcpus, 1);
  EXPECT_EQ(s.algorithm, "rrs");
  EXPECT_EQ(s.metrics.size(), 3u);  // default metric set
  ASSERT_TRUE(s.spec.scheduler);
  EXPECT_EQ(s.spec.scheduler()->name(), "RRS");
}

TEST(Scenario, FullScenario) {
  const auto s = parse(R"(
# a cloud host
pcpus = 4
timeslice = 10
algorithm = rcs
end_time = 1000
warmup = 100
seed = 7
confidence = 0.99
half_width = 0.01
min_replications = 4
max_replications = 16
jobs = 4
metrics = vcpu_utilization, pcpu_utilization, throughput

[vm web]
vcpus = 2
load = exponential(0.2)
sync_ratio = 3
sync_mode = random

[vm db]
vcpus = 4
spinlock = 0.5 0.3
)");
  EXPECT_EQ(s.spec.system.num_pcpus, 4);
  EXPECT_DOUBLE_EQ(s.spec.system.default_timeslice, 10.0);
  EXPECT_EQ(s.algorithm, "rcs");
  EXPECT_DOUBLE_EQ(s.spec.end_time, 1000.0);
  EXPECT_DOUBLE_EQ(s.spec.warmup, 100.0);
  EXPECT_EQ(s.spec.base_seed, 7u);
  EXPECT_DOUBLE_EQ(s.spec.policy.confidence, 0.99);
  EXPECT_EQ(s.spec.policy.max_replications, 16u);
  EXPECT_EQ(s.spec.jobs, 4u);
  EXPECT_EQ(s.metrics.size(), 3u);
  EXPECT_EQ(s.metrics[0].kind, exp::MetricKind::kMeanVcpuUtilization);

  ASSERT_EQ(s.spec.system.vms.size(), 2u);
  const auto& web = s.spec.system.vms[0];
  EXPECT_EQ(web.name, "web");
  EXPECT_EQ(web.num_vcpus, 2);
  EXPECT_DOUBLE_EQ(web.load_distribution->mean(), 5.0);
  EXPECT_EQ(web.sync_ratio_k, 3);
  EXPECT_EQ(web.sync_mode, vm::SyncMode::kRandom);
  const auto& db = s.spec.system.vms[1];
  EXPECT_EQ(db.name, "db");
  EXPECT_TRUE(db.spinlock.enabled);
  EXPECT_DOUBLE_EQ(db.spinlock.lock_probability, 0.5);
  EXPECT_DOUBLE_EQ(db.spinlock.critical_fraction, 0.3);
}

TEST(Scenario, CommentsAndWhitespaceIgnored) {
  const auto s = parse(R"(
  pcpus = 3   # inline comment
# full-line comment

[ vm   frontend ]
   vcpus=2
)");
  EXPECT_EQ(s.spec.system.num_pcpus, 3);
  EXPECT_EQ(s.spec.system.vms[0].name, "frontend");
  EXPECT_EQ(s.spec.system.vms[0].num_vcpus, 2);
}

TEST(Scenario, ErrorsCarryLineNumbers) {
  try {
    parse("pcpus = 2\nbogus_key = 1\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(Scenario, RemovedEngineKeyFailsLoudly) {
  // The simulator has a single kernel; scenarios still selecting one
  // must fail at the offending line instead of being silently accepted.
  try {
    parse("pcpus = 2\nengine = compiled\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key 'engine'"), std::string::npos) << what;
  }
}

TEST(Scenario, RejectsMalformedInput) {
  EXPECT_THROW(parse("pcpus 2\n[vm]\nvcpus=1\n"), std::invalid_argument);
  EXPECT_THROW(parse("[host]\n"), std::invalid_argument);
  EXPECT_THROW(parse("pcpus = two\n[vm]\nvcpus=1\n"), std::invalid_argument);
  EXPECT_THROW(parse("[vm]\nvcpus = 1\nload = nonsense(1)\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("[vm]\nvcpus = 1\nsync_mode = sometimes\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("[vm]\nvcpus = 1\nspinlock = 0.5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("pcpus = 2\n"), std::invalid_argument);  // no VMs
  EXPECT_THROW(parse("algorithm = warp\n[vm]\nvcpus=1\n"),
               std::invalid_argument);  // unknown algorithm
}

TEST(Scenario, NumericKeysAreStrict) {
  // Integers must be exact and in range, reals finite with nothing after
  // them; every diagnostic names the key and its line.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[vm]\nvcpus = 2.7\n", "'vcpus'"},
      {"seed = -7\n[vm]\nvcpus = 1\n", "'seed'"},
      {"max_replications = -3\n[vm]\nvcpus = 1\n", "'max_replications'"},
      {"min_replications = 4.5\n[vm]\nvcpus = 1\n", "'min_replications'"},
      {"jobs = 1e2\n[vm]\nvcpus = 1\n", "'jobs'"},
      {"pcpus = 4294967296\n[vm]\nvcpus = 1\n", "'pcpus'"},
      {"seed = 18446744073709551616\n[vm]\nvcpus = 1\n", "'seed'"},
      {"end_time = 300x\n[vm]\nvcpus = 1\n", "'end_time'"},
      {"warmup = inf\n[vm]\nvcpus = 1\n", "'warmup'"},
      {"[vm]\nvcpus = 1\nsync_ratio = -1\n", "'sync_ratio'"},
  };
  for (const auto& [text, key] : cases) {
    SCOPED_TRACE(text);
    try {
      parse(text);
      ADD_FAILURE() << "expected throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("line ", 0), 0u) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
  const auto s = parse("seed = 18446744073709551615\n[vm]\nvcpus = 3\n");
  EXPECT_EQ(s.spec.base_seed, 18446744073709551615u);
  EXPECT_EQ(s.spec.system.vms[0].num_vcpus, 3);
}

TEST(Scenario, CrossFieldRunKnobsFailNamingTheKeys) {
  // Values that parse but cannot run together are rejected at load time,
  // naming each key's line (or the default the file left alone).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"end_time = 300\nwarmup = 300\n[vm]\nvcpus = 1\n",
       "line 2: 'warmup' (300) must be below line 1: 'end_time' (300)"},
      {"end_time = 100\n[vm]\nvcpus = 1\n",
       "the default warmup (200) must be below line 1: 'end_time' (100)"},
      {"warmup = -5\n[vm]\nvcpus = 1\n",
       "line 1: 'warmup' must not be negative, got -5"},
      {"half_width = -1\n[vm]\nvcpus = 1\n",
       "line 1: 'half_width' must be positive, got -1"},
      {"max_replications = 1\n[vm]\nvcpus = 1\n",
       "line 1: 'max_replications' must be at least 2, got 1"},
      {"min_replications = 1\n[vm]\nvcpus = 1\n",
       "line 1: 'min_replications' must be at least 2, got 1"},
  };
  for (const auto& [text, message] : cases) {
    SCOPED_TRACE(text);
    try {
      parse(text);
      ADD_FAILURE() << "expected throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(Scenario, EndTimeBeyondTheEventCapIsRejected) {
  try {
    parse("end_time = 1e300\n[vm]\nvcpus = 1\n");
    ADD_FAILURE() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "line 1: 'end_time' (1e+300) must not exceed the event cap of "
              "500000000 ticks");
  }
  // The cap itself is a valid horizon.
  EXPECT_NO_THROW(parse("end_time = 500000000\n[vm]\nvcpus = 1\n"));
}

TEST(Scenario, ReplicationBounds) {
  // A maximum given alone caps the default minimum; explicit bounds are
  // kept as written, and a conflicting pair is left for the runner to
  // reject.
  const auto capped = parse("max_replications = 3\n[vm]\nvcpus = 1\n");
  EXPECT_EQ(capped.spec.policy.min_replications, 3u);
  EXPECT_EQ(capped.spec.policy.max_replications, 3u);
  const auto both = parse(
      "min_replications = 5\nmax_replications = 3\n[vm]\nvcpus = 1\n");
  EXPECT_EQ(both.spec.policy.min_replications, 5u);
  EXPECT_EQ(both.spec.policy.max_replications, 3u);
}

TEST(Scenario, RemovedReuseSystemsKeyFailsLoudly) {
  try {
    parse("reuse_systems = off\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key 'reuse_systems'"), std::string::npos)
        << what;
  }
}

TEST(Scenario, UnknownVmKeyRejected) {
  EXPECT_THROW(parse("[vm]\ncores = 2\n"), std::invalid_argument);
}

TEST(Scenario, ControllerKeyParsed) {
  const auto s = parse("controller = antithetic\n[vm]\nvcpus = 1\n");
  EXPECT_EQ(s.spec.controller, stats::ControllerKind::kAntithetic);
  // Default stays fixed.
  const auto d = parse("[vm]\nvcpus = 1\n");
  EXPECT_EQ(d.spec.controller, stats::ControllerKind::kFixed);
}

TEST(Scenario, ControllerKeyRejectsUnknownNames) {
  try {
    parse("controller = sequential\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("controller"), std::string::npos);
  }
}

TEST(Scenario, CompareBlockParsed) {
  const auto s = parse(R"(
pcpus = 2
[compare]
algorithms = rrs, scs, rcs
[vm]
vcpus = 1
)");
  EXPECT_EQ(s.compare_algorithms,
            (std::vector<std::string>{"rrs", "scs", "rcs"}));
}

TEST(Scenario, CompareBaselineRotatesToFront) {
  const auto s = parse(R"(
[compare]
algorithms = rrs, scs, rcs
baseline = rcs
[vm]
vcpus = 1
)");
  EXPECT_EQ(s.compare_algorithms,
            (std::vector<std::string>{"rcs", "rrs", "scs"}));
}

TEST(Scenario, CompareBlockErrors) {
  // Unknown algorithm in the list, with a line number.
  try {
    parse("[compare]\nalgorithms = rrs, warp\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // Baseline outside the list.
  EXPECT_THROW(
      parse("[compare]\nalgorithms = rrs, scs\nbaseline = bvt\n"
            "[vm]\nvcpus = 1\n"),
      std::invalid_argument);
  // Unknown keys and a named section are errors, like everywhere else.
  EXPECT_THROW(parse("[compare]\nfrobnicate = 1\n[vm]\nvcpus = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("[compare foo]\nalgorithms = rrs\n[vm]\nvcpus = 1\n"),
               std::invalid_argument);
}

TEST(Scenario, CompareBlockDoesNotLeakIntoVmOrGlobalKeys) {
  // Keys after a [vm] section following [compare] go to the VM again.
  const auto s = parse(R"(
[compare]
algorithms = rrs, scs
[vm]
vcpus = 3
)");
  ASSERT_EQ(s.spec.system.vms.size(), 1u);
  EXPECT_EQ(s.spec.system.vms[0].num_vcpus, 3);
}

TEST(Scenario, DvfsBlockParsed) {
  const auto s = parse(R"(
pcpus = 2
[dvfs]
levels = 0.5:0.8, 0.75:0.9, 1.0:1.0
policy = min
[vm]
vcpus = 1
)");
  EXPECT_TRUE(s.spec.system.dvfs.enabled);
  ASSERT_EQ(s.spec.system.dvfs.levels.size(), 3u);
  EXPECT_DOUBLE_EQ(s.spec.system.dvfs.levels[0].frequency, 0.5);
  EXPECT_DOUBLE_EQ(s.spec.system.dvfs.levels[0].voltage, 0.8);
  EXPECT_DOUBLE_EQ(s.spec.system.dvfs.levels[2].frequency, 1.0);
  EXPECT_EQ(s.spec.system.dvfs.initial_level, 0);  // policy = min
  EXPECT_EQ(s.spec.system.dvfs.effective_initial_level(), 0);
}

TEST(Scenario, DvfsBlockDefaultsToLadderAndMaxPolicy) {
  // An empty [dvfs] block enables the default four-step ladder with the
  // highest level as the initial state.
  const auto s = parse("[dvfs]\n[vm]\nvcpus = 1\n");
  EXPECT_TRUE(s.spec.system.dvfs.enabled);
  EXPECT_TRUE(s.spec.system.dvfs.levels.empty());
  EXPECT_EQ(s.spec.system.dvfs.initial_level, -1);
  const auto effective = s.spec.system.dvfs.effective_levels();
  ASSERT_EQ(effective.size(), 4u);
  EXPECT_EQ(s.spec.system.dvfs.effective_initial_level(), 3);

  // Explicit numeric policy index.
  const auto indexed = parse("[dvfs]\npolicy = 1\n[vm]\nvcpus = 1\n");
  EXPECT_EQ(indexed.spec.system.dvfs.initial_level, 1);
}

TEST(Scenario, DvfsBlockDoesNotLeakIntoVmOrGlobalKeys) {
  const auto s = parse(R"(
[dvfs]
policy = max
[vm]
vcpus = 3
)");
  ASSERT_EQ(s.spec.system.vms.size(), 1u);
  EXPECT_EQ(s.spec.system.vms[0].num_vcpus, 3);
  EXPECT_EQ(s.spec.system.dvfs.initial_level, -1);
}

TEST(Scenario, DvfsBlockErrors) {
  // Malformed level entry, with the line number and the offending text.
  try {
    parse("[dvfs]\nlevels = 0.5:0.8, nonsense\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("invalid dvfs level 'nonsense'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected frequency:voltage"), std::string::npos)
        << what;
  }
  // Unknown keys are errors (typo safety), like every other section.
  try {
    parse("[dvfs]\nladder = 1\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown dvfs key 'ladder'"),
              std::string::npos)
        << e.what();
  }
  // Empty list, named section, bad policy.
  EXPECT_THROW(parse("[dvfs]\nlevels =\n[vm]\nvcpus = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("[dvfs turbo]\n[vm]\nvcpus = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("[dvfs]\npolicy = turbo\n[vm]\nvcpus = 1\n"),
               std::invalid_argument);
  // Validation catches non-ascending ladders and out-of-range initial
  // levels with the level index in the message.
  try {
    parse("[dvfs]\nlevels = 1.0:1.0, 0.5:0.8\n[vm]\nvcpus = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ascending"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse("[dvfs]\nlevels = 0.5:0.8, 1.0:1.0\npolicy = 7\n"
                     "[vm]\nvcpus = 1\n"),
               std::invalid_argument);
}

TEST(ParseMetric, KnownNames) {
  EXPECT_EQ(parse_metric("availability").kind,
            exp::MetricKind::kMeanVcpuAvailability);
  EXPECT_EQ(parse_metric("availability[2]").kind,
            exp::MetricKind::kVcpuAvailability);
  EXPECT_EQ(parse_metric("availability[2]").index, 2);
  EXPECT_EQ(parse_metric("vcpu_utilization").kind,
            exp::MetricKind::kMeanVcpuUtilization);
  EXPECT_EQ(parse_metric("utilization[0]").kind,
            exp::MetricKind::kVcpuUtilization);
  EXPECT_EQ(parse_metric("busy_fraction").kind,
            exp::MetricKind::kMeanVcpuBusyFraction);
  EXPECT_EQ(parse_metric("PCPU").kind, exp::MetricKind::kPcpuUtilization);
  EXPECT_EQ(parse_metric("blocked_fraction[1]").kind,
            exp::MetricKind::kVmBlockedFraction);
  EXPECT_EQ(parse_metric("throughput").kind, exp::MetricKind::kThroughput);
  EXPECT_EQ(parse_metric("spin_fraction").kind,
            exp::MetricKind::kMeanSpinFraction);
  EXPECT_EQ(parse_metric("effective_utilization").kind,
            exp::MetricKind::kMeanEffectiveUtilization);
  EXPECT_EQ(parse_metric("energy").kind, exp::MetricKind::kEnergy);
}

TEST(ParseMetric, Errors) {
  EXPECT_THROW(parse_metric("nope"), std::invalid_argument);
  EXPECT_THROW(parse_metric("availability[x]"), std::invalid_argument);
  EXPECT_THROW(parse_metric("availability[1"), std::invalid_argument);
  EXPECT_THROW(parse_metric("blocked_fraction"), std::invalid_argument);
  // Formerly silently ignored: trailing junk, negative indices, and an
  // index on a metric that does not take one.
  try {
    parse_metric("availability[1]x");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected text after ']'"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_metric("availability[-1]");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index must be >= 0"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_metric("energy[2]");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("does not take an index"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_metric("throughput[0]"), std::invalid_argument);
  EXPECT_THROW(parse_metric("pcpu_utilization[1]"), std::invalid_argument);
  EXPECT_THROW(parse_metric("spin_fraction[1]"), std::invalid_argument);
  EXPECT_THROW(parse_metric("effective_utilization[1]"),
               std::invalid_argument);
}

}  // namespace
}  // namespace vcpusim::cli
