#include "stats/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "testing/json.hpp"

namespace vcpusim::stats {
namespace {

using vcpusim::testing::parse_json;

std::string json_of(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.write_json(os);
  return os.str();
}

TEST(MetricsRegistry, CounterFindOrCreateAccumulates) {
  MetricsRegistry registry;
  registry.counter("sim.events").add(3);
  registry.counter("sim.events").add(4);
  EXPECT_EQ(registry.counter_value("sim.events"), 7U);
  EXPECT_EQ(registry.size(), 1U);
}

TEST(MetricsRegistry, CounterDefaultIncrementIsOne) {
  MetricsRegistry registry;
  registry.counter("c").add();
  registry.counter("c").add();
  EXPECT_EQ(registry.counter_value("c"), 2U);
}

TEST(MetricsRegistry, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  registry.gauge("executor.jobs").set(4.0);
  registry.gauge("executor.jobs").set(8.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("executor.jobs"), 8.0);
}

TEST(MetricsRegistry, SummaryIsWelfordBacked) {
  MetricsRegistry registry;
  auto& s = registry.summary("latency");
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(registry.summary_values("latency").count(), 2U);
  EXPECT_DOUBLE_EQ(registry.summary_values("latency").mean(), 2.0);
}

TEST(MetricsRegistry, HistogramParamsFixedByFirstCall) {
  MetricsRegistry registry;
  auto& h = registry.histogram("h", 0.0, 10.0, 5);
  h.add(1.0);
  // Later lookups ignore their lo/hi/buckets arguments.
  auto& again = registry.histogram("h", -100.0, 100.0, 50);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(h.bucket_count(), 5U);
}

TEST(MetricsRegistry, KindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.summary("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", 0, 1, 2), std::invalid_argument);
}

TEST(MetricsRegistry, MissingNameAccessorsThrow) {
  MetricsRegistry registry;
  registry.gauge("g");
  EXPECT_THROW(registry.counter_value("absent"), std::out_of_range);
  EXPECT_THROW(registry.gauge_value("absent"), std::out_of_range);
  EXPECT_THROW(registry.summary_values("absent"), std::out_of_range);
  // Wrong kind is also out_of_range, not a silent zero.
  EXPECT_THROW(registry.counter_value("g"), std::out_of_range);
}

TEST(MetricsRegistry, HasFindsRegisteredNames) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.has("a"));
  registry.counter("a");
  EXPECT_TRUE(registry.has("a"));
  EXPECT_FALSE(registry.has("b"));
}

TEST(MetricsRegistry, JsonRoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.counter("sim.events").add(42);
  registry.gauge("executor.jobs").set(2.5);
  registry.summary("metric.throughput").add(1.0);
  registry.summary("metric.throughput").add(2.0);
  registry.histogram("hist", 0.0, 4.0, 4).add(1.5);

  const auto doc = parse_json(json_of(registry));
  EXPECT_EQ(doc.at("counters").at("sim.events").number, 42.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("executor.jobs").number, 2.5);
  const auto& summary = doc.at("summaries").at("metric.throughput");
  EXPECT_EQ(summary.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(summary.at("mean").number, 1.5);
  EXPECT_TRUE(summary.has("stddev"));
  EXPECT_TRUE(summary.has("min"));
  EXPECT_TRUE(summary.has("max"));
  const auto& hist = doc.at("histograms").at("hist");
  EXPECT_EQ(hist.at("counts").array.size(), 4U);
  EXPECT_EQ(hist.at("counts").at(1).number, 1.0);
}

TEST(MetricsRegistry, EmptyRegistryRendersValidJson) {
  MetricsRegistry registry;
  const auto doc = parse_json(json_of(registry));
  EXPECT_TRUE(doc.at("counters").is_object());
  EXPECT_TRUE(doc.at("counters").object.empty());
  EXPECT_TRUE(doc.at("histograms").object.empty());
}

TEST(MetricsRegistry, JsonIsDeterministicAndSorted) {
  MetricsRegistry a;
  MetricsRegistry b;
  // Insert in opposite orders; rendering must not depend on it.
  a.counter("zeta").add(1);
  a.counter("alpha").add(2);
  b.counter("alpha").add(2);
  b.counter("zeta").add(1);
  EXPECT_EQ(json_of(a), json_of(b));
  EXPECT_LT(json_of(a).find("alpha"), json_of(a).find("zeta"));
}

TEST(MetricsRegistry, JsonEscapesNamesAndNonFiniteValues) {
  MetricsRegistry registry;
  registry.gauge("quote\"back\\slash").set(1.0);
  registry.gauge("inf").set(1.0 / 0.0);
  const auto doc = parse_json(json_of(registry));
  EXPECT_TRUE(doc.at("gauges").has("quote\"back\\slash"));
  EXPECT_TRUE(doc.at("gauges").at("inf").is_null());
}

TEST(MetricsRegistry, JsonEscapesControlCharactersInNames) {
  // A raw control byte inside a JSON string is invalid JSON, and the test
  // parser tolerates it, so assert the escaped bytes themselves.
  MetricsRegistry registry;
  registry.counter(std::string("metric.a\tb\x01" "c\nd")).add(1);
  const std::string json = json_of(registry);
  EXPECT_NE(json.find("\"metric.a\\tb\\u0001c\\nd\": 1"), std::string::npos)
      << json;
  for (const char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
    }
  }
  EXPECT_EQ(json_escape("q\"b\\s\x1f\r"), "q\\\"b\\\\s\\u001f\\u000d");
}

}  // namespace
}  // namespace vcpusim::stats
