#include "trace/sinks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ios>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <streambuf>
#include <utility>
#include <vector>

#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/distribution.hpp"
#include "testing/helpers.hpp"
#include "testing/json.hpp"

namespace vcpusim::trace {
namespace {

using san::TraceCategory;
using san::TraceEvent;
using vcpusim::testing::parse_json;

TraceEvent fire_event(double t, std::uint64_t seq, std::string_view name,
                      std::int64_t case_index = 0) {
  return TraceEvent{TraceCategory::kFire, t, seq, name, case_index, 0, {}};
}

TEST(RingBufferSink, RetainsOwnedCopies) {
  RingBufferSink sink;
  {
    const std::string transient = "Model->Act";
    sink.on_event(fire_event(1.5, 3, transient, 2));
  }  // the emitter's string is gone; the sink must have copied
  ASSERT_EQ(sink.events().size(), 1U);
  const TraceEvent e = sink.events().front();
  EXPECT_EQ(e.name, "Model->Act");
  EXPECT_EQ(e.category, TraceCategory::kFire);
  EXPECT_DOUBLE_EQ(e.time, 1.5);
  EXPECT_EQ(e.seq, 3U);
  EXPECT_EQ(e.a, 2);
}

TEST(RingBufferSink, BoundedCapacityKeepsTail) {
  RingBufferSink sink(3);
  for (int i = 0; i < 5; ++i) {
    sink.on_event(fire_event(static_cast<double>(i), i, "a", i));
  }
  EXPECT_EQ(sink.total_events(), 5U);
  EXPECT_EQ(sink.dropped(), 2U);
  ASSERT_EQ(sink.events().size(), 3U);
  EXPECT_EQ(sink.events().front().a, 2);
  EXPECT_EQ(sink.events().back().a, 4);
}

TEST(RingBufferSink, InternedNamesAreCheckedByContent) {
  RingBufferSink sink;
  char storage[] = "Model->A";  // one address, changing content
  sink.on_event(fire_event(0, 0, storage));
  storage[7] = 'B';
  sink.on_event(fire_event(1, 1, storage));
  sink.on_event(fire_event(2, 2, storage));
  sink.on_event(TraceEvent{TraceCategory::kMarking, 3, 3, storage, 0, 0,
                           std::string_view(storage, 5)});
  ASSERT_EQ(sink.events().size(), 4U);
  EXPECT_EQ(sink.events()[0].name, "Model->A");
  EXPECT_EQ(sink.events()[1].name, "Model->B");
  EXPECT_EQ(sink.events()[2].name, "Model->B");
  EXPECT_EQ(sink.events()[3].name, "Model->B");
  EXPECT_EQ(sink.events()[3].detail, "Model");
  // The repeated name was stored once.
  EXPECT_LT(sink.arena_bytes(), 4 * sizeof(storage));
}

/// Drop-oldest over a long stream: every event's strings come from
/// reused buffers (as the simulator's marking values do), so the tail
/// survives many arena compactions only if they relocate it correctly.
TEST(RingBufferSink, BoundedEvictionKeepsTailThroughCompaction) {
  constexpr std::size_t kCapacity = 1000;
  constexpr std::size_t kEvents = 1000000;
  const auto name_of = [](std::size_t i) {
    return "VM_" + std::to_string(i % 37) + ".VCPU->Activity";
  };
  const auto detail_of = [](std::size_t i) {
    return std::to_string(i * 7919U);
  };
  RingBufferSink sink(kCapacity);
  std::string name;
  std::string detail;
  std::size_t max_arena = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    name = name_of(i);
    detail = detail_of(i);
    sink.on_event(TraceEvent{TraceCategory::kMarking, static_cast<double>(i),
                             i, name, static_cast<std::int64_t>(i), -1,
                             detail});
    max_arena = std::max(max_arena, sink.arena_bytes());
  }
  EXPECT_EQ(sink.total_events(), kEvents);
  EXPECT_EQ(sink.dropped(), kEvents - kCapacity);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), kCapacity);
  std::size_t k = kEvents - kCapacity;
  for (const TraceEvent e : events) {
    ASSERT_EQ(e.seq, k);
    EXPECT_EQ(e.a, static_cast<std::int64_t>(k));
    EXPECT_EQ(e.b, -1);
    EXPECT_EQ(e.time, static_cast<double>(k));
    EXPECT_EQ(e.category, TraceCategory::kMarking);
    EXPECT_EQ(e.name, name_of(k));
    EXPECT_EQ(e.detail, detail_of(k));
    ++k;
  }
  EXPECT_EQ(k, kEvents);
  // Compaction bounds the arena by the live strings, not the stream.
  std::size_t live = 0;
  for (const TraceEvent e : events) live += e.name.size() + e.detail.size();
  EXPECT_LE(max_arena, 4 * live);
}

TEST(RingBufferSink, CountByCategoryAndClear) {
  RingBufferSink sink;
  sink.on_event(fire_event(0, 0, "a"));
  sink.on_event(TraceEvent{TraceCategory::kScheduler, 0, 0, "sched", 1, 0,
                           "in"});
  EXPECT_EQ(sink.count(TraceCategory::kFire), 1U);
  EXPECT_EQ(sink.count(TraceCategory::kScheduler), 1U);
  EXPECT_EQ(sink.count(TraceCategory::kMarking), 0U);
  sink.clear();
  EXPECT_EQ(sink.total_events(), 0U);
  EXPECT_TRUE(sink.events().empty());
}

TEST(RingBufferSink, ReplayForwardsInOrderHonoringFilter) {
  RingBufferSink source;
  source.on_event(fire_event(1, 0, "a"));
  source.on_event(TraceEvent{TraceCategory::kMarking, 1, 0, "p", 0, 0, "3"});
  source.on_event(fire_event(2, 1, "b"));

  RingBufferSink fires_only(0, san::trace_bit(TraceCategory::kFire));
  source.replay_into(fires_only);
  ASSERT_EQ(fires_only.events().size(), 2U);
  EXPECT_EQ(fires_only.events()[0].name, "a");
  EXPECT_EQ(fires_only.events()[1].name, "b");
}

TEST(RingBufferSink, CategoryMaskPrefilters) {
  RingBufferSink sink(0, san::trace_bit(TraceCategory::kScheduler));
  EXPECT_TRUE(sink.wants(TraceCategory::kScheduler));
  EXPECT_FALSE(sink.wants(TraceCategory::kFire));
  EXPECT_FALSE(sink.wants(TraceCategory::kMarking));
}

TEST(JsonlSink, EveryLineIsValidJsonWithKindField) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.on_event(fire_event(1.25, 0, "M->A", 1));
  sink.on_event(TraceEvent{TraceCategory::kEnabling, 1.25, 0, "M->B", 1, 0,
                           {}});
  sink.on_event(TraceEvent{TraceCategory::kMarking, 1.25, 0, "M->P", 0, 0,
                           "7"});
  sink.on_event(TraceEvent{TraceCategory::kScheduler, 2.0, 1, "sched", 3, 1,
                           "in"});
  sink.on_event(TraceEvent{TraceCategory::kMarker, 0.0, 0, "replication", 4,
                           0, {}});
  sink.finish();

  std::istringstream lines(os.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const auto doc = parse_json(line);
    EXPECT_TRUE(doc.has("kind")) << line;
    EXPECT_TRUE(doc.has("t")) << line;
    EXPECT_TRUE(doc.has("seq")) << line;
    ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST(JsonlSink, LineFormatIsPinned) {
  EXPECT_EQ(JsonlSink::line(fire_event(1.5, 7, "M->A", 2)),
            R"({"kind":"fire","t":1.5,"seq":7,"activity":"M->A","case":2})");
  EXPECT_EQ(
      JsonlSink::line(TraceEvent{TraceCategory::kScheduler, 3.0, 9, "sched",
                                 2, -1, "out"}),
      R"({"kind":"sched","t":3,"seq":9,"op":"out","vcpu":2,"pcpu":-1})");
  EXPECT_EQ(
      JsonlSink::line(TraceEvent{TraceCategory::kMarking, 0.0, 0, "M->P", 0,
                                 0, "idle"}),
      R"({"kind":"marking","t":0,"seq":0,"place":"M->P","value":"idle"})");
}

TEST(JsonlSink, EscapesQuotesAndBackslashes) {
  const auto line = JsonlSink::line(TraceEvent{
      TraceCategory::kMarking, 0.0, 0, R"(P"x\y)", 0, 0, "v"});
  const auto doc = parse_json(line);
  EXPECT_EQ(doc.at("place").string, R"(P"x\y)");
}

TEST(JsonlSink, DoublesRoundTripExactly) {
  const double awkward = 0.1 + 0.2;  // not representable as "0.3"
  const auto line = JsonlSink::line(fire_event(awkward, 0, "a"));
  const auto doc = parse_json(line);
  EXPECT_EQ(doc.at("t").number, awkward);  // bit-exact via %.17g
}

TEST(JsonlSink, StreamLinesEqualLineHelper) {
  const std::string long_name(300, 'x');  // forces the buffer to regrow
  const std::vector<TraceEvent> events = {
      fire_event(0.1, 1, "M->A", 3),
      TraceEvent{TraceCategory::kMarking, 2.5, 2, long_name, 0, 0, "1.25"},
      TraceEvent{TraceCategory::kScheduler, 3.0, 3, "sched", 1, -1, "out"},
      TraceEvent{TraceCategory::kEnabling, 1e-300, 4, "M->B", 0, 0, {}},
      TraceEvent{TraceCategory::kMarker, 0.0, 0, "replication", 7, 0, {}},
  };
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (const auto& e : events) {
    sink.on_event(e);
    expected += JsonlSink::line(e) + "\n";
  }
  EXPECT_EQ(os.str(), expected);
}

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string rendered(double v) {
  std::string out;
  json::append_double(out, v);
  return out;
}

TEST(JsonNumbers, DoubleMatchesPrintfOnRandomBitPatterns) {
  vcpusim::testing::PropertyRng rng(20261017);
  std::size_t finite = 0;
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = rng.engine()();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) {
      ASSERT_EQ(rendered(v), "null") << bits;
      continue;
    }
    ++finite;
    ASSERT_EQ(rendered(v), printf_17g(v)) << "bits " << bits;
  }
  EXPECT_GT(finite, 990000U);
  // Simulated-time-like magnitudes, where the fixtures live.
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.uniform(0.0, 1e6);
    ASSERT_EQ(rendered(v), printf_17g(v)) << v;
    const double tick = std::floor(v) * 0.5;
    ASSERT_EQ(rendered(tick), printf_17g(tick)) << tick;
  }
  // Integral values of every magnitude, on both sides of 2^53.
  for (int i = 0; i < 100000; ++i) {
    const auto bits = static_cast<std::int64_t>(rng.engine()());
    const double v = static_cast<double>(bits >> rng.uniform_int(0, 62));
    ASSERT_EQ(rendered(v), printf_17g(v)) << v;
  }
}

TEST(JsonNumbers, DoubleEdgeCases) {
  constexpr double kTwo53 = 9007199254740992.0;
  const double cases[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          DBL_MIN - std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          DBL_EPSILON,
                          kTwo53 - 1,
                          kTwo53,
                          kTwo53 + 1,  // rounds to 2^53
                          kTwo53 + 2,
                          -(kTwo53 + 2),
                          1.0,
                          -1.0,
                          3.0,
                          1000.0,
                          1e15,
                          1e16,
                          1e17,
                          1e21,
                          1e22,
                          123456789012345678.0,
                          0.1,
                          0.1 + 0.2,
                          1.0 / 3.0,
                          5e-324,
                          2.2250738585072014e-308};
  for (const double v : cases) {
    EXPECT_EQ(rendered(v), printf_17g(v)) << printf_17g(v);
  }
  for (int i = -1000; i <= 1000; ++i) {
    EXPECT_EQ(rendered(i), std::to_string(i));
  }
  EXPECT_EQ(rendered(-0.0), "-0");
  EXPECT_EQ(rendered(kTwo53 + 1), "9007199254740992");
  EXPECT_EQ(rendered(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(rendered(-std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(rendered(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(rendered(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumbers, IntegersMatchToString) {
  const std::int64_t ints[] = {0, 1, -1, 42, -42,
                               std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : ints) {
    std::string out;
    json::append_int(out, v);
    EXPECT_EQ(out, std::to_string(v));
  }
  std::string out;
  json::append_uint(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "18446744073709551615");
}

/// The JSON form of one byte: the named escapes, \u00xx (lowercase
/// hex) for the other control characters, the byte itself otherwise.
std::string expected_escape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\t': return "\\t";
    case '\r': return "\\r";
    default: break;
  }
  if (c < 0x20) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
    return buf;
  }
  return std::string(1, static_cast<char>(c));
}

TEST(JsonStrings, EscapesEveryAsciiByte) {
  std::string all;
  std::string all_expected = "\"";
  for (unsigned c = 0; c <= 0x7f; ++c) {
    const auto byte = static_cast<unsigned char>(c);
    const std::string s = std::string("ab") + static_cast<char>(byte) + "yz";
    std::string out;
    json::append_string(out, s);
    EXPECT_EQ(out, "\"ab" + expected_escape(byte) + "yz\"") << "byte " << c;
    EXPECT_EQ(parse_json(out).string, s) << "byte " << c;
    all.push_back(static_cast<char>(byte));
    all_expected += expected_escape(byte);
  }
  all_expected += "\"";
  std::string out;
  json::append_string(out, all);
  EXPECT_EQ(out, all_expected);
  EXPECT_EQ(parse_json(out).string, all);
  // \u form is lowercase, zero-padded to four digits.
  out.clear();
  json::append_string(out, std::string_view("\x1f\x0b\x00", 3));
  EXPECT_EQ(out, "\"\\u001f\\u000b\\u0000\"");
}

TEST(JsonStrings, NonAsciiBytesPassThrough) {
  std::string out;
  json::append_string(out, "caf\xc3\xa9 \xff");
  EXPECT_EQ(out, "\"caf\xc3\xa9 \xff\"");
}

TEST(ChromeTraceSink, EmitsValidTraceEventJson) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.on_event(fire_event(2.0, 0, "M->A", 1));
  sink.on_event(TraceEvent{TraceCategory::kScheduler, 3.0, 1, "sched", 0, 1,
                           "in"});
  sink.on_event(TraceEvent{TraceCategory::kMarking, 3.0, 1, "M->P", 0, 0,
                           "5"});
  sink.finish();

  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].at("name").string, "M->A");
  EXPECT_EQ(events[0].at("ph").string, "i");
  EXPECT_DOUBLE_EQ(events[0].at("ts").number, 2000.0);  // 1 tick = 1ms
  EXPECT_EQ(events[1].at("cat").string, "sched");
  EXPECT_EQ(events[2].at("ph").string, "C");  // numeric marking -> counter
  EXPECT_DOUBLE_EQ(events[2].at("args").at("value").number, 5.0);
}

TEST(ChromeTraceSink, NonNumericMarkingsAreSkipped) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.on_event(TraceEvent{TraceCategory::kMarking, 1.0, 0, "M->P", 0, 0,
                           "<struct>"});
  sink.finish();
  const auto doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

/// A marking becomes a counter exactly when strtod consumes all of it
/// and yields a finite value.
TEST(ChromeTraceSink, MarkingCountersFollowStrtod) {
  const auto counter_value = [](std::string_view value) -> std::string {
    std::ostringstream os;
    ChromeTraceSink sink(os);
    sink.on_event(TraceEvent{TraceCategory::kMarking, 1.0, 0, "P", 0, 0,
                             value});
    sink.finish();
    const auto events = parse_json(os.str()).at("traceEvents").array;
    if (events.empty()) return "skipped";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  events[0].at("args").at("value").number);
    return buf;
  };
  EXPECT_EQ(counter_value("5"), "5");
  EXPECT_EQ(counter_value("-2.5"), "-2.5");
  EXPECT_EQ(counter_value("+3"), "3");
  EXPECT_EQ(counter_value(" 7"), "7");       // leading space accepted
  EXPECT_EQ(counter_value("0x10"), "16");    // hex accepted
  EXPECT_EQ(counter_value("1e3"), "1000");
  EXPECT_EQ(counter_value("7 "), "skipped");  // trailing junk
  EXPECT_EQ(counter_value("3x"), "skipped");
  EXPECT_EQ(counter_value(""), "skipped");
  EXPECT_EQ(counter_value("nan"), "skipped");
  EXPECT_EQ(counter_value("inf"), "skipped");
  EXPECT_EQ(counter_value("1e400"), "skipped");  // overflows to inf
  EXPECT_EQ(counter_value(std::string_view("4\0", 2)), "skipped");
  // A view into a longer buffer: only the viewed bytes are parsed.
  const std::string backing = "12345";
  EXPECT_EQ(counter_value(std::string_view(backing).substr(0, 2)), "12");
}

TEST(ChromeTraceSink, FinishWithoutEventsIsValid) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.finish();
  const auto doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

// --- serialization caches -----------------------------------------------
// Both stream sinks render names and stamps from caches. Every check
// below feeds one long-lived sink (warm caches) and compares it, event
// by event, against a rendering from empty caches.

constexpr std::string_view kChromeHeader =
    R"({"displayTimeUnit":"ms","traceEvents":[)";
constexpr std::string_view kChromeFooter = "\n]}\n";

/// The Chrome entry a fresh sink writes for `event` ("" if skipped).
std::string chrome_entry(const TraceEvent& event) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  sink.on_event(event);
  sink.finish();
  const std::string doc = os.str();
  return doc.substr(kChromeHeader.size(), doc.size() - kChromeHeader.size() -
                                              kChromeFooter.size());
}

/// Feeds each event to one JsonlSink and one ChromeTraceSink and builds
/// what they must write from empty-cache renderings of the same event,
/// taken at the same moment (so views of reused storage are fine).
class CacheCheck {
 public:
  void feed(const TraceEvent& event) {
    jsonl_.on_event(event);
    jsonl_expected_ += JsonlSink::line(event) + "\n";
    chrome_.on_event(event);
    const std::string entry = chrome_entry(event);
    if (entry.empty()) return;
    if (chrome_entries_++ > 0) chrome_expected_.push_back(',');
    chrome_expected_ += entry;
  }
  void verify() {
    jsonl_.finish();
    chrome_.finish();
    EXPECT_EQ(jsonl_os_.str(), jsonl_expected_);
    EXPECT_EQ(chrome_os_.str(), std::string(kChromeHeader) +
                                    chrome_expected_ +
                                    std::string(kChromeFooter));
  }

 private:
  std::ostringstream jsonl_os_;
  std::ostringstream chrome_os_;
  JsonlSink jsonl_{jsonl_os_};
  ChromeTraceSink chrome_{chrome_os_};
  std::string jsonl_expected_;
  std::string chrome_expected_;
  std::size_t chrome_entries_ = 0;
};

/// The sched op of a scheduler event goes through the name cache too,
/// under key 0.
TraceEvent sched_event(double t, std::uint64_t seq, std::string_view op) {
  return TraceEvent{TraceCategory::kScheduler, t, seq, "sched", 1, 0, op};
}

/// `event` with its name's trace key set. A key must name one string for
/// a sink's lifetime; each test hands out its own.
TraceEvent keyed(TraceEvent event, std::uint64_t key) {
  event.name_key = key;
  return event;
}

TEST(SerializationCache, ReusedAddressRendersNewContent) {
  CacheCheck check;
  std::string name = "M->A";  // one address, changing content
  const char* const address = name.data();
  for (int round = 0; round < 3; ++round) {
    // Keyed: each content has its own key, so the address never counts.
    name = "M->A";
    check.feed(keyed(fire_event(1, 1, name), 1));
    check.feed(keyed(fire_event(1, 1, name), 1));  // a hit
    name[3] = 'B';                                  // same length, new bytes
    check.feed(keyed(fire_event(1, 1, name), 2));
    check.feed(keyed(
        TraceEvent{TraceCategory::kMarking, 2, 2, name, 0, 0, "3"}, 2));
    name = "M->";  // shorter, same storage
    check.feed(keyed(fire_event(2, 2, name), 3));
    check.feed(sched_event(2, 2, name));
    name = "M\"x";  // needs escaping: cached escaped
    check.feed(keyed(fire_event(2, 2, name), 4));
    check.feed(keyed(fire_event(2, 2, name), 4));
    // Key 0: the same storage, quoted afresh each time.
    name = "M->A";
    check.feed(fire_event(1, 1, name));
    name[3] = 'B';
    check.feed(fire_event(1, 1, name));
    name = "M\"x";
    check.feed(fire_event(2, 2, name));
    check.feed(fire_event(2, 2, name));
    name = "";
    check.feed(TraceEvent{TraceCategory::kMarker, 0, 0, name, round, 0, {}});
  }
  ASSERT_EQ(name.data(), address);  // the storage really was reused
  check.verify();
}

/// A default-constructed view (null data, as in a value-initialized
/// TraceEvent) is the empty name, not a match for an unused slot.
TEST(SerializationCache, NullEmptyNameRendersEmptyString) {
  EXPECT_EQ(JsonlSink::line(fire_event(1, 1, std::string_view{})),
            R"({"kind":"fire","t":1,"seq":1,"activity":"","case":0})");
  EXPECT_EQ(JsonlSink::line(keyed(fire_event(1, 1, std::string_view{}), 9)),
            R"({"kind":"fire","t":1,"seq":1,"activity":"","case":0})");
  json::QuotedNameCache cache;
  std::string out;
  cache.append(out, 0, std::string_view{});
  cache.append(out, 0, std::string_view{});
  EXPECT_EQ(out, R"("""")");
  out.clear();
  cache.append(out, 9, std::string_view{});
  cache.append(out, 9, std::string_view{});  // a hit on the empty name
  EXPECT_EQ(out, R"("""")");
}

TEST(SerializationCache, CollidingNamesMatchEmptyCacheRendering) {
  // Four keys per slot, plus names longer than a slot holds; key i + 1
  // names names[i].
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 4 * json::QuotedNameCache::kSlots; ++i) {
    names.push_back("VM_" + std::to_string(i) + ".VCPU1->Schedule_In");
  }
  for (const std::size_t len : {113, 114, 115, 116, 300}) {
    names.push_back(std::string(len, 'n'));
  }
  CacheCheck check;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const double t = static_cast<double>(i / 3);
      check.feed(keyed(fire_event(t, i, names[i], pass), i + 1));
      const std::size_t j = (i * 7919) % names.size();
      check.feed(keyed(fire_event(t, i, names[j]), j + 1));
    }
  }
  check.verify();
}

TEST(SerializationCache, QuotedNameCacheMatchesAppendString) {
  json::QuotedNameCache cache;
  std::vector<std::string> names = {"a", "", "M->A", "tab\there",
                                    std::string(200, 'z'), "q\"q"};
  for (std::size_t i = 0; i < 3 * json::QuotedNameCache::kSlots; ++i) {
    names.push_back("P" + std::to_string(i));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::string fresh = "prefix";
      json::append_string(fresh, names[i]);
      for (const std::uint64_t key : {std::uint64_t{i + 1}, std::uint64_t{0}}) {
        std::string cached = "prefix";
        cache.append(cached, key, names[i]);
        ASSERT_EQ(cached, fresh) << "pass " << pass << ", key " << key;
      }
    }
  }
}

TEST(SerializationCache, SignedZeroTimesKeepTheirRenderings) {
  CacheCheck check;
  check.feed(keyed(fire_event(0.0, 5, "M->A"), 1));
  check.feed(keyed(fire_event(-0.0, 5, "M->A"), 1));
  check.feed(keyed(fire_event(0.0, 5, "M->A"), 1));
  check.feed(sched_event(-0.0, 5, "in"));
  check.verify();
  EXPECT_EQ(JsonlSink::line(keyed(fire_event(-0.0, 5, "M->A"), 1)),
            R"({"kind":"fire","t":-0,"seq":5,"activity":"M->A","case":0})");
}

TEST(SerializationCache, StampFollowsTimeAndSeq) {
  CacheCheck check;
  check.feed(keyed(fire_event(3.5, 10, "M->A"), 1));
  check.feed(keyed(fire_event(3.5, 11, "M->A"), 1));  // same time, new seq
  check.feed(keyed(fire_event(4.5, 11, "M->A"), 1));  // same seq, new time
  check.feed(keyed(fire_event(3.5, 11, "M->A"), 1));  // an older time
  check.feed(keyed(fire_event(3.5, 10, "M->A"), 1));  // and an older seq
  check.feed(keyed(
      TraceEvent{TraceCategory::kMarking, 3.5, 10, "M->P", 0, 0, "1.5"}, 2));
  check.feed(sched_event(3.5, 10, "out"));
  check.feed(keyed(
      TraceEvent{TraceCategory::kEnabling, 0.1 + 0.2, 10, "M->B", 1, 0, {}},
      3));
  check.feed(TraceEvent{TraceCategory::kMarker, 0.1 + 0.2, 0, "replication",
                        1, 0, {}});
  check.verify();
}

TEST(SerializationCache, NonFiniteTimesRenderNull) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CacheCheck check;
  for (const double t : {kNaN, kNaN, -kNaN, kInf, kInf, -kInf, 1.0, kNaN}) {
    check.feed(keyed(fire_event(t, 7, "M->A"), 1));
    check.feed(sched_event(t, 7, "in"));
  }
  check.verify();
  EXPECT_EQ(JsonlSink::line(keyed(fire_event(kNaN, 7, "M->A"), 1)),
            R"({"kind":"fire","t":null,"seq":7,"activity":"M->A","case":0})");
}

// --- fixed-size fragment copies ---------------------------------------------
// The line writer copies its prefix, a cached stamp and a cached name
// with constant lengths, the short ones past the fragment's end. These
// cases sit at the edges of those copies and compare with the reference
// renderers.

/// A fire line built from the json:: append helpers alone.
std::string reference_fire_line(double t, std::uint64_t seq,
                                std::string_view name, std::int64_t c) {
  std::string line = R"({"kind":"fire","t":)";
  json::append_double(line, t);
  line += R"(,"seq":)";
  json::append_uint(line, seq);
  line += R"(,"activity":)";
  json::append_string(line, name);
  line += R"(,"case":)";
  json::append_int(line, c);
  return line + "}";
}

/// The bytes a cache write put at [from, end).
std::string written(const char* from, const char* end) {
  return std::string(from, static_cast<std::size_t>(end - from));
}

TEST(FixedSizeCopies, NamesAroundTheShortCopyCutoff) {
  // Quoted, 62 bytes is the longest name one block covers; 114 the
  // longest a slot holds, copied as two overlapping blocks.
  static_assert(json::QuotedNameCache::kShortCopy == 64);
  std::vector<std::string> names;
  for (const std::size_t len : {61, 62, 63, 64, 65, 113, 114, 115}) {
    names.push_back(std::string(len - 1, static_cast<char>('a' + len % 26)) +
                    "Z");
  }
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  CacheCheck check;
  for (int pass = 0; pass < 3; ++pass) {  // a miss, then hits
    for (std::size_t i = 0; i < names.size(); ++i) {
      const TraceEvent event = keyed(fire_event(2.0, 9, names[i], pass), i + 1);
      sink.on_event(event);
      check.feed(event);
      expected += reference_fire_line(2.0, 9, names[i], pass) + "\n";
    }
  }
  EXPECT_EQ(os.str(), expected);
  check.verify();
}

TEST(FixedSizeCopies, NameWriteStaysWithinItsRoom) {
  constexpr std::size_t kCopy = json::QuotedNameCache::kShortCopy;
  json::QuotedNameCache cache;
  for (const std::size_t len : {0, 1, 20, 61, 62, 63, 64, 65, 114, 115}) {
    const std::string name(len, 'n');
    std::string fresh;
    json::append_string(fresh, name);
    const std::size_t room = std::max(kCopy, 6 * len + 2);
    for (const std::uint64_t key : {std::uint64_t{len + 1}, std::uint64_t{0}}) {
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<char> buf(room + 16, '#');
        const char* const end = cache.write(buf.data(), key, name);
        ASSERT_EQ(written(buf.data(), end), fresh) << len;
        for (std::size_t i = room; i < buf.size(); ++i) {
          ASSERT_EQ(buf[i], '#') << "name of " << len << " wrote byte " << i;
        }
      }
    }
  }
}

TEST(FixedSizeCopies, EscapedNamesAreNeverCopiedFromTheCache) {
  // Key 0 (a hand-built event): escaped names are quoted afresh.
  const std::string tricky = "a\"b\\c\nd\te\x01";
  const std::string long_tricky = std::string(60, 'x') + "\"";
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string* name : {&tricky, &long_tricky}) {
      sink.on_event(fire_event(1.0, 3, *name, pass));
      expected += reference_fire_line(1.0, 3, *name, pass) + "\n";
    }
  }
  EXPECT_EQ(os.str(), expected);
}

TEST(FixedSizeCopies, LongestStampRoundTripsThroughTheCache) {
  constexpr double kTime = -1.2345678901234567e+300;
  constexpr std::uint64_t kSeq = std::numeric_limits<std::uint64_t>::max();
  std::string stamp;
  json::append_double(stamp, kTime);
  stamp += R"(,"seq":)";
  json::append_uint(stamp, kSeq);
  ASSERT_EQ(stamp, R"(-1.2345678901234567e+300,"seq":18446744073709551615)");
  ASSERT_LE(stamp.size(), json::StampCache::kCopy);

  json::StampCache cache;
  std::vector<char> buf(json::StampCache::kCopy + 8, '#');
  EXPECT_EQ(cache.write(buf.data(), 0.0, 0), nullptr);  // nothing cached
  cache.store(stamp, kTime, kSeq);
  EXPECT_EQ(cache.write(buf.data(), kTime, kSeq - 1), nullptr);
  EXPECT_EQ(cache.write(buf.data(), -kTime, kSeq), nullptr);
  const char* const end = cache.write(buf.data(), kTime, kSeq);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(written(buf.data(), end), stamp);
  for (std::size_t i = json::StampCache::kCopy; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], '#') << i;
  }

  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (int i = 0; i < 3; ++i) {  // a miss, then hits
    sink.on_event(keyed(fire_event(kTime, kSeq, "M->A", i), 1));
    expected += reference_fire_line(kTime, kSeq, "M->A", i) + "\n";
  }
  EXPECT_EQ(os.str(), expected);
}

TEST(FixedSizeCopies, EveryCategoryPrefix) {
  const std::vector<std::pair<TraceEvent, std::string>> cases = {
      {keyed(fire_event(1, 2, "f"), 1),
       R"({"kind":"fire","t":1,"seq":2,"activity":"f","case":0})"},
      {keyed(TraceEvent{TraceCategory::kEnabling, 1, 2, "e", 1, 0, {}}, 2),
       R"({"kind":"enabling","t":1,"seq":2,"activity":"e","active":1})"},
      {keyed(TraceEvent{TraceCategory::kMarking, 1, 2, "p", 0, 0, "v"}, 3),
       R"({"kind":"marking","t":1,"seq":2,"place":"p","value":"v"})"},
      {TraceEvent{TraceCategory::kScheduler, 1, 2, "sched", 3, 4, "in"},
       R"({"kind":"sched","t":1,"seq":2,"op":"in","vcpu":3,"pcpu":4})"},
      {TraceEvent{TraceCategory::kMarker, 1, 2, "replication", 5, 0, {}},
       R"({"kind":"marker","t":1,"seq":2,"label":"replication","value":5})"},
      // Out of range: the fallback prefix and no payload.
      {TraceEvent{static_cast<TraceCategory>(0x20), 1, 2, "x", 0, 0, {}},
       R"({"kind":"?","t":1,"seq":2})"},
      {TraceEvent{static_cast<TraceCategory>(0), 1, 2, "x", 0, 0, {}},
       R"({"kind":"?","t":1,"seq":2})"},
  };
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (int pass = 0; pass < 2; ++pass) {  // a miss, then hits
    for (const auto& [event, line] : cases) {
      EXPECT_EQ(JsonlSink::line(event), line);
      sink.on_event(event);
      expected += line + "\n";
    }
  }
  EXPECT_EQ(os.str(), expected);
}

TEST(FixedSizeCopies, ShortLineAfterLongLineShowsNoStaleBytes) {
  const std::string long_name(400, 'L');
  const std::string cached_name(100, 'C');  // two-block hit copy
  const std::string long_text(300, 'T');
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (int round = 0; round < 2; ++round) {
    const TraceEvent long_line = keyed(
        TraceEvent{TraceCategory::kMarking, 123456.75, 99, long_name, 0, 0,
                   long_text},
        1);
    sink.on_event(long_line);
    expected += JsonlSink::line(long_line) + "\n";
    sink.on_event(keyed(fire_event(1, 1, cached_name), 2));
    expected += reference_fire_line(1, 1, cached_name, 0) + "\n";
    // Short lines whose cached fragments are copied over the long
    // lines' bytes; each ends well before the copies' reach.
    sink.on_event(keyed(fire_event(1, 1, "a"), 3));
    expected += reference_fire_line(1, 1, "a", 0) + "\n";
    sink.on_event(keyed(fire_event(1, 1, "a"), 3));
    expected += reference_fire_line(1, 1, "a", 0) + "\n";
    const TraceEvent empty_marker{static_cast<TraceCategory>(0x40), 1, 1, {},
                                  0, 0, {}};
    sink.on_event(empty_marker);
    expected += R"({"kind":"?","t":1,"seq":1})" "\n";
  }
  EXPECT_EQ(os.str(), expected);
}

// --- keyed names ------------------------------------------------------------
// The name cache is indexed by trace key and trusts it: a key names one
// string for good. Key 0 names none and is never cached.

TEST(KeyedNames, KeysOneTableApartShareASlot) {
  constexpr std::uint64_t kSlots = json::QuotedNameCache::kSlots;
  const std::vector<std::pair<std::uint64_t, std::string>> names = {
      {5, "M->A"},
      {5 + kSlots, "M->B"},
      {5 + 2 * kSlots, std::string(100, 'w')},  // two-block hit copy
      {5 + 3 * kSlots, "q\"\\\n"},              // escaped, cached as such
      {kSlots, "S0"},                           // slot 0, as key 0 maps
  };
  CacheCheck check;
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& [key, name] : names) {
      for (int hit = 0; hit < 2; ++hit) {
        check.feed(keyed(fire_event(pass, 1, name, hit), key));
      }
      // Key 0 lands in slot 0, which holds key kSlots's name: a miss.
      check.feed(fire_event(pass, 2, "zero"));
    }
  }
  check.verify();
}

TEST(KeyedNames, KeyZeroIsQuotedAfreshEachTime) {
  json::QuotedNameCache cache;
  std::vector<char> buf(1024);
  const auto write = [&](std::uint64_t key, std::string_view s) {
    return written(buf.data(), cache.write(buf.data(), key, s));
  };
  const auto fresh = [](std::string_view s) {
    std::string out;
    json::append_string(out, s);
    return out;
  };
  ASSERT_EQ(write(json::QuotedNameCache::kSlots, "cached"), "\"cached\"");
  // One buffer, three contents, all under key 0.
  std::string name = "a\"b\\c\nd\x01";
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(write(0, name), fresh(name));
    name.assign(120, 'L');  // longer than a slot's quoted form
    EXPECT_EQ(write(0, name), fresh(name));
    name = "plain";
    EXPECT_EQ(write(0, name), fresh(name));
    name = "a\"b\\c\nd\x01";
  }
  EXPECT_EQ(write(json::QuotedNameCache::kSlots, "cached"), "\"cached\"");
}

TEST(KeyedNames, EscapedNamesAreCopiedFromTheCache) {
  const std::string tricky = "a\"b\\c\nd\te\x01";
  const std::string long_tricky = std::string(60, 'x') + "\"";
  std::ostringstream os;
  JsonlSink sink(os);
  std::string expected;
  for (int pass = 0; pass < 3; ++pass) {  // a miss, then hits
    std::uint64_t key = 1;
    for (const std::string* name : {&tricky, &long_tricky}) {
      sink.on_event(keyed(fire_event(1.0, 3, *name, pass), key++));
      expected += reference_fire_line(1.0, 3, *name, pass) + "\n";
    }
  }
  EXPECT_EQ(os.str(), expected);
}

/// Forwards every event to each of its sinks.
class Tee final : public san::TraceSink {
 public:
  explicit Tee(std::vector<san::TraceSink*> sinks) : sinks_(std::move(sinks)) {}
  void on_event(const TraceEvent& event) override {
    for (san::TraceSink* sink : sinks_) sink->on_event(event);
  }

 private:
  std::vector<san::TraceSink*> sinks_;
};

TEST(KeyedNames, RingBufferReplayKeepsKeysAndBytes) {
  auto system = vm::build_system(vm::make_symmetric_config(2, {2, 1}, 5),
                                 sched::make_factory("credit")());
  std::map<std::string, std::uint64_t, std::less<>> keys;
  for (const san::Activity* a : system->model->all_activities()) {
    keys.emplace(a->name(), a->trace_key());
  }
  for (const auto& sub : system->model->submodels()) {
    for (const san::PlacePtr& p : sub->places()) {
      keys.emplace(p->name(), p->trace_key());
    }
  }
  std::ostringstream jsonl_os;
  std::ostringstream chrome_os;
  JsonlSink jsonl(jsonl_os);
  ChromeTraceSink chrome(chrome_os);
  RingBufferSink recorded;
  RingBufferSink tail(100);  // bounded: its records move at compaction
  Tee tee({&jsonl, &chrome, &recorded, &tail});
  vcpusim::testing::run_traced(*system, tee, 300.0, 11);
  jsonl.finish();
  chrome.finish();

  std::size_t keyed_events = 0;
  for (const TraceEvent e : recorded.events()) {
    if (e.category == TraceCategory::kScheduler) {
      EXPECT_EQ(e.name_key, 0U);
      continue;
    }
    const auto it = keys.find(e.name);
    ASSERT_NE(it, keys.end()) << e.name;
    ASSERT_EQ(e.name_key, it->second) << e.name;
    ++keyed_events;
  }
  EXPECT_GT(keyed_events, 1000U);
  ASSERT_EQ(tail.dropped() + tail.events().size(), recorded.events().size());
  for (std::size_t i = 0; i < tail.events().size(); ++i) {
    EXPECT_EQ(tail.events()[i].name_key,
              recorded.events()[tail.dropped() + i].name_key);
  }

  std::ostringstream replay_jsonl_os;
  std::ostringstream replay_chrome_os;
  JsonlSink replay_jsonl(replay_jsonl_os);
  ChromeTraceSink replay_chrome(replay_chrome_os);
  recorded.replay_into(replay_jsonl);
  recorded.replay_into(replay_chrome);
  replay_jsonl.finish();
  replay_chrome.finish();
  EXPECT_EQ(replay_jsonl_os.str(), jsonl_os.str());
  EXPECT_EQ(replay_chrome_os.str(), chrome_os.str());
}

// --- the stream contract ---------------------------------------------------
// JsonlSink hands each line to the stream buffer itself; what a caller
// observes of the stream is what ostream::write would leave.

/// Accepts half of what it is offered and counts the offers.
class ShortBuf final : public std::streambuf {
 public:
  std::size_t offers = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    ++offers;
    return n / 2;
  }
  int_type overflow(int_type) override { return traits_type::eof(); }
};

/// Keeps what it is given and counts sync() calls.
class SyncCountingBuf final : public std::streambuf {
 public:
  std::string bytes;
  int syncs = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      bytes.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    ++syncs;
    return 0;
  }
};

TEST(JsonlSink, StreamNotGoodIsNotWritten) {
  for (const auto state : {std::ios_base::failbit, std::ios_base::badbit}) {
    std::ostringstream os;
    os.setstate(state);
    JsonlSink sink(os);
    sink.on_event(fire_event(1, 1, "M->A"));
    EXPECT_EQ(os.str(), "");
    // ostream::write adds failbit to a bad stream and nothing otherwise.
    EXPECT_EQ(os.rdstate(), state == std::ios_base::badbit
                                ? std::ios_base::badbit | std::ios_base::failbit
                                : std::ios_base::failbit);
  }
}

TEST(JsonlSink, ShortWriteSetsBadbit) {
  ShortBuf buf;
  std::ostream os(&buf);
  JsonlSink sink(os);
  sink.on_event(fire_event(1, 1, "M->A"));
  EXPECT_TRUE(os.bad());
  EXPECT_EQ(buf.offers, 1U);
  sink.on_event(fire_event(2, 2, "M->A"));
  EXPECT_EQ(buf.offers, 1U);  // a bad stream is not offered more
}

TEST(JsonlSink, FlushesTieAndHonoursUnitbuf) {
  SyncCountingBuf tied_buf;
  std::ostream tied(&tied_buf);
  SyncCountingBuf buf;
  std::ostream os(&buf);
  os.tie(&tied);
  os << std::unitbuf;
  JsonlSink sink(os);
  sink.on_event(fire_event(1, 1, "M->A"));
  sink.on_event(fire_event(2, 2, "M->A"));
  EXPECT_EQ(tied_buf.syncs, 2);  // tie() flushed before each line
  EXPECT_EQ(buf.syncs, 2);       // and the stream synced after it
  EXPECT_EQ(buf.bytes, JsonlSink::line(fire_event(1, 1, "M->A")) + "\n" +
                           JsonlSink::line(fire_event(2, 2, "M->A")) + "\n");
  EXPECT_TRUE(os.good());
}

// --- marking values through a simulator ------------------------------------
// The simulator's marking events carry the place; a sink renders the
// value when it keeps the event, and JsonlSink writes integers, floats
// and <struct> into the line without an escape scan. Each check runs a
// real simulator and compares that path with the text a replayed event
// carries.

/// A streamed marking whose text needs escaping: q"<n>\ and a newline.
struct Quoted {
  std::int64_t n = 0;
};
std::ostream& operator<<(std::ostream& os, const Quoted& q) {
  return os << "q\"" << q.n << "\\\n";
}

/// No operator<<: renders as <struct>.
struct Opaque {
  std::int64_t n = 0;
};

constexpr double kReals[] = {1.0 / 3.0, 123456789.0, -2.5e-7, 0.1 + 0.2};

/// Serializes every event in both forms: as the simulator delivers it
/// (the place, no text) and as a replay delivers it (the text, no
/// place). Records the kernel form too, and each marking's text.
class TwoForms final : public san::TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    kernel_jsonl.on_event(event);
    kernel_chrome.on_event(event);
    recorded.on_event(event);
    TraceEvent replayed = event;
    replayed.detail = san::detail_text(event, text_);
    replayed.place = nullptr;
    text_jsonl.on_event(replayed);
    text_chrome.on_event(replayed);
    if (event.place != nullptr) {
      texts.emplace_back(std::string(event.name), std::string(replayed.detail));
    }
  }
  void finish() override {
    kernel_jsonl.finish();
    kernel_chrome.finish();
    text_jsonl.finish();
    text_chrome.finish();
  }

  std::ostringstream kernel_jsonl_os;
  std::ostringstream kernel_chrome_os;
  std::ostringstream text_jsonl_os;
  std::ostringstream text_chrome_os;
  JsonlSink kernel_jsonl{kernel_jsonl_os};
  ChromeTraceSink kernel_chrome{kernel_chrome_os};
  JsonlSink text_jsonl{text_jsonl_os};
  ChromeTraceSink text_chrome{text_chrome_os};
  RingBufferSink recorded;
  /// (place, value text) of each marking event, in order.
  std::vector<std::pair<std::string, std::string>> texts;

 private:
  std::string text_;
};

/// One clock whose every tick rewrites a place of each kind: streamed
/// text, double, int64 and uint64 at their extremes, and a struct.
class MarkingValues : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& sub = model_.add_submodel("S");
    auto quoted = sub.add_place<Quoted>("quoted", Quoted{});
    auto real = sub.add_place<double>("real", 0.0);
    auto wide = sub.add_place<std::int64_t>("wide", 0);
    auto unsigned_wide = sub.add_place<std::uint64_t>("unsigned", 0);
    auto opaque = sub.add_place<Opaque>("opaque", Opaque{});
    auto& tick = sub.add_timed_activity("tick", stats::make_deterministic(1.0));
    tick.add_output_gate(
        {"rewrite",
         [=](san::GateContext&) {
           const std::int64_t k = ++quoted->mut().n;
           const bool odd = k % 2 == 1;
           real->set(kReals[static_cast<std::size_t>(k - 1) % 4]);
           wide->set(odd ? std::numeric_limits<std::int64_t>::min()
                         : std::numeric_limits<std::int64_t>::max());
           unsigned_wide->set(odd ? std::numeric_limits<std::uint64_t>::max()
                                  : 0);
           opaque->mut().n = k;
         },
         san::access({}, {quoted, real, wide, unsigned_wide, opaque})});
    san::SimulatorConfig config;
    config.end_time = 4.5;
    san::Simulator sim(config);
    sim.set_model(model_);
    sim.set_trace(&sink_);
    sim.run();
    sink_.finish();
  }

  /// The JSONL "value" strings of one place, in order.
  std::vector<std::string> jsonl_values(const std::string& place) const {
    std::vector<std::string> values;
    std::istringstream lines(sink_.kernel_jsonl_os.str());
    std::string line;
    while (std::getline(lines, line)) {
      const auto doc = parse_json(line);
      if (doc.at("kind").string == "marking" &&
          doc.at("place").string == place) {
        values.push_back(doc.at("value").string);
      }
    }
    return values;
  }

  /// The Chrome counter values of one place, in order.
  std::vector<double> counters(const std::string& place) const {
    std::vector<double> values;
    const auto doc = parse_json(sink_.kernel_chrome_os.str());
    for (const auto& e : doc.at("traceEvents").array) {
      if (e.at("ph").string == "C" && e.at("name").string == place) {
        values.push_back(e.at("args").at("value").number);
      }
    }
    return values;
  }

  san::ComposedModel model_{"M"};
  TwoForms sink_;
};

TEST_F(MarkingValues, KernelAndReplayedFormsGiveIdenticalLines) {
  ASSERT_EQ(sink_.texts.size(), 4U * 5U);
  EXPECT_EQ(sink_.kernel_jsonl_os.str(), sink_.text_jsonl_os.str());
  EXPECT_EQ(sink_.kernel_chrome_os.str(), sink_.text_chrome_os.str());
}

TEST_F(MarkingValues, StreamedTextIsEscapedAsAppendString) {
  std::istringstream lines(sink_.kernel_jsonl_os.str());
  std::string line;
  std::size_t k = 0;
  while (std::getline(lines, line)) {
    if (line.find(R"("place":"S->quoted")") == std::string::npos) continue;
    ++k;
    const std::string text = "q\"" + std::to_string(k) + "\\\n";
    std::string quoted;
    json::append_string(quoted, text);
    EXPECT_EQ(line.substr(line.size() - quoted.size() - 1), quoted + "}");
    EXPECT_EQ(parse_json(line).at("value").string, text);
  }
  EXPECT_EQ(k, 4U);
}

TEST_F(MarkingValues, StreamedTextRoundTripsThroughReplay) {
  std::vector<std::string> texts;
  for (const auto& [place, text] : sink_.texts) {
    if (place == "S->quoted") texts.push_back(text);
  }
  std::vector<std::string> recorded;
  for (const TraceEvent e : sink_.recorded.events()) {
    EXPECT_EQ(e.place, nullptr);
    if (e.category == TraceCategory::kMarking && e.name == "S->quoted") {
      recorded.emplace_back(e.detail);
    }
  }
  EXPECT_EQ(recorded, texts);
  EXPECT_EQ(recorded.front(), "q\"1\\\n");

  std::ostringstream jsonl;
  std::ostringstream chrome;
  JsonlSink replay_jsonl(jsonl);
  ChromeTraceSink replay_chrome(chrome);
  sink_.recorded.replay_into(replay_jsonl);
  sink_.recorded.replay_into(replay_chrome);
  replay_jsonl.finish();
  replay_chrome.finish();
  EXPECT_EQ(jsonl.str(), sink_.kernel_jsonl_os.str());
  EXPECT_EQ(chrome.str(), sink_.kernel_chrome_os.str());
}

TEST_F(MarkingValues, DoublePlaceRendersSixSignificantDigits) {
  const std::vector<std::string> expected = {"0.333333", "1.23457e+08",
                                             "-2.5e-07", "0.3"};
  EXPECT_EQ(jsonl_values("S->real"), expected);
  // The counter keeps the value of the text, not of the marking.
  std::vector<double> parsed;
  for (const std::string& text : expected) {
    parsed.push_back(std::strtod(text.c_str(), nullptr));
  }
  EXPECT_EQ(counters("S->real"), parsed);
  EXPECT_NE(parsed.front(), kReals[0]);
}

TEST_F(MarkingValues, IntegersAtTheExtremes) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kUMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(jsonl_values("S->wide"),
            (std::vector<std::string>{"-9223372036854775808",
                                      "9223372036854775807",
                                      "-9223372036854775808",
                                      "9223372036854775807"}));
  EXPECT_EQ(jsonl_values("S->unsigned"),
            (std::vector<std::string>{"18446744073709551615", "0",
                                      "18446744073709551615", "0"}));
  const auto d = [](auto v) { return static_cast<double>(v); };
  EXPECT_EQ(counters("S->wide"),
            (std::vector<double>{d(kMin), d(kMax), d(kMin), d(kMax)}));
  EXPECT_EQ(counters("S->unsigned"),
            (std::vector<double>{d(kUMax), 0.0, d(kUMax), 0.0}));
  EXPECT_EQ(jsonl_values("S->opaque"),
            std::vector<std::string>(4, "<struct>"));
  EXPECT_TRUE(counters("S->opaque").empty());
}

TEST(MakeStreamSink, ConstructsKnownSinks) {
  std::ostringstream os;
  EXPECT_NE(make_stream_sink("jsonl", os), nullptr);
  EXPECT_NE(make_stream_sink("chrome", os), nullptr);
}

TEST(MakeStreamSink, UnknownNameListsValidSinks) {
  std::ostringstream os;
  try {
    make_stream_sink("csv", os);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("csv"), std::string::npos);
    for (const auto& name : stream_sink_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(ParseTraceCategories, ParsesListsAndAll) {
  EXPECT_EQ(parse_trace_categories("all"), san::kTraceAll);
  EXPECT_EQ(parse_trace_categories("fire"),
            san::trace_bit(TraceCategory::kFire));
  EXPECT_EQ(parse_trace_categories("fire,sched"),
            static_cast<std::uint8_t>(san::trace_bit(TraceCategory::kFire) |
                                      san::trace_bit(TraceCategory::kScheduler)));
  EXPECT_EQ(parse_trace_categories("enabling,marking,marker"),
            static_cast<std::uint8_t>(
                san::trace_bit(TraceCategory::kEnabling) |
                san::trace_bit(TraceCategory::kMarking) |
                san::trace_bit(TraceCategory::kMarker)));
}

TEST(ParseTraceCategories, RejectsUnknownAndEmpty) {
  EXPECT_THROW(parse_trace_categories("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_trace_categories(""), std::invalid_argument);
  try {
    parse_trace_categories("fire,bogus");
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("sched"), std::string::npos);  // lists valid names
  }
}

}  // namespace
}  // namespace vcpusim::trace
