// Run-metrics registry: named counters, gauges, summaries (Welford) and
// histograms that every layer of a run — simulator, scheduler bridge,
// replication executor — registers into, exported as one
// JSON document (vcpusim run --metrics-out). Unifies the ad-hoc RunStats
// counters behind a single inspection surface; see docs/OBSERVABILITY.md
// for the naming scheme ("layer.metric", e.g. "sim.events").
//
// The registry is NOT thread-safe: parallel phases accumulate into
// per-worker state (RunStats slots, executor counters) and fold into the
// registry from one thread after the parallel region, which also keeps
// the exported JSON deterministic (entries render sorted by name).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "stats/histogram.hpp"
#include "stats/welford.hpp"

namespace vcpusim::stats {

class MetricsRegistry {
 public:
  /// Monotonic event count ("sim.events", "sched.ticks").
  class Counter {
   public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    std::uint64_t value() const noexcept { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  /// Last-written point-in-time value ("executor.jobs").
  class Gauge {
   public:
    void set(double v) noexcept { value_ = v; }
    double value() const noexcept { return value_; }

   private:
    double value_ = 0.0;
  };

  /// Find-or-create by name. A name identifies exactly one metric of one
  /// kind; re-registering the same name as a different kind throws
  /// std::invalid_argument. Returned references stay valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Welford-backed distribution summary (count/mean/stddev/min/max).
  Welford& summary(const std::string& name);
  /// Fixed-width histogram; lo/hi/buckets are fixed by the first call
  /// and ignored on later lookups of the same name.
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets);

  bool has(const std::string& name) const;
  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + summaries_.size() +
           histograms_.size();
  }

  /// Value accessors for tests/tools; throw std::out_of_range if the
  /// name is absent or of another kind.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  const Welford& summary_values(const std::string& name) const;

  /// Render the whole registry as one JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "summaries": {name: {count,mean,stddev,min,max}},
  ///    "histograms": {name: {lo,hi,counts,underflow,overflow}}}
  /// Keys are sorted, doubles printed with %.17g (round-trip exact), so
  /// the same registry state always renders the same bytes.
  void write_json(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kSummary, kHistogram };
  void claim(const std::string& name, Kind kind);

  std::map<std::string, Kind> kinds_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Welford> summaries_;
  std::map<std::string, Histogram> histograms_;
};

/// `s` escaped for use inside a JSON string literal: quotes, backslashes
/// and every control character (RFC 8259). The registry's write_json,
/// the CLI's JSON outputs and the analyzer's JSON report share it.
std::string json_escape(const std::string& s);

}  // namespace vcpusim::stats
