#include "stats/metrics.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace vcpusim::stats {

namespace {

/// Shortest round-trip-exact rendering of a double that is still valid
/// JSON (%.17g may print "inf"/"nan" — the registry never stores those
/// from its own accumulators, but guard anyway).
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  if (s.find_first_not_of("-0123456789.eE+") != std::string::npos) {
    return "null";
  }
  return s;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void MetricsRegistry::claim(const std::string& name, Kind kind) {
  const auto [it, inserted] = kinds_.emplace(name, kind);
  if (!inserted && it->second != kind) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as a different kind");
  }
}

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  claim(name, Kind::kCounter);
  return counters_[name];
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(const std::string& name) {
  claim(name, Kind::kGauge);
  return gauges_[name];
}

Welford& MetricsRegistry::summary(const std::string& name) {
  claim(name, Kind::kSummary);
  return summaries_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t buckets) {
  claim(name, Kind::kHistogram);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(lo, hi, buckets)).first->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  return kinds_.find(name) != kinds_.end();
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  return counters_.at(name).value();
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  return gauges_.at(name).value();
}

const Welford& MetricsRegistry::summary_values(const std::string& name) const {
  return summaries_.at(name);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": " << c.value();
    first = false;
  }
  os << (counters_.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": " << json_number(g.value());
    first = false;
  }
  os << (gauges_.empty() ? "}" : "\n  }") << ",\n  \"summaries\": {";
  first = true;
  for (const auto& [name, w] : summaries_) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": {\"count\": " << w.count()
       << ", \"mean\": " << json_number(w.mean())
       << ", \"stddev\": " << json_number(w.stddev())
       << ", \"min\": " << json_number(w.min())
       << ", \"max\": " << json_number(w.max()) << "}";
    first = false;
  }
  os << (summaries_.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(name)
       << "\": {\"lo\": " << json_number(h.bucket_count() ? h.bucket_lo(0) : 0)
       << ", \"hi\": "
       << json_number(h.bucket_count() ? h.bucket_hi(h.bucket_count() - 1) : 0)
       << ", \"underflow\": " << h.underflow()
       << ", \"overflow\": " << h.overflow() << ", \"counts\": [";
    for (std::size_t b = 0; b < h.bucket_count(); ++b) {
      os << (b ? ", " : "") << h.count(b);
    }
    os << "]}";
    first = false;
  }
  os << (histograms_.empty() ? "}" : "\n  }") << "\n}\n";
}

}  // namespace vcpusim::stats
