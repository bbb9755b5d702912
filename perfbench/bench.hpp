// vcpusim benchmark: workload definitions, the untraced workload runner
// and the span-traced re-run that splits host time by layer. See
// perfbench/README.md for why each workload exists and which layer
// metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "exp/quality.hpp"
#include "exp/runner.hpp"
#include "vm/config.hpp"

namespace perfbench {

using namespace vcpusim;

/// One experiment point of a workload. A single algorithm is one
/// exp::run_point call; several are one exp::compare_points call with the
/// first as baseline.
struct Point {
  std::string label;
  vm::SystemConfig system;
  std::vector<std::string> algorithms;
  std::vector<exp::MetricRequest> metrics;
  std::size_t jobs = 1;
  bool lint = false;
  bool jsonl = false;  ///< attach a trace::JsonlSink writing to a byte counter
  /// Closed-form values some estimates must reproduce (EXPERIMENTS.md),
  /// by estimate name.
  std::vector<std::pair<std::string, double>> exact;
};

/// A closed batch of points run back to back from one process.
struct Workload {
  std::string name;
  exp::Quality quality;
  std::vector<Point> points;
};

/// The named workload; `toy` shrinks every system and selects the fast
/// quality preset (the self-check mode). Throws on an unknown name.
Workload make_workload(const std::string& name, bool toy);

/// One reported estimate (a per-algorithm CI or a paired delta).
struct Estimate {
  std::string name;
  double mean = 0.0;
  double half_width = 0.0;
  bool fraction = true;  ///< a share of time in [0, 1] (energy is not)
};

/// What one point produced: its estimates plus the deterministic work
/// counters the digest and the rate metrics are built from.
struct PointResult {
  std::vector<Estimate> estimates;
  std::vector<Estimate> deltas;  ///< paired deltas vs the baseline (compare)
  std::size_t replications = 0;  ///< summed over algorithms
  std::uint64_t events = 0;      ///< simulated activity completions
  std::uint64_t trace_bytes = 0;
};

/// Work counters of a compare point, from re-running its legs through
/// exp::run_point with a metrics registry attached, at the point's jobs
/// (compare_points itself exposes no registry).
struct CompareWork {
  std::uint64_t events = 0;
  std::size_t replications = 0;
  std::size_t invoked = 0;  ///< replications incl. discarded speculative ones
  std::vector<Estimate> estimates;  ///< must equal the compare's, bit for bit
};
/// One untraced pass over every point of a workload.
struct Pass {
  double wall = 0.0;
  std::vector<double> point_walls;
  /// Per point, its time cut at every replication start and every
  /// replayed replication of its trace: the same cuts in every pass.
  std::vector<std::vector<double>> segments;
  std::vector<PointResult> results;
  std::size_t failed = 0;  ///< points that threw or failed a check
};

/// Run every point through the public experiment API (exp::run_point /
/// exp::compare_points) and check its outputs. `work` holds the
/// count_compare_work result of each compare point (indexed like the
/// points; ignored for the others): it supplies the event count and must
/// agree with the compare's estimates. Problems are appended.
Pass run_pass(const Workload& w, std::uint64_t seed,
              const std::vector<CompareWork>& work,
              std::vector<std::string>& problems);

/// count_compare_work for every compare point (empty entries elsewhere).
std::vector<CompareWork> compare_work(const Workload& w, std::uint64_t seed);

/// FNV-1a over the bit patterns of every estimate, half-width,
/// replication count, event count and trace byte count.
std::uint64_t digest(const std::vector<PointResult>& results);

/// Host seconds to build, analyze and compile each distinct
/// (system, algorithm) of the workload once, one entry per system.
std::vector<double> setup_times(const Workload& w);

/// Monotonic host clock in seconds / nanoseconds.
double now_s();
std::int64_t now_ns();

double median(std::vector<double> values);

/// A streambuf that discards what it is given and counts the bytes, so
/// trace serialization is measured without disk noise.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double value, const std::string& unit);
};

/// Everything one benchmark run reports.
struct Outcome {
  Metrics metrics;
  std::size_t attempted = 0;  ///< point executions
  std::size_t failed = 0;     ///< executions that threw or failed a check
  std::vector<std::string> problems;
  std::uint64_t digest = 0;   ///< of the first untraced pass
};

/// Count a pass into `out` and check it reproduces `first_digest` bit for
/// bit (a mismatch fails every point of the pass).
void account(const Pass& pass, std::uint64_t first_digest, Outcome& out);

/// The traced run (perfbench/traced.cpp): alternates untraced passes with
/// span-traced re-runs for about `seconds`, checks that both give
/// bit-identical results, and reports every per-layer metric. The spans
/// are written as JSON lines to `spans_path` when it is not empty.
Outcome traced_run(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& spans_path);

}  // namespace perfbench
