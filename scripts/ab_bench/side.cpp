// One side of the A/B harness: perfbench's workload runner over one copy
// of the library. Compiled once per side; see side.hpp.
#include "side.hpp"

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef AB_SIDE
#error "compile with -DAB_SIDE=ab_a or -DAB_SIDE=ab_b"
#endif

namespace AB_SIDE {
namespace {

const perfbench::Workload& workload(const char* name) {
  static std::map<std::string, perfbench::Workload> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, perfbench::make_workload(name, false)).first;
  }
  return it->second;
}

}  // namespace

std::size_t point_count(const char* name) {
  return workload(name).points.size();
}

ab::PointRun run_point(const char* name, std::size_t point,
                       std::uint64_t seed) {
  const perfbench::Workload& w = workload(name);
  perfbench::Workload one;
  one.name = w.name;
  one.quality = w.quality;
  one.points = {w.points.at(point)};
  const std::vector<perfbench::CompareWork> work =
      perfbench::compare_work(one, seed);
  std::vector<std::string> problems;
  const perfbench::Pass pass = perfbench::run_pass(one, seed, work, problems);
  ab::PointRun out;
  out.seconds = pass.wall;
  out.digest = perfbench::digest(pass.results);
  for (const auto& r : pass.results) {
    out.trace_bytes += r.trace_bytes;
    out.events += r.events;
  }
  out.problems = problems.size() + pass.failed;
  return out;
}

double setup_seconds(const char* name) {
  double total = 0.0;
  for (const double t : perfbench::setup_times(workload(name))) total += t;
  return total;
}

}  // namespace AB_SIDE
