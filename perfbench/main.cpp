// vcpusim_perfbench: run one benchmark workload and print its metrics.
//
//   vcpusim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--toy] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics over untraced passes repeated
// for about S seconds; --trace 1 measures the per-layer metrics from a
// span-traced re-run, whose spans go to FILE. --toy shrinks every system
// for the self-check. The last stdout line is one JSON object;
// perfbench/run.py turns it into the benchmark's result line. See
// perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kSetupRepeatsMax = 200;
constexpr double kSetupSeconds = 1.0;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// VmHWM of this process image. getrusage's ru_maxrss would also count
/// the parent's resident set at fork, which exec does not reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

Outcome untraced_run(const Workload& w, std::uint64_t seed, double seconds,
                     bool toy) {
  Outcome out;
  const auto work = compare_work(w, seed);

  std::vector<Pass> passes;
  const double start = now_s();
  do {
    passes.push_back(run_pass(w, seed, work, out.problems));
    if (passes.size() == 1) {
      out.digest = digest(passes.front().results);
      out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    account(passes.back(), out.digest, out);
  } while (now_s() - start < seconds);

  // Set up every distinct system at least kSetupRepeats times and for at
  // least kSetupSeconds; each system's median time counts. This runs after
  // the passes so that peak_rss_mb reflects the workload alone.
  std::vector<std::vector<double>> setups;  // [system][repeat]
  const double setup_start = now_s();
  for (int i = 0; i < (toy ? 1 : kSetupRepeatsMax); ++i) {
    const auto times = setup_times(w);
    setups.resize(times.size());
    for (std::size_t k = 0; k < times.size(); ++k) setups[k].push_back(times[k]);
    if (i + 1 >= kSetupRepeats && now_s() - setup_start >= kSetupSeconds) break;
  }
  double setup = 0.0;
  for (const auto& times : setups) setup += median(times);

  std::uint64_t events = 0;
  for (const auto& r : passes.front().results) events += r.events;
  // Per segment of each point (a replication, or the replay of one), its
  // fastest time over the passes: contention from other tenants of the
  // host only ever adds time, and it comes and goes within seconds, so the
  // fastest pass of each segment is the least disturbed.
  // A point that threw in some pass is cut differently there; it counts
  // whole.
  double wall = 0.0;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    std::vector<double> fastest = passes.front().segments[i];
    double fastest_point = passes.front().point_walls[i];
    bool same_cuts = true;
    for (const auto& pass : passes) {
      fastest_point = std::min(fastest_point, pass.point_walls[i]);
      same_cuts = same_cuts && pass.segments[i].size() == fastest.size();
      for (std::size_t k = 0; same_cuts && k < fastest.size(); ++k) {
        fastest[k] = std::min(fastest[k], pass.segments[i][k]);
      }
    }
    double sum = 0.0;
    for (const double t : fastest) sum += t;
    wall += same_cuts ? sum : fastest_point;
  }
  out.metrics.set("wall_s", wall, "s");
  out.metrics.set("setup_s", setup, "s");
  out.metrics.set("events_per_s", static_cast<double>(events) / wall, "1/s");
  std::cerr << w.name << ": " << passes.size() << " passes, "
            << setups.front().size() << " set-ups\n";
  return out;
}

int usage(const char* why) {
  std::cerr << "vcpusim_perfbench: " << why
            << "\nusage: vcpusim_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--toy] [--spans FILE]\n";
  return 2;
}

}  // namespace

void account(const Pass& pass, std::uint64_t first_digest, Outcome& out) {
  out.attempted += pass.results.size();
  out.failed += pass.failed;
  if (digest(pass.results) != first_digest) {
    out.problems.push_back("a repeated pass did not reproduce the first");
    out.failed += pass.results.size() - pass.failed;
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool toy = false;
  std::string spans;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--toy") {
      toy = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--spans") {
      spans = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  Outcome out;
  try {
    const Workload w = make_workload(workload, toy);
    out = trace != 0 ? traced_run(w, seed, seconds, spans)
                     : untraced_run(w, seed, seconds, toy);
  } catch (const std::exception& e) {
    std::cerr << "vcpusim_perfbench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
       << ", \"trace\": " << trace << ", \"toy\": " << (toy ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"digest\": \"";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(out.digest));
  json << hex << "\", \"problems\": [";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    json << (i != 0 ? ", " : "") << json_string(out.problems[i]);
  }
  json << "], \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.order.size(); ++i) {
    const auto& name = out.metrics.order[i];
    const auto& [value, unit] = out.metrics.values.at(name);
    json << (i != 0 ? ", " : "") << json_string(name)
         << ": {\"value\": " << json_number(value)
         << ", \"unit\": " << json_string(unit) << "}";
  }
  json << "}, \"provenance\": {\"compiler\": " << json_string(PERFBENCH_COMPILER)
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
