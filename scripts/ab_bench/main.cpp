// Driver of the in-process A/B harness (scripts/ab_bench.py): runs every
// point of the paper_grid and trace_jsonl perfbench workloads on both
// library copies, in alternating order per point, and prints how B's
// time compares to A's.
//
//   ab_bench [--rounds N]
//
// Exit status 1 when the two sides disagree on any result digest or
// trace byte count (or a perfbench check fails); the timings never fail
// the run. Only the count of trace bytes is compared, not their content:
// perfbench's trace sink counts bytes and keeps none.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "side.hpp"

namespace {

// Fixed run: seed 1 (perfbench's default) over the two workloads whose
// per-event cost the harness exists to size.
constexpr std::uint64_t kSeed = 1;
constexpr const char* kWorkloads[] = {"paper_grid", "trace_jsonl"};

int parse_rounds(int argc, char** argv) {
  int rounds = 6;
  if (argc == 3 && std::strcmp(argv[1], "--rounds") == 0) {
    rounds = std::atoi(argv[2]);
  } else if (argc != 1) {
    rounds = 0;
  }
  if (rounds < 1) {
    std::fprintf(stderr, "usage: ab_bench [--rounds N], N >= 1\n");
    std::exit(2);
  }
  return rounds;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Run one workload; returns false when the sides disagree.
bool compare(const std::string& name, int rounds_wanted) {
  const std::size_t points = ab_a::point_count(name.c_str());
  if (ab_b::point_count(name.c_str()) != points) {
    std::printf("%s: A and B define different point counts\n", name.c_str());
    return false;
  }
  const auto rounds = static_cast<std::size_t>(rounds_wanted);
  // [point][round]
  std::vector<std::vector<double>> a(points, std::vector<double>(rounds));
  std::vector<std::vector<double>> b(points, std::vector<double>(rounds));
  bool same_results = true;
  bool same_byte_counts = true;
  std::size_t problems = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < points; ++p) {
      ab::PointRun ra;
      ab::PointRun rb;
      // Alternate which side runs first, so neither always inherits the
      // other's warm caches or a slow stretch of the machine.
      if ((r + p) % 2 == 0) {
        ra = ab_a::run_point(name.c_str(), p, kSeed);
        rb = ab_b::run_point(name.c_str(), p, kSeed);
      } else {
        rb = ab_b::run_point(name.c_str(), p, kSeed);
        ra = ab_a::run_point(name.c_str(), p, kSeed);
      }
      a[p][r] = ra.seconds;
      b[p][r] = rb.seconds;
      same_results = same_results && ra.digest == rb.digest &&
                     ra.events == rb.events;
      same_byte_counts =
          same_byte_counts && ra.trace_bytes == rb.trace_bytes;
      problems += ra.problems + rb.problems;
      if (r == 0) {
        bytes += rb.trace_bytes;
        events += rb.events;
      }
    }
  }
  double min_a = 0.0;
  double min_b = 0.0;
  for (std::size_t p = 0; p < points; ++p) {
    min_a += *std::min_element(a[p].begin(), a[p].end());
    min_b += *std::min_element(b[p].begin(), b[p].end());
  }
  // Set-up of every system of the workload, alternating likewise. One
  // set-up pass is short, so each round takes several.
  constexpr std::size_t kSetupsPerRound = 5;
  std::vector<double> setup_a;
  std::vector<double> setup_b;
  for (std::size_t k = 0; k < rounds * kSetupsPerRound; ++k) {
    if (k % 2 == 0) {
      setup_a.push_back(ab_a::setup_seconds(name.c_str()));
      setup_b.push_back(ab_b::setup_seconds(name.c_str()));
    } else {
      setup_b.push_back(ab_b::setup_seconds(name.c_str()));
      setup_a.push_back(ab_a::setup_seconds(name.c_str()));
    }
  }
  std::vector<double> per_round;
  for (std::size_t r = 0; r < rounds; ++r) {
    double sum_a = 0.0;
    double sum_b = 0.0;
    for (std::size_t p = 0; p < points; ++p) {
      sum_a += a[p][r];
      sum_b += b[p][r];
    }
    per_round.push_back(sum_b / sum_a);
  }
  std::printf("%s: %zu points x %zu rounds, %llu events, %llu trace bytes "
              "per pass\n",
              name.c_str(), points, rounds,
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(bytes));
  std::printf("  A sum of per-point minima: %.4f s\n", min_a);
  std::printf("  B sum of per-point minima: %.4f s\n", min_b);
  std::printf("  B/A %.3f (per-round median %.3f, range %.3f-%.3f)\n",
              min_b / min_a, median(per_round),
              *std::min_element(per_round.begin(), per_round.end()),
              *std::max_element(per_round.begin(), per_round.end()));
  const double fastest_a = *std::min_element(setup_a.begin(), setup_a.end());
  const double fastest_b = *std::min_element(setup_b.begin(), setup_b.end());
  std::printf("  set-up B/A %.3f of minima, %.3f of medians "
              "(minima %.4f s / %.4f s)\n",
              fastest_b / fastest_a, median(setup_b) / median(setup_a),
              fastest_b, fastest_a);
  std::printf("  results identical: %s, trace byte counts equal: %s, "
              "failed checks: %zu\n",
              same_results ? "yes" : "NO", same_byte_counts ? "yes" : "NO",
              problems);
  std::fflush(stdout);
  return same_results && same_byte_counts && problems == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = parse_rounds(argc, argv);
  bool ok = true;
  for (const char* name : kWorkloads) ok = compare(name, rounds) && ok;
  return ok ? 0 : 1;
}
