// One side of the in-process A/B harness (scripts/ab_bench.py).
//
// side.cpp is compiled twice, each time against a different copy of the
// library (src/) and of perfbench/workloads.cpp, with the library's and
// perfbench's namespaces renamed by the preprocessor (-Dvcpusim=...,
// -Dperfbench=...) and AB_SIDE set to ab_a or ab_b. This header names
// nothing from either copy, so the driver (main.cpp) can call both.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ab {

/// What one untraced run of one workload point produced.
struct PointRun {
  double seconds = 0.0;          ///< wall time of the point
  std::uint64_t digest = 0;      ///< perfbench::digest of its results
  std::uint64_t trace_bytes = 0; ///< bytes its JSONL sink wrote (if any)
  std::uint64_t events = 0;      ///< simulated activity completions
  std::size_t problems = 0;      ///< failed perfbench checks
};

}  // namespace ab

#define AB_DECLARE_SIDE(ns)                                              \
  namespace ns {                                                         \
  /** Points of the named perfbench workload (paper quality). */        \
  std::size_t point_count(const char* workload);                         \
  /** Run point `point` of the workload once, as perfbench does. */     \
  ab::PointRun run_point(const char* workload, std::size_t point,        \
                         std::uint64_t seed);                            \
  /** Seconds to set up every system of the workload once, as        \
      perfbench's setup_s counts it (build, lint, compile). */          \
  double setup_seconds(const char* workload);                            \
  }

AB_DECLARE_SIDE(ab_a)
AB_DECLARE_SIDE(ab_b)
