// Shared plumbing for the figure-reproduction binaries: quality-preset
// handling, headers, and the common (algorithm x configuration) runner.
#pragma once

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "cli/scenario.hpp"
#include "exp/quality.hpp"
#include "exp/runner.hpp"
#include "exp/table.hpp"
#include "sched/registry.hpp"
#include "vm/config.hpp"

namespace vcpusim::bench {

/// The paper's three algorithms, in its order.
inline const std::vector<std::string>& paper_algorithms() {
  static const std::vector<std::string> algorithms = {"rrs", "scs", "rcs"};
  return algorithms;
}

inline void print_header(const std::string& title,
                         const std::string& setup_description) {
  const auto quality = exp::quality_from_env();
  std::cout << "==============================================================\n"
            << title << "\n"
            << setup_description << "\n"
            << "simulation: horizon " << quality.end_time << " ticks, warmup "
            << quality.warmup << ", "
            << quality.policy.confidence * 100 << "% confidence, target CI "
            << "half-width " << quality.policy.target_half_width
            << " (set VCPUSIM_QUALITY=fast|paper|full)\n"
            << "==============================================================\n";
}

/// Replication worker threads from the environment (VCPUSIM_JOBS;
/// 0 = all hardware threads), parsed as strictly as the --jobs flag.
/// Estimates are bit-identical for every value, so this only changes
/// wall-clock time — see docs/PERFORMANCE.md.
inline std::size_t jobs_from_env() {
  const char* v = std::getenv("VCPUSIM_JOBS");
  if (v == nullptr || *v == '\0') return 1;
  return cli::parse_count("VCPUSIM_JOBS", v);
}

/// The catch clause of every figure binary's main: a bad VCPUSIM_*
/// value or a failed run prints one line and exits 1 instead of
/// aborting on an uncaught exception.
inline int report_failure(const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}

/// Evaluate one metric for one algorithm on one system configuration,
/// under the environment-selected quality preset.
inline stats::MetricEstimate run_metric(const std::string& algorithm,
                                        const vm::SystemConfig& system,
                                        const exp::MetricRequest& metric,
                                        std::uint64_t base_seed = 42) {
  exp::RunSpec spec;
  spec.system = system;
  spec.scheduler = sched::make_factory(algorithm);
  spec.base_seed = base_seed;
  spec.lint = true;  // figure runs are long — fail on wiring mistakes early
  spec.jobs = jobs_from_env();
  exp::apply(exp::quality_from_env(), spec);
  auto result = exp::run_point(spec, {metric});
  return result.metrics.front();
}

/// Evaluate several metrics at once (single experiment point).
inline stats::ReplicationResult run_metrics(
    const std::string& algorithm, const vm::SystemConfig& system,
    const std::vector<exp::MetricRequest>& metrics,
    std::uint64_t base_seed = 42) {
  exp::RunSpec spec;
  spec.system = system;
  spec.scheduler = sched::make_factory(algorithm);
  spec.base_seed = base_seed;
  spec.lint = true;  // figure runs are long — fail on wiring mistakes early
  spec.jobs = jobs_from_env();
  exp::apply(exp::quality_from_env(), spec);
  return exp::run_point(spec, metrics);
}

}  // namespace vcpusim::bench
