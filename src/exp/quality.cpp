#include "exp/quality.hpp"

#include <cstdlib>
#include <stdexcept>

namespace vcpusim::exp {

Quality quality_preset(const std::string& name) {
  // Every tier starts from the paper's target
  // (stats::ReplicationPolicy::paper(), the single source of truth) and
  // scales the horizon and the stopping rule from there.
  stats::ReplicationPolicy policy = stats::ReplicationPolicy::paper();
  if (name == "fast") {
    policy.target_half_width = 0.04;
    policy.min_replications = 4;
    policy.max_replications = 12;
    return Quality{.end_time = 1500.0, .warmup = 100.0, .policy = policy};
  }
  if (name == "paper") {
    // The paper: 95% confidence, < 0.1 confidence interval. The preset
    // targets a tighter 0.02 half-width so the reproduced series are
    // smooth.
    return Quality{.end_time = 3000.0, .warmup = 200.0, .policy = policy};
  }
  if (name == "full") {
    policy.target_half_width = 0.01;
    policy.min_replications = 10;
    policy.max_replications = 100;
    return Quality{.end_time = 10000.0, .warmup = 500.0, .policy = policy};
  }
  throw std::invalid_argument("unknown quality preset: " + name);
}

Quality quality_from_env() {
  const char* env = std::getenv("VCPUSIM_QUALITY");
  const std::string name = env != nullptr && *env != '\0' ? env : "paper";
  try {
    return quality_preset(name);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "VCPUSIM_QUALITY must be fast, paper or full, got '" + name + "'");
  }
}

void apply(const Quality& quality, RunSpec& spec) {
  spec.end_time = quality.end_time;
  spec.warmup = quality.warmup;
  spec.policy = quality.policy;
}

}  // namespace vcpusim::exp
