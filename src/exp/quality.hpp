// Simulation-quality presets for the bench harness. The default aims at
// the paper's statistical target; "fast" trades tightness for wall-clock
// (CI smoke runs); "full" tightens further for publication-grade output.
// Selected via the VCPUSIM_QUALITY environment variable: fast|paper|full.
#pragma once

#include <string>

#include "exp/runner.hpp"

namespace vcpusim::exp {

struct Quality {
  san::Time end_time;
  san::Time warmup;
  stats::ReplicationPolicy policy;
};

/// The named preset ("fast", "paper", "full"); throws on unknown names.
Quality quality_preset(const std::string& name);

/// Preset from $VCPUSIM_QUALITY, defaulting to "paper"; throws
/// std::invalid_argument naming the variable on unknown names.
Quality quality_from_env();

/// Apply a quality preset onto a RunSpec.
void apply(const Quality& quality, RunSpec& spec);

}  // namespace vcpusim::exp
