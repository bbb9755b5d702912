// SAN activities: the transitions of the net.
//
// A *timed* activity samples its completion delay from a Distribution
// when it becomes enabled (its activation) and completes that much later
// unless the marking disables it first, which aborts the activation — the
// standard SAN race/abort semantics. An *instantaneous* activity completes
// in zero time as soon as it is enabled, before any further time advance.
//
// Completion runs the input functions of all input gates, then selects a
// case by its probability weight, then runs that case's output gates.
// An Activity only declares this; san::CompiledModel executes it
// (san/compiled.hpp).
#pragma once

#include <string>
#include <vector>

#include "san/gate.hpp"
#include "stats/distribution.hpp"

namespace vcpusim::san {

/// One probabilistic outcome of an activity.
struct Case {
  double weight = 1.0;
  std::vector<OutputGate> output_gates;
};

class Activity {
 public:
  /// Timed activity with the given delay distribution. Higher `priority`
  /// fires first among completions scheduled at the same instant.
  Activity(std::string name, stats::DistributionPtr delay, int priority = 0);

  /// Instantaneous activity (fires in zero time once enabled).
  static Activity make_instantaneous(std::string name, int priority = 0);

  Activity(Activity&&) = default;
  Activity& operator=(Activity&&) = default;
  Activity(const Activity&) = delete;
  Activity& operator=(const Activity&) = delete;

  const std::string& name() const noexcept { return name_; }
  bool is_instantaneous() const noexcept { return delay_ == nullptr; }
  int priority() const noexcept { return priority_; }
  const stats::Distribution* delay() const noexcept { return delay_.get(); }

  void add_input_gate(InputGate gate);

  /// Convenience: add an output gate to the default (last) case.
  void add_output_gate(OutputGate gate);

  /// Add an explicit probabilistic case.
  void add_case(Case c);

  // --- Structural introspection (san::analyze) ----------------------
  const std::vector<InputGate>& input_gates() const noexcept {
    return input_gates_;
  }
  const std::vector<Case>& cases() const noexcept { return cases_; }
  /// Mutable gate access for test harnesses that seed footprint
  /// mutations (the sanitizer's own test suite); production code builds
  /// gates through add_input_gate/add_output_gate only.
  std::vector<InputGate>& input_gates_mut() noexcept { return input_gates_; }
  std::vector<Case>& cases_mut() noexcept { return cases_; }
  /// True once add_case() replaced the implicit default case.
  bool has_explicit_cases() const noexcept { return explicit_cases_; }
  /// Sum of case weights (1.0 for the implicit default case).
  double total_case_weight() const noexcept { return total_weight_; }

 private:
  Activity(std::string name, int priority);  // instantaneous ctor

  std::string name_;
  stats::DistributionPtr delay_;  // nullptr => instantaneous
  int priority_ = 0;
  std::vector<InputGate> input_gates_;
  std::vector<Case> cases_;
  double total_weight_ = 0.0;
  bool explicit_cases_ = false;
};

}  // namespace vcpusim::san
