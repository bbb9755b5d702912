// Runtime model validation (paper Section V: "evaluating the fidelity of
// the model"): a trace sink that re-derives the virtualization model's
// global invariants from the marking at every scheduler tick and records
// violations. Attach it to any simulation with Simulator::set_trace —
// tests run it under every algorithm; users run it when developing
// custom schedulers.
#pragma once

#include <string>
#include <vector>

#include "san/analyze/invariants.hpp"
#include "san/trace.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::vm {

class InvariantChecker final : public san::TraceSink {
 public:
  /// Checks `system` at each firing of its scheduler Clock (a replayed
  /// stream, e.g. from exp::RunSpec::trace, throws std::logic_error). If
  /// `throw_on_violation` is set, the first violation raises
  /// std::logic_error (aborting the run); otherwise violations are
  /// collected (bounded) and readable afterwards.
  ///
  /// Construction also runs the structural invariant engine
  /// (san/analyze/invariants.hpp) on the system's model: every derived
  /// conservation law and k-bound is re-evaluated numerically on each
  /// check, so the hand-written dynamic checks and the statically proven
  /// invariants cross-validate each other on every tick. The system must
  /// be at its initial marking when the checker is constructed (the
  /// invariants' right-hand sides are fixed from it).
  explicit InvariantChecker(const VirtualSystem& system,
                            bool throw_on_violation = false);

  void on_event(const san::TraceEvent& event) override;

  /// Run all checks against the current marking immediately; returns the
  /// violation messages found in this pass (empty = consistent).
  std::vector<std::string> check_now(san::Time now = -1.0);

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  bool consistent() const noexcept { return violations_.empty(); }
  std::size_t checks_performed() const noexcept { return checks_; }

  /// The statically derived invariants/bounds checked alongside the
  /// dynamic rules (symbolic forms in InvariantAnalysis::invariants).
  const san::analyze::InvariantAnalysis& static_analysis() const noexcept {
    return static_analysis_;
  }

 private:
  void record(std::vector<std::string>& found, san::Time now,
              const std::string& message);
  void check_static(std::vector<std::string>& found, san::Time now);

  const VirtualSystem* system_;
  const san::Activity* clock_;
  san::analyze::InvariantAnalysis static_analysis_;
  bool throw_on_violation_;
  std::vector<std::string> violations_;
  std::size_t checks_ = 0;
  static constexpr std::size_t kMaxRecorded = 100;
};

}  // namespace vcpusim::vm
