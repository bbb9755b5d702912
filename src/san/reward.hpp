// SAN reward variables (Sanders & Meyer, "A unified approach for
// specifying measures of performance, dependability, and performability").
//
// A reward variable has a *rate* component — a function of the marking
// integrated over time — and optional *impulse* components — amounts
// earned when a specific activity completes. The paper's three metrics
// (VCPU Availability, PCPU Utilization, VCPU Utilization) are pure rate
// rewards, time-averaged over the measurement interval.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "san/activity.hpp"

namespace vcpusim::san {

class RewardVariable {
 public:
  /// `rate_fn` is evaluated against the current marking; its value is the
  /// reward accrual rate while that marking holds. Accrual starts at
  /// `start_time` (warm-up truncation).
  RewardVariable(std::string name, std::function<double()> rate_fn,
                 Time start_time = 0.0);

  /// Pure-impulse reward variable (no rate component).
  static RewardVariable impulse_only(std::string name, Time start_time = 0.0);

  const std::string& name() const noexcept { return name_; }
  Time start_time() const noexcept { return start_time_; }

  /// Earn `impulse_fn()` whenever `activity` completes (after start_time).
  void add_impulse(const Activity* activity, std::function<double()> impulse_fn);

  /// Total reward accumulated so far.
  double accumulated() const noexcept { return accumulated_; }

  /// Accumulated reward divided by the measured interval length
  /// (end - start_time); the "interval-of-time, time-averaged" estimator.
  double time_averaged(Time end_time) const;

  /// Number of impulse events counted (useful for throughput metrics).
  std::size_t impulse_count() const noexcept { return impulse_events_; }

  /// Whether the variable has a rate component / any impulse. The
  /// simulator dispatches dwell intervals and completions by these.
  bool has_rate() const noexcept { return static_cast<bool>(rate_fn_); }
  bool has_impulses() const noexcept { return !impulses_.empty(); }

  /// Run `hook` on every reset(). Impulse closures may carry hidden
  /// state of their own (e.g. a last-seen counter for delta rewards);
  /// hooks restore that state so a reused reward variable observes
  /// exactly what a freshly constructed one would.
  void add_reset_hook(std::function<void()> hook) {
    reset_hooks_.push_back(std::move(hook));
  }

  void reset() {
    accumulated_ = 0.0;
    impulse_events_ = 0;
    for (const auto& hook : reset_hooks_) hook();
  }

  // --- Simulator hooks ----------------------------------------------
  /// Accrue rate reward for the dwell interval [from, to) in the current
  /// (pre-event) marking.
  void on_advance(Time from, Time to);
  /// Accrue impulse reward for a completion of `activity` at time `now`.
  void on_completion(const Activity& activity, Time now);

 private:
  explicit RewardVariable(std::string name, Time start_time);

  std::string name_;
  std::function<double()> rate_fn_;  // may be null (impulse-only)
  Time start_time_;
  double accumulated_ = 0.0;
  std::size_t impulse_events_ = 0;

  struct Impulse {
    const Activity* activity;
    std::function<double()> fn;
  };
  std::vector<Impulse> impulses_;
  std::vector<std::function<void()>> reset_hooks_;
};

}  // namespace vcpusim::san
