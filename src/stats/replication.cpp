#include "stats/replication.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/executor.hpp"

namespace vcpusim::stats {

const MetricEstimate& ReplicationResult::metric(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("ReplicationResult: no metric named " + name);
}

const char* controller_name(ControllerKind kind) noexcept {
  switch (kind) {
    case ControllerKind::kFixed:
      return "fixed";
    case ControllerKind::kAdaptive:
      return "adaptive";
    case ControllerKind::kAntithetic:
      return "antithetic";
  }
  return "fixed";
}

bool parse_controller(std::string_view name, ControllerKind& out) noexcept {
  if (name == "fixed") {
    out = ControllerKind::kFixed;
  } else if (name == "adaptive") {
    out = ControllerKind::kAdaptive;
  } else if (name == "antithetic") {
    out = ControllerKind::kAntithetic;
  } else {
    return false;
  }
  return true;
}

ReplicationController::ReplicationController(ReplicationPolicy policy)
    : policy_(policy) {}

ReplicationStream ReplicationController::stream(std::size_t rep) const {
  return ReplicationStream{rep, false};
}

void ReplicationController::finalize(ReplicationResult& result) {
  for (auto& m : result.metrics) {
    m.ci = confidence_interval(m.samples, policy_.confidence);
  }
}

void ReplicationController::check_width(const ReplicationResult& result,
                                        const std::vector<double>& obs) const {
  if (obs.size() != result.metrics.size()) {
    throw std::runtime_error("run_replications: replication returned " +
                             std::to_string(obs.size()) + " values, expected " +
                             std::to_string(result.metrics.size()));
  }
}

void ReplicationController::record(ReplicationResult& result,
                                   const std::vector<double>& obs) const {
  if (policy_.record_observations) result.observations.push_back(obs);
}

bool ReplicationController::fold_fixed(ReplicationResult& result,
                                       const std::vector<double>& obs,
                                       std::size_t rep) const {
  check_width(result, obs);
  record(result, obs);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    result.metrics[i].samples.add(obs[i]);
  }
  result.replications = rep + 1;

  if (result.replications < policy_.min_replications) return false;
  bool all_tight = true;
  for (auto& m : result.metrics) {
    m.ci = confidence_interval(m.samples, policy_.confidence);
    if (!m.ci.converged(policy_.target_half_width)) all_tight = false;
  }
  return all_tight;
}

std::size_t FixedPolicyController::next_batch(const ReplicationResult&,
                                              std::size_t, std::size_t jobs) const {
  return jobs;
}

bool FixedPolicyController::fold(ReplicationResult& result,
                                 const std::vector<double>& obs,
                                 std::size_t rep) {
  return fold_fixed(result, obs, rep);
}

namespace {

/// Project the total sample count needed to reach the target half-width
/// from `samples` folded samples with the current intervals: the
/// half-width shrinks like 1/sqrt(n), so n_total ~= n (hw/target)^2.
/// Metrics that already converged (or carry no variance signal yet) do
/// not raise the projection.
double projected_total(const ReplicationResult& so_far, std::size_t samples,
                       const ReplicationPolicy& policy) {
  double projected = static_cast<double>(samples) + 1.0;
  for (const auto& m : so_far.metrics) {
    if (m.ci.converged(policy.target_half_width)) continue;
    if (!(m.ci.half_width > 0) || !(policy.target_half_width > 0)) continue;
    const double ratio = m.ci.half_width / policy.target_half_width;
    projected = std::max(
        projected, std::ceil(static_cast<double>(samples) * ratio * ratio));
  }
  return projected;
}

}  // namespace

std::size_t AdaptiveController::next_batch(const ReplicationResult& so_far,
                                           std::size_t, std::size_t jobs) const {
  if (so_far.replications < policy_.min_replications) {
    // Warm-up: never dispatch past the minimum — the variance estimate
    // there decides how much more is actually needed.
    return std::min(jobs, policy_.min_replications - so_far.replications);
  }
  double projected = projected_total(so_far, so_far.replications, policy_);
  projected = std::min(projected, static_cast<double>(policy_.max_replications));
  const auto total = static_cast<std::size_t>(projected);
  const std::size_t want =
      total > so_far.replications ? total - so_far.replications : 1;
  return std::clamp<std::size_t>(want, 1, jobs);
}

bool AdaptiveController::fold(ReplicationResult& result,
                              const std::vector<double>& obs, std::size_t rep) {
  return fold_fixed(result, obs, rep);
}

ReplicationStream AntitheticController::stream(std::size_t rep) const {
  return ReplicationStream{rep / 2, (rep & 1U) != 0};
}

std::size_t AntitheticController::next_batch(const ReplicationResult& so_far,
                                             std::size_t next,
                                             std::size_t jobs) const {
  std::size_t want;
  if (so_far.replications < policy_.min_replications) {
    want = policy_.min_replications - so_far.replications;
  } else {
    // Adaptive projection measured in pairs (the Welford samples are
    // pair means).
    const std::size_t pairs = so_far.metrics.front().samples.count();
    double projected = projected_total(so_far, pairs, policy_);
    projected =
        std::min(projected, static_cast<double>(policy_.max_replications) / 2.0);
    const auto total = static_cast<std::size_t>(projected);
    want = total > pairs ? 2 * (total - pairs) : 2;
  }
  // Close the pair the batch would otherwise leave open: the stopping
  // rule only fires on complete pairs, so a half-dispatched pair is
  // guaranteed speculative waste.
  if (((next + want) & 1U) != 0) ++want;
  return std::clamp<std::size_t>(want, 1, jobs);
}

bool AntitheticController::fold(ReplicationResult& result,
                                const std::vector<double>& obs,
                                std::size_t rep) {
  check_width(result, obs);
  record(result, obs);
  result.replications = rep + 1;
  if (!has_pending_) {
    pending_ = obs;
    has_pending_ = true;
    return false;
  }
  for (std::size_t i = 0; i < obs.size(); ++i) {
    result.metrics[i].samples.add(0.5 * (pending_[i] + obs[i]));
  }
  has_pending_ = false;

  if (result.replications < policy_.min_replications) return false;
  bool all_tight = true;
  for (auto& m : result.metrics) {
    m.ci = confidence_interval(m.samples, policy_.confidence);
    if (!m.ci.converged(policy_.target_half_width)) all_tight = false;
  }
  return all_tight;
}

std::unique_ptr<ReplicationController> make_controller(
    ControllerKind kind, const ReplicationPolicy& policy) {
  switch (kind) {
    case ControllerKind::kFixed:
      return std::make_unique<FixedPolicyController>(policy);
    case ControllerKind::kAdaptive:
      return std::make_unique<AdaptiveController>(policy);
    case ControllerKind::kAntithetic:
      return std::make_unique<AntitheticController>(policy);
  }
  throw std::invalid_argument("make_controller: unknown controller kind");
}

ReplicationResult run_replications(const std::vector<std::string>& metric_names,
                                   const StreamedReplicationFn& fn,
                                   ReplicationController& controller,
                                   ParallelExecutor& executor,
                                   const FoldHook& on_fold) {
  const ReplicationPolicy& policy = controller.policy();
  if (metric_names.empty()) {
    throw std::invalid_argument("run_replications: no metrics");
  }
  if (policy.min_replications < 2) {
    throw std::invalid_argument("run_replications: min_replications < 2");
  }
  if (policy.min_replications > policy.max_replications) {
    throw std::invalid_argument(
        "run_replications: min_replications (" +
        std::to_string(policy.min_replications) + ") > max_replications (" +
        std::to_string(policy.max_replications) + ")");
  }
  ReplicationResult result;
  result.metrics.resize(metric_names.size());
  for (std::size_t i = 0; i < metric_names.size(); ++i) {
    result.metrics[i].name = metric_names[i];
  }
  result.controller = controller.name();
  result.jobs = executor.jobs();

  std::vector<std::vector<double>> batch_obs;
  for (std::size_t next = 0; next < policy.max_replications;) {
    // The controller sizes the batch; truncate at the cap so `fn` never
    // sees an index past it.
    const std::size_t batch =
        std::min(controller.next_batch(result, next, executor.jobs()),
                 policy.max_replications - next);
    if (batch == 0) break;
    batch_obs.assign(batch, {});
    executor.run_indexed(batch, [&](std::size_t b) {
      const std::size_t rep = next + b;
      // Only the head of a batch starts with every predecessor folded.
      batch_obs[b] = fn(ReplicationTask{rep, controller.stream(rep), b == 0});
    });
    result.invoked += batch;
    result.batches += 1;

    // Sequential fold: replications past the stopping point within the
    // batch were speculative work and are discarded.
    for (std::size_t b = 0; b < batch; ++b) {
      const bool stop = controller.fold(result, batch_obs[b], next + b);
      if (on_fold) on_fold(next + b);
      if (stop) {
        result.converged = true;
        return result;
      }
    }
    next += batch;
  }
  controller.finalize(result);
  result.converged = false;
  return result;
}

ReplicationResult run_replications(const std::vector<std::string>& metric_names,
                                   const StreamedReplicationFn& fn,
                                   ReplicationController& controller,
                                   std::size_t jobs, const FoldHook& on_fold) {
  ParallelExecutor executor(jobs);
  return run_replications(metric_names, fn, controller, executor, on_fold);
}

}  // namespace vcpusim::stats
