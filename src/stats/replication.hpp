// Replication control: run independent replications of a terminating
// simulation until every reported metric's confidence interval is tight
// enough (the Mobius-style stopping rule the paper relies on).
//
// The batch loop is pluggable: a ReplicationController owns batch sizing,
// observation folding and the stopping decision. Three controllers ship
// (see docs/STATISTICS.md):
//   - FixedPolicyController: always dispatches `jobs` replications per
//     batch — bit-identical to the original monolithic loop and the
//     equivalence baseline for the other two.
//   - AdaptiveController: sequential stopping that sizes the next batch
//     from the observed Welford variance instead of always dispatching
//     `jobs`, cutting speculative work past the stopping index. Folded
//     estimates are bit-identical to the fixed controller's.
//   - AntitheticController: paired antithetic replications — odd
//     replication indices rerun their even partner's RNG stream with
//     mirrored variates and the CI is estimated over pair means, which
//     shrinks variance whenever the response is monotone in the draws.
//
// Replications can be dispatched to a ParallelExecutor in batches. Every
// controller preserves the determinism contract: observations are folded
// into the accumulators in replication-index order and the convergence
// decision is re-evaluated in that same order, so a run stops at exactly
// the replication a sequential run would have stopped at and the result
// is bit-identical for every value of `jobs`. Replications of a batch
// beyond the stopping point are speculative and their observations
// discarded (counted in `ReplicationResult::speculative_waste()`).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/welford.hpp"

namespace vcpusim::stats {

class ParallelExecutor;

struct ReplicationPolicy {
  double confidence = 0.95;        ///< confidence level of the intervals
  double target_half_width = 0.1;  ///< stop when every metric's half-width < this
  std::size_t min_replications = 5;
  std::size_t max_replications = 200;  ///< hard cap (always stop here)

  /// Keep each folded replication's raw observation vector in
  /// ReplicationResult::observations (fold order). Off by default; the
  /// paired-comparison API (exp::compare_points) turns it on to compute
  /// per-replication differences under common random numbers.
  bool record_observations = false;

  /// The paper's stated statistical target: 95% confidence, < 0.1-wide
  /// interval (0.02 half-width leaves headroom), at least 6 replications.
  /// The single source of truth for the experiment-layer default — both
  /// exp::RunSpec and the exp::quality presets build on it.
  static ReplicationPolicy paper() noexcept {
    ReplicationPolicy policy;
    policy.confidence = 0.95;
    policy.target_half_width = 0.02;
    policy.min_replications = 6;
    policy.max_replications = 40;
    return policy;
  }
};

struct MetricEstimate {
  std::string name;
  ConfidenceInterval ci;
  Welford samples;  ///< per-replication observations (pair means when antithetic)
};

struct ReplicationResult {
  std::vector<MetricEstimate> metrics;
  std::size_t replications = 0;
  bool converged = false;       ///< all metrics hit the target half-width
  std::string controller = "fixed";  ///< name of the controller that ran

  // Executor bookkeeping (exported as "executor.*" registry metrics).
  // `invoked` >= `replications`: batched dispatch runs speculative
  // replications past the stopping point whose observations are
  // discarded. `invoked` and `batches` depend on the batch size, unlike
  // everything above this line.
  std::size_t invoked = 0;  ///< replication-function invocations
  std::size_t batches = 0;  ///< executor dispatches
  std::size_t jobs = 1;     ///< resolved worker count of the executor

  /// Raw observation vectors of the folded (non-speculative)
  /// replications, in replication-index order; filled only when
  /// ReplicationPolicy::record_observations is set. For the antithetic
  /// controller these are the per-replication values, not pair means.
  std::vector<std::vector<double>> observations;

  /// Replications invoked past the stopping index whose observations
  /// were discarded — the cost of batched speculation.
  std::size_t speculative_waste() const noexcept {
    return invoked - replications;
  }

  /// Find a metric by name; throws std::out_of_range if absent.
  const MetricEstimate& metric(const std::string& name) const;
};

/// RNG-stream assignment of one replication: derive all randomness from
/// `stream` (e.g. via san::replication_seed) and, when `antithetic` is
/// set, mirror every variate draw (Rng::set_antithetic). The fixed and
/// adaptive controllers map replication r to stream r un-mirrored; the
/// antithetic controller maps replications {2k, 2k+1} to stream k with
/// the odd partner mirrored.
struct ReplicationStream {
  std::size_t stream = 0;
  bool antithetic = false;
};

/// One dispatched replication: `rep` is the 0-based fold-order index,
/// `stream` the RNG assignment chosen by the controller. `in_order` is
/// set when every earlier replication had folded before this one was
/// dispatched: the first task of each batch, hence every task at
/// jobs == 1, where every shipped controller dispatches batches of one.
/// Such a task is never speculative; it folds unless it or its fold
/// throws.
struct ReplicationTask {
  std::size_t rep = 0;
  ReplicationStream stream;
  bool in_order = false;
};

/// One replication: given its task, produce one observation per metric.
/// The vector size and ordering must match `metric_names` on every call.
///
/// With jobs > 1 the function is invoked concurrently from multiple
/// threads and speculatively for indices past the stopping point, so it
/// must be thread-safe and a pure function of the task. Randomness must
/// derive from `task.stream`, not `task.rep` (the antithetic controller
/// maps two indices onto one mirrored stream).
using StreamedReplicationFn =
    std::function<std::vector<double>(const ReplicationTask& task)>;

/// Called on run_replications' calling thread right after each
/// successful ReplicationController::fold, for replications
/// 0..replications-1 in index order, never for a speculative index. The
/// batch join orders it after every call the replication functions of
/// that batch made.
using FoldHook = std::function<void(std::size_t rep)>;

/// Selector for make_controller / CLI `--controller` / scenario key.
enum class ControllerKind { kFixed, kAdaptive, kAntithetic };

/// "fixed", "adaptive" or "antithetic".
const char* controller_name(ControllerKind kind) noexcept;

/// Parse a controller name; returns false on unknown input.
bool parse_controller(std::string_view name, ControllerKind& out) noexcept;

/// Owns batch sizing, observation folding and the stopping decision of a
/// replication run. Controllers are single-use and stateful (the
/// antithetic controller buffers half-folded pairs): construct a fresh
/// one per run_replications call. All hooks are invoked from the driver
/// thread only — stream() excepted, which must be const and pure because
/// the executor calls it concurrently.
class ReplicationController {
 public:
  explicit ReplicationController(ReplicationPolicy policy);
  virtual ~ReplicationController() = default;

  const ReplicationPolicy& policy() const noexcept { return policy_; }
  virtual const char* name() const noexcept = 0;

  /// Number of replications to dispatch next, given the folded state so
  /// far, the index of the first undispatched replication and the
  /// executor width. Must be >= 1; the driver truncates at the
  /// max_replications cap.
  virtual std::size_t next_batch(const ReplicationResult& so_far,
                                 std::size_t next,
                                 std::size_t jobs) const = 0;

  /// RNG-stream assignment of replication `rep`. Pure; called
  /// concurrently from executor lanes.
  virtual ReplicationStream stream(std::size_t rep) const;

  /// Fold one replication's observations (called in strict index order)
  /// and decide whether the stopping rule fires at this replication.
  virtual bool fold(ReplicationResult& result, const std::vector<double>& obs,
                    std::size_t rep) = 0;

  /// Refresh the intervals on the non-converged exit (cap reached).
  virtual void finalize(ReplicationResult& result);

 protected:
  /// The original monolithic loop's per-replication step: fold into the
  /// Welford accumulators, refresh the CIs past min_replications, report
  /// whether every metric converged. Shared by the fixed and adaptive
  /// controllers, byte for byte.
  bool fold_fixed(ReplicationResult& result, const std::vector<double>& obs,
                  std::size_t rep) const;

  /// Append `obs` to result.observations when the policy records them.
  void record(ReplicationResult& result, const std::vector<double>& obs) const;

  /// Throw std::runtime_error unless obs matches the metric count.
  void check_width(const ReplicationResult& result,
                   const std::vector<double>& obs) const;

  ReplicationPolicy policy_;
};

/// Always dispatches `jobs` replications per batch and folds them with
/// the original stopping rule — bit-identical to the pre-controller
/// run_replications (test-enforced).
class FixedPolicyController : public ReplicationController {
 public:
  using ReplicationController::ReplicationController;
  const char* name() const noexcept override { return "fixed"; }
  std::size_t next_batch(const ReplicationResult& so_far, std::size_t next,
                         std::size_t jobs) const override;
  bool fold(ReplicationResult& result, const std::vector<double>& obs,
            std::size_t rep) override;
};

/// Sequential stopping: past min_replications, projects the total
/// replications needed from the current half-widths (half-width shrinks
/// like 1/sqrt(n)) and dispatches only the projected remainder, capped at
/// `jobs`. Folded estimates and the stopping index are bit-identical to
/// FixedPolicyController — only `invoked`/`batches` (the speculative
/// waste) differ.
class AdaptiveController : public ReplicationController {
 public:
  using ReplicationController::ReplicationController;
  const char* name() const noexcept override { return "adaptive"; }
  std::size_t next_batch(const ReplicationResult& so_far, std::size_t next,
                         std::size_t jobs) const override;
  bool fold(ReplicationResult& result, const std::vector<double>& obs,
            std::size_t rep) override;
};

/// Paired antithetic replications: replication 2k+1 reruns stream k with
/// every variate mirrored, and each pair folds as one Welford sample (the
/// pair mean), so Var(sample) = (1 + rho) / 2 * Var(single) with rho the
/// (negative, for monotone responses) pair correlation. Batch sizing is
/// the adaptive projection measured in pairs. min/max_replications count
/// raw replications; the stopping rule only fires on complete pairs.
class AntitheticController : public ReplicationController {
 public:
  using ReplicationController::ReplicationController;
  const char* name() const noexcept override { return "antithetic"; }
  std::size_t next_batch(const ReplicationResult& so_far, std::size_t next,
                         std::size_t jobs) const override;
  ReplicationStream stream(std::size_t rep) const override;
  bool fold(ReplicationResult& result, const std::vector<double>& obs,
            std::size_t rep) override;

 private:
  std::vector<double> pending_;  ///< even partner awaiting its mirror
  bool has_pending_ = false;
};

/// Construct the controller selected by `kind`.
std::unique_ptr<ReplicationController> make_controller(
    ControllerKind kind, const ReplicationPolicy& policy);

/// Run replications of `fn` under `controller`, dispatching
/// controller-sized batches to a caller-owned executor. The result is
/// bit-identical for every value of executor.jobs(). `fn` is never called
/// with an index >= policy.max_replications. Throws std::invalid_argument
/// if metric_names is empty or min_replications < 2, std::runtime_error
/// if fn returns a vector of the wrong size. `on_fold`, when set, is
/// invoked after every fold (see FoldHook).
ReplicationResult run_replications(const std::vector<std::string>& metric_names,
                                   const StreamedReplicationFn& fn,
                                   ReplicationController& controller,
                                   ParallelExecutor& executor,
                                   const FoldHook& on_fold = {});

/// Same, with a private executor (jobs == 0 selects the hardware
/// concurrency).
ReplicationResult run_replications(const std::vector<std::string>& metric_names,
                                   const StreamedReplicationFn& fn,
                                   ReplicationController& controller,
                                   std::size_t jobs = 1,
                                   const FoldHook& on_fold = {});

}  // namespace vcpusim::stats
