// Scenario files: a small text format describing a complete experiment —
// the framework's replacement for assembling models in the Mobius GUI.
//
//   # host
//   pcpus = 4
//   timeslice = 5
//   algorithm = rcs
//   end_time = 3000
//   warmup = 200
//   seed = 42
//   confidence = 0.95
//   half_width = 0.02
//   min_replications = 6
//   max_replications = 40
//   controller = adaptive        # fixed (default) / adaptive / antithetic
//   jobs = 4                     # replication worker threads (0 = all)
//   metrics = vcpu_utilization, pcpu_utilization, throughput
//
//   [compare]                    # optional: the `vcpusim compare` verb
//   algorithms = rrs, scs, rcs   # first entry is the baseline...
//   baseline = scs               # ...unless overridden here
//
//   [dvfs]                       # optional: per-PCPU frequency scaling
//   levels = 0.5:0.8, 1.0:1.0    # frequency:voltage, ascending frequency
//                                # (absent: a default four-step ladder)
//   policy = max                 # initial level: max (default), min, or
//                                # a level index
//
//   [vm web]
//   vcpus = 2
//   load = uniformint(1,10)
//   inter_generation = deterministic(0)
//   sync_ratio = 5
//   sync_mode = every_kth        # or: random
//   spinlock = 0.5 0.3           # lock probability, critical fraction
//
//   [vm db]
//   vcpus = 4
//
// Lines starting with '#' (or after a '#') are comments. Keys are
// case-insensitive; unknown keys are errors (typo safety).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace vcpusim::cli {

/// A parsed scenario: everything needed to run one experiment point.
struct Scenario {
  std::string algorithm = "rrs";
  exp::RunSpec spec;                        ///< system + simulation knobs
  std::vector<exp::MetricRequest> metrics;  ///< defaults if file names none
  /// Algorithms of the [compare] block (baseline first); empty when the
  /// scenario has none — `vcpusim compare` then runs every registered
  /// algorithm against the scenario's `algorithm` as baseline.
  std::vector<std::string> compare_algorithms;
};

/// Parse a scenario from a stream. Throws std::invalid_argument with a
/// "line N: ..." message on malformed input. The returned Scenario's
/// spec.scheduler is already set from `algorithm`.
Scenario parse_scenario(std::istream& in);

/// Parse a scenario from a file path. Throws std::invalid_argument if
/// the file cannot be opened.
Scenario load_scenario(const std::string& path);

/// Map a metric name ("vcpu_utilization", "pcpu_utilization",
/// "availability", "busy_fraction", "blocked_fraction", "throughput",
/// "spin_fraction", "effective_utilization", "energy") to a request.
/// Per-entity kinds accept an index suffix "name[3]"; an index on any
/// other kind is an error. Throws on unknown names.
exp::MetricRequest parse_metric(const std::string& name);

/// Lower policy.min_replications to policy.max_replications when it is
/// above it: a maximum given without a minimum caps the default minimum.
/// Two explicit bounds that conflict are left for the runner to reject.
void lower_min_to_max(stats::ReplicationPolicy& policy);

/// Where each cross-checked run knob was set, as a diagnostic names it:
/// a flag ("--warmup"), a scenario key ("line 3: 'warmup'") or a
/// default ("the default --warmup").
struct KnobSources {
  std::string end_time;
  std::string warmup;
  std::string half_width;
  std::string min_replications;
  std::string max_replications;
};

/// The checks no single value can make alone: 0 < end_time <= the
/// simulator's event cap (the scheduler Clock fires once per tick),
/// 0 <= warmup < end_time, half_width > 0, and at least two replications
/// for both bounds (a confidence interval needs two samples). A minimum
/// above the maximum is left for the runner to reject. Throws
/// std::invalid_argument naming the sources of the offending values.
void check_run_knobs(const exp::RunSpec& spec, const KnobSources& from);

/// Strict numeric values, shared by the scenario keys and the CLI flags.
/// `what` names the key or flag in the diagnostic. parse_real accepts a
/// finite decimal number with nothing after it. parse_count accepts a
/// decimal integer in [0, max], without sign, fraction or exponent. Both
/// throw std::invalid_argument.
double parse_real(const std::string& what, const std::string& text);
std::uint64_t parse_count(
    const std::string& what, const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace vcpusim::cli
