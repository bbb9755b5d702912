#include "cli/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cmath>
#include <fstream>
#include <locale>
#include <sstream>
#include <stdexcept>

#include "sched/registry.hpp"

namespace vcpusim::cli {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

/// How a diagnostic names a scenario key: "line N: 'key'".
std::string key_at(int line, const std::string& key) {
  return "line " + std::to_string(line) + ": '" + key + "'";
}

int parse_int(const std::string& what, const std::string& v) {
  return static_cast<int>(parse_count(what, v, INT_MAX));
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream is(s);
  std::string token;
  while (std::getline(is, token, sep)) {
    const std::string t = trim(token);
    if (!t.empty()) parts.push_back(t);
  }
  return parts;
}

}  // namespace

double parse_real(const std::string& what, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    throw std::invalid_argument(what + " expects a finite number, got '" +
                                text + "'");
  }
  return value;
}

std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ptr == end && (ec == std::errc::result_out_of_range || value > max)) {
    throw std::invalid_argument(what + " is out of range: '" + text +
                                "' (max " + std::to_string(max) + ")");
  }
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(what + " expects a non-negative integer, "
                                "got '" + text + "'");
  }
  return value;
}

void lower_min_to_max(stats::ReplicationPolicy& policy) {
  policy.min_replications =
      std::min(policy.min_replications, policy.max_replications);
}

void check_run_knobs(const exp::RunSpec& spec, const KnobSources& from) {
  const auto show = [](double v) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << v;
    return os.str();
  };
  const auto reject = [](const std::string& message) {
    throw std::invalid_argument(message);
  };
  if (!(spec.end_time > 0)) {
    reject(from.end_time + " must be positive, got " + show(spec.end_time));
  }
  // One scheduler Clock event per tick: a longer horizon would stop at
  // the simulator's event cap, short of end_time.
  const std::uint64_t event_cap = san::SimulatorConfig{}.max_events;
  if (spec.end_time > static_cast<double>(event_cap)) {
    reject(from.end_time + " (" + show(spec.end_time) +
           ") must not exceed the event cap of " + std::to_string(event_cap) +
           " ticks");
  }
  if (spec.warmup < 0) {
    reject(from.warmup + " must not be negative, got " + show(spec.warmup));
  }
  if (spec.warmup >= spec.end_time) {
    reject(from.warmup + " (" + show(spec.warmup) + ") must be below " +
           from.end_time + " (" + show(spec.end_time) + ")");
  }
  if (!(spec.policy.target_half_width > 0)) {
    reject(from.half_width + " must be positive, got " +
           show(spec.policy.target_half_width));
  }
  if (spec.policy.max_replications < 2) {
    reject(from.max_replications + " must be at least 2, got " +
           std::to_string(spec.policy.max_replications));
  }
  if (spec.policy.min_replications < 2) {
    reject(from.min_replications + " must be at least 2, got " +
           std::to_string(spec.policy.min_replications));
  }
}

exp::MetricRequest parse_metric(const std::string& name) {
  std::string base = lower(trim(name));
  int index = -1;
  const auto open = base.find('[');
  if (open != std::string::npos) {
    const auto close = base.find(']', open);
    if (close == std::string::npos) {
      throw std::invalid_argument("metric '" + name + "': missing ']'");
    }
    if (close + 1 != base.size()) {
      throw std::invalid_argument("metric '" + name +
                                  "': unexpected text after ']'");
    }
    try {
      index = std::stoi(base.substr(open + 1, close - open - 1));
    } catch (const std::exception&) {
      throw std::invalid_argument("metric '" + name + "': bad index");
    }
    if (index < 0) {
      throw std::invalid_argument("metric '" + name +
                                  "': index must be >= 0");
    }
    base = base.substr(0, open);
  }
  const bool indexed = index >= 0;
  // Reject an index on metrics that do not take one, instead of the old
  // behaviour of silently discarding it.
  const auto no_index = [&](const char* metric) {
    if (indexed) {
      throw std::invalid_argument("metric '" + std::string(metric) +
                                  "' does not take an index");
    }
  };
  if (base == "availability" || base == "vcpu_availability") {
    return {indexed ? exp::MetricKind::kVcpuAvailability
                    : exp::MetricKind::kMeanVcpuAvailability,
            index, ""};
  }
  if (base == "vcpu_utilization" || base == "utilization") {
    return {indexed ? exp::MetricKind::kVcpuUtilization
                    : exp::MetricKind::kMeanVcpuUtilization,
            index, ""};
  }
  if (base == "busy_fraction") {
    return {indexed ? exp::MetricKind::kVcpuBusyFraction
                    : exp::MetricKind::kMeanVcpuBusyFraction,
            index, ""};
  }
  if (base == "pcpu_utilization" || base == "pcpu") {
    no_index("pcpu_utilization");
    return {exp::MetricKind::kPcpuUtilization, -1, ""};
  }
  if (base == "blocked_fraction") {
    if (!indexed) {
      throw std::invalid_argument(
          "metric 'blocked_fraction' requires a VM index, e.g. "
          "blocked_fraction[0]");
    }
    return {exp::MetricKind::kVmBlockedFraction, index, ""};
  }
  if (base == "throughput") {
    no_index("throughput");
    return {exp::MetricKind::kThroughput, -1, ""};
  }
  if (base == "spin_fraction") {
    no_index("spin_fraction");
    return {exp::MetricKind::kMeanSpinFraction, -1, ""};
  }
  if (base == "effective_utilization") {
    no_index("effective_utilization");
    return {exp::MetricKind::kMeanEffectiveUtilization, -1, ""};
  }
  if (base == "energy") {
    no_index("energy");
    return {exp::MetricKind::kEnergy, -1, ""};
  }
  throw std::invalid_argument("unknown metric: " + name);
}

Scenario parse_scenario(std::istream& in) {
  Scenario scenario;
  scenario.spec.system.vms.clear();
  vm::VmConfig* current_vm = nullptr;
  bool in_compare = false;
  bool in_dvfs = false;
  std::string compare_baseline;
  bool min_given = false;
  bool max_given = false;
  KnobSources sources{"the default end_time", "the default warmup",
                      "the default half_width", "the default min_replications",
                      "the default max_replications"};

  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    std::string text = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (text.empty()) continue;

    if (text.front() == '[') {
      if (text.back() != ']') fail(line, "unterminated section header");
      const std::string inside = trim(text.substr(1, text.size() - 2));
      const auto space = inside.find(' ');
      const std::string kind =
          lower(space == std::string::npos ? inside : inside.substr(0, space));
      if (kind == "compare") {
        if (space != std::string::npos) {
          fail(line, "the [compare] section takes no name");
        }
        current_vm = nullptr;
        in_compare = true;
        in_dvfs = false;
        continue;
      }
      if (kind == "dvfs") {
        if (space != std::string::npos) {
          fail(line, "the [dvfs] section takes no name");
        }
        current_vm = nullptr;
        in_compare = false;
        in_dvfs = true;
        scenario.spec.system.dvfs.enabled = true;
        continue;
      }
      if (kind != "vm") fail(line, "unknown section '" + inside + "'");
      vm::VmConfig vm_cfg;
      if (space != std::string::npos) vm_cfg.name = trim(inside.substr(space + 1));
      scenario.spec.system.vms.push_back(std::move(vm_cfg));
      current_vm = &scenario.spec.system.vms.back();
      in_compare = false;
      in_dvfs = false;
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(line, "expected 'key = value'");
    const std::string key = lower(trim(text.substr(0, eq)));
    const std::string value = trim(text.substr(eq + 1));
    if (value.empty()) fail(line, "empty value for '" + key + "'");
    const std::string what = key_at(line, key);

    if (in_dvfs) {
      if (key == "levels") {
        // `f:v` pairs, comma-separated, ascending frequency; an empty
        // list is rejected here (an absent key keeps the default ladder).
        scenario.spec.system.dvfs.levels.clear();
        for (const auto& entry : split(value, ',')) {
          const auto parts = split(entry, ':');
          if (parts.size() != 2) {
            fail(line, "invalid dvfs level '" + entry +
                           "': expected frequency:voltage");
          }
          vm::DvfsLevel level;
          level.frequency = parse_real(what, parts[0]);
          level.voltage = parse_real(what, parts[1]);
          scenario.spec.system.dvfs.levels.push_back(level);
        }
        if (scenario.spec.system.dvfs.levels.empty()) {
          fail(line, "dvfs levels list is empty");
        }
      } else if (key == "policy") {
        // Initial frequency governor: where every PCPU boots.
        const std::string policy = lower(value);
        if (policy == "max") {
          scenario.spec.system.dvfs.initial_level = -1;  // highest level
        } else if (policy == "min") {
          scenario.spec.system.dvfs.initial_level = 0;
        } else {
          try {
            scenario.spec.system.dvfs.initial_level = parse_int(what, value);
          } catch (const std::invalid_argument&) {
            fail(line, "policy must be 'max', 'min' or a level index >= 0");
          }
        }
      } else {
        fail(line, "unknown dvfs key '" + key + "'");
      }
      continue;
    }

    if (in_compare) {
      if (key == "algorithms") {
        for (const auto& name : split(value, ',')) {
          const std::string algorithm = lower(name);
          try {
            sched::make_factory(algorithm);
          } catch (const std::exception& e) {
            fail(line, e.what());
          }
          scenario.compare_algorithms.push_back(algorithm);
        }
      } else if (key == "baseline") {
        compare_baseline = lower(value);
      } else {
        fail(line, "unknown compare key '" + key + "'");
      }
      continue;
    }

    if (current_vm == nullptr) {
      // Global section.
      if (key == "pcpus") {
        scenario.spec.system.num_pcpus = parse_int(what, value);
      } else if (key == "timeslice") {
        scenario.spec.system.default_timeslice = parse_real(what, value);
      } else if (key == "algorithm") {
        scenario.algorithm = lower(value);
      } else if (key == "end_time") {
        scenario.spec.end_time = parse_real(what, value);
        sources.end_time = what;
      } else if (key == "warmup") {
        scenario.spec.warmup = parse_real(what, value);
        sources.warmup = what;
      } else if (key == "seed") {
        scenario.spec.base_seed = parse_count(what, value);
      } else if (key == "confidence") {
        scenario.spec.policy.confidence = parse_real(what, value);
      } else if (key == "half_width") {
        scenario.spec.policy.target_half_width = parse_real(what, value);
        sources.half_width = what;
      } else if (key == "min_replications") {
        scenario.spec.policy.min_replications = parse_count(what, value);
        sources.min_replications = what;
        min_given = true;
      } else if (key == "max_replications") {
        scenario.spec.policy.max_replications = parse_count(what, value);
        sources.max_replications = what;
        max_given = true;
      } else if (key == "controller") {
        if (!stats::parse_controller(lower(value), scenario.spec.controller)) {
          fail(line, "controller must be 'fixed', 'adaptive' or 'antithetic'");
        }
      } else if (key == "jobs") {
        scenario.spec.jobs = parse_count(what, value);
      } else if (key == "verify_footprints") {
        const std::string flag = lower(value);
        if (flag == "true" || flag == "on" || flag == "1") {
          scenario.spec.verify_footprints = true;
        } else if (flag == "false" || flag == "off" || flag == "0") {
          scenario.spec.verify_footprints = false;
        } else {
          fail(line, "verify_footprints must be true/false, on/off or 1/0");
        }
      } else if (key == "metrics") {
        for (const auto& m : split(value, ',')) {
          try {
            scenario.metrics.push_back(parse_metric(m));
          } catch (const std::exception& e) {
            fail(line, e.what());
          }
        }
      } else {
        fail(line, "unknown key '" + key + "'");
      }
      continue;
    }

    // VM section.
    if (key == "vcpus") {
      current_vm->num_vcpus = parse_int(what, value);
    } else if (key == "load") {
      try {
        current_vm->load_distribution = stats::parse_distribution(value);
      } catch (const std::exception& e) {
        fail(line, e.what());
      }
    } else if (key == "inter_generation") {
      try {
        current_vm->inter_generation = stats::parse_distribution(value);
      } catch (const std::exception& e) {
        fail(line, e.what());
      }
    } else if (key == "sync_ratio") {
      current_vm->sync_ratio_k = parse_int(what, value);
    } else if (key == "sync_mode") {
      const std::string mode = lower(value);
      if (mode == "every_kth") {
        current_vm->sync_mode = vm::SyncMode::kEveryKth;
      } else if (mode == "random") {
        current_vm->sync_mode = vm::SyncMode::kRandom;
      } else {
        fail(line, "sync_mode must be 'every_kth' or 'random'");
      }
    } else if (key == "spinlock") {
      const auto parts = split(value, ' ');
      if (parts.size() != 2) {
        fail(line, "spinlock expects two numbers: lock_probability "
                   "critical_fraction");
      }
      current_vm->spinlock.enabled = true;
      current_vm->spinlock.lock_probability = parse_real(what, parts[0]);
      current_vm->spinlock.critical_fraction = parse_real(what, parts[1]);
    } else {
      fail(line, "unknown VM key '" + key + "'");
    }
  }

  if (scenario.spec.system.vms.empty()) {
    throw std::invalid_argument("scenario defines no [vm] sections");
  }
  if (!compare_baseline.empty()) {
    const auto it = std::find(scenario.compare_algorithms.begin(),
                              scenario.compare_algorithms.end(),
                              compare_baseline);
    if (it == scenario.compare_algorithms.end()) {
      throw std::invalid_argument("compare baseline '" + compare_baseline +
                                  "' is not in the compare algorithms list");
    }
    std::rotate(scenario.compare_algorithms.begin(), it, it + 1);
  }
  if (max_given && !min_given) lower_min_to_max(scenario.spec.policy);
  check_run_knobs(scenario.spec, sources);
  if (scenario.metrics.empty()) {
    scenario.metrics = {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
                        {exp::MetricKind::kPcpuUtilization, -1, ""},
                        {exp::MetricKind::kMeanVcpuUtilization, -1, ""}};
  }
  scenario.spec.scheduler = sched::make_factory(scenario.algorithm);
  scenario.spec.system.validate();
  return scenario;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("cannot open scenario file: " + path);
  }
  return parse_scenario(file);
}

}  // namespace vcpusim::cli
