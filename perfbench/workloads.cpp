#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "exp/compare.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"
#include "trace/sinks.hpp"
#include "vm/sched_interface.hpp"
#include "vm/system_builder.hpp"

namespace perfbench {

namespace {

/// The CLI's default metric set (vcpusim run / compare / trace).
std::vector<exp::MetricRequest> cli_metrics() {
  return {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
          {exp::MetricKind::kPcpuUtilization, -1, ""},
          {exp::MetricKind::kMeanVcpuUtilization, -1, ""}};
}

std::vector<int> two_vcpu_vms(int count) {
  return std::vector<int>(static_cast<std::size_t>(count), 2);
}

std::string join(const std::vector<int>& vms) {
  std::string out;
  for (const int v : vms) out += (out.empty() ? "" : "+") + std::to_string(v);
  return out;
}

/// Figures 8, 9 and 10 of the paper, cell for cell as bench/fig*.cpp run
/// them: 57 run_point calls on 4-to-6-VCPU systems.
std::vector<Point> paper_grid() {
  const std::vector<std::string> algorithms = {"rrs", "scs", "rcs"};
  const std::vector<std::vector<int>> sets = {{2, 2}, {2, 3}, {2, 4}};
  std::vector<Point> points;
  for (const auto& algorithm : algorithms) {
    for (int pcpus = 1; pcpus <= 4; ++pcpus) {
      Point p;
      p.label = "fig8/" + algorithm + "/p" + std::to_string(pcpus);
      p.system = vm::make_symmetric_config(pcpus, {2, 1, 1}, 5);
      p.algorithms = {algorithm};
      for (int v = 0; v < 4; ++v) {
        p.metrics.push_back({exp::MetricKind::kVcpuAvailability, v, ""});
      }
      points.push_back(std::move(p));
    }
  }
  for (const auto& vms : sets) {
    for (const auto& algorithm : algorithms) {
      Point p;
      p.label = "fig9/" + algorithm + "/" + join(vms);
      p.system = vm::make_symmetric_config(4, vms, 5);
      p.algorithms = {algorithm};
      p.metrics = {{exp::MetricKind::kPcpuUtilization, -1, ""}};
      // SCS fragments 4 PCPUs exactly as the gang sizes predict.
      if (algorithm == "scs" && vms == std::vector<int>{2, 3}) {
        p.exact = {{"pcpu_utilization", 0.625}};
      }
      if (algorithm == "scs" && vms == std::vector<int>{2, 4}) {
        p.exact = {{"pcpu_utilization", 0.75}};
      }
      points.push_back(std::move(p));
    }
  }
  for (const auto& vms : sets) {
    for (int k = 5; k >= 2; --k) {
      for (const auto& algorithm : algorithms) {
        Point p;
        p.label = "fig10/" + algorithm + "/" + join(vms) + "/k" +
                  std::to_string(k);
        p.system = vm::make_symmetric_config(4, vms, k);
        p.algorithms = {algorithm};
        p.metrics = {{exp::MetricKind::kMeanVcpuUtilization, -1, ""}};
        points.push_back(std::move(p));
      }
    }
  }
  for (auto& p : points) p.lint = true;
  return points;
}

}  // namespace

Workload make_workload(const std::string& name, bool toy) {
  Workload w;
  w.name = name;
  w.quality = exp::quality_preset(toy ? "fast" : "paper");
  if (name == "paper_grid") {
    w.points = paper_grid();
  } else if (name == "scale_256") {
    // 128 two-VCPU VMs on 128 PCPUs: 256 VCPUs, sync 1:5.
    const int vms = toy ? 4 : 128;
    for (const std::string algorithm : {"rcs", "credit"}) {
      Point p;
      p.label = "scale/" + algorithm;
      p.system = vm::make_symmetric_config(vms, two_vcpu_vms(vms), 5);
      p.algorithms = {algorithm};
      p.metrics = cli_metrics();
      w.points.push_back(std::move(p));
    }
  } else if (name == "crn_parallel") {
    // 64 VCPUs on 64 PCPUs (slack 1:1) with the DVFS ladder: the packed
    // shape is avoided because every algorithm ties there.
    const int vms = toy ? 4 : 32;
    Point p;
    p.label = "crn/dvfs";
    p.system = vm::make_symmetric_config(2 * vms, two_vcpu_vms(vms), 5);
    p.system.dvfs.enabled = true;
    p.algorithms = {"rrs", "credit", "dvfs-cc", "dvfs-la", "rebalance"};
    p.metrics = cli_metrics();
    p.metrics.push_back({exp::MetricKind::kEnergy, -1, ""});
    p.jobs = 4;
    w.points.push_back(std::move(p));
  } else if (name == "trace_jsonl") {
    // 16 VCPUs (8 two-VCPU VMs) on 8 PCPUs under credit, fully traced.
    const int vms = toy ? 2 : 8;
    Point p;
    p.label = "trace/credit";
    p.system = vm::make_symmetric_config(vms, two_vcpu_vms(vms), 5);
    p.algorithms = {"credit"};
    p.metrics = cli_metrics();
    p.jsonl = true;
    w.points.push_back(std::move(p));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

namespace {

/// True when the metric is a share of time in [0, 1].
bool is_fraction(const exp::MetricRequest& m) {
  return m.kind != exp::MetricKind::kEnergy;
}

/// The RunSpec every run of point `p` starts from (scheduler unset).
exp::RunSpec make_spec(const Workload& w, const Point& p, std::uint64_t seed) {
  exp::RunSpec spec;
  spec.system = p.system;
  spec.base_seed = seed;
  spec.lint = p.lint;
  spec.jobs = p.jobs;
  exp::apply(w.quality, spec);
  return spec;
}

/// Forwarding scheduler that records when each replication starts:
/// exp::run_point attaches or resets the scheduler at the start of every
/// replication. Single-job points only: `stamps` is not synchronized.
class StampingScheduler final : public vm::Scheduler {
 public:
  StampingScheduler(vm::SchedulerPtr inner, std::vector<double>& stamps)
      : inner_(std::move(inner)), stamps_(stamps) {}
  void on_attach(const vm::SystemTopology& topology) override {
    stamps_.push_back(now_s());
    inner_->on_attach(topology);
  }
  void on_reset(const vm::SystemTopology& topology) override {
    stamps_.push_back(now_s());
    inner_->on_reset(topology);
  }
  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    return inner_->schedule(vcpus, pcpus, timestamp);
  }
  std::string name() const override { return inner_->name(); }

 private:
  vm::SchedulerPtr inner_;
  std::vector<double>& stamps_;
};

/// Forwarding trace sink that records when the replay of each buffered
/// replication starts (its "replication" marker event).
class StampingSink final : public san::TraceSink {
 public:
  StampingSink(san::TraceSink& inner, std::vector<double>& stamps)
      : san::TraceSink(inner.categories()), inner_(inner), stamps_(stamps) {}
  void on_event(const san::TraceEvent& event) override {
    if (event.category == san::TraceCategory::kMarker) {
      stamps_.push_back(now_s());
    }
    inner_.on_event(event);
  }
  void finish() override { inner_.finish(); }

 private:
  san::TraceSink& inner_;
  std::vector<double>& stamps_;
};

PointResult run_single(const Workload& w, const Point& p, std::uint64_t seed,
                       std::vector<double>& stamps) {
  exp::RunSpec spec = make_spec(w, p, seed);
  spec.scheduler = [factory = sched::make_factory(p.algorithms.front()),
                    &stamps] {
    return std::make_unique<StampingScheduler>(factory(), stamps);
  };
  stats::MetricsRegistry registry;
  spec.metrics = &registry;
  CountingBuf bytes;
  std::ostream stream(&bytes);
  std::unique_ptr<trace::JsonlSink> jsonl;
  std::unique_ptr<StampingSink> sink;
  if (p.jsonl) {
    jsonl = std::make_unique<trace::JsonlSink>(stream);
    sink = std::make_unique<StampingSink>(*jsonl, stamps);
    spec.trace = sink.get();
  }
  const auto result = exp::run_point(spec, p.metrics);
  if (sink != nullptr) sink->finish();

  PointResult r;
  for (std::size_t m = 0; m < result.metrics.size(); ++m) {
    const auto& est = result.metrics[m];
    r.estimates.push_back({est.name, est.ci.mean, est.ci.half_width,
                           is_fraction(p.metrics[m])});
  }
  r.replications = result.replications;
  r.events = registry.counter_value("sim.events");
  r.trace_bytes = bytes.bytes();
  return r;
}

PointResult run_compare(const Workload& w, const Point& p, std::uint64_t seed) {
  const exp::RunSpec spec = make_spec(w, p, seed);
  const auto result = exp::compare_points(spec, p.algorithms, p.metrics);
  PointResult r;
  for (std::size_t a = 0; a < result.algorithms.size(); ++a) {
    for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
      const auto& ci = result.estimates[a][m];
      r.estimates.push_back({result.algorithms[a] + "/" +
                                 result.metric_names[m],
                             ci.mean, ci.half_width, is_fraction(p.metrics[m])});
      if (a == 0) continue;
      const auto& d = result.delta(a, m).paired;
      r.deltas.push_back({result.algorithms[a] + "-" + result.baseline + "/" +
                              result.metric_names[m],
                          d.mean, d.half_width, is_fraction(p.metrics[m])});
    }
  }
  r.replications = result.replications * result.algorithms.size();
  return r;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

CompareWork count_compare_work(const Workload& w, const Point& p,
                               std::uint64_t seed) {
  CompareWork work;
  std::size_t pinned = 0;
  for (const auto& algorithm : p.algorithms) {
    exp::RunSpec spec = make_spec(w, p, seed);
    spec.scheduler = sched::make_factory(algorithm);
    if (pinned != 0) {
      // compare_points pins every leg to the baseline's count.
      spec.policy.min_replications = pinned;
      spec.policy.max_replications = pinned;
    }
    stats::MetricsRegistry registry;
    spec.metrics = &registry;
    const auto result = exp::run_point(spec, p.metrics);
    if (pinned == 0) pinned = result.replications;
    work.events += registry.counter_value("sim.events");
    work.replications += result.replications;
    work.invoked += result.invoked;
    for (std::size_t m = 0; m < result.metrics.size(); ++m) {
      const auto& est = result.metrics[m];
      work.estimates.push_back({algorithm + "/" + est.name, est.ci.mean,
                                est.ci.half_width, is_fraction(p.metrics[m])});
    }
  }
  return work;
}

}  // namespace

std::vector<CompareWork> compare_work(const Workload& w, std::uint64_t seed) {
  std::vector<CompareWork> work(w.points.size());
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    if (w.points[i].algorithms.size() > 1) {
      work[i] = count_compare_work(w, w.points[i], seed);
    }
  }
  return work;
}

namespace {

/// Checks that hold for every seed. Appends one message per violation.
bool check_point(const Point& p, const PointResult& r,
                 std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  const auto fail = [&](const std::string& what) {
    problems.push_back(p.label + ": " + what);
  };
  for (const auto& e : r.estimates) {
    if (!std::isfinite(e.mean) || !std::isfinite(e.half_width) ||
        e.half_width < 0) {
      fail(e.name + " is not a finite estimate");
    } else if (e.fraction && (e.mean < 0.0 || e.mean > 1.0)) {
      fail(e.name + " = " + std::to_string(e.mean) + " is outside [0, 1]");
    }
  }
  for (const auto& [name, value] : p.exact) {
    const auto it = std::find_if(r.estimates.begin(), r.estimates.end(),
                                 [&](const Estimate& e) { return e.name == name; });
    if (it == r.estimates.end() || std::fabs(it->mean - value) > 1e-3) {
      fail(name + " misses its closed form " + std::to_string(value));
    }
  }
  // RRS hands out every PCPU whenever VCPUs outnumber PCPUs.
  if (p.system.total_vcpus() > p.system.num_pcpus) {
    for (const auto& e : r.estimates) {
      const bool rrs_util =
          e.name == "pcpu_utilization" ? p.algorithms.front() == "rrs"
                                       : e.name == "rrs/pcpu_utilization";
      if (rrs_util && std::fabs(e.mean - 1.0) > 1e-9) {
        fail("RRS PCPU utilization " + std::to_string(e.mean) +
             " on an over-committed system");
      }
    }
  }
  if (r.replications == 0 || r.events == 0) fail("no replications ran");
  if (p.jsonl && r.trace_bytes == 0) fail("the trace sink received nothing");
  return problems.size() == before;
}

}  // namespace

Pass run_pass(const Workload& w, std::uint64_t seed,
              const std::vector<CompareWork>& work,
              std::vector<std::string>& problems) {
  Pass pass;
  const double start = now_s();
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& p = w.points[i];
    std::vector<double> stamps = {now_s()};
    PointResult r;
    bool threw = false;
    try {
      r = p.algorithms.size() > 1 ? run_compare(w, p, seed)
                                  : run_single(w, p, seed, stamps);
    } catch (const std::exception& e) {
      problems.push_back(p.label + ": threw: " + e.what());
      threw = true;
    }
    stamps.push_back(now_s());
    pass.point_walls.push_back(stamps.back() - stamps.front());
    std::vector<double> segments;
    for (std::size_t k = 1; k < stamps.size(); ++k) {
      segments.push_back(stamps[k] - stamps[k - 1]);
    }
    pass.segments.push_back(std::move(segments));
    if (threw) {
      ++pass.failed;
      pass.results.push_back(std::move(r));
      continue;
    }
    bool ok = true;
    if (p.algorithms.size() > 1) {
      // The leg re-runs must reproduce the compare's estimates exactly.
      const auto& legs = work.at(i).estimates;
      ok = legs.size() == r.estimates.size();
      for (std::size_t k = 0; ok && k < legs.size(); ++k) {
        ok = legs[k].name == r.estimates[k].name &&
             same_bits(legs[k].mean, r.estimates[k].mean) &&
             same_bits(legs[k].half_width, r.estimates[k].half_width);
      }
      if (!ok) problems.push_back(p.label + ": legs disagree with the compare");
      r.events = work.at(i).events;
    }
    ok = check_point(p, r, problems) && ok;
    if (!ok) ++pass.failed;
    pass.results.push_back(std::move(r));
  }
  pass.wall = now_s() - start;
  return pass;
}

std::uint64_t digest(const std::vector<PointResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  for (const auto& r : results) {
    for (const auto* list : {&r.estimates, &r.deltas}) {
      for (const auto& e : *list) {
        mix_double(e.mean);
        mix_double(e.half_width);
      }
    }
    mix(r.replications);
    mix(r.events);
    mix(r.trace_bytes);
  }
  return h;
}

std::vector<double> setup_times(const Workload& w) {
  std::vector<double> times;
  for (const auto& p : w.points) {
    for (const auto& algorithm : p.algorithms) {
      auto scheduler = sched::make_factory(algorithm)();
      san::SimulatorConfig config;
      config.end_time = w.quality.end_time;
      const double t0 = now_s();
      auto system = vm::build_system(p.system, std::move(scheduler));
      const auto report = san::analyze::Analyzer().analyze(*system->model);
      san::Simulator sim(config);
      sim.set_model(*system->model);
      times.push_back(now_s() - t0);
      if (report.errors() > 0) {
        throw std::runtime_error(p.label + ": the analyzer reports errors");
      }
    }
  }
  return times;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (values.find(name) == values.end()) order.push_back(name);
  values[name] = {value, unit};
}

}  // namespace perfbench
