// The traced run: the benchmark re-drives each point through the layers'
// public functions (vm::build_system, the analyzer, Simulator::set_model /
// reset / advance_until, VirtualSystem::reset, stats::run_replications)
// and records a span around every call, plus forwarding decorators around
// the scheduler and the trace sink. Spans stay in memory; per-layer self
// times (span duration minus its children) add up to the traced wall
// time. The re-drive must reproduce the untraced exp::run_point results
// bit for bit, which is checked.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "bench.hpp"
#include "exp/compare.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/experiment.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/replication.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace perfbench {
namespace {

/// Span names; the layer of a span is the part before its last dot
/// ("san.analyze.lint" -> "san.analyze"), except the root.
constexpr const char* kRoot = "workload";
const std::vector<std::string> kLayers = {"vm",  "san.analyze", "san", "sched",
                                          "exp", "stats",       "trace"};
const std::vector<std::string> kAlgorithms = {
    "rrs", "scs", "rcs", "credit", "dvfs-cc", "dvfs-la", "rebalance"};

std::string layer_of(const std::string& name) {
  const auto dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Spans in memory. A span covers one call; an aggregate span sums many
/// short calls made while one span was innermost (scheduler decisions,
/// trace events), so a per-tick call costs two clock reads, not a record.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start = 0;     ///< host ns; an aggregate's flush time
    std::int64_t end = 0;
    std::int64_t ns = 0;        ///< duration (summed for aggregates)
    std::int64_t child_ns = 0;  ///< part of it covered by child spans
    std::uint64_t calls = 1;
    int parent = -1;
    int point = -1;  ///< shared by every span of one point
  };
  enum Agg { kDecide, kSchedReset, kBuffer, kSink, kAggCount };

  int begin(const char* name) {
    flush();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, 0, 0, 1, top(), point_});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    const std::int64_t t = now_ns();
    flush();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = t;
    s.ns = t - s.start;
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.ns;
  }
  void add(Agg agg, std::int64_t ns) {
    pending_[agg].ns += ns;
    ++pending_[agg].calls;
  }
  void set_point(int point) { point_ = point; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int top() const { return stack_.empty() ? -1 : stack_.back(); }
  /// Attribute pending aggregate calls to the innermost open span.
  void flush() {
    static constexpr const char* kNames[kAggCount] = {
        "sched.decide", "sched.reset", "trace.buffer", "trace.sink"};
    for (int a = 0; a < kAggCount; ++a) {
      Pending& p = pending_[a];
      if (p.calls == 0) continue;
      const std::int64_t t = now_ns();
      spans_.push_back(Span{kNames[a], t, t, p.ns, 0, p.calls, top(), point_});
      if (top() >= 0) spans_[static_cast<std::size_t>(top())].child_ns += p.ns;
      p = Pending{};
    }
  }
  struct Pending {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Pending pending_[kAggCount];
  int point_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

struct Totals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Forwarding scheduler that times every decision and reset.
class TimedScheduler final : public vm::Scheduler {
 public:
  TimedScheduler(vm::SchedulerPtr inner, Tracer& tracer, Totals& decide)
      : inner_(std::move(inner)), tracer_(tracer), decide_(decide) {}
  void on_attach(const vm::SystemTopology& topology) override {
    inner_->on_attach(topology);
  }
  void on_reset(const vm::SystemTopology& topology) override {
    const std::int64_t t0 = now_ns();
    inner_->on_reset(topology);
    tracer_.add(Tracer::kSchedReset, now_ns() - t0);
  }
  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->schedule(vcpus, pcpus, timestamp);
    const std::int64_t ns = now_ns() - t0;
    tracer_.add(Tracer::kDecide, ns);
    decide_.ns += ns;
    ++decide_.calls;
    return ok;
  }
  std::string name() const override { return inner_->name(); }

 private:
  vm::SchedulerPtr inner_;
  Tracer& tracer_;
  Totals& decide_;
};

/// Forwarding trace sink that times every event.
class TimedSink final : public san::TraceSink {
 public:
  TimedSink(san::TraceSink& inner, Tracer& tracer, Tracer::Agg agg)
      : san::TraceSink(inner.categories()),
        inner_(inner),
        tracer_(tracer),
        agg_(agg) {}
  void on_event(const san::TraceEvent& event) override {
    const std::int64_t t0 = now_ns();
    inner_.on_event(event);
    tracer_.add(agg_, now_ns() - t0);
  }
  void finish() override { inner_.finish(); }

 private:
  san::TraceSink& inner_;
  Tracer& tracer_;
  Tracer::Agg agg_;
};

/// Reward binding of one metric, as exp::run_point binds it.
struct Bound {
  std::vector<std::unique_ptr<san::RewardVariable>> rewards;
  std::function<double(san::Time)> finalize;
};

Bound bind(const vm::VirtualSystem& system, const exp::MetricRequest& m,
           san::Time warmup) {
  Bound b;
  const auto single = [&b](std::unique_ptr<san::RewardVariable> reward) {
    san::RewardVariable* raw = reward.get();
    b.rewards.push_back(std::move(reward));
    b.finalize = [raw](san::Time end) { return raw->time_averaged(end); };
  };
  switch (m.kind) {
    case exp::MetricKind::kVcpuAvailability:
      single(vm::vcpu_availability(system, m.index, warmup));
      break;
    case exp::MetricKind::kMeanVcpuAvailability:
      single(vm::mean_vcpu_availability(system, warmup));
      break;
    case exp::MetricKind::kPcpuUtilization:
      single(vm::pcpu_utilization(system, warmup));
      break;
    case exp::MetricKind::kMeanVcpuUtilization: {
      b.rewards.push_back(vm::mean_vcpu_utilization(system, warmup));
      b.rewards.push_back(vm::mean_vcpu_availability(system, warmup));
      san::RewardVariable* num = b.rewards[0].get();
      san::RewardVariable* den = b.rewards[1].get();
      b.finalize = [num, den](san::Time) {
        const double d = den->accumulated();
        return d > 0 ? num->accumulated() / d : 0.0;
      };
      break;
    }
    case exp::MetricKind::kEnergy: {
      b.rewards.push_back(vm::energy_rate(system, warmup));
      san::RewardVariable* raw = b.rewards[0].get();
      b.finalize = [raw](san::Time) { return raw->accumulated(); };
      break;
    }
    default:
      throw std::invalid_argument("traced run: unsupported metric kind");
  }
  return b;
}

/// Deterministic work counters of the traced passes.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t enabling_evals = 0;
  std::uint64_t aborted = 0;
  std::uint64_t trace_bytes = 0;
};

/// One algorithm of one point, re-driven through the layers with a span
/// around each call. `pinned` > 0 forces the replication count (the
/// non-baseline legs of a compare).
stats::ReplicationResult traced_leg(Tracer& t, const Workload& w,
                                    const Point& p, const std::string& algorithm,
                                    std::uint64_t seed, std::size_t pinned,
                                    std::map<std::string, Totals>& decide,
                                    Counters& counters) {
  Scope point(t, "exp.point");
  auto scheduler = std::make_unique<TimedScheduler>(
      sched::make_factory(algorithm)(), t, decide[algorithm]);
  std::unique_ptr<vm::VirtualSystem> system;
  {
    Scope s(t, "vm.build");
    system = vm::build_system(p.system, std::move(scheduler));
  }
  if (p.lint) {
    Scope s(t, "san.analyze.lint");
    san::analyze::Analyzer().check_or_throw(*system->model);
  }
  san::SimulatorConfig config;
  config.end_time = w.quality.end_time;
  config.seed = san::replication_seed(seed, 0);
  san::Simulator sim(config);
  {
    Scope s(t, "san.compile");
    sim.set_model(*system->model);
  }
  std::vector<Bound> bound;
  std::vector<std::string> names;
  for (const auto& m : p.metrics) {
    bound.push_back(bind(*system, m, w.quality.warmup));
    for (auto& r : bound.back().rewards) sim.add_reward(*r);
    names.push_back(m.label.empty() ? exp::default_label(m) : m.label);
  }
  stats::ReplicationPolicy policy = w.quality.policy;
  if (pinned != 0) {
    policy.min_replications = pinned;
    policy.max_replications = pinned;
  }

  // As exp::run_point does with a trace sink: each replication records
  // into a private buffer, replayed in index order after the run.
  CountingBuf bytes;
  std::ostream stream(&bytes);
  std::unique_ptr<trace::JsonlSink> jsonl;
  if (p.jsonl) jsonl = std::make_unique<trace::JsonlSink>(stream);
  std::vector<std::unique_ptr<trace::RingBufferSink>> buffers;

  const auto replication = [&](const stats::ReplicationTask& task) {
    Scope rep(t, "exp.replication");
    if (task.rep > 0) {
      Scope s(t, "vm.reset");
      system->reset();
    }
    std::unique_ptr<TimedSink> buffer;
    if (jsonl != nullptr) {
      buffers.push_back(
          std::make_unique<trace::RingBufferSink>(0, jsonl->categories()));
      buffer = std::make_unique<TimedSink>(*buffers.back(), t, Tracer::kBuffer);
      sim.set_trace(buffer.get());
    }
    {
      Scope s(t, "san.reset");
      sim.reset(san::replication_seed(seed, task.stream.stream),
                task.stream.antithetic);
    }
    san::RunStats stats;
    {
      Scope s(t, "san.advance");
      stats = sim.advance_until(w.quality.end_time);
    }
    sim.set_trace(nullptr);
    counters.events += stats.events;
    counters.enabling_evals += stats.enabling_evals;
    counters.aborted += stats.aborted_events;
    std::vector<double> obs;
    for (auto& b : bound) obs.push_back(b.finalize(w.quality.end_time));
    return obs;
  };

  const auto controller =
      stats::make_controller(stats::ControllerKind::kFixed, policy);
  stats::ReplicationResult result;
  {
    Scope s(t, "stats.replications");
    result = stats::run_replications(names, replication, *controller, 1);
  }
  if (jsonl != nullptr) {
    Scope s(t, "trace.replay");
    TimedSink sink(*jsonl, t, Tracer::kSink);
    for (std::size_t rep = 0; rep < result.replications; ++rep) {
      if (sink.wants(san::TraceCategory::kMarker)) {
        sink.on_event(san::TraceEvent{san::TraceCategory::kMarker, 0.0, 0,
                                      "replication",
                                      static_cast<std::int64_t>(rep), 0, {}});
      }
      buffers.at(rep)->replay_into(sink);
    }
    jsonl->finish();
    counters.trace_bytes += bytes.bytes();
  }
  {
    Scope s(t, "vm.teardown");
    buffers.clear();
    system.reset();
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Write the spans as JSON lines; false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<std::pair<const char*, const Tracer*>>& phases) {
  std::ofstream file(path);
  for (const auto& [phase, tracer] : phases) {
    for (const auto& s : tracer->spans()) {
      file << "{\"phase\": \"" << phase << "\", \"name\": \"" << s.name
           << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
           << ", \"dur_ns\": " << s.ns << ", \"self_ns\": " << s.ns - s.child_ns
           << ", \"calls\": " << s.calls << ", \"parent\": " << s.parent
           << ", \"point\": " << s.point << "}\n";
    }
  }
  return static_cast<bool>(file);
}

/// Compare the traced legs of a point with its untraced result.
bool agrees(const std::vector<stats::ReplicationResult>& legs,
            const PointResult& untraced) {
  std::size_t k = 0;
  std::size_t replications = 0;
  for (std::size_t a = 0; a < legs.size(); ++a) {
    replications += legs[a].replications;
    for (const auto& m : legs[a].metrics) {
      if (k >= untraced.estimates.size()) return false;
      const auto& e = untraced.estimates[k++];
      if (!same_bits(m.ci.mean, e.mean) ||
          !same_bits(m.ci.half_width, e.half_width)) {
        return false;
      }
    }
  }
  return k == untraced.estimates.size() &&
         replications == untraced.replications;
}

/// The highest percentile with at least 10 values beyond it; with fewer
/// than 11 values, the maximum.
double tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

}  // namespace

Outcome traced_run(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& spans_path) {
  Outcome out;

  // Set-up once under spans: the layer costs behind setup_s.
  Tracer setup;
  std::size_t trampoline_gates = 0;
  for (const auto& p : w.points) {
    for (const auto& algorithm : p.algorithms) {
      auto scheduler = sched::make_factory(algorithm)();
      std::unique_ptr<vm::VirtualSystem> system;
      {
        Scope s(setup, "vm.build");
        system = vm::build_system(p.system, std::move(scheduler));
      }
      {
        Scope s(setup, "san.analyze.lint");
        san::analyze::Analyzer().analyze(*system->model);
      }
      san::SimulatorConfig config;
      config.end_time = w.quality.end_time;
      san::Simulator sim(config);
      {
        Scope s(setup, "san.compile");
        sim.set_model(*system->model);
      }
      trampoline_gates =
          std::max(trampoline_gates, sim.kernel_stats().trampoline_gates);
    }
  }

  const auto work = compare_work(w, seed);
  Tracer t;
  std::map<std::string, Totals> decide;
  Counters counters;
  std::vector<Pass> passes;
  std::vector<double> untraced_walls;  // the traced pass's untraced twin
  std::vector<double> traced_walls;
  std::vector<double> sinkless_walls;  // jsonl points without their sink
  std::vector<double> sink_walls;
  std::vector<double> efficiency;
  const double start = now_s();
  do {
    passes.push_back(run_pass(w, seed, work, out.problems));
    const Pass& pass = passes.back();
    if (passes.size() == 1) out.digest = digest(pass.results);
    account(pass, out.digest, out);
    double untraced = pass.wall;

    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const Point& p = w.points[i];
      if (p.jsonl) {
        Point bare = p;
        bare.jsonl = false;
        Pass alone = run_pass(Workload{w.name, w.quality, {bare}}, seed, work,
                              out.problems);
        account(alone, digest(alone.results), out);
        sinkless_walls.push_back(alone.wall);
        sink_walls.push_back(pass.point_walls[i]);
      }
      if (p.algorithms.size() > 1) {
        // The same compare at one job: bit-identical results, and the
        // serial time the parallel efficiency is measured against.
        Point serial = p;
        serial.jobs = 1;
        const Workload one{w.name, w.quality, {serial}};
        Pass alone = run_pass(one, seed, {work[i]}, out.problems);
        account(alone, digest({pass.results[i]}), out);
        efficiency.push_back(alone.wall /
                             (static_cast<double>(p.jobs) * pass.point_walls[i]));
        // The traced legs run at one job too: that is their twin.
        untraced += alone.wall - pass.point_walls[i];
      }
    }

    const std::int64_t t0 = now_ns();
    const int root = t.begin(kRoot);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const Point& p = w.points[i];
      ++out.attempted;
      try {
        std::vector<stats::ReplicationResult> legs;
        const std::uint64_t events_before = counters.events;
        const std::uint64_t bytes_before = counters.trace_bytes;
        for (const auto& algorithm : p.algorithms) {
          t.set_point(static_cast<int>(i));
          legs.push_back(traced_leg(t, w, p, algorithm, seed,
                                    legs.empty() ? 0 : legs.front().replications,
                                    decide, counters));
        }
        const PointResult& twin = pass.results[i];
        if (!agrees(legs, twin) ||
            counters.events - events_before != twin.events ||
            counters.trace_bytes - bytes_before != twin.trace_bytes) {
          out.problems.push_back(p.label +
                                 ": the traced re-run disagrees with run_point");
          ++out.failed;
        }
      } catch (const std::exception& e) {
        out.problems.push_back(p.label + ": traced re-run threw: " + e.what());
        ++out.failed;
      }
    }
    t.end(root);
    traced_walls.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    untraced_walls.push_back(untraced);
  } while (now_s() - start < seconds);

  // Per-name totals and the exclusive per-layer breakdown.
  std::map<std::string, Totals> by_name;
  std::map<std::string, std::int64_t> self;
  std::int64_t wall_ns = 0;
  for (const auto& s : t.spans()) {
    by_name[s.name].ns += s.ns;
    by_name[s.name].calls += s.calls;
    const std::int64_t own = s.ns - s.child_ns;
    if (s.parent < 0) {
      wall_ns += s.ns;
      self["unattributed"] += own;
    } else {
      self[layer_of(s.name)] += own;
    }
  }
  std::int64_t summed = self["unattributed"];
  for (const auto& layer : kLayers) summed += self[layer];
  if (summed != wall_ns || self.size() > kLayers.size() + 1) {
    out.problems.push_back("layer self times do not add up to the traced wall");
    ++out.failed;
  }
  const double unattributed_share =
      wall_ns > 0 ? static_cast<double>(self["unattributed"]) /
                        static_cast<double>(wall_ns)
                  : 0.0;
  if ((w.name == "paper_grid" || w.name == "scale_256") &&
      unattributed_share > 0.05) {
    out.problems.push_back("unattributed share above 5%");
    ++out.failed;
  }

  std::map<std::string, Totals> setup_by_name;
  for (const auto& s : setup.spans()) {
    setup_by_name[s.name].ns += s.ns;
    setup_by_name[s.name].calls += s.calls;
  }
  const auto mean = [](const Totals& x, double scale) {
    return x.calls > 0 ? static_cast<double>(x.ns) * scale /
                             static_cast<double>(x.calls)
                       : 0.0;
  };
  const double events = static_cast<double>(std::max<std::uint64_t>(
      counters.events, 1));

  Metrics& m = out.metrics;
  m.set("vm.build_ms", mean(setup_by_name["vm.build"], 1e-6), "ms");
  m.set("san.analyze.lint_ms", mean(setup_by_name["san.analyze.lint"], 1e-6),
        "ms");
  m.set("san.compile_ms", mean(setup_by_name["san.compile"], 1e-6), "ms");
  m.set("san.reset_us", mean(by_name["san.reset"], 1e-3), "us");
  const Totals& advance = by_name["san.advance"];
  std::int64_t advance_children = 0;
  for (const auto& s : t.spans()) {
    if (std::strcmp(s.name, "san.advance") == 0) advance_children += s.child_ns;
  }
  m.set("san.self_ns_per_event",
        static_cast<double>(advance.ns - advance_children) / events, "ns");
  m.set("san.enabling_evals_per_event",
        static_cast<double>(counters.enabling_evals) / events, "count");
  m.set("san.aborted_per_event", static_cast<double>(counters.aborted) / events,
        "count");
  m.set("san.trampoline_gates", static_cast<double>(trampoline_gates), "count");
  m.set("sched.decide_ns_per_tick", mean(by_name["sched.decide"], 1.0), "ns");
  for (const auto& algorithm : kAlgorithms) {
    m.set("sched.decide_ns_per_tick." + algorithm, mean(decide[algorithm], 1.0),
          "ns");
  }
  m.set("sched.reset_us", mean(by_name["sched.reset"], 1e-3), "us");

  // Point times from the untraced passes: per point, the median pass.
  std::vector<double> point_ms;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    std::vector<double> walls;
    for (const auto& pass : passes) walls.push_back(pass.point_walls[i] * 1e3);
    point_ms.push_back(median(walls));
  }
  m.set("exp.point_ms.p50", median(point_ms), "ms");
  m.set("exp.point_ms.tail", tail_of(point_ms), "ms");
  std::size_t replications = 0;
  for (const auto& r : passes.front().results) replications += r.replications;
  m.set("exp.replications", static_cast<double>(replications), "count");

  // Largest 95% half-width among the fraction-valued estimates and paired
  // deltas: deterministic per seed, it moves if the stopping rule loosens.
  double hw_max = 0.0;
  for (const auto& r : passes.front().results) {
    for (const auto* list : {&r.estimates, &r.deltas}) {
      for (const auto& e : *list) {
        if (e.fraction) hw_max = std::max(hw_max, e.half_width);
      }
    }
  }
  m.set("stats.ci_half_width_max", hw_max, "fraction");

  double waste = 0.0;
  for (const auto& wk : work) {
    if (wk.invoked > 0) {
      waste = static_cast<double>(wk.invoked - wk.replications) /
              static_cast<double>(wk.invoked);
    }
  }
  m.set("stats.parallel_efficiency", median(efficiency), "ratio");
  m.set("stats.speculative_waste_ratio", waste, "ratio");

  const Totals& sink = by_name["trace.sink"];
  m.set("trace.serialize_ns_per_event", mean(sink, 1.0), "ns");
  m.set("trace.bytes_per_event",
        sink.calls > 0 ? static_cast<double>(counters.trace_bytes) /
                             static_cast<double>(sink.calls)
                       : 0.0,
        "B");
  m.set("trace.overhead_x",
        sinkless_walls.empty() ? 0.0 : median(sink_walls) / median(sinkless_walls),
        "ratio");

  m.set("unattributed_share", unattributed_share, "ratio");
  for (const auto& layer : kLayers) {
    m.set("self_s." + layer, static_cast<double>(self[layer]) * 1e-9, "s");
  }
  m.set("unattributed_s", static_cast<double>(self["unattributed"]) * 1e-9, "s");
  m.set("traced_wall_s", static_cast<double>(wall_ns) * 1e-9, "s");
  m.set("spans.overhead_x", median(traced_walls) / median(untraced_walls),
        "ratio");
  if (!spans_path.empty() &&
      !write_spans(spans_path, {{"setup", &setup}, {"workload", &t}})) {
    out.problems.push_back("cannot write spans to " + spans_path);
    ++out.failed;
  }
  return out;
}

}  // namespace perfbench
