// Visualize scheduling behaviour: run the same contended, barrier-heavy
// system under several algorithms and print an ASCII Gantt chart of
// every VCPU ('#' busy, '~' spinning, '.' ready-idle, ' ' inactive),
// plus a barrier-latency report.
//
//   $ ./timeline_demo [ticks] [algorithm...]
#include <cstdlib>
#include <iostream>

#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "trace/latency.hpp"
#include "trace/timeline.hpp"
#include "vm/system_builder.hpp"

int main(int argc, char** argv) {
  using namespace vcpusim;

  const int ticks = argc > 1 ? std::atoi(argv[1]) : 72;
  std::vector<std::string> algorithms;
  for (int i = 2; i < argc; ++i) algorithms.emplace_back(argv[i]);
  if (algorithms.empty()) algorithms = {"rrs", "scs", "rcs"};

  // A 2-VCPU VM and a 3-VCPU VM with lock-guarded jobs share 2 PCPUs;
  // barriers every 3 jobs.
  auto cfg = vm::make_symmetric_config(2, {2, 3}, 3);
  cfg.vms[1].spinlock.enabled = true;
  cfg.vms[1].spinlock.lock_probability = 0.7;
  cfg.vms[1].spinlock.critical_fraction = 0.5;

  for (const auto& algorithm : algorithms) {
    auto system = vm::build_system(cfg, sched::make_factory(algorithm)());
    trace::TimelineRecorder timeline(*system,
                                     static_cast<std::size_t>(ticks));
    trace::BarrierLatencyAnalyzer latency(*system);

    san::SimulatorConfig config;
    config.end_time = 400.0;
    config.seed = 7;
    san::Simulator sim(config);
    sim.set_model(*system->model);
    sim.set_trace(&timeline);
    sim.run();
    // A simulator feeds one trace sink, so replay the seeded trajectory
    // for the second recorder: system->reset() returns the scheduler to
    // its just-built state, reset(seed) the marking and the RNG stream.
    system->reset();
    sim.set_trace(&latency);
    sim.reset(config.seed);
    sim.advance_until(config.end_time);

    std::cout << "=== " << system->scheduler->name()
              << " (2 PCPUs; VM1 = 2 VCPUs, VM2 = 3 VCPUs + spinlock; "
                 "sync 1:3) ===\n"
              << timeline.render(static_cast<std::size_t>(ticks))
              << "barrier latency: " << latency.report() << "\n";
  }
  return 0;
}
