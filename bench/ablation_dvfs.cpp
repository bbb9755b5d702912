// Ablation: energy vs availability under DVFS across system sizes.
//
// Every run enables the default four-step frequency/voltage ladder, so
// the energy metric (integral of sum_p f*V^2, docs/MODEL.md) is
// comparable across algorithms: schedulers that never touch
// set_freq_level (rrs, credit, rebalance) burn peak power on every
// PCPU, while the DVFS families (dvfs-cc, dvfs-la) trade frequency for
// queue slack. Each size runs two over-commit shapes — packed (2:1,
// every PCPU saturated) and slack (1:1, barrier stalls leave idle
// windows) — because the interesting question is what the saved energy
// costs in availability on each side of the saturation knee.
//
// With an output path argument the rows are also written as JSON for
// the CI perf-smoke gate (BENCH_dvfs.json: dvfs-cc energy < credit
// energy at every size and shape, availability within tolerance).
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench_util.hpp"

namespace {

using namespace vcpusim;

struct Row {
  int vcpus = 0;
  std::string commit;
  std::string algorithm;
  stats::MetricEstimate energy;
  stats::MetricEstimate availability;
  stats::MetricEstimate pcpu_util;
};

struct Shape {
  const char* commit;  ///< VCPU:PCPU over-commit label
  int pcpus;
};

std::string json_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace vcpusim;

  bench::print_header(
      "Ablation — energy vs availability under DVFS",
      "2-VCPU VMs, sync 1:5, packed (2:1) and slack (1:1) over-commit, "
      "default four-step frequency ladder; energy = integral of sum_p "
      "f*V^2");

  const std::vector<std::string> algorithms = {"rrs", "credit", "dvfs-cc",
                                               "dvfs-la", "rebalance"};
  std::vector<Row> rows;

  exp::Table table({"vcpus", "commit", "algorithm", "energy", "availability",
                    "PCPU util"});
  for (const int vcpus : {4, 16, 64}) {
    const int vms = vcpus / 2;
    for (const Shape shape : {Shape{"2:1", vcpus / 2}, Shape{"1:1", vcpus}}) {
      auto system = vm::make_symmetric_config(
          shape.pcpus, std::vector<int>(static_cast<std::size_t>(vms), 2), 5);
      system.dvfs.enabled = true;  // default ladder, initial level = max
      for (const auto& algorithm : algorithms) {
        const auto result = bench::run_metrics(
            algorithm, system,
            {{exp::MetricKind::kEnergy, -1, "energy"},
             {exp::MetricKind::kMeanVcpuAvailability, -1, "avail"},
             {exp::MetricKind::kPcpuUtilization, -1, "pcpu"}});
        Row row;
        row.vcpus = vcpus;
        row.commit = shape.commit;
        row.algorithm = algorithm;
        row.energy = result.metric("energy");
        row.availability = result.metric("avail");
        row.pcpu_util = result.metric("pcpu");
        table.add_row({std::to_string(vcpus), row.commit, algorithm,
                       exp::format_fixed(row.energy.ci.mean, 1) + " ±" +
                           exp::format_fixed(row.energy.ci.half_width, 1),
                       exp::format_ci_percent(row.availability.ci),
                       exp::format_ci_percent(row.pcpu_util.ci)});
        rows.push_back(std::move(row));
      }
    }
  }
  std::cout << "\n" << table.render();

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::cerr << "ablation_dvfs: cannot open '" << argv[1] << "'\n";
      return 2;
    }
    out << "{\n  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      out << (i != 0 ? "," : "") << "\n    {\"vcpus\": " << row.vcpus
          << ", \"commit\": \"" << row.commit << "\", \"algorithm\": \""
          << row.algorithm << "\", \"energy\": "
          << json_number(row.energy.ci.mean) << ", \"energy_half_width\": "
          << json_number(row.energy.ci.half_width) << ", \"availability\": "
          << json_number(row.availability.ci.mean)
          << ", \"availability_half_width\": "
          << json_number(row.availability.ci.half_width)
          << ", \"pcpu_utilization\": "
          << json_number(row.pcpu_util.ci.mean) << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "\nwrote " << rows.size() << " rows to " << argv[1] << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  return vcpusim::bench::report_failure(e);
}
