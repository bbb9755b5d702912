#include "sched/relaxed_co.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sched/core/core.hpp"
#include "vm/types.hpp"

namespace vcpusim::sched {

namespace {

using vm::PCPU_external;
using vm::VCPU_host_external;

// Relaxed co-scheduling, following the ESX 3/4 design the paper cites:
//
//  * Each VCPU carries a cumulative *skew*: it grows by one per tick
//    while some other sibling made guest progress and it, though
//    runnable, did not, and shrinks by one while it progresses alone
//    (catching up). Idle VCPUs carry no skew: an idle guest is not
//    lagging. Skews are whole ticks, so they are ints; the thresholds
//    are doubles, compared with a VM's largest skew.
//  * A VM becomes *constrained* when its maximum skew exceeds
//    skew_threshold, and is released when it falls back to the resume
//    level (hysteresis).
//  * While constrained, VCPUs that are ahead (smaller skew) are co-stopped
//    and barred from individual restart as long as a more-skewed sibling
//    sits descheduled; the laggards run alone to catch up.
//  * Independent of the constraint, the scheduler co-starts a whole gang
//    (best effort) whenever a VM's turn comes and enough PCPUs are idle.
//
// Per tick the accounting is one walk over each VM's members; the
// passes after it cost O(VCPU x gang size) because RunSet membership is
// O(1).
class RelaxedCo final : public vm::Scheduler {
 public:
  explicit RelaxedCo(const RcsOptions& options)
      : threshold_(options.skew_threshold),
        resume_(options.resume_threshold >= 0 ? options.resume_threshold
                                              : options.skew_threshold / 2) {
    if (!(threshold_ > 0)) {
      throw std::invalid_argument("RCS: skew_threshold must be > 0");
    }
    if (resume_ > threshold_) {
      throw std::invalid_argument("RCS: resume_threshold > skew_threshold");
    }
  }

  void on_attach(const SystemTopology& topology) override {
    const auto n = static_cast<std::size_t>(topology.num_vcpus());
    gangs_.attach(topology);
    queue_.attach(n);
    running_.attach(n);
    idle_.attach(static_cast<std::size_t>(topology.num_pcpus));
    skew_.assign(n, 0);
    made_progress_.assign(n, 0);
    non_idle_.assign(n, 0);
    granted_.assign(n, 0);
    constrained_.assign(gangs_.num_vms(), 0);
    scratch_.clear();
    scratch_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) queue_.push_back(static_cast<int>(i));
  }

  bool schedule(std::span<VCPU_host_external> vcpus,
                std::span<PCPU_external> pcpus, long /*timestamp*/) override {
    const std::size_t vms = gangs_.num_vms();
    for (std::size_t vm = 0; vm < vms; ++vm) account(vm, vcpus);

    // Requeue framework-expired VCPUs in schedule-in order.
    running_.extract_if(
        [&vcpus](int v) {
          return vcpus[static_cast<std::size_t>(v)].assigned_pcpu < 0;
        },
        [this](int v) { queue_.push_back(v); });

    // Track idle PCPUs locally: co-stops below free PCPUs that the
    // snapshot still shows as assigned.
    idle_.reset(pcpus);

    // Co-stop: stop running VCPUs of constrained VMs that are ahead of a
    // starved sibling, freeing their PCPUs for the laggards. Nothing is
    // granted yet, so granted_ (cleared by account) reads all-zero.
    for (std::size_t vm = 0; vm < vms; ++vm) {
      if (!constrained_[vm]) continue;
      for (const int v : gangs_.members(vm)) {
        if (running_.contains(v) && lagging_sibling_waiting(v, vm)) {
          const auto i = static_cast<std::size_t>(v);
          vcpus[i].schedule_out = 1;
          running_.remove(v);
          idle_.push(vcpus[i].assigned_pcpu);
          queue_.push_back(v);
        }
      }
    }

    // Guest-aware idle yield: a running VCPU that has gone idle (READY
    // with no workload — typically its VM is blocked on a barrier)
    // relinquishes its PCPU while other VCPUs are waiting for one. ESX
    // deschedules idle VCPUs instead of letting them burn out their
    // timeslice; this is what costs blocked multi-VCPU VMs scheduling
    // share relative to never-idle single-VCPU VMs (paper Figure 8).
    if (!queue_.empty()) {
      running_.extract_if(
          [&vcpus](int v) {
            const auto& x = vcpus[static_cast<std::size_t>(v)];
            return x.status == static_cast<int>(vm::VcpuStatus::kReady) &&
                   x.remaining_load <= 0;
          },
          [this, &vcpus](int v) {
            auto& x = vcpus[static_cast<std::size_t>(v)];
            x.schedule_out = 1;
            idle_.push(x.assigned_pcpu);
            queue_.push_back(v);
          });
    }

    // Assignment pass over the run queue (rotation — waiters rejoin in
    // order):
    //  * best-effort co-start — when a VM's turn comes and every one of
    //    its descheduled VCPUs fits in the idle PCPUs, the whole gang
    //    starts together (the defining RCS behaviour);
    //  * otherwise single VCPUs start alone, except that a VCPU of a
    //    constrained VM may not start ahead of a more-skewed sibling
    //    left waiting.
    for (std::size_t k = queue_.size(); k > 0; --k) {
      if (!idle_.available()) {
        // No PCPU is left this tick, and none is freed in this pass: the
        // rest only rejoins in order, minus the co-started entries.
        queue_.rotate(k, [this](int v) {
          return granted_[static_cast<std::size_t>(v)] != 0;
        });
        break;
      }
      const int v = queue_.pop_front();
      const auto i = static_cast<std::size_t>(v);
      if (granted_[i]) continue;  // pulled in by an earlier co-start
      const auto vm = static_cast<std::size_t>(vcpus[i].vm_id);
      scratch_.clear();
      for (const int s : gangs_.members(vm)) {
        if (!running_.contains(s) && !granted_[static_cast<std::size_t>(s)]) {
          scratch_.push_back(s);
        }
      }
      if (scratch_.size() > 1 && scratch_.size() <= idle_.remaining()) {
        for (const int s : scratch_) {
          vcpus[static_cast<std::size_t>(s)].schedule_in = idle_.take();
          granted_[static_cast<std::size_t>(s)] = 1;
          running_.add(s);
        }
        continue;
      }
      if (constrained_[vm] && lagging_sibling_waiting(v, vm)) {
        queue_.push_back(v);
        continue;
      }
      vcpus[i].schedule_in = idle_.take();
      granted_[i] = 1;
      running_.add(v);
    }
    return true;
  }

  std::string name() const override { return "RCS"; }

 private:
  /// Account the tick just executed for one VM: each member's guest
  /// progress, its skew, and the VM's constraint hysteresis. Clears the
  /// members' grants for this tick's passes. The flags are combined with
  /// `&`, `|` and a multiply rather than branches: they depend on the
  /// guest's state and would mispredict.
  void account(std::size_t vm, std::span<const VCPU_host_external> vcpus) {
    const auto members = gangs_.members(vm);
    // Guest progress: the VCPU held a PCPU (it is still in running_) and
    // was processing work. A VCPU the framework just descheduled reads
    // INACTIVE in the snapshot; leftover remaining_load shows it was
    // busy through the tick.
    int progressed = 0;
    for (const int v : members) {
      const auto i = static_cast<std::size_t>(v);
      const auto& x = vcpus[i];
      const bool busy = x.status == static_cast<int>(vm::VcpuStatus::kBusy);
      const bool loaded = x.remaining_load > 0;
      const int made = static_cast<int>(
          running_.contains(v) & (busy | ((x.assigned_pcpu < 0) & loaded)));
      made_progress_[i] = made;
      non_idle_[i] = static_cast<int>(busy | loaded);
      progressed += made;
      granted_[i] = 0;
    }
    int hi = 0;
    for (const int v : members) {
      const auto i = static_cast<std::size_t>(v);
      const int made = made_progress_[i];
      const int step = static_cast<int>(progressed > made) - made;
      const int skew = std::max(0, skew_[i] + step) * non_idle_[i];
      skew_[i] = skew;
      hi = std::max(hi, skew);
    }
    const bool over = hi > threshold_;
    const bool held = constrained_[vm] != 0 && !(hi <= resume_);
    constrained_[vm] = static_cast<int>(over | held);
  }

  /// True if a non-idle sibling strictly more skewed than `v` is neither
  /// running nor granted a PCPU this tick.
  bool lagging_sibling_waiting(int v, std::size_t vm) const {
    const int own = skew_[static_cast<std::size_t>(v)];
    for (const int s : gangs_.members(vm)) {
      const auto j = static_cast<std::size_t>(s);
      if (skew_[j] <= own || running_.contains(s) || granted_[j]) continue;
      if (non_idle_[j]) return true;
    }
    return false;
  }

  double threshold_;
  double resume_;
  core::GangSet gangs_;
  core::RunQueue queue_;
  core::RunSet running_;
  core::IdlePcpus idle_;
  std::vector<int> skew_;           ///< per VCPU, in ticks of lag
  // Flags are ints, not chars: a char store may alias anything, so the
  // loops would reload the vectors' data pointers after each one.
  std::vector<int> made_progress_;  ///< per VCPU, this tick's account
  /// Per VCPU, this tick: the guest can still make progress on it
  /// (processing, or holding an unfinished workload). READY VCPUs with
  /// no load are idle.
  std::vector<int> non_idle_;
  std::vector<int> granted_;        ///< per VCPU, granted this tick
  std::vector<int> constrained_;    ///< per VM
  std::vector<int> scratch_;        ///< co-start gang scratch
};

}  // namespace

vm::SchedulerPtr make_relaxed_co(const RcsOptions& options) {
  return std::make_unique<RelaxedCo>(options);
}

}  // namespace vcpusim::sched
