#include "vm/virtual_machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vm/priorities.hpp"

namespace vcpusim::vm {

namespace {

/// Numerical tolerance for "remaining load exhausted" with real-valued
/// load durations (integer loads hit 0 exactly).
constexpr double kLoadEpsilon = 1e-9;

// Variant indices the VM gates report (GateContext::report_variant):
// positions in each gate's declared EffectVariant list.

/// Processing_load. The spinlock variants exist only in a spinlock build.
enum TickVariant : std::uint32_t {
  kTickProgress,
  kTickComplete,
  kTickCompleteUnblock,
  kTickSpin,
  kTickAcquire,
  kTickCompleteRelease,
  kTickCompleteReleaseUnblock,
};

/// Apply_Schedule_In.
enum ScheduleInVariant : std::uint32_t {
  kInResumeBusy,
  kInResumeReady,
  kInNoop,
};

/// Apply_Schedule_Out.
enum ScheduleOutVariant : std::uint32_t {
  kOutParkReady,
  kOutParkBusy,
  kOutNoop,
};

}  // namespace

void build_workload_generator(san::SanModel& submodel, const VmConfig& cfg,
                              VmPlaces& places) {
  submodel.join_place("Blocked", places.blocked);
  submodel.join_place("Num_VCPUs_ready", places.num_vcpus_ready);
  submodel.join_place("Workload", places.workload);
  submodel.join_place("Outstanding_Jobs", places.outstanding_jobs);

  // Countdown to the next synchronization point (1:k ratio, III.B.3).
  // Only the live every-kth mode keeps a countdown; creating the place
  // unconditionally would leave untouched state the analyzer flags.
  const int sync_k = cfg.sync_ratio_k;
  std::shared_ptr<san::TokenPlace> jobs_until_sync;
  if (cfg.workload_trace.empty() && sync_k > 0 &&
      cfg.sync_mode == SyncMode::kEveryKth) {
    jobs_until_sync =
        submodel.add_place<std::int64_t>("Jobs_Until_Sync", sync_k);
  }

  auto& generate = submodel.add_timed_activity(
      "Generate", cfg.inter_generation, kGeneratePriority);

  // Figure 5 enabling conditions: at least one READY VCPU and the VM not
  // blocked by a pending barrier; the Workload place holds one workload.
  auto blocked = places.blocked;
  auto num_ready = places.num_vcpus_ready;
  auto workload = places.workload;
  generate.add_input_gate(san::InputGate{
      "WG_Enable",
      [blocked, num_ready, workload]() {
        return blocked->get() == 0 && num_ready->get() > 0 &&
               !workload->get().has_value();
      },
      nullptr,
      san::access({blocked, num_ready, workload}),
      {san::token_zero(blocked), san::token_positive(num_ready),
       san::marking_probe(workload, [](const std::optional<Workload>& w) {
         return !w.has_value();
       })}});

  auto outstanding = places.outstanding_jobs;
  auto load_dist = cfg.load_distribution;
  const SyncMode sync_mode = cfg.sync_mode;
  const SpinlockConfig spinlock = cfg.spinlock;
  if (cfg.workload_trace.empty()) {
    std::vector<san::PlacePtr> reads;
    std::vector<san::PlacePtr> writes = {workload, outstanding};
    if (sync_k > 0) writes.push_back(blocked);
    if (jobs_until_sync) {
      reads.push_back(jobs_until_sync);
      writes.push_back(jobs_until_sync);
    }
    // Token-delta declarations for the invariant engine: a firing either
    // emits a plain job or a synchronization point (which arms the
    // barrier); the every-kth countdown decrements, or rewinds by k-1 on
    // the sync firing.
    san::EffectVariant normal{"normal",
                              {{workload, "present", +1},
                               {workload, "absent", -1},
                               {outstanding, "", +1}}};
    san::EffectVariant sync{"sync",
                            {{workload, "present", +1},
                             {workload, "absent", -1},
                             {outstanding, "", +1},
                             {blocked, "set", +1},
                             {blocked, "clear", -1}}};
    if (jobs_until_sync) {
      normal.deltas.push_back({jobs_until_sync, "", -1});
      sync.deltas.push_back({jobs_until_sync, "", sync_k - 1});
    }
    std::vector<san::EffectVariant> wl_variants = {std::move(normal)};
    if (sync_k > 0) wl_variants.push_back(std::move(sync));
    generate.add_output_gate(san::OutputGate{
        "WL_Output",
        [blocked, workload, outstanding, jobs_until_sync, load_dist, sync_k,
         sync_mode, spinlock](san::GateContext& ctx) {
          Workload w;
          w.load = std::max(0.0, load_dist->sample(ctx.rng));
          if (spinlock.enabled &&
              ctx.rng.uniform01() < spinlock.lock_probability) {
            w.critical = w.load * spinlock.critical_fraction;
          }
          if (sync_k > 0) {
            if (sync_mode == SyncMode::kEveryKth) {
              auto& countdown = jobs_until_sync->mut();
              if (--countdown <= 0) {
                w.sync_point = true;
                countdown = sync_k;
              }
            } else {
              w.sync_point = ctx.rng.uniform01() < 1.0 / sync_k;
            }
          }
          if (w.sync_point) blocked->set(1);
          workload->set(w);
          outstanding->mut() += 1;
        },
        san::with_effects(
            san::access(std::move(reads), std::move(writes), {outstanding}),
            std::move(wl_variants))});
  } else {
    // Trace replay: deterministic job sequence, cycled. The cursor is a
    // place so each replication restarts the trace from the beginning.
    auto trace = std::make_shared<std::vector<Workload>>(cfg.workload_trace);
    auto cursor = submodel.add_place<std::int64_t>("Trace_Cursor", 0);
    generate.add_output_gate(san::OutputGate{
        "WL_Output",
        [blocked, workload, outstanding, trace, cursor](san::GateContext&) {
          const auto index = static_cast<std::size_t>(
              cursor->get() % static_cast<std::int64_t>(trace->size()));
          cursor->mut() += 1;
          const Workload w = (*trace)[index];
          if (w.sync_point) blocked->set(1);
          workload->set(w);
          outstanding->mut() += 1;
        },
        san::with_effects(
            san::access({cursor}, {cursor, blocked, workload, outstanding},
                        {outstanding}),
            {{"normal",
              {{cursor, "", +1},
               {workload, "present", +1},
               {workload, "absent", -1},
               {outstanding, "", +1}}},
             {"sync",
              {{cursor, "", +1},
               {workload, "present", +1},
               {workload, "absent", -1},
               {outstanding, "", +1},
               {blocked, "set", +1},
               {blocked, "clear", -1}}}})});
  }
}

void build_job_scheduler(san::SanModel& submodel, const VmConfig& cfg,
                         VmPlaces& places) {
  if (places.slots.size() != static_cast<std::size_t>(cfg.num_vcpus)) {
    throw std::invalid_argument("build_job_scheduler: slot count mismatch");
  }
  submodel.join_place("Blocked", places.blocked);
  submodel.join_place("Num_VCPUs_ready", places.num_vcpus_ready);
  submodel.join_place("Workload", places.workload);
  for (std::size_t k = 0; k < places.slots.size(); ++k) {
    submodel.join_place("VCPU" + std::to_string(k + 1) + "_slot",
                        places.slots[k]);
  }

  // Round-robin dispatch pointer: "one workload, distributed evenly on
  // its VCPUs" (III.A).
  auto next_vcpu = submodel.add_place<std::int64_t>("Next_VCPU", 0);

  auto& scheduling = submodel.add_instantaneous_activity(
      "Scheduling", kJobSchedulingPriority);

  auto workload = places.workload;
  auto num_ready = places.num_vcpus_ready;
  scheduling.add_input_gate(san::InputGate{
      "Scheduling",
      [workload, num_ready]() {
        return workload->get().has_value() && num_ready->get() > 0;
      },
      nullptr,
      san::access({workload, num_ready}),
      {san::marking_probe(workload,
                          [](const std::optional<Workload>& w) {
                            return w.has_value();
                          }),
       san::token_positive(num_ready)}});

  std::vector<san::PlacePtr> dispatch_reads = {workload, next_vcpu};
  std::vector<san::PlacePtr> dispatch_writes = {workload, num_ready,
                                                next_vcpu};
  for (const auto& slot : places.slots) {
    dispatch_reads.push_back(slot);
    dispatch_writes.push_back(slot);
  }
  auto slots = places.slots;  // copy of shared_ptr vector
  // One firing variant per dispatch target: slot k goes READY -> BUSY and
  // the workload is consumed; the gate reports variant k, so only slot
  // k's dependents are re-evaluated. The round-robin pointer's next
  // value is data-dependent, so Next_VCPU is declared opaque (and named
  // as a written place of every variant).
  std::vector<san::EffectVariant> dispatch_variants;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    dispatch_variants.push_back(
        {"dispatch-vcpu" + std::to_string(k + 1),
         {{slots[k], "ready", -1},
          {slots[k], "busy", +1},
          {num_ready, "", -1},
          {workload, "present", -1},
          {workload, "absent", +1}},
         {next_vcpu}});
  }
  scheduling.add_output_gate(san::OutputGate{
      "JS_Dispatch",
      [workload, num_ready, slots, next_vcpu](san::GateContext& ctx) {
        const Workload w = *workload->get();
        const auto n = static_cast<std::int64_t>(slots.size());
        const std::int64_t start = next_vcpu->get();
        for (std::int64_t i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>((start + i) % n);
          // Probe read-only: only the dispatched slot is written.
          if (slots[k]->get().status == VcpuStatus::kReady) {
            auto& slot = slots[k]->mut();
            slot.remaining_load = w.load;
            slot.sync_point = w.sync_point;
            slot.critical_remaining = w.critical;
            slot.holds_lock = false;
            slot.spinning = false;
            slot.status = VcpuStatus::kBusy;
            num_ready->mut() -= 1;
            workload->set(std::nullopt);
            next_vcpu->set(static_cast<std::int64_t>(k + 1) % n);
            ctx.report_variant(static_cast<std::uint32_t>(k));
            return;
          }
        }
        // Enabled implies a READY VCPU exists; reaching here means the
        // marking and Num_VCPUs_ready disagree.
        throw std::logic_error(
            "Job Scheduler: Num_VCPUs_ready > 0 but no READY VCPU slot");
      },
      san::with_effects(
          san::access(std::move(dispatch_reads), std::move(dispatch_writes),
                      {num_ready}),
          dispatch_variants, {next_vcpu})});
}

void build_vcpu(san::SanModel& submodel, int index, VmPlaces& places) {
  auto slot = places.slots.at(static_cast<std::size_t>(index));
  submodel.join_place("VCPU_slot", slot);
  submodel.join_place("Blocked", places.blocked);
  submodel.join_place("Num_VCPUs_ready", places.num_vcpus_ready);
  submodel.join_place("Outstanding_Jobs", places.outstanding_jobs);
  submodel.join_place("Completed_Jobs", places.completed_jobs);
  if (places.lock != nullptr) {
    // Joining registers the places for marking reset between replications.
    submodel.join_place("Lock", places.lock);
    submodel.join_place("Spin_Ticks", places.spin_ticks);
  }
  // DVFS extension: the service rate of this VCPU's current PCPU,
  // maintained by the scheduler bridge. Null without DVFS — the place
  // only exists when the dimension is live, so the original model (and
  // its golden traces) is untouched.
  std::shared_ptr<san::Place<double>> scale;
  if (!places.service_scale.empty()) {
    scale = places.service_scale.at(static_cast<std::size_t>(index));
    submodel.join_place("Service_Scale", scale);
  }

  auto schedule_in = submodel.add_place<std::int64_t>("Schedule_In", 0);
  auto schedule_out = submodel.add_place<std::int64_t>("Schedule_Out", 0);
  places.schedule_in.push_back(schedule_in);
  places.schedule_out.push_back(schedule_out);

  // Per-tick processing Clock (Figure 4): enabled while BUSY, each firing
  // consumes one time unit of the current workload.
  auto& clock = submodel.add_timed_activity(
      "Clock", stats::make_deterministic(1.0), kVcpuClockPriority);
  places.clocks.push_back(&clock);
  clock.add_input_gate(san::InputGate{
      "Processing_enabled",
      [slot]() { return slot->get().status == VcpuStatus::kBusy; },
      nullptr,
      san::access({slot}),
      {san::marking_probe(slot, [](const VcpuSlotState& s) {
        return s.status == VcpuStatus::kBusy;
      })}});

  auto blocked = places.blocked;
  auto num_ready = places.num_vcpus_ready;
  auto outstanding = places.outstanding_jobs;
  auto completed = places.completed_jobs;
  auto lock = places.lock;            // null when spinlock disabled
  auto spin_ticks = places.spin_ticks;
  // Footprint: the per-tick counters are commutative increments; the
  // barrier release is a convergent store (every writer stores 0); the
  // lock acquire is a first-writer-wins race that is valid under any
  // firing order (that IS spinlock semantics) — all order-independent.
  std::vector<san::PlacePtr> clock_reads = {slot, outstanding, blocked};
  std::vector<san::PlacePtr> clock_writes = {slot, num_ready, completed,
                                             outstanding, blocked};
  std::vector<san::PlacePtr> clock_commutes = {num_ready, completed,
                                               outstanding, blocked};
  if (places.lock != nullptr) {
    clock_reads.push_back(lock);
    clock_writes.push_back(lock);
    clock_writes.push_back(spin_ticks);
    clock_commutes.push_back(lock);
    clock_commutes.push_back(spin_ticks);
  }
  if (scale != nullptr) clock_reads.push_back(scale);
  // Firing variants of one processing tick, in TickVariant order.
  // "progress" burns the tick with no token change (it writes only the
  // slot's load fields); "complete" retires the job (READY, counters
  // move); "-unblock" additionally releases the barrier. The spinlock
  // build adds the lock-protocol variants; an acquire that completes in
  // the same tick nets to plain "complete" (the lock deltas cancel), so
  // it reports "complete", whose places then include the Lock it wrote.
  std::vector<san::EffectVariant> tick_variants = {{"progress", {}, {slot}}};
  const std::vector<san::TokenDelta> complete_deltas = {
      {slot, "busy", -1},   {slot, "ready", +1}, {num_ready, "", +1},
      {completed, "", +1},  {outstanding, "", -1}};
  {
    std::vector<san::PlacePtr> lock_written;
    if (lock != nullptr) lock_written.push_back(lock);
    san::EffectVariant complete{"complete", complete_deltas, lock_written};
    san::EffectVariant unblock{"complete-unblock", complete_deltas,
                               lock_written};
    unblock.deltas.push_back({blocked, "set", -1});
    unblock.deltas.push_back({blocked, "clear", +1});
    tick_variants.push_back(std::move(complete));
    tick_variants.push_back(std::move(unblock));
  }
  if (lock != nullptr) {
    // A spinning VCPU also sets the slot's (unviewed) spinning flag.
    tick_variants.push_back({"spin", {{spin_ticks, "", +1}}, {slot}});
    tick_variants.push_back({"acquire",
                             {{lock, "held", +1},
                              {lock, "free", -1},
                              {slot, "holds_lock", +1}}});
    const std::vector<san::TokenDelta> release_deltas = {
        {lock, "held", -1}, {lock, "free", +1}, {slot, "holds_lock", -1}};
    san::EffectVariant release{"complete-release", complete_deltas};
    release.deltas.insert(release.deltas.end(), release_deltas.begin(),
                          release_deltas.end());
    san::EffectVariant release_unblock{"complete-release-unblock",
                                       release.deltas};
    release_unblock.deltas.push_back({blocked, "set", -1});
    release_unblock.deltas.push_back({blocked, "clear", +1});
    tick_variants.push_back(std::move(release));
    tick_variants.push_back(std::move(release_unblock));
  }
  clock.add_output_gate(san::OutputGate{
      "Processing_load",
      [slot, blocked, num_ready, outstanding, completed, lock, spin_ticks,
       scale, index](san::GateContext& ctx) {
        auto& s = slot->mut();
        bool acquired = false;
        // Spinlock extension: the trailing critical_remaining units of
        // the job execute under the VM's lock. At the critical-section
        // boundary the VCPU acquires the lock if free, else it *spins* —
        // the tick is burned BUSY with no progress. A preempted lock
        // holder (semantic gap) therefore makes its siblings burn PCPU
        // time until it is rescheduled and releases.
        if (lock != nullptr && !s.holds_lock &&
            s.critical_remaining > kLoadEpsilon &&
            s.remaining_load <= s.critical_remaining + kLoadEpsilon) {
          if (lock->get() == 0) {
            lock->set(index + 1);
            s.holds_lock = true;
            s.spinning = false;
            acquired = true;
          } else {
            s.spinning = true;
            spin_ticks->mut() += 1;
            ctx.report_variant(kTickSpin);
            return;  // no progress this tick
          }
        }
        s.spinning = false;
        // DVFS: one tick at frequency f retires f/f_max units of load.
        s.remaining_load -= (scale != nullptr) ? scale->get() : 1.0;
        std::uint32_t variant = acquired ? kTickAcquire : kTickProgress;
        if (s.remaining_load <= kLoadEpsilon) {
          // Releasing a lock acquired earlier is a "-release" variant;
          // one acquired this very tick nets out (see tick_variants).
          bool released = false;
          if (s.holds_lock) {
            lock->set(0);
            s.holds_lock = false;
            released = !acquired;
          }
          s.critical_remaining = 0.0;
          s.remaining_load = 0.0;
          s.sync_point = false;
          s.status = VcpuStatus::kReady;
          num_ready->mut() += 1;
          completed->mut() += 1;
          outstanding->mut() -= 1;
          // Barrier release: every job issued before (and including) the
          // synchronization point has completed.
          bool unblocked = false;
          if (outstanding->get() == 0 && blocked->get() != 0) {
            blocked->set(0);
            unblocked = true;
          }
          if (released) {
            variant = unblocked ? kTickCompleteReleaseUnblock
                                : kTickCompleteRelease;
          } else {
            variant = unblocked ? kTickCompleteUnblock : kTickComplete;
          }
        }
        ctx.report_variant(variant);
      },
      san::with_effects(
          san::access(std::move(clock_reads), std::move(clock_writes),
                      std::move(clock_commutes)),
          std::move(tick_variants))});

  // Schedule_In: the hypervisor granted a PCPU. An INACTIVE VCPU resumes
  // its interrupted workload (BUSY) or becomes READY for new work.
  auto& in_handler = submodel.add_instantaneous_activity(
      "Schedule_In_Handler", kScheduleInHandlerPriority);
  in_handler.add_input_gate(san::InputGate{
      "Schedule_In_pending", [schedule_in]() { return schedule_in->get() > 0; },
      nullptr, san::access({schedule_in}),
      {san::token_positive(schedule_in)}});
  in_handler.add_output_gate(san::OutputGate{
      "Apply_Schedule_In",
      [schedule_in, slot, num_ready](san::GateContext& ctx) {
        schedule_in->set(0);
        // Probe read-only: an already-active VCPU's slot is not written.
        if (slot->get().status != VcpuStatus::kInactive) {
          ctx.report_variant(kInNoop);
          return;
        }
        auto& s = slot->mut();
        if (s.remaining_load > kLoadEpsilon) {
          s.status = VcpuStatus::kBusy;
          ctx.report_variant(kInResumeBusy);
        } else {
          s.status = VcpuStatus::kReady;
          num_ready->mut() += 1;
          ctx.report_variant(kInResumeReady);
        }
      },
      san::with_effects(
          san::access({slot}, {schedule_in, slot, num_ready}, {num_ready}),
          {{"resume-busy",
            {{schedule_in, "pending", -1},
             {schedule_in, "idle", +1},
             {slot, "inactive", -1},
             {slot, "busy", +1}}},
           {"resume-ready",
            {{schedule_in, "pending", -1},
             {schedule_in, "idle", +1},
             {slot, "inactive", -1},
             {slot, "ready", +1},
             {num_ready, "", +1}}},
           {"noop",
            {{schedule_in, "pending", -1}, {schedule_in, "idle", +1}}}})});

  // Schedule_Out: the hypervisor revoked the PCPU; the VCPU keeps its
  // remaining_load and sync_point (paper III.B.2 INACTIVE note).
  auto& out_handler = submodel.add_instantaneous_activity(
      "Schedule_Out_Handler", kScheduleOutHandlerPriority);
  out_handler.add_input_gate(san::InputGate{
      "Schedule_Out_pending",
      [schedule_out]() { return schedule_out->get() > 0; }, nullptr,
      san::access({schedule_out}),
      {san::token_positive(schedule_out)}});
  out_handler.add_output_gate(san::OutputGate{
      "Apply_Schedule_Out",
      [schedule_out, slot, num_ready](san::GateContext& ctx) {
        schedule_out->set(0);
        auto& s = slot->mut();
        ctx.report_variant(s.status == VcpuStatus::kReady  ? kOutParkReady
                           : s.status == VcpuStatus::kBusy ? kOutParkBusy
                                                           : kOutNoop);
        if (s.status == VcpuStatus::kReady) num_ready->mut() -= 1;
        s.status = VcpuStatus::kInactive;
        s.spinning = false;  // a descheduled VCPU burns no cycles
        // holds_lock deliberately persists: lock-holder preemption.
      },
      san::with_effects(
          san::access({slot}, {schedule_out, slot, num_ready}, {num_ready}),
          {{"park-ready",
            {{schedule_out, "pending", -1},
             {schedule_out, "idle", +1},
             {slot, "ready", -1},
             {slot, "inactive", +1},
             {num_ready, "", -1}}},
           {"park-busy",
            {{schedule_out, "pending", -1},
             {schedule_out, "idle", +1},
             {slot, "busy", -1},
             {slot, "inactive", +1}}},
           // Parking an already-INACTIVE VCPU still rewrites its slot.
           {"noop",
            {{schedule_out, "pending", -1}, {schedule_out, "idle", +1}},
            {slot}}})});
}

VmPlaces build_virtual_machine(san::ComposedModel& model, const VmConfig& cfg,
                               const std::string& prefix,
                               double dvfs_initial_scale) {
  if (cfg.num_vcpus < 1) {
    throw std::invalid_argument("build_virtual_machine: num_vcpus < 1");
  }
  VmConfig vm_cfg = cfg;
  vm_cfg.apply_defaults();

  auto& wg = model.add_submodel(prefix + "Workload_Generator");
  auto& js = model.add_submodel(prefix + "VM_Job_Scheduler");

  // The VM's shared (join) places: constructed stand-alone, then joined
  // into each submodel under its paper-local name by the builders below.
  VmPlaces places;
  places.blocked =
      std::make_shared<san::TokenPlace>(prefix + "Blocked", 0);
  places.num_vcpus_ready =
      std::make_shared<san::TokenPlace>(prefix + "Num_VCPUs_ready", 0);
  places.outstanding_jobs =
      std::make_shared<san::TokenPlace>(prefix + "Outstanding_Jobs", 0);
  places.completed_jobs =
      std::make_shared<san::TokenPlace>(prefix + "Completed_Jobs", 0);
  places.workload = std::make_shared<WorkloadPlace>(prefix + "Workload",
                                                    std::nullopt);
  for (int k = 0; k < vm_cfg.num_vcpus; ++k) {
    places.slots.push_back(std::make_shared<SlotPlace>(
        prefix + "VCPU" + std::to_string(k + 1) + "_slot", VcpuSlotState{}));
  }
  if (vm_cfg.spinlock.enabled) {
    places.lock = std::make_shared<san::TokenPlace>(prefix + "Lock", 0);
    places.spin_ticks =
        std::make_shared<san::TokenPlace>(prefix + "Spin_Ticks", 0);
  }
  if (dvfs_initial_scale > 0.0) {
    for (int k = 0; k < vm_cfg.num_vcpus; ++k) {
      places.service_scale.push_back(std::make_shared<san::Place<double>>(
          prefix + "VCPU" + std::to_string(k + 1) + "_Service_Scale",
          dvfs_initial_scale));
    }
  }

  build_workload_generator(wg, vm_cfg, places);
  build_job_scheduler(js, vm_cfg, places);

  std::vector<san::SanModel*> vcpu_models;
  for (int k = 0; k < vm_cfg.num_vcpus; ++k) {
    auto& vcpu = model.add_submodel(prefix + "VCPU" + std::to_string(k + 1));
    build_vcpu(vcpu, k, places);
    vcpu_models.push_back(&vcpu);
  }

  // Token views projecting the VM's structured places onto integer tokens
  // for the structural invariant engine (san/token_view.hpp). Complement
  // pairs (set/clear, present/absent, the slot one-hot) make every
  // conservation law a non-negative semiflow the Farkas elimination can
  // find: e.g. per slot inactive+ready+busy = 1, and Num_VCPUs_ready +
  // sum(inactive_k) + sum(busy_k) = num_vcpus.
  model.record_token_view(san::flag_view(places.blocked));
  {
    auto workload = places.workload;
    model.record_token_view(san::TokenView{
        workload,
        {{"present",
          [workload] { return workload->get().has_value() ? 1 : 0; }},
         {"absent",
          [workload] { return workload->get().has_value() ? 0 : 1; }}}});
  }
  for (const auto& slot : places.slots) {
    san::TokenView view;
    view.place = slot;
    view.components = {
        {"inactive",
         [slot] {
           return slot->get().status == VcpuStatus::kInactive ? 1 : 0;
         }},
        {"ready",
         [slot] { return slot->get().status == VcpuStatus::kReady ? 1 : 0; }},
        {"busy",
         [slot] { return slot->get().status == VcpuStatus::kBusy ? 1 : 0; }},
        {"holds_lock", [slot] { return slot->get().holds_lock ? 1 : 0; }},
    };
    // `spinning` is deliberately unviewed: its firing delta depends on
    // the pre-firing marking, so no constant incidence column exists.
    model.record_token_view(std::move(view));
  }
  if (places.lock != nullptr) {
    model.record_token_view(san::flag_view(places.lock, "held", "free"));
  }
  for (const auto& si : places.schedule_in) {
    model.record_token_view(san::flag_view(si, "pending", "idle"));
  }
  for (const auto& so : places.schedule_out) {
    model.record_token_view(san::flag_view(so, "pending", "idle"));
  }

  // Record the join relation in the format of paper Table 1.
  std::vector<std::string> blocked_members = {wg.name() + "->Blocked",
                                              js.name() + "->Blocked"};
  std::vector<std::string> ready_members = {wg.name() + "->Num_VCPUs_ready",
                                            js.name() + "->Num_VCPUs_ready"};
  for (auto* m : vcpu_models) {
    blocked_members.push_back(m->name() + "->Blocked");
    ready_members.push_back(m->name() + "->Num_VCPUs_ready");
  }
  model.record_join(prefix + "Blocked", places.blocked,
                    std::move(blocked_members));
  model.record_join(prefix + "Num_VCPUs_ready", places.num_vcpus_ready,
                    std::move(ready_members));
  for (int k = 0; k < vm_cfg.num_vcpus; ++k) {
    const std::string slot_name = "VCPU" + std::to_string(k + 1) + "_slot";
    model.record_join(
        prefix + slot_name, places.slots[static_cast<std::size_t>(k)],
        {js.name() + "->" + slot_name,
         vcpu_models[static_cast<std::size_t>(k)]->name() + "->VCPU_slot"});
  }
  model.record_join(prefix + "Workload", places.workload,
                    {wg.name() + "->Workload", js.name() + "->Workload"});

  return places;
}

}  // namespace vcpusim::vm
