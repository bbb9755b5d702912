#include "vm/vcpu_scheduler.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "san/trace.hpp"
#include "vm/contract_validator.hpp"
#include "vm/priorities.hpp"

namespace vcpusim::vm {

namespace {

constexpr double kTimesliceEpsilon = 1e-9;

/// One VCPU as the per-tick loops read it: raw pointers to the places
/// that `bindings` and `places.hosts` own, and the VCPU's identity.
struct VcpuRecord {
  HostPlace* host = nullptr;
  SlotPlace* slot = nullptr;
  san::TokenPlace* schedule_in = nullptr;
  san::TokenPlace* schedule_out = nullptr;
  san::Place<double>* service_scale = nullptr;  ///< null without DVFS
  int vcpu_id = 0;
  int vm_id = 0;
  int vcpu_index_in_vm = 0;
  int num_siblings = 1;
};

/// Shared mutable context captured by the Scheduling_Func gate. The
/// per-tick hot path is decomposed into the pass / decide / apply
/// layers (docs/SCHEDULING.md); all buffers are sized once at build time
/// so a steady-state tick performs no heap allocation.
struct SchedulerContext {
  SystemConfig cfg;
  std::vector<VcpuBinding> bindings;  ///< owns the VM-side join places
  std::vector<VcpuRecord> vcpus;      ///< flat view of bindings + hosts
  Scheduler* scheduler;
  SchedulerPlaces places;
  /// Immutable topology, kept so reset()/rebind() can re-drive the
  /// scheduler lifecycle hooks without rebuilding it.
  SystemTopology topology;

  // Persistent hot-path buffers, sized in build_vcpu_scheduler.
  std::vector<VCPU_host_external> vx;  ///< per-tick VCPU snapshot
  std::vector<PCPU_external> px;       ///< per-tick PCPU snapshot
  /// Pre-apply assignment recorded by the pass (VCPU -> PCPU and PCPU ->
  /// VCPU, -1 for none); the validator's replay consumes it.
  std::vector<int> vcpu_pcpu;
  std::vector<int> pcpu_vcpu;
  ContractValidator validator;
  /// Declared DVFS level table (empty = no DVFS dimension).
  std::vector<DvfsLevel> dvfs_levels;

  /// Service rate of a PCPU at `level`, relative to the fastest level.
  double scale_of(int level) const {
    return dvfs_levels[static_cast<std::size_t>(level)].frequency /
           dvfs_levels.back().frequency;
  }

  // Observability (docs/OBSERVABILITY.md): always-on counters, shared
  // so SchedulerPlaces can hand them out.
  std::shared_ptr<BridgeStats> bridge_stats = std::make_shared<BridgeStats>();

  /// Emit one kScheduler trace event ("in" / "out" / "expire") when the
  /// simulator runs with a trace sink attached; a null test otherwise.
  void trace_decision(san::GateContext& ctx, const char* op, std::size_t vcpu,
                      int pcpu) {
    if (ctx.trace == nullptr ||
        !ctx.trace->wants(san::TraceCategory::kScheduler)) {
      return;
    }
    ctx.trace->on_event(san::TraceEvent{
        san::TraceCategory::kScheduler, ctx.now, ctx.seq, "sched",
        static_cast<std::int64_t>(vcpu), pcpu, op});
  }

  /// Release VCPU i's PCPU; returns the PCPU it held. Only called for a
  /// VCPU that holds one: an expiring VCPU, or a schedule_out the
  /// validator accepted.
  int deschedule(std::size_t i, san::GateContext& ctx) {
    const VcpuRecord& r = vcpus[i];
    auto& host = r.host->mut();
    auto& pcpus = places.pcpus->mut();
    const int pcpu = host.assigned_pcpu;
    pcpus[static_cast<std::size_t>(pcpu)].assigned_vcpu = -1;
    host.assigned_pcpu = -1;
    host.timeslice = 0.0;
    r.schedule_out->mut() += 1;
    ctx.touch(r.host);
    ctx.touch(places.pcpus.get());
    ctx.touch(r.schedule_out);
    return pcpu;
  }

  /// Contract-checked by the validator before apply() calls this.
  void assign(std::size_t i, int pcpu, double new_timeslice, long timestamp,
              san::GateContext& ctx) {
    const VcpuRecord& r = vcpus[i];
    auto& host = r.host->mut();
    auto& pcpus = places.pcpus->mut();
    pcpus[static_cast<std::size_t>(pcpu)].assigned_vcpu = static_cast<int>(i);
    host.assigned_pcpu = pcpu;
    host.last_scheduled_in = timestamp;
    host.timeslice =
        new_timeslice > 0 ? new_timeslice : cfg.default_timeslice;
    r.schedule_in->mut() += 1;
    // DVFS: the VCPU now runs at its PCPU's current frequency. Level
    // switches are applied before assignments, so this reads the level
    // the PCPU will actually run at this tick.
    if (r.service_scale != nullptr) {
      const int level =
          places.freq_levels->get()[static_cast<std::size_t>(pcpu)];
      r.service_scale->set(scale_of(level));
      ctx.touch(r.service_scale);
    }
    ctx.touch(r.host);
    ctx.touch(places.pcpus.get());
    ctx.touch(r.schedule_in);
  }

  /// Step 1, one pass per VCPU: account the elapsed time unit and
  /// enforce timeslice expiry ("the timeslice decreases as Clock fires
  /// until it reaches 0 and the VCPU must relinquish the PCPU"), then
  /// refresh the VCPU's snapshot in place and record its pre-apply
  /// assignment. Status is derived from the assignment: a VCPU
  /// descheduled this tick reads INACTIVE even though its slot place
  /// settles an instant later. Expiring VCPU i writes only its own host,
  /// its Schedule_Out place and the PCPU array, and no VCPU snapshot
  /// reads another VCPU's places or the array, so the one pass matches
  /// expiring every VCPU first. The PCPU snapshot follows the loop.
  void pass(san::GateContext& ctx) {
    for (std::size_t i = 0; i < vcpus.size(); ++i) {
      const VcpuRecord& r = vcpus[i];
      const VcpuHostState* host = &r.host->get();
      if (host->assigned_pcpu >= 0) {
        // Escalate to mutable access only for assigned hosts: an idle
        // host is untouched this tick, and a mut() without touch() on a
        // dynamic-writes gate is exactly the lie the footprint sanitizer
        // flags.
        auto& held = r.host->mut();
        held.timeslice -= 1.0;
        if (held.timeslice <= kTimesliceEpsilon) {
          const int pcpu = deschedule(i, ctx);  // touches the host
          bridge_stats->preemptions += 1;
          trace_decision(ctx, "expire", i, pcpu);
        } else {
          ctx.touch(r.host);
        }
      }
      const auto& slot = r.slot->get();
      const bool assigned = host->assigned_pcpu >= 0;
      auto& x = vx[i];
      x.vcpu_id = r.vcpu_id;
      x.vm_id = r.vm_id;
      x.vcpu_index_in_vm = r.vcpu_index_in_vm;
      x.num_siblings = r.num_siblings;
      x.status = assigned ? static_cast<int>(slot.status)
                          : static_cast<int>(VcpuStatus::kInactive);
      x.remaining_load = slot.remaining_load;
      x.sync_point = slot.sync_point ? 1 : 0;
      x.last_scheduled_in = host->last_scheduled_in;
      x.timeslice = assigned ? host->timeslice : 0.0;
      x.assigned_pcpu = host->assigned_pcpu;
      x.schedule_in = -1;
      x.schedule_out = 0;
      x.new_timeslice = 0.0;
      vcpu_pcpu[i] = host->assigned_pcpu;
    }
    const auto& pcpus = places.pcpus->get();
    const std::vector<int>* levels =
        places.freq_levels != nullptr ? &places.freq_levels->get() : nullptr;
    for (std::size_t p = 0; p < px.size(); ++p) {
      const int owner = pcpus[p].assigned_vcpu;
      px[p].pcpu_id = static_cast<int>(p);
      px[p].assigned_vcpu = owner;
      px[p].state = owner >= 0 ? 1 : 0;
      px[p].freq_level = levels != nullptr ? (*levels)[p] : -1;
      px[p].set_freq_level = -1;
      pcpu_vcpu[p] = owner;
    }
  }

  /// Step 2: the user-defined scheduling function.
  void decide(long timestamp) {
    if (!scheduler->schedule(std::span<VCPU_host_external>(vx),
                             std::span<PCPU_external>(px), timestamp)) {
      std::ostringstream os;
      os << "scheduling function '" << scheduler->name()
         << "' reported failure at t=" << timestamp;
      throw ScheduleError(os.str());
    }
  }

  /// Apply the (already validated) per-PCPU frequency decisions: update
  /// the Freq_Levels place and re-scale the service rate of any VCPU
  /// currently running on a switched PCPU.
  void apply_freq(san::GateContext& ctx) {
    if (places.freq_levels == nullptr) return;
    for (std::size_t p = 0; p < px.size(); ++p) {
      const int target = px[p].set_freq_level;
      if (target < 0 || target == places.freq_levels->get()[p]) continue;
      places.freq_levels->mut()[p] = target;
      ctx.touch(places.freq_levels.get());
      bridge_stats->freq_changes += 1;
      trace_decision(ctx, "freq", p, target);
      const int running = places.pcpus->get()[p].assigned_vcpu;
      if (running >= 0) {
        san::Place<double>* scale =
            vcpus[static_cast<std::size_t>(running)].service_scale;
        if (scale != nullptr) {
          scale->set(scale_of(target));
          ctx.touch(scale);
        }
      }
    }
  }

  /// Step 3: validate the decision set against the contract, replaying
  /// it on the assignment the pass recorded, then apply it — all
  /// relinquishments first, then all assignments, so a preempt-and-grant
  /// of the same PCPU in one tick is expressible.
  void apply(san::GateContext& ctx, long timestamp) {
    if (const auto violation =
            ContractValidator::replay(vx, vcpu_pcpu, pcpu_vcpu)) {
      throw ScheduleError(violation->message());
    }
    if (const auto violation = validator.validate_freq(px)) {
      throw ScheduleError(violation->message());
    }
    // DVFS level switches apply first, so a VCPU granted (or kept) this
    // tick runs at the PCPU's new frequency immediately.
    apply_freq(ctx);
    for (std::size_t i = 0; i < vcpus.size(); ++i) {
      if (vx[i].schedule_out != 0) {
        const int pcpu = deschedule(i, ctx);
        bridge_stats->schedules_out += 1;
        trace_decision(ctx, "out", i, pcpu);
      }
    }
    for (std::size_t i = 0; i < vcpus.size(); ++i) {
      if (vx[i].schedule_in >= 0) {
        assign(i, vx[i].schedule_in, vx[i].new_timeslice, timestamp, ctx);
        bridge_stats->schedules_in += 1;
        trace_decision(ctx, "in", i, vx[i].schedule_in);
      }
    }
  }

  /// Restore the bridge to its just-built state for another replication.
  void reset() {
    *bridge_stats = BridgeStats{};
    scheduler->on_reset(topology);
  }

  /// Swap in a different scheduler instance (same topology).
  void rebind(Scheduler& next) {
    scheduler = &next;
    next.on_attach(topology);
  }

  /// One Clock tick. Flattened: every call whose body the compiler sees,
  /// down to the touch() appends in the per-VCPU loops, is inlined here.
  /// Left to its heuristics, GCC keeps those appends out of line in this
  /// large function; inlining them cut paper_grid wall time by about 4%.
  [[gnu::flatten]] void tick(san::GateContext& ctx) {
    const long timestamp = std::lround(ctx.now);
    bridge_stats->ticks += 1;
    pass(ctx);
    decide(timestamp);
    apply(ctx, timestamp);
  }
};

}  // namespace

SystemTopology make_topology(const std::vector<VcpuBinding>& bindings,
                             int num_pcpus) {
  SystemTopology topology;
  topology.num_pcpus = num_pcpus;
  topology.vcpus.reserve(bindings.size());
  for (const auto& b : bindings) {
    topology.vcpus.push_back(
        SystemTopology::Vcpu{b.vm_id, b.vcpu_index_in_vm});
    if (b.vm_id >= static_cast<int>(topology.vm_members.size())) {
      topology.vm_members.resize(static_cast<std::size_t>(b.vm_id) + 1);
    }
    topology.vm_members[static_cast<std::size_t>(b.vm_id)].push_back(
        b.vcpu_id);
  }
  return topology;
}

SchedulerPlaces build_vcpu_scheduler(san::ComposedModel& model,
                                     const SystemConfig& cfg,
                                     std::vector<VcpuBinding> bindings,
                                     Scheduler& scheduler) {
  if (bindings.empty()) {
    throw std::invalid_argument("build_vcpu_scheduler: no VCPUs");
  }
  auto& submodel = model.add_submodel("VCPU_Scheduler");

  auto context = std::make_shared<SchedulerContext>();
  context->cfg = cfg;
  context->scheduler = &scheduler;

  context->places.num_pcpus =
      submodel.add_place<std::int64_t>("Num_PCPUs", cfg.num_pcpus);
  context->places.pcpus = submodel.add_place<std::vector<PcpuState>>(
      "PCPUs", std::vector<PcpuState>(static_cast<std::size_t>(cfg.num_pcpus)));
  if (cfg.dvfs.enabled) {
    context->dvfs_levels = cfg.dvfs.effective_levels();
    context->places.dvfs_levels = context->dvfs_levels;
    context->places.freq_levels = submodel.add_place<std::vector<int>>(
        "Freq_Levels",
        std::vector<int>(static_cast<std::size_t>(cfg.num_pcpus),
                         cfg.dvfs.effective_initial_level()));
  }

  for (std::size_t i = 0; i < bindings.size(); ++i) {
    const std::string vcpu_name = "VCPU" + std::to_string(i + 1);
    context->places.hosts.push_back(
        submodel.add_place<VcpuHostState>(vcpu_name, VcpuHostState{}));
    submodel.join_place(vcpu_name + "_Schedule_In", bindings[i].schedule_in);
    submodel.join_place(vcpu_name + "_Schedule_Out", bindings[i].schedule_out);
    submodel.join_place(vcpu_name + "_slot", bindings[i].slot);
  }
  context->bindings = std::move(bindings);
  context->vcpus.reserve(context->bindings.size());
  for (std::size_t i = 0; i < context->bindings.size(); ++i) {
    const VcpuBinding& b = context->bindings[i];
    context->vcpus.push_back(VcpuRecord{
        context->places.hosts[i].get(), b.slot.get(), b.schedule_in.get(),
        b.schedule_out.get(), b.service_scale.get(), b.vcpu_id, b.vm_id,
        b.vcpu_index_in_vm, b.num_siblings});
  }

  // Topology layer: attach the scheduler once, before the first tick.
  context->topology = make_topology(context->bindings, cfg.num_pcpus);
  if (cfg.dvfs.enabled) {
    context->topology.dvfs_levels = context->dvfs_levels;
    context->topology.dvfs_initial_level = cfg.dvfs.effective_initial_level();
  }
  scheduler.on_attach(context->topology);

  // Pass layer: size the persistent buffers once.
  const std::size_t n = context->bindings.size();
  const auto num_pcpus = static_cast<std::size_t>(cfg.num_pcpus);
  context->vx.resize(n);
  context->px.resize(num_pcpus);
  context->vcpu_pcpu.assign(n, -1);
  context->pcpu_vcpu.assign(num_pcpus, -1);
  context->validator.attach(n, num_pcpus, context->dvfs_levels.size());

  auto& clock = submodel.add_timed_activity(
      "Clock", stats::make_deterministic(1.0), kSchedulerClockPriority);
  // The bridge gate snapshots every interface place and applies the
  // decisions back — the declared footprint is exactly the paper's
  // published scheduling interface. The write set is declared dynamic:
  // each tick only the slots actually (de)scheduled are reported through
  // ctx.touch(), so incremental enabling does not rescan untouched VCPU
  // models. The schedule_in/out token bumps are pure increments, hence
  // commutative across writers.
  std::vector<san::PlacePtr> func_reads = {context->places.num_pcpus,
                                           context->places.pcpus};
  std::vector<san::PlacePtr> func_writes = {context->places.pcpus};
  std::vector<san::PlacePtr> func_commutes;
  for (const auto& host : context->places.hosts) {
    func_reads.push_back(host);
    func_writes.push_back(host);
  }
  for (const auto& binding : context->bindings) {
    func_reads.push_back(binding.slot);
    func_writes.push_back(binding.schedule_in);
    func_writes.push_back(binding.schedule_out);
    func_commutes.push_back(binding.schedule_in);
    func_commutes.push_back(binding.schedule_out);
  }
  // DVFS: the bridge reads/rewrites the level array and pushes the
  // resulting service rate into each (re)scheduled VCPU's scale place.
  // No token views exist for either, so no effect variants are needed.
  if (context->places.freq_levels != nullptr) {
    func_reads.push_back(context->places.freq_levels);
    func_writes.push_back(context->places.freq_levels);
    for (const auto& binding : context->bindings) {
      // May be null when a test builds the scheduler submodel stand-alone
      // with a DVFS config but no VM-side scale places.
      if (binding.service_scale != nullptr) {
        func_writes.push_back(binding.service_scale);
      }
    }
  }
  // Token views for the invariant engine: each VCPU host is an
  // assigned/unassigned complement pair, the PCPU array one busy/idle
  // pair per element. With the VM-side views this yields, e.g.,
  // sum(assigned_k) + sum(pcpu_p.idle) = num_pcpus.
  for (const auto& host : context->places.hosts) {
    model.record_token_view(san::TokenView{
        host,
        {{"assigned",
          [host] { return host->get().assigned_pcpu >= 0 ? 1 : 0; }},
         {"unassigned",
          [host] { return host->get().assigned_pcpu >= 0 ? 0 : 1; }}}});
  }
  {
    auto pcpus = context->places.pcpus;
    san::TokenView view;
    view.place = pcpus;
    for (std::size_t p = 0; p < num_pcpus; ++p) {
      const std::string tag = "p" + std::to_string(p);
      view.components.push_back(san::TokenComponent{
          tag + ".busy",
          [pcpus, p] { return pcpus->get()[p].assigned_vcpu >= 0 ? 1 : 0; }});
      view.components.push_back(san::TokenComponent{
          tag + ".idle",
          [pcpus, p] { return pcpus->get()[p].assigned_vcpu >= 0 ? 0 : 1; }});
    }
    model.record_token_view(std::move(view));
  }

  // One scheduler tick is any multiset of assign/deschedule micro-ops
  // (plus token-invisible timeslice accounting), so the effect
  // declaration is compositional: each micro-variant is its own
  // incidence column rather than a combinatorial cross product.
  std::vector<san::EffectVariant> micro_ops;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string vcpu_tag = "vcpu" + std::to_string(i + 1);
    const auto& host = context->places.hosts[i];
    const auto& in = context->bindings[i].schedule_in;
    const auto& out = context->bindings[i].schedule_out;
    for (std::size_t p = 0; p < num_pcpus; ++p) {
      const std::string ptag = "p" + std::to_string(p);
      micro_ops.push_back({"assign-" + vcpu_tag + "-" + ptag,
                           {{host, "assigned", +1},
                            {host, "unassigned", -1},
                            {context->places.pcpus, ptag + ".busy", +1},
                            {context->places.pcpus, ptag + ".idle", -1},
                            {in, "pending", +1},
                            {in, "idle", -1}}});
      micro_ops.push_back({"deschedule-" + vcpu_tag + "-" + ptag,
                           {{host, "assigned", -1},
                            {host, "unassigned", +1},
                            {context->places.pcpus, ptag + ".busy", -1},
                            {context->places.pcpus, ptag + ".idle", +1},
                            {out, "pending", +1},
                            {out, "idle", -1}}});
    }
  }
  clock.add_output_gate(san::OutputGate{
      "Scheduling_Func",
      [context](san::GateContext& ctx) { context->tick(ctx); },
      san::with_compositional_effects(
          san::access_dynamic(std::move(func_reads), std::move(func_writes),
                              std::move(func_commutes)),
          std::move(micro_ops))});
  context->places.clock = &clock;
  context->places.bridge_stats = context->bridge_stats;

  // The reset/rebind closures go on the returned copy only: storing a
  // [context] capture inside context->places would make the context own
  // itself through the shared_ptr and leak the whole bridge.
  SchedulerPlaces result = context->places;
  result.reset = [context]() { context->reset(); };
  result.rebind = [context](Scheduler& next) { context->rebind(next); };
  return result;
}

}  // namespace vcpusim::vm
