#include "san/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

#include "san/analyze/invariants.hpp"

namespace vcpusim::san {
namespace {

/// Installs the footprint sanitizer as the thread-local place-access
/// listener for one engine call, restoring the previous listener on the
/// way out (exception-safe; a null sanitizer is a no-op).
class ScopedListener {
 public:
  explicit ScopedListener(PlaceAccessListener* listener)
      : active_(listener != nullptr),
        prev_(active_ ? PlaceBase::exchange_listener(listener) : nullptr) {}
  ~ScopedListener() {
    if (active_) PlaceBase::exchange_listener(prev_);
  }
  ScopedListener(const ScopedListener&) = delete;
  ScopedListener& operator=(const ScopedListener&) = delete;

 private:
  bool active_;
  PlaceAccessListener* prev_;
};

}  // namespace

Simulator::Simulator(SimulatorConfig config)
    : config_(config), rng_(config.seed) {
  if (!(config_.end_time > 0)) {
    throw std::invalid_argument("Simulator: end_time must be > 0");
  }
}

void Simulator::set_model(ComposedModel& model) {
  // Re-setting swaps the model: every per-model structure (activity
  // vectors, dependency index, trace write lists, dirty state) is
  // rebuilt below; run()/reset() must be called again before advancing.
  // model_ is committed last, so a throwing compilation leaves no model
  // registered rather than a half-built kernel.
  model_ = nullptr;
  started_ = false;
  trace_writes_built_ = false;
  sanitizer_.reset();  // the invariant analysis is per-model
  compiled_.reset();   // unbind any previous arena before recompiling
  compiled_ = std::make_unique<CompiledModel>(
      model, CompileOptions{.force_trampoline = config_.verify_footprints});
  dirty_all_ = true;
  activities_.clear();
  instantaneous_.clear();
  timed_compiled_.clear();
  inst_compiled_.clear();
  for (Activity* a : model.all_activities()) {
    if (a->is_instantaneous()) {
      instantaneous_.push_back(a);
      inst_compiled_.push_back(compiled_->find(a));
    } else {
      activities_.push_back(a);
      timed_compiled_.push_back(compiled_->find(a));
    }
  }
  inst_enabled_count_ = 0;
  timed_hot_.assign(activities_.size(), TimedHot{});
  for (std::size_t t = 0; t < activities_.size(); ++t) {
    timed_hot_[t].delay = activities_[t]->delay();  // non-null: timed
    timed_hot_[t].det_delay = timed_hot_[t].delay->rng_free_constant();
    timed_hot_[t].priority = activities_[t]->priority();
  }
  // Priority-ordered permutation of the instantaneous activities:
  // stable sort keeps equal priorities in index order, so the first
  // enabled position in inst_enabled_bits_ is the selection winner.
  inst_prio_order_.resize(instantaneous_.size());
  for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
    inst_prio_order_[j] = j;
  }
  std::stable_sort(inst_prio_order_.begin(), inst_prio_order_.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return instantaneous_[a]->priority() >
                            instantaneous_[b]->priority();
                   });
  inst_prio_pos_.resize(instantaneous_.size());
  for (std::uint32_t pos = 0; pos < inst_prio_order_.size(); ++pos) {
    inst_prio_pos_[inst_prio_order_[pos]] = pos;
  }
  inst_enabled_bits_.assign((instantaneous_.size() + 63) / 64, 0);
  touch_lookup_.clear();
  use_incremental_ = config_.incremental_enabling;
  if (use_incremental_) build_enabling_index();
  model_ = &model;
}

void Simulator::build_enabling_index() {
  /// One activity's declared footprint, as enabling-index place ids.
  struct Footprint {
    std::vector<std::uint32_t> reads;   ///< input-gate predicate reads
    std::vector<std::uint32_t> writes;  ///< static (non-dynamic) writes
    /// With a variant gate: writes[gate_begin, gate_end) are its own, and
    /// variant k's places are variant_places up to variant_ends[k], from
    /// variant_ends[k - 1] (0 for k = 0). No variant gate: both empty.
    std::size_t gate_begin = 0;
    std::size_t gate_end = 0;
    std::vector<std::uint32_t> variant_places;
    std::vector<std::uint32_t> variant_ends;
    bool reads_declared = true;
  };
  place_ids_.clear();
  place_ids_.reserve(compiled_->place_count());
  touch_lookup_.assign(compiled_->place_count(), kNoPlaceId);
  const auto id_of = [&](const PlacePtr& place) {
    const auto [it, inserted] = place_ids_.try_emplace(
        place.get(), static_cast<std::uint32_t>(place_ids_.size()));
    if (inserted) {
      const std::uint32_t cid = place->compiled_id();
      if (cid < touch_lookup_.size()) touch_lookup_[cid] = it->second;
    }
    return it->second;
  };
  // Enabling depends on the input-gate predicates, so the read set is
  // the union of the input gates' declared reads; one undeclared input
  // gate makes the activity's enabling opaque (re-evaluate always). The
  // write set unions the input functions' and every case's output gates'
  // declared writes; one undeclared gate makes the firing's effect opaque
  // (full re-scan after it fires). An undeclared input gate is both, so
  // an always-evaluated activity is never also dirtied by a firing.
  const auto index = [&](const std::vector<Activity*>& acts,
                         std::vector<FiredRows>& fired) {
    std::vector<Footprint> fps(acts.size());
    fired.assign(acts.size(), FiredRows{});
    std::vector<const GateAccess*> gates;
    for (std::size_t i = 0; i < acts.size(); ++i) {
      Footprint& fp = fps[i];
      bool declared = true;
      bool dynamic = false;
      // Every declared gate's footprint, and the one gate whose variant
      // reports select a fired row: an executing gate (input gates
      // without an input function run nothing) that reports_variants().
      gates.clear();
      const GateAccess* variant_gate = nullptr;
      std::size_t reporters = 0;
      const auto add_gate = [&](const GateAccess& access, bool executes) {
        gates.push_back(&access);
        if (executes && access.reports_variants()) {
          variant_gate = &access;
          ++reporters;
        }
      };
      for (const InputGate& gate : acts[i]->input_gates()) {
        if (!gate.footprint.declared) {
          fp.reads_declared = false;
          declared = false;
          continue;
        }
        for (const PlacePtr& p : gate.footprint.reads) {
          fp.reads.push_back(id_of(p));
        }
        add_gate(gate.footprint, static_cast<bool>(gate.input_function));
      }
      for (const Case& c : acts[i]->cases()) {
        for (const OutputGate& gate : c.output_gates) {
          if (gate.footprint.declared) {
            add_gate(gate.footprint, true);
          } else {
            declared = false;
          }
        }
      }
      // A dynamic-writes gate keeps its static write set out of the
      // fired rows: the per-firing touch() reports stand in for it. The
      // places still get ids so touch lookups resolve.
      for (const GateAccess* access : gates) {
        dynamic = dynamic || access->dynamic_writes;
        if (access == variant_gate) fp.gate_begin = fp.writes.size();
        for (const PlacePtr& p : access->writes) {
          const std::uint32_t id = id_of(p);
          if (!access->dynamic_writes) fp.writes.push_back(id);
        }
        if (access == variant_gate) fp.gate_end = fp.writes.size();
      }
      // Variant rows need one gate to own the reported index; with two
      // candidates a report is ambiguous and every firing takes the
      // union row.
      if (declared && reporters == 1) {
        std::size_t count = 0;
        for (const EffectVariant& v : variant_gate->effects) {
          count += v.deltas.size() + v.writes.size();
        }
        fp.variant_places.reserve(count);
        fp.variant_ends.reserve(variant_gate->effects.size());
        for (const EffectVariant& v : variant_gate->effects) {
          for (const TokenDelta& d : v.deltas) {
            fp.variant_places.push_back(id_of(d.place));
          }
          for (const PlacePtr& p : v.writes) {
            fp.variant_places.push_back(id_of(p));
          }
          fp.variant_ends.push_back(
              static_cast<std::uint32_t>(fp.variant_places.size()));
        }
      }
      fired[i].writes_declared = declared ? 1 : 0;
      fired[i].dynamic = (dynamic && declared) ? 1 : 0;
    }
    // Row layout: each activity's union row, then its variant rows.
    std::uint32_t next = 0;
    for (std::size_t i = 0; i < acts.size(); ++i) {
      fired[i].first = next;
      fired[i].variants =
          static_cast<std::uint32_t>(fps[i].variant_ends.size());
      next += 1 + fired[i].variants;
    }
    return fps;
  };
  const std::vector<Footprint> timed = index(activities_, timed_fired_);
  const std::vector<Footprint> inst = index(instantaneous_, inst_fired_);

  const std::size_t places = place_ids_.size();
  const auto set_bit = [](std::uint64_t* row, std::uint32_t i) {
    row[i >> 6] |= std::uint64_t{1} << (i & 63);
  };
  const auto build = [&](DirtySet& side, const std::vector<Footprint>& own) {
    const std::size_t words = (own.size() + 63) / 64;
    side.words = words;
    side.dirty.assign(words, 0);
    side.always.assign(words, 0);
    side.by_place.assign(places * words, 0);
    for (std::uint32_t i = 0; i < own.size(); ++i) {
      if (!own[i].reads_declared) {
        set_bit(side.always.data(), i);
        continue;
      }
      for (const std::uint32_t place : own[i].reads) {
        set_bit(side.by_place.data() + std::size_t{place} * words, i);
      }
    }
    // A firing dirties the dependents of its declared writes (or of its
    // reported variant's) and the fired activity itself, which always
    // gets a fresh look: a timed one may still be enabled and must
    // re-activate even if it reads nothing.
    const auto fired_rows = [&](std::vector<std::uint64_t>& rows,
                                const std::vector<Footprint>& fired,
                                const std::vector<FiredRows>& layout) {
      const std::size_t count =
          layout.empty() ? 0 : layout.back().first + 1 + layout.back().variants;
      rows.assign(count * words, 0);
      const auto fill = [&](std::size_t row_index, std::uint32_t i,
                            const std::uint32_t* begin,
                            const std::uint32_t* end) {
        std::uint64_t* row = rows.data() + row_index * words;
        if (&fired == &own) set_bit(row, i);
        for (const std::uint32_t* place = begin; place != end; ++place) {
          const std::uint64_t* deps =
              side.by_place.data() + std::size_t{*place} * words;
          for (std::size_t w = 0; w < words; ++w) row[w] |= deps[w];
        }
      };
      for (std::uint32_t i = 0; i < fired.size(); ++i) {
        const Footprint& fp = fired[i];
        const std::uint32_t* writes = fp.writes.data();
        const std::uint32_t* places = fp.variant_places.data();
        fill(layout[i].first, i, writes, writes + fp.writes.size());
        for (std::uint32_t k = 0; k < layout[i].variants; ++k) {
          // The other gates' writes, then the variant's places.
          const std::size_t row = layout[i].first + 1 + k;
          fill(row, i, writes, writes + fp.gate_begin);
          fill(row, i, writes + fp.gate_end, writes + fp.writes.size());
          fill(row, i, places + (k == 0 ? 0 : fp.variant_ends[k - 1]),
               places + fp.variant_ends[k]);
        }
      }
    };
    fired_rows(side.by_timed, timed, timed_fired_);
    fired_rows(side.by_inst, inst, inst_fired_);
  };
  build(timed_dirty_, timed);
  build(inst_dirty_, inst);

  // A touch of a place no predicate reads dirties nothing: resolve it to
  // kNoPlaceId so mark_fired skips the two all-zero row ORs. Gates keep
  // reporting the touch, which the sanitizer's missed-touch check reads.
  const auto unread = [](const DirtySet& side, std::uint32_t id) {
    const std::uint64_t* row =
        side.by_place.data() + std::size_t{id} * side.words;
    return std::all_of(row, row + side.words,
                       [](std::uint64_t w) { return w == 0; });
  };
  for (std::uint32_t& id : touch_lookup_) {
    if (id != kNoPlaceId && unread(timed_dirty_, id) &&
        unread(inst_dirty_, id)) {
      id = kNoPlaceId;
    }
  }
}

void Simulator::build_trace_write_lists() {
  const auto writes_of = [](const Activity& a) {
    // Union of every declared gate write set (input functions + all
    // cases' output gates), deduplicated, in declaration order. Dynamic
    // gates contribute their full static superset so the list — and the
    // emitted stream — does not depend on the enabling mode. Activities
    // with no declared footprint get no marking events.
    std::vector<const PlaceBase*> writes;
    const auto add = [&writes](const GateAccess& fp) {
      if (!fp.declared) return;
      for (const PlacePtr& p : fp.writes) {
        if (std::find(writes.begin(), writes.end(), p.get()) == writes.end()) {
          writes.push_back(p.get());
        }
      }
    };
    for (const InputGate& gate : a.input_gates()) add(gate.footprint);
    for (const Case& c : a.cases()) {
      for (const OutputGate& gate : c.output_gates) add(gate.footprint);
    }
    return writes;
  };
  timed_trace_writes_.clear();
  inst_trace_writes_.clear();
  timed_trace_writes_.reserve(activities_.size());
  inst_trace_writes_.reserve(instantaneous_.size());
  for (const Activity* a : activities_) timed_trace_writes_.push_back(writes_of(*a));
  for (const Activity* a : instantaneous_) inst_trace_writes_.push_back(writes_of(*a));
  trace_writes_built_ = true;
}

void Simulator::add_reward(RewardVariable& reward) {
  rewards_.push_back(&reward);
  split_rewards();
}

void Simulator::split_rewards() {
  rate_rewards_.clear();
  impulse_rewards_.clear();
  for (RewardVariable* r : rewards_) {
    if (r->has_rate()) rate_rewards_.push_back(r);
    if (r->has_impulses()) impulse_rewards_.push_back(r);
  }
}

void Simulator::advance_time(Time to) {
  if (to <= now_) return;
  for (RewardVariable* r : rate_rewards_) r->on_advance(now_, to);
  now_ = to;
}

void Simulator::schedule(std::uint32_t timed_index) {
  TimedHot& hot = timed_hot_[timed_index];
  // Deterministic delays skip the virtual sample: the stream is
  // untouched because Deterministic::sample never draws.
  const Time delay =
      hot.det_delay >= 0 ? hot.det_delay : hot.delay->sample(rng_);
  if (delay < 0) {
    throw std::logic_error("Simulator: negative delay sampled for activity " +
                           activities_[timed_index]->name());
  }
  hot.scheduled = 1;
  cal_push(
      Event{now_ + delay, seq_++, hot.activation, hot.priority, timed_index});
}

bool Simulator::eval_sanitized(const Activity& a,
                               const CompiledModel::CompiledActivity& c) {
  sanitizer_->begin_predicate(a);
  const bool en = compiled_->enabled(c);
  sanitizer_->end_predicate();
  return en;
}

void Simulator::transition_timed(std::uint32_t timed_index) {
  const bool en = eval_timed(timed_index);
  const bool was_scheduled = timed_hot_[timed_index].scheduled != 0;
  if (en && !was_scheduled) {
    schedule(timed_index);
  } else if (!en && was_scheduled) {
    cancel_timed(timed_index);
  } else {
    return;  // no transition: nothing to trace
  }
  Activity& a = *activities_[timed_index];
  // Emitted only on actual activate/abort transitions — a re-evaluation
  // that changes nothing is silent, which is what keeps the stream
  // identical across incremental enabling on/off.
  if (trace_ != nullptr && trace_->wants(TraceCategory::kEnabling)) {
    trace_->on_event(TraceEvent{TraceCategory::kEnabling, now_, events_,
                                a.name(), en ? 1 : 0, 0, {}, nullptr,
                                a.trace_key()});
  }
}

void Simulator::mark_fired(bool timed, std::uint32_t index,
                           std::uint32_t variant) {
  if (!use_incremental_ || dirty_all_) return;
  const FiredRows& fired = (timed ? timed_fired_ : inst_fired_)[index];
  if (fired.writes_declared == 0) {
    dirty_all_ = true;  // unknown write set: rescan everything
    return;
  }
  // kNoVariant (and any index the variant gate does not declare) falls
  // back to the union row.
  const std::uint32_t row =
      fired.first + (variant < fired.variants ? 1 + variant : 0);
  timed_dirty_.add(timed ? timed_dirty_.by_timed : timed_dirty_.by_inst, row);
  inst_dirty_.add(timed ? inst_dirty_.by_timed : inst_dirty_.by_inst, row);
  // Dynamic gates: dirty exactly the places this firing reported.
  if (fired.dynamic != 0) {
    for (const PlaceBase* p : touched_) {
      const std::uint32_t id = touched_place_id(p);
      if (id == kNoPlaceId) continue;
      timed_dirty_.add(timed_dirty_.by_place, id);
      inst_dirty_.add(inst_dirty_.by_place, id);
    }
  }
}

std::uint32_t Simulator::complete(Activity& activity, bool timed,
                                  std::uint32_t index) {
  const std::uint64_t seq = events_++;
  GateContext ctx{rng_, now_};
  // The sanitizer needs touch() reports even in full-scan mode (the
  // missed-touch check compares actual writes against them); collecting
  // them never changes gate behavior.
  if (use_incremental_ || sanitizer_ != nullptr) {
    touched_.clear();
    ctx.touched = &touched_;
  }
  if (trace_ != nullptr) {
    ctx.trace = trace_;
    ctx.seq = seq;
  }
  if (sanitizer_ != nullptr) {
    ctx.sanitizer = sanitizer_.get();
    sanitizer_->begin_firing(activity, ctx);
  }
  const std::size_t case_index = compiled_->fire(
      *(timed ? timed_compiled_[index] : inst_compiled_[index]), ctx);
  if (sanitizer_ != nullptr) sanitizer_->end_firing();
  for (RewardVariable* r : impulse_rewards_) r->on_completion(activity, now_);
  if (trace_ == nullptr) return ctx.variant;
  if (trace_->wants(TraceCategory::kFire)) {
    trace_->on_event(TraceEvent{TraceCategory::kFire, now_, seq,
                                activity.name(),
                                static_cast<std::int64_t>(case_index), 0, {},
                                nullptr, activity.trace_key()});
  }
  if (trace_->wants(TraceCategory::kMarking)) {
    const auto& writes =
        timed ? timed_trace_writes_[index] : inst_trace_writes_[index];
    for (const PlaceBase* place : writes) {
      trace_->on_event(TraceEvent{TraceCategory::kMarking, now_, seq,
                                  place->name(), 0, 0, {}, place,
                                  place->trace_key()});
    }
  }
  return ctx.variant;
}

void Simulator::settle() {
  std::uint32_t chain = 0;
  for (;;) {
    if (!use_incremental_ || dirty_all_) {
      // Full scan: re-evaluate every activity's enabling.
      for (std::uint32_t t = 0; t < activities_.size(); ++t) {
        transition_timed(t);
      }
      for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
        set_inst_enabled(j, eval_inst(j));
      }
      enabling_evals_ += activities_.size() + instantaneous_.size();
      if (use_incremental_) {
        // The bit scan below zeroes dirty words as it consumes them; only
        // a full rescan leaves stale bits behind.
        timed_dirty_.clear();
        inst_dirty_.clear();
        dirty_all_ = false;
      }
    } else {
      // Incremental: only the activities whose read set intersects the
      // places written since the last round, plus the undeclared-footprint
      // ones. Timed re-evaluation runs in ascending activity order — the
      // order schedule() consumes the RNG in a full scan — which keeps
      // trajectories bit-identical. Instantaneous evaluations are pure
      // predicate reads, so their order does not matter.
      enabling_evals_ += timed_dirty_.drain(
          [this](std::uint32_t t) { transition_timed(t); });
      enabling_evals_ += inst_dirty_.drain(
          [this](std::uint32_t j) { set_inst_enabled(j, eval_inst(j)); });
    }
    // Fire the highest-priority enabled instantaneous activity, if any
    // (ties resolve to the lowest index): the first set bit of the
    // priority-ordered enabled mask. The enabled count skips the search
    // in the common nothing-enabled round.
    if (inst_enabled_count_ == 0) return;
    std::uint32_t next_index = 0;
    for (std::size_t w = 0; w < inst_enabled_bits_.size(); ++w) {
      if (inst_enabled_bits_[w] != 0) {
        const auto pos = static_cast<std::uint32_t>(
            w * 64 +
            static_cast<std::size_t>(std::countr_zero(inst_enabled_bits_[w])));
        next_index = inst_prio_order_[pos];
        break;
      }
    }
    Activity* next = instantaneous_[next_index];
    if (++chain > config_.max_instantaneous_chain) {
      throw std::logic_error(
          "Simulator: instantaneous livelock (activity " + next->name() +
          " still enabled after " + std::to_string(chain) + " zero-time firings)");
    }
    mark_fired(false, next_index,
               complete(*next, /*timed=*/false, next_index));
  }
}

void Simulator::reset() {
  if (model_ == nullptr) {
    throw std::logic_error("Simulator: reset() before set_model()");
  }
  // Block-copy restore: one memcpy of the initial-marking image (plus
  // pod-vector spans); no per-place virtual reset() calls.
  compiled_->reset_markings();
  for (TimedHot& hot : timed_hot_) {
    ++hot.activation;  // invalidate any still-queued events
    hot.scheduled = 0;
  }
  for (RewardVariable* r : rewards_) r->reset();
  split_rewards();  // picks up impulses added since add_reward()
  if (trace_ != nullptr && trace_->wants(TraceCategory::kMarking) &&
      !trace_writes_built_) {
    build_trace_write_lists();
  }
  cal_clear();
  now_ = 0.0;
  seq_ = 0;
  events_ = 0;
  aborted_events_ = 0;
  enabling_evals_ = 0;
  hit_event_cap_ = false;
  started_ = true;
  if (config_.verify_footprints) {
    if (sanitizer_ == nullptr) {
      // The invariant analysis fixes y·m0 from the live marking, which
      // reset_markings() above just restored to the initial one.
      sanitizer_ = std::make_unique<FootprintSanitizer>(
          analyze::analyze_invariants(*model_));
    }
    sanitizer_->on_reset();
  }
  ScopedListener guard(sanitizer_.get());
  dirty_all_ = true;  // initial activations: everything gets a first look
  settle();
}

void Simulator::reset(std::uint64_t seed, bool antithetic) {
  config_.seed = seed;
  rng_ = stats::Rng(seed);
  // Before reset(): the time-zero activations already draw variates.
  rng_.set_antithetic(antithetic);
  reset();
}

// Flattened: the per-event path (complete, mark_fired, settle and what
// they call, short of the gate closures) is inlined into this loop. GCC
// otherwise calls all three out of line; inlining them cut paper_grid
// wall time by about 5%.
[[gnu::flatten]] RunStats Simulator::advance_until(Time t) {
  if (!started_) {
    throw std::logic_error("Simulator: advance_until() before reset()");
  }
  ScopedListener guard(sanitizer_.get());
  const Time horizon = std::min(t, config_.end_time);
  while (cal_size_ != 0 && !hit_event_cap_) {
    if (events_ >= config_.max_events) {
      hit_event_cap_ = true;
      break;
    }
    const Event ev = cal_peek();
    if (ev.time > horizon) break;
    cal_pop();
    if (ev.activation != timed_hot_[ev.timed_index].activation) {
      ++aborted_events_;  // stale activation: lazily cancelled
      continue;
    }
    advance_time(ev.time);
    cancel_timed(ev.timed_index);  // consume this activation
    mark_fired(true, ev.timed_index,
               complete(*activities_[ev.timed_index], /*timed=*/true,
                        ev.timed_index));
    settle();
  }
  advance_time(horizon);
  RunStats stats;
  stats.end_time = now_;
  stats.events = events_;
  stats.hit_event_cap = hit_event_cap_;
  stats.enabling_evals = enabling_evals_;
  stats.aborted_events = aborted_events_;
  return stats;
}

RunStats Simulator::run() {
  reset();
  return advance_until(config_.end_time);
}

const FootprintReport* Simulator::footprint_report() {
  if (sanitizer_ == nullptr) return nullptr;
  sanitizer_->finish_run();
  return &sanitizer_->report();
}

RunStats run_once(ComposedModel& model, const SimulatorConfig& config,
                  std::vector<RewardVariable*> rewards) {
  Simulator sim(config);
  sim.set_model(model);
  for (RewardVariable* r : rewards) sim.add_reward(*r);
  return sim.run();
}

}  // namespace vcpusim::san
