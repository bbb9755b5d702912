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
  {
    compile_profile_.set_enabled(config_.profile);
    stats::ScopedPhaseTimer timer(&compile_profile_, stats::Phase::kCompile);
    compiled_ = std::make_unique<CompiledModel>(
        model, CompileOptions{.force_trampoline = config_.verify_footprints});
  }
  dirty_timed_.clear();
  dirty_inst_.clear();
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
  timed_marked_.assign(activities_.size(), 0);
  inst_marked_.assign(instantaneous_.size(), 0);
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
  if (use_incremental_) build_dependency_index();
  fast_dirty_ = use_incremental_ && !config_.verify_footprints;
  fast_inst_ = false;
  if (fast_dirty_) build_fired_masks();
  model_ = &model;
}

void Simulator::build_fired_masks() {
  mask_words_ = (activities_.size() + 63) / 64;
  timed_mask_.assign(mask_words_, 0);
  always_timed_mask_.assign(mask_words_, 0);
  for (const std::uint32_t t : always_timed_) {
    always_timed_mask_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }
  place_timed_masks_.assign(place_deps_.size() * mask_words_, 0);
  for (std::size_t p = 0; p < place_deps_.size(); ++p) {
    std::uint64_t* mask = place_timed_masks_.data() + p * mask_words_;
    for (const std::uint32_t t : place_deps_[p].timed) {
      mask[t >> 6] |= std::uint64_t{1} << (t & 63);
    }
  }
  std::vector<std::uint8_t> seen(instantaneous_.size(), 0);
  const auto build_for = [&](bool timed, std::size_t count,
                             std::vector<std::uint64_t>& masks,
                             std::vector<std::vector<std::uint32_t>>& insts) {
    masks.assign(count * mask_words_, 0);
    insts.assign(count, {});
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t* mask = masks.data() + std::size_t{i} * mask_words_;
      auto& inst_list = insts[i];
      std::fill(seen.begin(), seen.end(), std::uint8_t{0});
      const auto add_inst = [&](std::uint32_t j) {
        if (seen[j] == 0) {
          seen[j] = 1;
          inst_list.push_back(j);
        }
      };
      // The fired activity itself always gets a fresh look.
      if (timed) {
        mask[i >> 6] |= std::uint64_t{1} << (i & 63);
      } else {
        add_inst(i);
      }
      for (const std::uint32_t place :
           timed ? timed_writes_[i] : inst_writes_[i]) {
        const std::uint64_t* pm =
            place_timed_masks_.data() + std::size_t{place} * mask_words_;
        for (std::size_t w = 0; w < mask_words_; ++w) mask[w] |= pm[w];
        for (const std::uint32_t j : place_deps_[place].inst) add_inst(j);
      }
    }
  };
  build_for(true, activities_.size(), timed_fired_masks_, timed_fired_inst_);
  build_for(false, instantaneous_.size(), inst_fired_masks_, inst_fired_inst_);

  fast_inst_ = always_inst_.empty();
  if (fast_inst_) {
    inst_mask_words_ = (instantaneous_.size() + 63) / 64;
    inst_mask_.assign(inst_mask_words_, 0);
    place_inst_masks_.assign(place_deps_.size() * inst_mask_words_, 0);
    for (std::size_t p = 0; p < place_deps_.size(); ++p) {
      std::uint64_t* mask = place_inst_masks_.data() + p * inst_mask_words_;
      for (const std::uint32_t j : place_deps_[p].inst) {
        mask[j >> 6] |= std::uint64_t{1} << (j & 63);
      }
    }
    const auto pack = [&](const std::vector<std::vector<std::uint32_t>>& lists,
                          std::vector<std::uint64_t>& masks) {
      masks.assign(lists.size() * inst_mask_words_, 0);
      for (std::size_t i = 0; i < lists.size(); ++i) {
        std::uint64_t* mask = masks.data() + i * inst_mask_words_;
        for (const std::uint32_t j : lists[i]) {
          mask[j >> 6] |= std::uint64_t{1} << (j & 63);
        }
      }
    };
    pack(timed_fired_inst_, timed_fired_inst_masks_);
    pack(inst_fired_inst_, inst_fired_inst_masks_);
  }
}

void Simulator::build_dependency_index() {
  place_deps_.clear();
  place_ids_.clear();
  timed_writes_.assign(activities_.size(), {});
  inst_writes_.assign(instantaneous_.size(), {});
  timed_writes_declared_.assign(activities_.size(), 1);
  inst_writes_declared_.assign(instantaneous_.size(), 1);
  timed_dynamic_.assign(activities_.size(), 0);
  inst_dynamic_.assign(instantaneous_.size(), 0);
  always_timed_.clear();
  always_inst_.clear();

  touch_lookup_.assign(compiled_->place_count(), kNoPlaceId);
  const auto id_of = [&](const PlacePtr& place) {
    const auto [it, inserted] = place_ids_.emplace(
        place.get(), static_cast<std::uint32_t>(place_deps_.size()));
    if (inserted) {
      place_deps_.emplace_back();
      const std::uint32_t cid = place->compiled_id();
      if (cid < touch_lookup_.size()) touch_lookup_[cid] = it->second;
    }
    return it->second;
  };
  const auto add_unique = [](std::vector<std::uint32_t>& v, std::uint32_t id) {
    if (std::find(v.begin(), v.end(), id) == v.end()) v.push_back(id);
  };

  const auto index_activity = [&](const Activity& a, bool timed,
                                  std::uint32_t index) {
    // Enabling depends on the input-gate predicates, so the read set is
    // the union of the input gates' declared reads; one undeclared input
    // gate makes the activity's enabling opaque (re-evaluate always).
    // The write set unions the input functions' and every case's output
    // gates' declared writes; one undeclared gate makes the firing's
    // effect opaque (full re-scan after it fires).
    bool reads_declared = true;
    bool writes_declared = true;
    bool dynamic = false;
    std::vector<std::uint32_t> reads;
    auto& writes = timed ? timed_writes_[index] : inst_writes_[index];
    // A dynamic-writes gate keeps its static write set out of the fired
    // dirty list: the per-firing touch() reports stand in for it. The
    // places still get ids so touch lookups resolve.
    const auto add_writes = [&](const GateAccess& fp) {
      if (fp.dynamic_writes) {
        dynamic = true;
        for (const PlacePtr& p : fp.writes) id_of(p);
      } else {
        for (const PlacePtr& p : fp.writes) add_unique(writes, id_of(p));
      }
    };
    for (const InputGate& gate : a.input_gates()) {
      if (!gate.footprint.declared) {
        reads_declared = false;
        writes_declared = false;
        continue;
      }
      for (const PlacePtr& p : gate.footprint.reads) add_unique(reads, id_of(p));
      add_writes(gate.footprint);
    }
    for (const Case& c : a.cases()) {
      for (const OutputGate& gate : c.output_gates) {
        if (!gate.footprint.declared) {
          writes_declared = false;
          continue;
        }
        add_writes(gate.footprint);
      }
    }
    (timed ? timed_writes_declared_ : inst_writes_declared_)[index] =
        writes_declared ? 1 : 0;
    (timed ? timed_dynamic_ : inst_dynamic_)[index] =
        (dynamic && writes_declared) ? 1 : 0;
    if (!reads_declared) {
      // Kept out of place_deps_ so the settle-round merge sees each
      // activity at most twice (dirty + always), never more.
      (timed ? always_timed_ : always_inst_).push_back(index);
      return;
    }
    for (const std::uint32_t place : reads) {
      auto& deps = place_deps_[place];
      add_unique(timed ? deps.timed : deps.inst, index);
    }
  };

  for (std::uint32_t t = 0; t < activities_.size(); ++t) {
    index_activity(*activities_[t], true, t);
  }
  for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
    index_activity(*instantaneous_[j], false, j);
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
}

void Simulator::add_observer(TraceObserver& observer) {
  observers_.push_back(&observer);
}

void Simulator::advance_time(Time to) {
  if (to <= now_) return;
  for (RewardVariable* r : rewards_) r->on_advance(now_, to);
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

bool Simulator::eval_sanitized(const Activity& a) {
  sanitizer_->begin_predicate(a);
  const bool en = a.enabled();
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
                                a.name(), en ? 1 : 0, 0, {}});
  }
}

void Simulator::mark_timed(std::uint32_t timed_index) {
  if (timed_marked_[timed_index]) return;
  timed_marked_[timed_index] = 1;
  dirty_timed_.push_back(timed_index);
}

void Simulator::mark_inst(std::uint32_t inst_index) {
  if (inst_marked_[inst_index]) return;
  inst_marked_[inst_index] = 1;
  dirty_inst_.push_back(inst_index);
}

void Simulator::mark_place(std::uint32_t place_id) {
  const PlaceDeps& deps = place_deps_[place_id];
  for (const std::uint32_t t : deps.timed) mark_timed(t);
  for (const std::uint32_t j : deps.inst) mark_inst(j);
}

void Simulator::mark_fired(bool timed, std::uint32_t index) {
  if (!use_incremental_ || dirty_all_) return;
  if (fast_dirty_) {
    if ((timed ? timed_writes_declared_[index]
               : inst_writes_declared_[index]) == 0) {
      dirty_all_ = true;  // unknown write set: rescan everything
      return;
    }
    // Precompiled dependents: one mask OR per side replaces the
    // per-place dependency loops of the vector path.
    const std::uint64_t* mask =
        (timed ? timed_fired_masks_ : inst_fired_masks_).data() +
        std::size_t{index} * mask_words_;
    for (std::size_t w = 0; w < mask_words_; ++w) timed_mask_[w] |= mask[w];
    if (fast_inst_) {
      const std::uint64_t* im =
          (timed ? timed_fired_inst_masks_ : inst_fired_inst_masks_).data() +
          std::size_t{index} * inst_mask_words_;
      for (std::size_t w = 0; w < inst_mask_words_; ++w) {
        inst_mask_[w] |= im[w];
      }
    } else {
      for (const std::uint32_t j :
           (timed ? timed_fired_inst_ : inst_fired_inst_)[index]) {
        mark_inst(j);
      }
    }
    if ((timed ? timed_dynamic_[index] : inst_dynamic_[index]) != 0) {
      for (const PlaceBase* p : touched_) {
        const std::uint32_t id = touched_place_id(p);
        if (id == kNoPlaceId) continue;
        const std::uint64_t* pm =
            place_timed_masks_.data() + std::size_t{id} * mask_words_;
        for (std::size_t w = 0; w < mask_words_; ++w) timed_mask_[w] |= pm[w];
        if (fast_inst_) {
          const std::uint64_t* im =
              place_inst_masks_.data() + std::size_t{id} * inst_mask_words_;
          for (std::size_t w = 0; w < inst_mask_words_; ++w) {
            inst_mask_[w] |= im[w];
          }
        } else {
          for (const std::uint32_t j : place_deps_[id].inst) mark_inst(j);
        }
      }
    }
    return;
  }
  // The fired activity itself always needs a fresh look: a timed one may
  // still be enabled and must re-activate even if it reads nothing.
  if (timed) {
    mark_timed(index);
  } else {
    mark_inst(index);
  }
  const bool declared = timed ? timed_writes_declared_[index] != 0
                              : inst_writes_declared_[index] != 0;
  if (!declared) {
    dirty_all_ = true;  // unknown write set: rescan everything
    return;
  }
  for (const std::uint32_t place :
       timed ? timed_writes_[index] : inst_writes_[index]) {
    mark_place(place);
  }
  // Dynamic gates: dirty exactly the places this firing reported.
  if (timed ? timed_dynamic_[index] != 0 : inst_dynamic_[index] != 0) {
    for (const PlaceBase* p : touched_) {
      const std::uint32_t id = touched_place_id(p);
      if (id != kNoPlaceId) mark_place(id);
    }
  }
}

void Simulator::clear_dirty() {
  if (fast_dirty_ && dirty_all_) {
    // The bit-scan path zeroes words as it consumes them; only a full
    // rescan can leave stale bits behind.
    std::fill(timed_mask_.begin(), timed_mask_.end(), 0);
    std::fill(inst_mask_.begin(), inst_mask_.end(), 0);
  }
  for (const std::uint32_t t : dirty_timed_) timed_marked_[t] = 0;
  for (const std::uint32_t j : dirty_inst_) inst_marked_[j] = 0;
  dirty_timed_.clear();
  dirty_inst_.clear();
  dirty_all_ = false;
}

void Simulator::complete(Activity& activity, bool timed,
                         std::uint32_t index) {
  stats::ScopedPhaseTimer timer(&profile_, stats::Phase::kFire);
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
  for (RewardVariable* r : rewards_) r->on_completion(activity, now_);
  for (TraceObserver* o : observers_) o->on_fire(now_, activity, case_index);
  if (trace_ == nullptr) return;
  if (trace_->wants(TraceCategory::kFire)) {
    trace_->on_event(TraceEvent{TraceCategory::kFire, now_, seq,
                                activity.name(),
                                static_cast<std::int64_t>(case_index), 0, {}});
  }
  if (trace_->wants(TraceCategory::kMarking)) {
    const auto& writes =
        timed ? timed_trace_writes_[index] : inst_trace_writes_[index];
    for (const PlaceBase* place : writes) {
      // Rendered into the reusable buffer: marking events allocate only
      // while the buffer grows to the high-water mark, then never again.
      value_buf_.clear();
      place->value_string_to(value_buf_);
      trace_->on_event(TraceEvent{TraceCategory::kMarking, now_, seq,
                                  place->name(), 0, 0, value_buf_});
    }
  }
}

void Simulator::settle() {
  stats::ScopedPhaseTimer timer(&profile_, stats::Phase::kSettle);
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
      if (use_incremental_) clear_dirty();
    } else if (fast_dirty_) {
      // Bit-scan: ascending set bits of (dirty | always) — the same
      // activity sequence the vector merge below produces, without the
      // sort, the merge branches, or the marked-flag bookkeeping.
      for (std::size_t w = 0; w < mask_words_; ++w) {
        std::uint64_t bits = timed_mask_[w] | always_timed_mask_[w];
        timed_mask_[w] = 0;
        enabling_evals_ += static_cast<std::uint64_t>(std::popcount(bits));
        const std::uint32_t base = static_cast<std::uint32_t>(w) * 64;
        while (bits != 0) {
          const std::uint32_t t =
              base + static_cast<std::uint32_t>(std::countr_zero(bits));
          bits &= bits - 1;
          transition_timed(t);
        }
      }
      if (fast_inst_) {
        for (std::size_t w = 0; w < inst_mask_words_; ++w) {
          std::uint64_t bits = inst_mask_[w];
          inst_mask_[w] = 0;
          enabling_evals_ += static_cast<std::uint64_t>(std::popcount(bits));
          const std::uint32_t base = static_cast<std::uint32_t>(w) * 64;
          while (bits != 0) {
            const std::uint32_t j =
                base + static_cast<std::uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            set_inst_enabled(j, eval_inst(j));
          }
        }
      } else {
        for (const std::uint32_t j : dirty_inst_) {
          set_inst_enabled(j, eval_inst(j));
        }
        for (const std::uint32_t j : always_inst_) {
          set_inst_enabled(j, eval_inst(j));
        }
        enabling_evals_ += dirty_inst_.size() + always_inst_.size();
      }
      clear_dirty();
    } else {
      // Incremental: only activities whose read set intersects the places
      // written since the last round, plus the undeclared-footprint ones.
      // Timed re-evaluation must run in ascending activity order — the
      // order schedule() consumes the RNG in a full scan — to keep
      // trajectories bit-identical.
      std::sort(dirty_timed_.begin(), dirty_timed_.end());
      std::size_t di = 0;
      std::size_t ai = 0;
      while (di < dirty_timed_.size() || ai < always_timed_.size()) {
        std::uint32_t t;
        if (ai == always_timed_.size()) {
          t = dirty_timed_[di++];
        } else if (di == dirty_timed_.size()) {
          t = always_timed_[ai++];
        } else if (dirty_timed_[di] < always_timed_[ai]) {
          t = dirty_timed_[di++];
        } else if (always_timed_[ai] < dirty_timed_[di]) {
          t = always_timed_[ai++];
        } else {
          t = dirty_timed_[di++];
          ++ai;
        }
        transition_timed(t);
        ++enabling_evals_;
      }
      for (const std::uint32_t j : dirty_inst_) {
        set_inst_enabled(j, eval_inst(j));
      }
      for (const std::uint32_t j : always_inst_) {
        set_inst_enabled(j, eval_inst(j));
      }
      enabling_evals_ += dirty_inst_.size() + always_inst_.size();
      clear_dirty();
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
    complete(*next, /*timed=*/false, next_index);
    mark_fired(false, next_index);
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
  profile_.reset();
  profile_.set_enabled(config_.profile);
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
  clear_dirty();
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

RunStats Simulator::advance_until(Time t) {
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
    complete(*activities_[ev.timed_index], /*timed=*/true, ev.timed_index);
    mark_fired(true, ev.timed_index);
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
