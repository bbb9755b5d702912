// Discrete-event simulator executing a ComposedModel under SAN semantics.
//
// Execution rules:
//  * A timed activity is *activated* when it becomes enabled: a completion
//    delay is sampled and a completion event scheduled. If a marking
//    change disables it before completion, the activation is aborted
//    (race/abort semantics). Firing while still enabled re-activates it.
//  * Instantaneous activities complete in zero time as soon as they are
//    enabled; among simultaneously enabled instantaneous activities the
//    highest priority fires first.
//  * Timed completions at the same instant fire in descending priority,
//    FIFO within equal priority.
//  * After every completion the enabling of affected activities is
//    re-evaluated. When gates declare their marking footprints
//    (GateAccess), a place -> dependent-activities index built at
//    set_model() time restricts re-evaluation to activities whose read
//    set intersects the fired activity's write set — O(affected) instead
//    of O(all activities). Activities with undeclared read footprints are
//    re-evaluated every time, and a fired activity with an undeclared
//    write footprint forces a full re-scan, so partially annotated models
//    stay correct. Two per-firing reports narrow this further. A gate
//    that reports which of its declared EffectVariants it executed
//    (GateContext::report_variant) dirties only that variant's places:
//    the firing ORs a row precomputed per (activity, variant), so a VCPU
//    Clock's plain progress tick dirties only itself. Gates declared
//    with access_dynamic() dirty only the places they reported via
//    GateContext::touch(), so a wide-footprint gate (the scheduler
//    bridge) that leaves most slots untouched on a given firing does not
//    dirty them. See docs/PERFORMANCE.md.
//
// Rate rewards are accrued over each dwell interval before the marking
// changes; impulse rewards on each completion.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "san/compiled.hpp"
#include "san/model.hpp"
#include "san/reward.hpp"
#include "san/sanitizer.hpp"
#include "san/trace.hpp"
#include "stats/rng.hpp"

namespace vcpusim::san {

struct SimulatorConfig {
  Time end_time = 1000.0;
  std::uint64_t seed = 1;
  /// Safety valve against run-away models.
  std::uint64_t max_events = 500'000'000;
  /// Max instantaneous completions at one instant before the simulator
  /// declares the model ill-formed (zero-time livelock).
  std::uint32_t max_instantaneous_chain = 1'000'000;
  /// Use the footprint-driven enabling index (identical trajectories to
  /// the full scan as long as declared footprints are complete). false
  /// selects the full-scan reference that the kernel's equivalence tests
  /// and BM_SettleEnabling compare against; no run option forwards it.
  bool incremental_enabling = true;
  /// Footprint sanitizer (san/sanitizer.hpp): verify every gate's place
  /// accesses against its declared footprint and re-check statically
  /// proven invariants/bounds after each firing. Observation-only — the
  /// trajectory stays bit-identical — but each place access costs a
  /// check, so off by default; when off the only residue is one
  /// thread-local null test per access. Inspect results through
  /// footprint_report(). set_model() always compiles the model
  /// (san/compiled.hpp); under verify_footprints the compiled kernel
  /// keeps its arena but dispatches every gate through the closure
  /// trampoline so the sanitizer sees each place access.
  bool verify_footprints = false;
};

struct RunStats {
  Time end_time = 0.0;        ///< time the run stopped at
  std::uint64_t events = 0;   ///< total activity completions
  bool hit_event_cap = false; ///< stopped by max_events, not end_time
  /// Enabling re-evaluations performed by settle() (predicate checks of
  /// timed and instantaneous activities). With incremental enabling this
  /// is the direct measure of how much rescan work the declared (and
  /// dynamic) footprints avoid: a full scan costs one eval per activity
  /// per settle round.
  std::uint64_t enabling_evals = 0;
  /// Stale events popped and discarded (their activity was aborted after
  /// the event was queued): the lazy-cancellation overhead of the event
  /// queue, and the direct measure of scheduler-induced churn.
  std::uint64_t aborted_events = 0;
};

class Simulator {
 public:
  explicit Simulator(SimulatorConfig config);

  /// Register the model to execute. Compiles it into the arena kernel
  /// and builds the enabling-dependency index from the model's declared
  /// gate footprints. The model's marking is reset at the start of
  /// run(). Must be called before run(); calling it again swaps the
  /// model and rebuilds the index (the next run() or reset() starts from
  /// the new model's initial marking). If compilation throws (e.g. the
  /// model is already arena-bound by another simulator) no model is
  /// registered: reset()/run() throw until a set_model() succeeds.
  void set_model(ComposedModel& model);

  /// Register a reward variable (reset at the start of run()). Dwell
  /// intervals go only to variables with a rate component, completions
  /// only to variables with impulses; an impulse added to a registered
  /// variable counts from the next reset().
  void add_reward(RewardVariable& reward);

  /// Drop every registered reward variable (metric bindings are rebuilt
  /// from scratch when a pooled system is rebound to a new run).
  void clear_rewards() noexcept {
    rewards_.clear();
    rate_rewards_.clear();
    impulse_rewards_.clear();
  }

  /// Attach (or with nullptr detach) the structured trace sink. With no
  /// sink attached every emission site costs one null-pointer test —
  /// the steady state stays allocation-free. With a sink attached the
  /// simulator emits, per completion: any gate-emitted events (e.g.
  /// scheduler decisions), the kFire event, then kMarking events for
  /// the fired activity's declared write set; kEnabling events are
  /// emitted whenever a timed activity is activated or aborted. The
  /// stream is a pure function of the trajectory (see san/trace.hpp).
  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }
  TraceSink* trace() const noexcept { return trace_; }

  /// Execute one replication from the initial marking to end_time.
  /// Throws std::logic_error if no model was set or an instantaneous
  /// livelock is detected. Equivalent to reset() + advance_until(end).
  RunStats run();

  // --- Incremental execution (steady-state estimation, stepping) ----
  /// Restore the initial marking, clear rewards and pending events, and
  /// perform the time-zero activations. Must be called before the first
  /// advance_until().
  void reset();

  /// reset() with a fresh RNG stream: re-seeds the generator before the
  /// time-zero activations so a reused simulator replays exactly the
  /// replication a fresh Simulator{config with .seed = seed} would run.
  /// With `antithetic` set every variate draw of the replication is
  /// mirrored (stats::Rng::set_antithetic) — the antithetic partner of
  /// the un-mirrored run on the same seed.
  void reset(std::uint64_t seed, bool antithetic = false);

  /// Process events up to and including time `t` (capped at the
  /// configured end_time) and accrue rewards to min(t, end_time).
  /// Returns cumulative statistics since reset().
  RunStats advance_until(Time t);

  Time now() const noexcept { return now_; }
  stats::Rng& rng() noexcept { return rng_; }

  /// Compile-time census of the lowered model (all-zero before a
  /// successful set_model()).
  KernelStats kernel_stats() const noexcept {
    return compiled_ != nullptr ? compiled_->stats() : KernelStats{};
  }

  /// Sanitizer results (config.verify_footprints): finalizes the
  /// end-of-run advisories and returns the report, or nullptr when the
  /// sanitizer is off. Violations accumulate until the next reset().
  const FootprintReport* footprint_report();

  /// The static invariant analysis backing the sanitizer's structural
  /// checks; nullptr when verify_footprints is off or reset() has not
  /// yet built it.
  const analyze::InvariantAnalysis* invariant_analysis() const noexcept {
    return sanitizer_ != nullptr ? &sanitizer_->analysis() : nullptr;
  }

 private:
  /// 32 bytes: the activity is reached through timed_index instead of a
  /// redundant pointer, so two events share a cache line.
  struct Event {
    Time time;
    std::uint64_t seq;  // FIFO tie-break
    std::uint64_t activation;
    int priority;               // higher fires first at equal time
    std::uint32_t timed_index;  // into activities_
  };
  static_assert(std::is_trivially_copyable_v<Event>,
                "Event must stay a trivially copyable POD: the calendar "
                "slots are flat vectors churned in the hot loop");

  /// Event calendar: a ring of kCalendarSlots unit-width time buckets.
  /// The virtualization models are clock-driven (unit Clock activities,
  /// integer load durations), so a bucket is exactly one tick's worth of
  /// events: pops are a cursor bump and the bulk push pattern — same
  /// time, same priority, ascending seq — lands at the slot tail as an
  /// O(1) append. Events beyond the ring window park in an overflow list
  /// and are folded in as the window advances.
  ///
  /// Fire order is (time ascending, priority descending, seq ascending);
  /// seq is unique, so the order is total. Time is the primary key, so
  /// every event of bucket b fires before any event of bucket b+1, and
  /// within a slot events are kept sorted ascending by fire order.
  static constexpr std::size_t kCalendarSlots = 128;  // power of two
  struct CalSlot {
    std::vector<Event> events;  ///< ascending fire order from `head`
    std::uint32_t head = 0;     ///< events[head] = next to fire
  };
  /// Bucket of a fire time (unit width). Times too large for uint64
  /// collapse into one far-future bucket; order within it still holds.
  static std::uint64_t cal_bucket(Time t) noexcept {
    constexpr double kMax = 9.0e18;  // < 2^63, safely representable
    return t < kMax ? static_cast<std::uint64_t>(t)
                    : static_cast<std::uint64_t>(kMax);
  }
  /// True when `a` fires strictly before `b`.
  static bool fires_before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq < b.seq;
  }
  void cal_slot_insert(const Event& ev) {
    CalSlot& slot = cal_slots_[cal_bucket(ev.time) & (kCalendarSlots - 1)];
    if (slot.events.empty() || fires_before(slot.events.back(), ev)) {
      slot.events.push_back(ev);  // bulk FIFO fast path
      return;
    }
    const auto pos =
        std::upper_bound(slot.events.begin() + slot.head, slot.events.end(),
                         ev, &Simulator::fires_before);
    slot.events.insert(pos, ev);
  }
  void cal_push(const Event& ev) {
    const std::uint64_t b = cal_bucket(ev.time);
    if (b - cal_base_ < kCalendarSlots) {  // b >= cal_base_ always holds
      cal_slot_insert(ev);
    } else {
      if (b < cal_overflow_min_) cal_overflow_min_ = b;
      cal_overflow_.push_back(ev);
    }
    ++cal_size_;
  }
  /// Move every overflow event whose bucket entered the ring window into
  /// its slot; recompute the overflow minimum.
  void cal_drain_overflow() {
    std::uint64_t new_min = ~std::uint64_t{0};
    std::size_t keep = 0;
    for (const Event& ev : cal_overflow_) {
      const std::uint64_t b = cal_bucket(ev.time);
      if (b - cal_base_ < kCalendarSlots) {
        cal_slot_insert(ev);
      } else {
        if (b < new_min) new_min = b;
        cal_overflow_[keep++] = ev;
      }
    }
    cal_overflow_.resize(keep);
    cal_overflow_min_ = new_min;
  }
  /// Next event to fire; advances past drained slots. Only called when
  /// the calendar is non-empty.
  const Event& cal_peek() {
    for (;;) {
      CalSlot& slot = cal_slots_[cal_base_ & (kCalendarSlots - 1)];
      if (slot.head < slot.events.size()) return slot.events[slot.head];
      if (!slot.events.empty()) {
        slot.events.clear();  // fully drained tick: recycle the buffer
        slot.head = 0;
      }
      ++cal_base_;
      if (cal_overflow_min_ < cal_base_ + kCalendarSlots) {
        cal_drain_overflow();
      } else if (cal_size_ == cal_overflow_.size()) {
        // Ring empty: jump the window straight to the earliest parked
        // event instead of walking every empty bucket in between.
        cal_base_ = cal_overflow_min_;
        cal_drain_overflow();
      }
    }
  }
  void cal_pop() {
    ++cal_slots_[cal_base_ & (kCalendarSlots - 1)].head;
    --cal_size_;
  }
  void cal_clear() {
    cal_slots_.resize(kCalendarSlots);
    for (CalSlot& slot : cal_slots_) {
      slot.events.clear();
      slot.head = 0;
    }
    cal_overflow_.clear();
    cal_overflow_min_ = ~std::uint64_t{0};
    cal_size_ = 0;
    cal_base_ = 0;
  }

  /// Dense per-timed-activity scheduling state: the fields the event
  /// loop touches per transition, packed so the whole table stays
  /// L1-resident. A queued event carries the activation id at schedule
  /// time; consuming or aborting the activation bumps the id, so stale
  /// events are skipped when popped. `delay` is the activity's
  /// distribution, reached without the sample_delay indirection.
  struct TimedHot {
    std::uint64_t activation = 0;
    const stats::Distribution* delay = nullptr;
    /// Distribution::rng_free_constant(): the delay without the virtual
    /// sample call when non-negative (the unit Clocks), else sentinel.
    double det_delay = -1.0;
    std::int32_t priority = 0;
    std::uint8_t scheduled = 0;
  };
  /// One side (timed or instantaneous) of the incremental-enabling dirty
  /// set: one bit per activity. A firing ORs its precompiled row into
  /// `dirty`; settle() visits the set bits of (dirty | always) in
  /// ascending order and zeroes each word as it consumes it. Rows are
  /// `words` wide and indexed by place id or fired row (FiredRows).
  struct DirtySet {
    std::size_t words = 0;
    std::vector<std::uint64_t> dirty;
    std::vector<std::uint64_t> always;    ///< opaque-read activities
    std::vector<std::uint64_t> by_place;  ///< dependents of each place
    std::vector<std::uint64_t> by_timed;  ///< dirtied by each timed firing
    std::vector<std::uint64_t> by_inst;   ///< dirtied by each inst firing

    void add(const std::vector<std::uint64_t>& rows, std::uint32_t row) {
      const std::uint64_t* mask = rows.data() + std::size_t{row} * words;
      for (std::size_t w = 0; w < words; ++w) dirty[w] |= mask[w];
    }
    void clear() { std::fill(dirty.begin(), dirty.end(), 0); }
    /// Call `visit(index)` for each set bit of (dirty | always),
    /// ascending, zeroing `dirty`. Returns the number of visits, counted
    /// in the bit loop: baseline x86-64 has no POPCNT instruction, so
    /// std::popcount would be a libgcc call per word.
    template <typename Visit>
    std::uint64_t drain(Visit&& visit) {
      std::uint64_t visits = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = dirty[w] | always[w];
        dirty[w] = 0;
        const std::uint32_t base = static_cast<std::uint32_t>(w) * 64;
        while (bits != 0) {
          visit(base + static_cast<std::uint32_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          ++visits;
        }
      }
      return visits;
    }
  };

  /// Where one activity's fired rows sit in DirtySet::by_timed /
  /// by_inst, and how its firing is dirtied. Row `first` is the union
  /// row (every declared write); a reported variant k < `variants` of
  /// its variant gate uses row first + 1 + k instead.
  struct FiredRows {
    std::uint32_t first = 0;
    std::uint32_t variants = 0;
    /// 0: some gate is undeclared, so a firing forces a full rescan.
    std::uint8_t writes_declared = 1;
    /// 1: a dynamic-writes gate (GateAccess::dynamic_writes) reports its
    /// writes through GateContext::touch(); they are dirtied on top of
    /// the row, which holds only the other gates' writes.
    std::uint8_t dynamic = 0;
  };

  /// Build the dirty sets' rows from the declared gate footprints; also
  /// fills place_ids_, touch_lookup_ and the FiredRows tables.
  void build_enabling_index();
  /// Evaluate one activity's predicate program inside the sanitizer's
  /// predicate scope. Sanitized runs compile with force_trampoline, so
  /// the program calls the input gates' predicate closures in order.
  bool eval_sanitized(const Activity& a,
                      const CompiledModel::CompiledActivity& c);
  /// Enabling checks. Sanitized runs go through eval_sanitized (the
  /// sanitizer brackets the closure evaluation); otherwise the compiled
  /// kernel evaluates straight off the arena.
  bool eval_timed(std::uint32_t timed_index) {
    if (sanitizer_ != nullptr) {
      return eval_sanitized(*activities_[timed_index],
                            *timed_compiled_[timed_index]);
    }
    return compiled_->enabled(*timed_compiled_[timed_index]);
  }
  bool eval_inst(std::uint32_t inst_index) {
    if (sanitizer_ != nullptr) {
      return eval_sanitized(*instantaneous_[inst_index],
                            *inst_compiled_[inst_index]);
    }
    return compiled_->enabled(*inst_compiled_[inst_index]);
  }
  /// Consume or abort a timed activity's current activation.
  void cancel_timed(std::uint32_t timed_index) {
    TimedHot& hot = timed_hot_[timed_index];
    ++hot.activation;
    hot.scheduled = 0;
  }
  /// Update one cached instantaneous-enabling flag, maintaining the
  /// enabled count the settle loop uses to skip the selection when
  /// nothing is enabled.
  void set_inst_enabled(std::uint32_t inst_index, bool enabled) {
    const std::uint32_t pos = inst_prio_pos_[inst_index];
    std::uint64_t& word = inst_enabled_bits_[pos >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
    if (((word & bit) != 0) == enabled) return;
    word ^= bit;
    inst_enabled_count_ += enabled ? 1 : -1;
  }
  /// Declared-write lists for kMarking trace events (per activity, from
  /// the static gate footprints — mode-independent, so traces match
  /// across incremental on/off). Built on the first reset() with a
  /// marking-interested sink attached.
  void build_trace_write_lists();
  /// Rebuild rate_rewards_ / impulse_rewards_ from rewards_.
  void split_rewards();
  void advance_time(Time to);
  /// Fire one activity; returns the variant its gates reported
  /// (kNoVariant when none did).
  std::uint32_t complete(Activity& activity, bool timed, std::uint32_t index);
  /// (Re)activate / abort timed activities after a marking change and
  /// fire any enabled instantaneous activities (in priority order) until
  /// quiescent.
  void settle();
  void schedule(std::uint32_t timed_index);
  /// Re-evaluate one timed activity's enabling (activate / abort).
  void transition_timed(std::uint32_t timed_index);
  /// Record the marking changes of a completed activity, which reported
  /// `variant`, in the dirty set.
  void mark_fired(bool timed, std::uint32_t index, std::uint32_t variant);
  /// Enabling-index id of a place a gate reported through touch(), or
  /// kNoPlaceId when touching it can dirty nothing (a model place no
  /// enabling predicate reads, or a place in no footprint). The dense
  /// compiled id resolves model places with an array load; the hash probe
  /// covers places a footprint names outside the compiled model.
  std::uint32_t touched_place_id(const PlaceBase* p) const {
    const std::uint32_t cid = p->compiled_id();
    if (cid < touch_lookup_.size()) return touch_lookup_[cid];
    const auto it = place_ids_.find(p);
    return it != place_ids_.end() ? it->second : kNoPlaceId;
  }

  SimulatorConfig config_;
  ComposedModel* model_ = nullptr;
  std::vector<Activity*> activities_;
  std::vector<Activity*> instantaneous_;
  std::vector<RewardVariable*> rewards_;
  /// rewards_ split by kind (split_rewards): the per-event loops walk
  /// only the variables that can accrue there.
  std::vector<RewardVariable*> rate_rewards_;
  std::vector<RewardVariable*> impulse_rewards_;
  TraceSink* trace_ = nullptr;

  // --- compiled kernel (built by set_model) --------------------------
  std::unique_ptr<CompiledModel> compiled_;
  /// Compiled programs parallel to activities_ / instantaneous_.
  std::vector<const CompiledModel::CompiledActivity*> timed_compiled_;
  std::vector<const CompiledModel::CompiledActivity*> inst_compiled_;
  std::vector<TimedHot> timed_hot_;  ///< parallel to activities_
  /// Dense compiled place id -> enabling-index place id (kNoPlaceId for
  /// places no enabling predicate reads, so touching one costs no row
  /// OR); replaces the hash probe on touch() reports.
  static constexpr std::uint32_t kNoPlaceId = 0xffff'ffffu;
  std::vector<std::uint32_t> touch_lookup_;
  std::int64_t inst_enabled_count_ = 0;
  /// Built lazily on the first reset() with verify_footprints set (the
  /// invariant analysis needs the initial marking); installed as the
  /// thread-local place-access listener for the duration of each
  /// reset()/advance_until() call.
  std::unique_ptr<FootprintSanitizer> sanitizer_;
  bool trace_writes_built_ = false;
  std::vector<std::vector<const PlaceBase*>> timed_trace_writes_;
  std::vector<std::vector<const PlaceBase*>> inst_trace_writes_;
  // Bucketed event calendar (see cal_* above).
  std::vector<CalSlot> cal_slots_;
  std::vector<Event> cal_overflow_;
  std::size_t cal_size_ = 0;
  std::uint64_t cal_base_ = 0;  ///< bucket index of the current slot
  std::uint64_t cal_overflow_min_ = ~std::uint64_t{0};
  stats::Rng rng_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t aborted_events_ = 0;
  std::uint64_t enabling_evals_ = 0;
  bool started_ = false;
  bool hit_event_cap_ = false;

  // --- footprint-driven enabling index (built by set_model) ----------
  bool use_incremental_ = false;
  std::unordered_map<const PlaceBase*, std::uint32_t> place_ids_;
  std::vector<FiredRows> timed_fired_;  ///< parallel to activities_
  std::vector<FiredRows> inst_fired_;   ///< parallel to instantaneous_
  std::vector<const PlaceBase*> touched_;  // per-firing touch collector

  // --- per-round dirty state -----------------------------------------
  /// Set when a fired activity's write set is unknown (and for the
  /// time-zero activations): the next settle round is a full scan.
  bool dirty_all_ = true;
  DirtySet timed_dirty_;
  DirtySet inst_dirty_;
  /// Cached instantaneous enabling flags, as a bitmask over
  /// priority-ordered positions ((priority desc, index asc), so the
  /// lowest set position is the highest-priority enabled activity,
  /// lowest index on ties).
  std::vector<std::uint64_t> inst_enabled_bits_;
  std::vector<std::uint32_t> inst_prio_order_;  // position -> inst index
  std::vector<std::uint32_t> inst_prio_pos_;    // inst index -> position
};

/// Convenience: reset `model`, run it once with `config`, return stats.
RunStats run_once(ComposedModel& model, const SimulatorConfig& config,
                  std::vector<RewardVariable*> rewards = {});

}  // namespace vcpusim::san
