// Footprint sanitizer: runtime verification of the GateAccess trust
// model ("TSan for the model").
//
// Every speedup in the engine — incremental enabling, dynamic scheduler
// footprints, pooled replication — trusts that declared footprints are
// complete. The sanitizer makes that trust checkable: installed as the
// thread-local PlaceAccessListener for a run, it observes every
// Place<T>::get/mut/set and checks, per gate execution, that
//   * reads hit the gate's declared reads-or-writes,
//   * writes hit the gate's declared writes,
//   * enabling predicates never write,
//   * dynamic-writes gates report every actual write via touch(),
//   * a gate that reports its executed EffectVariant
//     (GateContext::report_variant) names one it declares, and writes
//     only that variant's places,
//   * statically-proven invariants and token bounds still hold after
//     each firing (re-checked only when the firing wrote a place in the
//     invariant's support).
// At end of run it additionally flags declared writes that never
// happened (advisory: conditional writes are normal, but a write that
// is *never* exercised is a stale declaration keeping dirty sets wide).
//
// The sanitizer is observation-only: it never changes markings, never
// consumes randomness, and never throws from inside the engine, so a
// sanitized run walks a bit-identical trajectory. With the mode off the
// entire machinery reduces to one thread-local null check per place
// access.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "san/activity.hpp"
#include "san/analyze/invariants.hpp"
#include "san/gate.hpp"
#include "san/place.hpp"

namespace vcpusim::san {

enum class ViolationKind {
  kUndeclaredRead,     ///< gate read a place outside reads+writes
  kUndeclaredWrite,    ///< gate wrote a place outside writes
  kPredicateWrite,     ///< enabling predicate mutated the marking
  kMissedTouch,        ///< dynamic gate wrote without touch()ing
  kWriteOutsideVariant, ///< gate wrote a place its reported variant omits
  kVariantOutOfRange,  ///< reported variant index the gate does not declare
  kInvariantViolated,  ///< proven conservation law broke after a firing
  kBoundViolated,      ///< proven token bound exceeded after a firing
  kStaleDeclaredWrite, ///< declared write never performed (advisory)
};

const char* to_string(ViolationKind kind) noexcept;

struct FootprintViolation {
  ViolationKind kind = ViolationKind::kUndeclaredRead;
  std::string activity;
  std::string gate;
  std::string place;    ///< place/token name, or the invariant's symbolic form
  std::string message;

  /// Advisories never fail a run.
  bool advisory() const noexcept {
    return kind == ViolationKind::kStaleDeclaredWrite;
  }
  std::string to_text() const;
};

struct FootprintReport {
  std::vector<FootprintViolation> violations;
  /// Deduplicated repeats and entries beyond the storage cap.
  std::uint64_t suppressed = 0;

  std::size_t errors() const noexcept;
  bool clean() const noexcept { return errors() == 0; }
  std::string render_text() const;
};

/// Installed by san::Simulator when SimulatorConfig::verify_footprints
/// is set; every hook is driven by the engine, never by gate code.
class FootprintSanitizer final : public PlaceAccessListener {
 public:
  explicit FootprintSanitizer(analyze::InvariantAnalysis analysis);

  // --- run lifecycle (Simulator::reset / end of run) -----------------
  /// Re-fix invariant expected values from the (freshly reset) marking
  /// and clear per-run bookkeeping. Violations accumulate across runs.
  void on_reset();
  /// Emit the end-of-run advisories (idempotent until the next reset).
  void finish_run();

  // --- engine notifications ------------------------------------------
  void begin_predicate(const Activity& activity);
  void end_predicate();
  void begin_firing(const Activity& activity, GateContext& ctx);
  /// Called by the compiled fire program before each gate function
  /// runs; closes the checks of the previous gate of this firing.
  void enter_gate(const std::string& gate_name, const GateAccess& footprint);
  void end_firing();

  const FootprintReport& report() const noexcept { return report_; }
  const analyze::InvariantAnalysis& analysis() const noexcept {
    return analysis_;
  }

  // --- PlaceAccessListener -------------------------------------------
  void on_read(const PlaceBase& place) override;
  void on_write(const PlaceBase& place) override;

 private:
  enum class Mode { kIdle, kPredicate, kFiring };

  struct GateStats {
    std::string activity;
    std::string gate;
    const GateAccess* footprint = nullptr;
    std::uint64_t fires = 0;
    std::unordered_set<const PlaceBase*> written;
  };

  void close_gate();
  /// Check a variant report of the current gate against its footprint.
  void check_variant(const GateAccess& fp, std::uint32_t reported);
  void record(ViolationKind kind, const std::string& gate,
              const std::string& place, std::string message);
  void check_structures();

  analyze::InvariantAnalysis analysis_;
  std::vector<std::int64_t> expected_;  ///< per-invariant y·m0
  /// place -> invariant / bound indices whose support it carries.
  std::unordered_map<const PlaceBase*, std::vector<std::size_t>>
      invariants_of_place_;
  std::unordered_map<const PlaceBase*, std::vector<std::size_t>>
      bounds_of_place_;

  Mode mode_ = Mode::kIdle;
  const Activity* activity_ = nullptr;
  GateContext* ctx_ = nullptr;
  const GateAccess* gate_footprint_ = nullptr;
  std::string gate_name_;
  /// The firing's variant report before the current gate ran: the gate
  /// runs with GateContext::variant cleared, so close_gate sees exactly
  /// its own report, and restores this when it reported none.
  std::uint32_t variant_before_ = kNoVariant;
  std::vector<const PlaceBase*> gate_writes_;    ///< unique, current gate
  std::vector<const PlaceBase*> firing_writes_;  ///< unique, current firing

  std::unordered_map<const GateAccess*, GateStats> gate_stats_;
  std::unordered_set<std::string> seen_;  ///< violation dedup keys
  FootprintReport report_;
  bool finished_ = false;

  static constexpr std::size_t kMaxStored = 200;
};

}  // namespace vcpusim::san
