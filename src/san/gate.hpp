// SAN input and output gates.
//
// An input gate gives an activity (a) an enabling predicate over the
// marking and (b) an input function executed when the activity completes.
// An output gate is a marking-update function executed after completion;
// output gates belong to a *case* of the activity, which models the
// probabilistic outcomes of a transition.
//
// Predicates must be pure functions of the marking. Input/output
// functions receive a GateContext carrying the simulation clock and the
// replication's random stream (Mobius gate code likewise may sample
// random quantities, e.g. the paper's WL_Output gate draws the workload
// duration from a configurable distribution).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "san/place.hpp"
#include "stats/rng.hpp"

namespace vcpusim::san {

using Time = double;

class TraceSink;
class FootprintSanitizer;

/// GateContext::variant before any gate reported one.
inline constexpr std::uint32_t kNoVariant = 0xffff'ffffu;

/// Execution context passed to gate functions on activity completion.
struct GateContext {
  stats::Rng& rng;
  Time now;
  /// Collector for dynamic write footprints (see GateAccess::dynamic_writes);
  /// null when the engine is not collecting. Gates call touch(), never
  /// this pointer directly.
  std::vector<const PlaceBase*>* touched = nullptr;
  /// Structured trace sink (san/trace.hpp), non-null only while the
  /// simulator runs with tracing attached. Gates whose decisions carry
  /// domain meaning (the scheduler bridge) emit kScheduler events here.
  TraceSink* trace = nullptr;
  /// Trajectory position (completions before this firing), stamped on
  /// events the gate emits so they sort with the simulator's own.
  std::uint64_t seq = 0;
  /// Footprint sanitizer, non-null only when the simulator runs with
  /// SimulatorConfig::verify_footprints. The kernel's fire program
  /// (san/compiled.hpp) notifies it of gate boundaries; gate code never
  /// uses it directly.
  FootprintSanitizer* sanitizer = nullptr;
  /// Index into the reporting gate's GateAccess::effects of the variant
  /// this firing executed (kNoVariant when none was reported). Gates
  /// call report_variant(), never assign it directly.
  std::uint32_t variant = kNoVariant;

  /// Report which of its declared EffectVariants this gate executed:
  /// incremental enabling then dirties only the dependents of that
  /// variant's places (its deltas' places and EffectVariant::writes)
  /// instead of the gate's whole write set. Every write of the firing must fall inside the
  /// reported variant's places — same trust model as the declared
  /// footprint, checked by the footprint sanitizer. Not reporting is
  /// always safe: the firing dirties the full write set.
  void report_variant(std::uint32_t index) { variant = index; }

  /// Report that `place` was actually written during this firing. Only
  /// meaningful from gates declared with access_dynamic(); a no-op when
  /// the engine is not collecting (full-scan enabling, analyzers).
  void touch(const PlaceBase* place) {
    if (touched != nullptr) touched->push_back(place);
  }
};

/// One token-level marking effect: firing adds `delta` (possibly
/// negative) tokens to the named component of `place`'s registered
/// TokenView (san/token_view.hpp). An empty component names the
/// implicit identity component of a TokenPlace.
struct TokenDelta {
  PlacePtr place;
  std::string component;
  std::int64_t delta = 0;
};

/// One declared firing outcome of a gate: the multiset of token deltas
/// it applies when this variant is taken. A gate with state-dependent
/// behavior declares one variant per qualitative branch (e.g. a
/// workload-output gate's "normal job" vs "sync job" variants); the
/// incidence extraction turns each cross-gate variant combination into
/// one column of the incidence matrix.
///
/// A variant also states the places it writes: those its deltas name,
/// plus `writes` for places written without a token delta (a field no
/// token view covers, an opaque cursor). A gate that reports the
/// variant it executed (GateContext::report_variant) dirties only these.
struct EffectVariant {
  EffectVariant() = default;
  EffectVariant(std::string label, std::vector<TokenDelta> deltas,
                std::vector<PlacePtr> writes = {})
      : label(std::move(label)),
        deltas(std::move(deltas)),
        writes(std::move(writes)) {}

  std::string label;
  std::vector<TokenDelta> deltas;
  /// Places written beyond those the deltas name.
  std::vector<PlacePtr> writes;
};

/// Declared marking footprint of a gate, consumed by san::analyze. Gate
/// predicates and functions are opaque closures, so the places they touch
/// cannot be discovered by inspection; a gate that declares its access
/// sets becomes visible to the static analyzer (orphan places, dead
/// activities, shared-write races, zero-time cycles). Undeclared gates
/// are analyzed conservatively: the whole-model checks that need
/// complete information are skipped and reported as such.
struct GateAccess {
  /// Places the predicate / function reads.
  std::vector<PlacePtr> reads;
  /// Places the function mutates (in submodel-serialization order).
  std::vector<PlacePtr> writes;
  /// Subset of `writes` whose updates are order-independent across
  /// concurrent writers (commutative increments, convergent stores, or
  /// first-writer-wins races that are valid under any order — e.g. a
  /// spinlock acquire). Exempt from the unserialized-shared-write check.
  std::vector<PlacePtr> commutes;
  bool declared = false;
  /// Tick-accurate footprint: `writes` stays the conservative superset
  /// (what static analysis sees), but on each firing the gate reports the
  /// places it actually wrote via GateContext::touch(), and incremental
  /// enabling dirties only those. A dynamic gate that writes a place
  /// without touching it causes missed re-evaluations — same trust model
  /// as the declared sets themselves.
  bool dynamic_writes = false;

  /// Declared token-level effects (see EffectVariant); one firing of the
  /// gate applies exactly one variant. Consumed by the incidence
  /// extraction (san/analyze/incidence.hpp). Rules: every delta place
  /// must appear in `writes` (effect-footprint-mismatch otherwise), and
  /// a written place's viewed tokens not mentioned by a variant are
  /// asserted unchanged (delta 0) under that variant.
  std::vector<EffectVariant> effects;
  /// True once effects were declared (an empty declared list means "the
  /// gate changes no viewed token"). Undeclared effects make every
  /// viewed token of the gate's written places opaque.
  bool effects_declared = false;
  /// Compositional mode: one firing may apply any multiset of the
  /// declared variants rather than exactly one (the scheduler bridge
  /// performs several assign/deschedule micro-steps per tick). Each
  /// variant still becomes its own incidence column — a linear invariant
  /// annihilating every column also annihilates every composition.
  bool effects_compositional = false;
  /// Written places whose viewed tokens the gate updates in a way that
  /// has no constant delta (e.g. a round-robin cursor set to (k+1) mod
  /// n). Their tokens are excluded from invariant support instead of
  /// poisoning the analysis.
  std::vector<PlacePtr> opaque_effects;

  /// The declared effects are *exact*: one firing applies precisely the
  /// single declared variant's token deltas and nothing else — no RNG
  /// draws, no trace emission, no touch() or variant reports, no writes
  /// beyond the deltas. Opt-in contract consumed by the compiled engine
  /// (san/compiled.hpp): an exact gate executes as direct arena deltas,
  /// skipping its closure entirely. Same trust model as `declared` — an
  /// inexact declaration changes compiled-engine trajectories. Declare
  /// with with_exact_effect().
  bool effects_exact = false;

  /// True when a firing of this gate may report one of `effects` through
  /// GateContext::report_variant(): a declared footprint with single-
  /// firing variants that is not exact (exact gates run as arena deltas),
  /// compositional (one firing composes several) or dynamic (it reports
  /// through touch()).
  bool reports_variants() const noexcept {
    return declared && effects_declared && !effects.empty() &&
           !effects_compositional && !effects_exact && !dynamic_writes;
  }
};

/// Fluent helpers so call sites can extend a footprint built by
/// access()/access_dynamic() without naming every GateAccess field.
inline GateAccess with_effects(GateAccess base,
                               std::vector<EffectVariant> variants,
                               std::vector<PlacePtr> opaque = {}) {
  base.effects = std::move(variants);
  base.effects_declared = true;
  base.opaque_effects = std::move(opaque);
  return base;
}

/// Like with_effects(), but one firing may compose several variants
/// (see GateAccess::effects_compositional).
inline GateAccess with_compositional_effects(GateAccess base,
                                             std::vector<EffectVariant> variants,
                                             std::vector<PlacePtr> opaque = {}) {
  base = with_effects(std::move(base), std::move(variants), std::move(opaque));
  base.effects_compositional = true;
  return base;
}

/// Declare a single *exact* effect variant (GateAccess::effects_exact):
/// the gate's whole behavior is the given token deltas. Such gates run
/// as direct arena writes under the compiled engine.
inline GateAccess with_exact_effect(GateAccess base,
                                    std::vector<TokenDelta> deltas) {
  base = with_effects(std::move(base),
                      {EffectVariant{"exact", std::move(deltas)}});
  base.effects_exact = true;
  return base;
}

/// Convenience builder: declare a gate's read and write sets.
inline GateAccess access(std::vector<PlacePtr> reads,
                         std::vector<PlacePtr> writes = {},
                         std::vector<PlacePtr> commutes = {}) {
  GateAccess a;
  a.reads = std::move(reads);
  a.writes = std::move(writes);
  a.commutes = std::move(commutes);
  a.declared = true;
  return a;
}

/// Like access(), but the gate reports its per-firing write set through
/// GateContext::touch() (see GateAccess::dynamic_writes).
inline GateAccess access_dynamic(std::vector<PlacePtr> reads,
                                 std::vector<PlacePtr> writes = {},
                                 std::vector<PlacePtr> commutes = {}) {
  GateAccess a = access(std::move(reads), std::move(writes),
                        std::move(commutes));
  a.dynamic_writes = true;
  return a;
}

/// One conjunct of a declaratively mirrored enabling predicate (see
/// InputGate::pred_terms). The token ops address the identity marking of
/// a TokenPlace; kProbe evaluates a stateless function over a structured
/// marking's bytes. Built with the helpers below, never by hand.
struct PredTerm {
  enum class Op : std::uint8_t {
    kTokenZero,      ///< token count == 0
    kTokenPositive,  ///< token count > 0
    kTokenEquals,    ///< token count == imm
    kTokenAtLeast,   ///< token count >= imm
    kProbe,          ///< probe(marking of `place`)
  };
  Op op = Op::kTokenPositive;
  PlacePtr place;
  std::int64_t imm = 0;
  bool (*probe)(const void* marking) = nullptr;
};

inline PredTerm token_zero(std::shared_ptr<TokenPlace> place) {
  return PredTerm{PredTerm::Op::kTokenZero, std::move(place), 0, nullptr};
}
inline PredTerm token_positive(std::shared_ptr<TokenPlace> place) {
  return PredTerm{PredTerm::Op::kTokenPositive, std::move(place), 0, nullptr};
}
inline PredTerm token_equals(std::shared_ptr<TokenPlace> place,
                             std::int64_t value) {
  return PredTerm{PredTerm::Op::kTokenEquals, std::move(place), value, nullptr};
}
inline PredTerm token_at_least(std::shared_ptr<TokenPlace> place,
                               std::int64_t value) {
  return PredTerm{PredTerm::Op::kTokenAtLeast, std::move(place), value,
                  nullptr};
}

/// Probe term over a structured marking: `probe` must be a captureless
/// lambda taking `const T&`. It is re-materialized by value inside a
/// plain function pointer, so the term stays trivially dispatchable.
template <class T, class F>
PredTerm marking_probe(std::shared_ptr<Place<T>> place, F) {
  static_assert(std::is_empty_v<F>,
                "marking_probe needs a captureless lambda");
  PredTerm t;
  t.op = PredTerm::Op::kProbe;
  t.place = std::move(place);
  t.probe = [](const void* marking) {
    return F{}(*static_cast<const T*>(marking));
  };
  return t;
}

// InputGate and OutputGate are built with braces, `{name, predicate}` or
// `{name, function, footprint}`. Their constructors default the optional
// trailing members, so a brace list may leave them out without a
// -Wmissing-field-initializers warning.

struct InputGate {
  InputGate() = default;
  InputGate(std::string name, std::function<bool()> predicate,
            std::function<void(GateContext&)> input_function = nullptr,
            GateAccess footprint = {}, std::vector<PredTerm> pred_terms = {})
      : name(std::move(name)),
        predicate(std::move(predicate)),
        input_function(std::move(input_function)),
        footprint(std::move(footprint)),
        pred_terms(std::move(pred_terms)) {}

  std::string name;
  /// Enabling predicate evaluated against the current marking. An
  /// activity is enabled iff all its input gate predicates hold.
  std::function<bool()> predicate;
  /// Executed (before output gates) when the activity completes. May be
  /// null for pure-predicate gates.
  std::function<void(GateContext&)> input_function;
  /// Optional declared marking footprint (see GateAccess).
  GateAccess footprint;
  /// Declarative mirror of `predicate`: the conjunction of these terms
  /// must decide exactly what the closure decides. Consumed by the
  /// compiled engine to evaluate enabling straight off the marking arena
  /// without a closure call; empty = the compiled engine calls
  /// `predicate` through a trampoline. Same trust model as
  /// GateAccess::declared.
  std::vector<PredTerm> pred_terms;
};

struct OutputGate {
  OutputGate() = default;
  OutputGate(std::string name, std::function<void(GateContext&)> function,
             GateAccess footprint = {})
      : name(std::move(name)),
        function(std::move(function)),
        footprint(std::move(footprint)) {}

  std::string name;
  /// Marking-update function executed on activity completion.
  std::function<void(GateContext&)> function;
  /// Optional declared marking footprint (see GateAccess).
  GateAccess footprint;
};

}  // namespace vcpusim::san
