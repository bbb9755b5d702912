// Data-oriented compiled runtime of a built SAN model — the only way
// san::Simulator executes one.
//
// A built ComposedModel is an object graph of shared_ptr<PlaceBase>
// markings and std::function gate closures. CompiledModel lowers it
// into contiguous arrays before simulation starts:
//
//  * a **marking arena** — every trivially copyable marking relocated
//    into one byte block (Place<T>::bind_storage), places addressed by
//    dense PlaceIds, plus an initial-image block of identical layout, so
//    restoring the initial marking is a single memcpy instead of a
//    virtual reset() walk. std::vector markings with POD elements keep
//    their heap buffer but get a flat restore span; anything else falls
//    back to the virtual reset (none of the shipped models need it).
//
//  * a **compiled dispatch table** — per activity, a flat predicate
//    program (PredOps evaluated straight off the arena, lowered from the
//    declared InputGate::pred_terms) and a flat fire program (FireOps:
//    gates declared with_exact_effect() become direct arena token
//    deltas; everything else calls its closure through a trampoline op
//    that preserves the sanitizer hooks).
//
// Compilation trusts the same declarations the incremental-enabling
// index already trusts (GateAccess, pred_terms). CompileOptions::
// force_trampoline routes every gate through its closure; that dispatch
// is the oracle the lowered one is held bit-identical to (test-enforced).
// Gate closures keep working while compiled — they read and write the
// very same memory through the redirected Place<T> storage pointer.
//
// Lifetime: places are kept alive via shared_ptr and unbound (markings
// moved back inline) on destruction. A model may be bound to at most one
// CompiledModel at a time; structurally mutating the model (adding gates
// or activities) while compiled invalidates the table — call
// Simulator::set_model again after mutations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "san/model.hpp"

namespace vcpusim::san {

struct CompileOptions {
  /// Lower every predicate and gate to the closure trampoline. The
  /// footprint sanitizer needs each place access to flow through
  /// Place<T>::get/mut/set, which direct arena ops bypass, so sanitized
  /// runs compile with this set. The arena (and the memcpy reset) stays.
  bool force_trampoline = false;
};

/// Compile-time census of the lowered model, exported as run metrics
/// ("arena.bytes", "kernel.compiled_gates", "kernel.trampoline_gates").
/// A "gate" here is one dispatch unit: an input gate's predicate, an
/// input function, or an output gate function.
struct KernelStats {
  std::size_t arena_bytes = 0;
  std::size_t places = 0;            ///< dense PlaceIds assigned
  std::size_t arena_places = 0;      ///< markings living in the arena
  std::size_t pod_vector_places = 0; ///< restored by flat span copy
  std::size_t opaque_places = 0;     ///< virtual-reset fallback
  std::size_t compiled_gates = 0;    ///< units lowered to arena ops
  std::size_t trampoline_gates = 0;  ///< units dispatched via closure
};

/// Why a gate's effect program cannot be lowered to direct arena deltas;
/// empty string = it compiles. Shared by the compiler and the analyzer's
/// `lint --prove` trampoline-fallback report.
std::string effect_trampoline_reason(const GateAccess& footprint);

/// True when an input gate's declared pred_terms can be lowered (terms
/// present, token terms on token places, probe terms with a probe).
bool predicate_compiles(const InputGate& gate);

class CompiledModel {
 public:
  /// One predicate conjunct, pre-resolved to a marking address.
  struct PredOp {
    enum class Kind : std::uint8_t {
      kZero,      ///< *(int64*)data == 0
      kPositive,  ///< *(int64*)data > 0
      kEquals,    ///< *(int64*)data == imm
      kAtLeast,   ///< *(int64*)data >= imm
      kProbe,     ///< probe(data)
      kCall,      ///< (*(std::function<bool()>*)data)()
    };
    Kind kind = Kind::kCall;
    const void* data = nullptr;
    std::int64_t imm = 0;
    bool (*probe)(const void*) = nullptr;
  };

  struct DeltaOp {
    std::int64_t* slot = nullptr;
    std::int64_t delta = 0;
  };

  /// One executed gate function of a firing.
  struct FireOp {
    enum class Kind : std::uint8_t {
      kDeltas,  ///< apply deltas_[begin, end)
      kCall,    ///< sanitizer enter_gate + closure call
    };
    Kind kind = Kind::kCall;
    std::uint32_t begin = 0;  ///< into deltas_ (kDeltas)
    std::uint32_t end = 0;
    const std::function<void(GateContext&)>* call = nullptr;
    const std::string* gate_name = nullptr;
    const GateAccess* footprint = nullptr;
  };

  struct CaseEntry {
    double weight = 1.0;
    std::uint32_t op_begin = 0;  ///< into fire_ops_
    std::uint32_t op_end = 0;
  };

  /// Flat program of one activity: predicate span, input-function span,
  /// and the probabilistic cases (spans + precomputed weights).
  struct CompiledActivity {
    std::uint32_t pred_begin = 0;
    std::uint32_t pred_end = 0;
    std::uint32_t in_begin = 0;
    std::uint32_t in_end = 0;
    std::uint32_t case_begin = 0;
    std::uint32_t case_count = 0;
    double total_weight = 1.0;
  };

  explicit CompiledModel(ComposedModel& model, CompileOptions options = {});
  ~CompiledModel();

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  /// Restore every marking to its initial value: one memcpy of the
  /// arena image, the pod-vector spans, and (only if the model has
  /// arena-incompatible markings) the per-place virtual fallback.
  void reset_markings();

  /// Compiled program of `activity`; nullptr for activities the model
  /// did not contain at compile time.
  const CompiledActivity* find(const Activity* activity) const;

  /// Conjunction of the activity's predicate program (true when empty —
  /// an activity without input gates is always enabled).
  /// Inline: the settle loop evaluates this several times per event.
  bool enabled(const CompiledActivity& a) const {
    for (std::uint32_t i = a.pred_begin; i < a.pred_end; ++i) {
      const PredOp& op = pred_ops_[i];
      bool ok = false;
      switch (op.kind) {
        case PredOp::Kind::kZero:
          ok = *static_cast<const std::int64_t*>(op.data) == 0;
          break;
        case PredOp::Kind::kPositive:
          ok = *static_cast<const std::int64_t*>(op.data) > 0;
          break;
        case PredOp::Kind::kEquals:
          ok = *static_cast<const std::int64_t*>(op.data) == op.imm;
          break;
        case PredOp::Kind::kAtLeast:
          ok = *static_cast<const std::int64_t*>(op.data) >= op.imm;
          break;
        case PredOp::Kind::kProbe:
          ok = op.probe(op.data);
          break;
        case PredOp::Kind::kCall:
          ok = (*static_cast<const std::function<bool()>*>(op.data))();
          break;
      }
      if (!ok) return false;
    }
    return true;
  }

  /// Execute the activity's fire program: every input gate's op, then
  /// the case draw, then the chosen case's ops. Returns the case index.
  /// Inline like enabled(): the event loop executes one fire program per
  /// firing, and most shipped-model gates lower to short delta spans.
  std::size_t fire(const CompiledActivity& a, GateContext& ctx) const {
    run_ops(a.in_begin, a.in_end, ctx);
    std::size_t chosen = 0;
    if (a.case_count > 1) {
      // The RNG rule: one uniform01 draw per firing, and only when the
      // activity has more than one case. The draw u * total_weight picks
      // the first case whose cumulative weight exceeds it; if fp
      // round-off leaves u at the total, the last case is chosen.
      const double u = ctx.rng.uniform01() * a.total_weight;
      double acc = 0.0;
      for (std::size_t i = 0; i < a.case_count; ++i) {
        acc += cases_[a.case_begin + i].weight;
        if (u < acc) {
          chosen = i;
          break;
        }
        chosen = i;
      }
    }
    const CaseEntry& ce = cases_[a.case_begin + chosen];
    run_ops(ce.op_begin, ce.op_end, ctx);
    return chosen;
  }

  std::uint32_t place_count() const noexcept {
    return static_cast<std::uint32_t>(places_.size());
  }
  const KernelStats& stats() const noexcept { return stats_; }

 private:
  void bind_places(const ComposedModel& model);
  /// Unbind the places this model bound and restore every stamped
  /// compiled id: the destructor, and the rollback of a constructor that
  /// threw partway.
  void release() noexcept;
  void compile_activity(const Activity& activity);
  void emit_fire(const std::string& name, const GateAccess& footprint,
                 const std::function<void(GateContext&)>& fn);
  void run_ops(std::uint32_t begin, std::uint32_t end, GateContext& ctx) const {
    for (std::uint32_t i = begin; i < end; ++i) {
      const FireOp& op = fire_ops_[i];
      if (op.kind == FireOp::Kind::kDeltas) {
        for (std::uint32_t j = op.begin; j < op.end; ++j) {
          *deltas_[j].slot += deltas_[j].delta;
        }
      } else {
        // The sanitizer hook stays out-of-line so this header does not
        // pull in sanitizer.hpp; sanitized runs are not the fast path.
        if (ctx.sanitizer != nullptr) enter_gate_hook(op, ctx);
        (*op.call)(ctx);
      }
    }
  }
  void enter_gate_hook(const FireOp& op, GateContext& ctx) const;

  CompileOptions options_;
  KernelStats stats_;

  /// Dense-id order; shared ownership so unbinding in the destructor is
  /// safe even if the model is torn down first.
  std::vector<PlacePtr> places_;
  /// Each place's compiled id before this model stamped it (parallel to
  /// a prefix of places_), restored on release.
  std::vector<std::uint32_t> prior_ids_;
  /// places_[0, bound_) were bound by this model (or needed no binding);
  /// places_[bound_] is the one whose binding threw, if any.
  std::size_t bound_ = 0;
  std::vector<std::byte> arena_;    ///< live trivially-copyable markings
  std::vector<std::byte> initial_;  ///< same layout, initial image
  std::vector<PlaceBase::PodVectorSpan> pod_spans_;
  std::vector<PlaceBase*> opaque_places_;

  std::vector<PredOp> pred_ops_;
  std::vector<FireOp> fire_ops_;
  std::vector<DeltaOp> deltas_;
  std::vector<CaseEntry> cases_;
  std::vector<CompiledActivity> activities_;
  std::unordered_map<const Activity*, std::uint32_t> index_;
};

}  // namespace vcpusim::san
