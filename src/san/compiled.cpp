#include "san/compiled.hpp"

#include <cstring>
#include <unordered_set>

#include "san/sanitizer.hpp"

namespace vcpusim::san {

namespace {

std::size_t align_up(std::size_t offset, std::size_t align) {
  return (offset + align - 1) & ~(align - 1);
}

std::int64_t* token_slot(const PlacePtr& place) {
  auto* tp = dynamic_cast<TokenPlace*>(place.get());
  return tp == nullptr ? nullptr
                       : static_cast<std::int64_t*>(tp->marking_ptr());
}

}  // namespace

std::string effect_trampoline_reason(const GateAccess& fp) {
  if (!fp.declared) return "no declared footprint";
  if (!fp.effects_declared) return "no declared effects";
  if (!fp.effects_exact) {
    return "effects not declared exact (use with_exact_effect)";
  }
  if (fp.effects_compositional) return "compositional effects";
  if (!fp.opaque_effects.empty()) return "opaque effect places";
  if (fp.dynamic_writes) return "dynamic write footprint";
  if (fp.effects.size() != 1) {
    return "exact effect must declare exactly one variant";
  }
  for (const TokenDelta& d : fp.effects.front().deltas) {
    if (!d.place) return "effect delta names a null place";
    if (!d.component.empty()) {
      return "effect delta targets a view component, not a whole token place";
    }
    if (dynamic_cast<TokenPlace*>(d.place.get()) == nullptr) {
      return "effect delta on place '" + d.place->name() +
             "', which is not a token place";
    }
    bool written = false;
    for (const PlacePtr& w : fp.writes) {
      if (w.get() == d.place.get()) {
        written = true;
        break;
      }
    }
    if (!written) {
      return "effect delta place '" + d.place->name() +
             "' missing from the declared write set";
    }
  }
  return {};
}

bool predicate_compiles(const InputGate& gate) {
  if (gate.pred_terms.empty()) return false;
  for (const PredTerm& t : gate.pred_terms) {
    if (!t.place) return false;
    if (t.op == PredTerm::Op::kProbe) {
      if (t.probe == nullptr) return false;
    } else if (dynamic_cast<TokenPlace*>(t.place.get()) == nullptr) {
      return false;
    }
  }
  return true;
}

CompiledModel::CompiledModel(ComposedModel& model, CompileOptions options)
    : options_(options) {
  try {
    bind_places(model);
    for (const Activity* a : model.all_activities()) {
      compile_activity(*a);
    }
  } catch (...) {
    // The destructor will not run. Without the rollback, places bound
    // so far would point into the freed arena, and a place another
    // engine compiled (the usual cause: "already arena-bound") would
    // keep this model's id, corrupting that engine's id lookups.
    release();
    throw;
  }
}

CompiledModel::~CompiledModel() { release(); }

void CompiledModel::release() noexcept {
  // Never past bound_: the place whose binding threw belongs to another
  // engine's arena.
  for (std::size_t i = 0; i < bound_; ++i) places_[i]->unbind_storage();
  for (std::size_t i = 0; i < prior_ids_.size(); ++i) {
    places_[i]->set_compiled_id(prior_ids_[i]);
  }
}

void CompiledModel::bind_places(const ComposedModel& model) {
  // Dense ids in deterministic model order; joined places dedup to their
  // first appearance.
  std::unordered_set<const PlaceBase*> seen;
  for (const auto& sub : model.submodels()) {
    for (const PlacePtr& p : sub->places()) {
      if (!seen.insert(p.get()).second) continue;
      places_.push_back(p);
      prior_ids_.push_back(p->compiled_id());
      p->set_compiled_id(static_cast<std::uint32_t>(places_.size() - 1));
    }
  }
  stats_.places = places_.size();

  std::vector<std::size_t> offsets(places_.size(), 0);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < places_.size(); ++i) {
    switch (places_[i]->storage_kind()) {
      case PlaceBase::StorageKind::kTrivial:
        bytes = align_up(bytes, places_[i]->storage_align());
        offsets[i] = bytes;
        bytes += places_[i]->storage_size();
        ++stats_.arena_places;
        break;
      case PlaceBase::StorageKind::kPodVector:
        ++stats_.pod_vector_places;
        break;
      case PlaceBase::StorageKind::kOpaque:
        ++stats_.opaque_places;
        break;
    }
  }

  // Value-initialized blocks: padding bytes between slots stay zero, so
  // the live arena and its initial image are deterministic byte-for-byte.
  arena_.resize(bytes);
  initial_.resize(bytes);
  stats_.arena_bytes = bytes;

  for (; bound_ < places_.size(); ++bound_) {
    const std::size_t i = bound_;
    switch (places_[i]->storage_kind()) {
      case PlaceBase::StorageKind::kTrivial:
        places_[i]->bind_storage(arena_.data() + offsets[i]);
        places_[i]->write_initial(initial_.data() + offsets[i]);
        break;
      case PlaceBase::StorageKind::kPodVector:
        pod_spans_.push_back(places_[i]->pod_vector_span());
        break;
      case PlaceBase::StorageKind::kOpaque:
        opaque_places_.push_back(places_[i].get());
        break;
    }
  }
}

void CompiledModel::compile_activity(const Activity& activity) {
  CompiledActivity ca;

  ca.pred_begin = static_cast<std::uint32_t>(pred_ops_.size());
  for (const InputGate& g : activity.input_gates()) {
    if (!options_.force_trampoline && predicate_compiles(g)) {
      for (const PredTerm& t : g.pred_terms) {
        PredOp op;
        op.imm = t.imm;
        switch (t.op) {
          case PredTerm::Op::kTokenZero:
            op.kind = PredOp::Kind::kZero;
            op.data = token_slot(t.place);
            break;
          case PredTerm::Op::kTokenPositive:
            op.kind = PredOp::Kind::kPositive;
            op.data = token_slot(t.place);
            break;
          case PredTerm::Op::kTokenEquals:
            op.kind = PredOp::Kind::kEquals;
            op.data = token_slot(t.place);
            break;
          case PredTerm::Op::kTokenAtLeast:
            op.kind = PredOp::Kind::kAtLeast;
            op.data = token_slot(t.place);
            break;
          case PredTerm::Op::kProbe:
            op.kind = PredOp::Kind::kProbe;
            op.data = t.place->marking_ptr();
            op.probe = t.probe;
            break;
        }
        pred_ops_.push_back(op);
      }
      ++stats_.compiled_gates;
    } else {
      PredOp op;
      op.kind = PredOp::Kind::kCall;
      op.data = &g.predicate;
      pred_ops_.push_back(op);
      ++stats_.trampoline_gates;
    }
  }
  ca.pred_end = static_cast<std::uint32_t>(pred_ops_.size());

  ca.in_begin = static_cast<std::uint32_t>(fire_ops_.size());
  for (const InputGate& g : activity.input_gates()) {
    // Gates without an input function execute nothing, whatever their
    // declared effects say.
    if (!g.input_function) continue;
    emit_fire(g.name, g.footprint, g.input_function);
  }
  ca.in_end = static_cast<std::uint32_t>(fire_ops_.size());

  ca.case_begin = static_cast<std::uint32_t>(cases_.size());
  ca.case_count = static_cast<std::uint32_t>(activity.cases().size());
  ca.total_weight = activity.total_case_weight();
  for (const Case& c : activity.cases()) {
    CaseEntry ce;
    ce.weight = c.weight;
    ce.op_begin = static_cast<std::uint32_t>(fire_ops_.size());
    for (const OutputGate& og : c.output_gates) {
      emit_fire(og.name, og.footprint, og.function);
    }
    ce.op_end = static_cast<std::uint32_t>(fire_ops_.size());
    cases_.push_back(ce);
  }

  index_.emplace(&activity, static_cast<std::uint32_t>(activities_.size()));
  activities_.push_back(ca);
}

void CompiledModel::emit_fire(const std::string& name,
                              const GateAccess& footprint,
                              const std::function<void(GateContext&)>& fn) {
  FireOp op;
  if (!options_.force_trampoline && effect_trampoline_reason(footprint).empty()) {
    op.kind = FireOp::Kind::kDeltas;
    op.begin = static_cast<std::uint32_t>(deltas_.size());
    for (const TokenDelta& d : footprint.effects.front().deltas) {
      if (d.delta == 0) continue;
      deltas_.push_back(DeltaOp{token_slot(d.place), d.delta});
    }
    op.end = static_cast<std::uint32_t>(deltas_.size());
    ++stats_.compiled_gates;
  } else {
    op.call = &fn;
    op.gate_name = &name;
    op.footprint = &footprint;
    ++stats_.trampoline_gates;
  }
  fire_ops_.push_back(op);
}

void CompiledModel::reset_markings() {
  if (!arena_.empty()) {
    std::memcpy(arena_.data(), initial_.data(), arena_.size());
  }
  for (const PlaceBase::PodVectorSpan& s : pod_spans_) {
    s.restore(s.vec, s.initial, s.count);
  }
  for (PlaceBase* p : opaque_places_) {
    p->reset();
  }
}

const CompiledModel::CompiledActivity* CompiledModel::find(
    const Activity* activity) const {
  auto it = index_.find(activity);
  return it == index_.end() ? nullptr : &activities_[it->second];
}

void CompiledModel::enter_gate_hook(const FireOp& op, GateContext& ctx) const {
  ctx.sanitizer->enter_gate(*op.gate_name, *op.footprint);
}

}  // namespace vcpusim::san
