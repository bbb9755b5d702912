#include "san/analyze/incidence.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace vcpusim::san::analyze {
namespace {

/// Per-activity cross-product guard. Each gate contributes its variant
/// count as a factor; a model would need pathologically branchy effect
/// declarations to get anywhere near this.
constexpr std::size_t kMaxColumnsPerActivity = 4096;

struct TokenIndex {
  /// (place, component) -> token index. Identity components use "".
  std::map<std::pair<const PlaceBase*, std::string>, std::size_t> by_component;
  std::unordered_map<const PlaceBase*, std::vector<std::size_t>> by_place;
};

/// Walk every gate of every activity: input gates first, then each
/// case's output gates.
template <class Fn>
void for_each_gate(const ComposedModel& model, Fn&& fn) {
  for (const auto& submodel : model.submodels()) {
    for (const auto& activity : submodel->activities()) {
      for (const InputGate& gate : activity->input_gates()) {
        fn(*submodel, *activity, gate.name, gate.footprint);
      }
      for (const Case& c : activity->cases()) {
        for (const OutputGate& gate : c.output_gates) {
          fn(*submodel, *activity, gate.name, gate.footprint);
        }
      }
    }
  }
}

Diagnostic make_diag(const ComposedModel& model, Severity severity,
                     const char* check_id, const std::string& submodel,
                     const std::string& activity, const std::string& place,
                     std::string message, std::string explanation) {
  Diagnostic d;
  d.severity = severity;
  d.check = check_id;
  d.model = model.name();
  d.submodel = submodel;
  d.activity = activity;
  d.place = place;
  d.message = std::move(message);
  d.explanation = std::move(explanation);
  return d;
}

}  // namespace

IncidenceStructure extract_incidence(const ComposedModel& model) {
  IncidenceStructure out;

  // The matrix is only meaningful when every write set is known.
  bool all_declared = true;
  for_each_gate(model, [&](const SanModel&, const Activity&,
                           const std::string&, const GateAccess& fp) {
    if (!fp.declared) all_declared = false;
  });
  if (!all_declared) return out;
  out.complete = true;

  // --- Token universe -------------------------------------------------
  TokenIndex index;
  std::unordered_set<const PlaceBase*> viewed;
  for (const TokenView& view : model.token_views()) {
    viewed.insert(view.place.get());
    for (const TokenComponent& comp : view.components) {
      const std::size_t id = out.tokens.size();
      index.by_component[{view.place.get(), comp.name}] = id;
      index.by_place[view.place.get()].push_back(id);
      out.tokens.push_back(TokenInfo{view.place.get(),
                                     view.place->name() + "." + comp.name,
                                     comp.eval, false});
    }
  }
  std::unordered_set<const PlaceBase*> seen_places;
  for (const auto& submodel : model.submodels()) {
    for (const PlacePtr& place : submodel->places()) {
      if (!seen_places.insert(place.get()).second) continue;
      if (viewed.count(place.get()) != 0) continue;
      auto* token_place = dynamic_cast<TokenPlace*>(place.get());
      if (token_place == nullptr) continue;  // unviewed structured place
      const std::size_t id = out.tokens.size();
      index.by_component[{place.get(), std::string()}] = id;
      index.by_place[place.get()].push_back(id);
      out.tokens.push_back(TokenInfo{
          place.get(), place->name(),
          [token_place]() { return token_place->get(); }, false});
    }
  }

  // --- Opacity + effect/footprint consistency -------------------------
  const auto opaque_place = [&](const PlaceBase* place) {
    const auto it = index.by_place.find(place);
    if (it == index.by_place.end()) return;
    for (const std::size_t id : it->second) out.tokens[id].opaque = true;
  };
  for_each_gate(model, [&](const SanModel& submodel, const Activity& activity,
                           const std::string& gate_name,
                           const GateAccess& fp) {
    for (const PlacePtr& place : fp.opaque_effects) opaque_place(place.get());
    if (!fp.effects_declared) {
      if (fp.writes.empty()) return;  // nothing to declare
      bool touches_tokens = false;
      for (const PlacePtr& place : fp.writes) {
        if (index.by_place.count(place.get()) != 0) touches_tokens = true;
        opaque_place(place.get());
      }
      if (touches_tokens) {
        out.diagnostics.push_back(make_diag(
            model, Severity::kInfo, check::kIncompleteEffects,
            submodel.name(), activity.name(), fp.writes.front()->name(),
            "gate '" + gate_name +
                "' declares writes but no token effects; its written "
                "places' tokens are opaque to the invariant engine",
            "Declare EffectVariants (with_effects) so conservation "
            "invariants and bounds can be proven across this gate, or "
            "list the places under opaque_effects if the update has no "
            "constant token delta."));
      }
      return;
    }
    const auto writes_place = [&fp](const PlaceBase* place) {
      for (const PlacePtr& w : fp.writes) {
        if (w.get() == place) return true;
      }
      return false;
    };
    for (const EffectVariant& variant : fp.effects) {
      for (const PlacePtr& place : variant.writes) {
        if (writes_place(place.get())) continue;
        out.diagnostics.push_back(make_diag(
            model, Severity::kError, check::kEffectFootprintMismatch,
            submodel.name(), activity.name(), place->name(),
            "gate '" + gate_name + "' variant '" + variant.label +
                "' names a written place outside its write footprint",
            "A variant's places (its deltas' and its `writes`) must be a "
            "subset of the gate's declared writes: the static analyses "
            "see only the footprint, so a place only a variant names is "
            "a write they miss."));
      }
      for (const TokenDelta& delta : variant.deltas) {
        if (!writes_place(delta.place.get())) {
          out.diagnostics.push_back(make_diag(
              model, Severity::kError, check::kEffectFootprintMismatch,
              submodel.name(), activity.name(), delta.place->name(),
              "gate '" + gate_name + "' variant '" + variant.label +
                  "' declares a token delta on a place outside its write "
                  "footprint",
              "Every EffectVariant delta must target a place in the "
              "gate's declared writes — either the footprint under-"
              "declares a write (incremental enabling would miss "
              "re-evaluations) or the effect declaration is stale."));
          continue;
        }
        if (index.by_component.count({delta.place.get(), delta.component}) ==
            0) {
          out.diagnostics.push_back(make_diag(
              model, Severity::kError, check::kEffectFootprintMismatch,
              submodel.name(), activity.name(), delta.place->name(),
              "gate '" + gate_name + "' variant '" + variant.label +
                  "' names unknown token component '" + delta.component +
                  "'",
              "Token components come from the place's registered "
              "TokenView (or \"\" for a TokenPlace's implicit identity "
              "component); this delta matches neither."));
        }
      }
    }
  });

  // --- Columns ---------------------------------------------------------
  const auto token_of = [&](const TokenDelta& delta) -> std::size_t {
    const auto it =
        index.by_component.find({delta.place.get(), delta.component});
    if (it == index.by_component.end() || out.tokens[it->second].opaque) {
      return static_cast<std::size_t>(-1);
    }
    return it->second;
  };
  const auto emit_column = [&](const Activity& activity, std::string label,
                               const std::vector<const EffectVariant*>& parts) {
    std::map<std::size_t, std::int64_t> sum;
    for (const EffectVariant* variant : parts) {
      for (const TokenDelta& delta : variant->deltas) {
        const std::size_t token = token_of(delta);
        if (token != static_cast<std::size_t>(-1)) sum[token] += delta.delta;
      }
    }
    VariantColumn column;
    column.activity = &activity;
    column.label = activity.name() + "/" + (label.empty() ? "fire" : label);
    for (const auto& [token, delta] : sum) {
      if (delta != 0) column.deltas.emplace_back(token, delta);
    }
    out.columns.push_back(std::move(column));
  };

  for (const auto& submodel : model.submodels()) {
    for (const auto& activity : submodel->activities()) {
      // Compositional gates: one standalone column per variant (any
      // multiset of them may apply per firing, so each must be
      // annihilated individually).
      std::vector<const GateAccess*> crossed_input;
      bool any_compositional = false;
      const auto classify = [&](const std::string& gate_name,
                                const GateAccess& fp,
                                std::vector<const GateAccess*>& crossed) {
        if (fp.effects_declared && fp.effects_compositional) {
          any_compositional = true;
          for (const EffectVariant& variant : fp.effects) {
            emit_column(*activity, gate_name + ":" + variant.label,
                        {&variant});
          }
        } else {
          crossed.push_back(&fp);
        }
      };
      for (const InputGate& gate : activity->input_gates()) {
        classify(gate.name, gate.footprint, crossed_input);
      }

      // Non-compositional gates: cross input-gate variants with each
      // case's output-gate variants; each combination is one column.
      static const EffectVariant kNoEffect{};
      const auto variants_of = [](const GateAccess& fp) {
        std::vector<const EffectVariant*> variants;
        if (fp.effects_declared && !fp.effects.empty()) {
          for (const EffectVariant& v : fp.effects) variants.push_back(&v);
        } else {
          // No declared effects: either writes nothing, or its written
          // tokens were opaqued above — either way a zero column.
          variants.push_back(&kNoEffect);
        }
        return variants;
      };
      for (const Case& c : activity->cases()) {
        std::vector<const GateAccess*> crossed = crossed_input;
        for (const OutputGate& gate : c.output_gates) {
          classify(gate.name, gate.footprint, crossed);
        }
        // An activity whose gates are all compositional already emitted
        // every variant as a standalone column; the cross product would
        // only add a redundant all-zero column (the empty multiset).
        if (crossed.empty() && any_compositional) continue;
        std::vector<std::vector<const EffectVariant*>> combos{{}};
        bool exploded = false;
        for (const GateAccess* fp : crossed) {
          const auto variants = variants_of(*fp);
          std::vector<std::vector<const EffectVariant*>> next;
          next.reserve(combos.size() * variants.size());
          for (const auto& combo : combos) {
            for (const EffectVariant* v : variants) {
              next.push_back(combo);
              next.back().push_back(v);
            }
          }
          combos = std::move(next);
          if (combos.size() > kMaxColumnsPerActivity) {
            exploded = true;
            break;
          }
        }
        if (exploded) {
          // Same conservative fallback as undeclared effects.
          for (const GateAccess* fp : crossed) {
            for (const PlacePtr& place : fp->writes) opaque_place(place.get());
          }
          out.diagnostics.push_back(make_diag(
              model, Severity::kInfo, check::kIncompleteEffects,
              submodel->name(), activity->name(), "",
              "effect-variant cross product exceeds " +
                  std::to_string(kMaxColumnsPerActivity) +
                  " combinations; written tokens treated as opaque",
              "Split the activity or coarsen its EffectVariants."));
          continue;
        }
        for (const auto& combo : combos) {
          std::string label;
          for (const EffectVariant* v : combo) {
            if (v->label.empty()) continue;
            if (!label.empty()) label += "+";
            label += v->label;
          }
          emit_column(*activity, std::move(label), combo);
        }
      }
    }
  }

  // Opacity may have been discovered after some columns were emitted
  // (explosion fallback) — drop deltas that landed on now-opaque tokens.
  for (VariantColumn& column : out.columns) {
    column.deltas.erase(
        std::remove_if(column.deltas.begin(), column.deltas.end(),
                       [&](const auto& entry) {
                         return out.tokens[entry.first].opaque;
                       }),
        column.deltas.end());
  }
  return out;
}

}  // namespace vcpusim::san::analyze
