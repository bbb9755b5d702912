#include "san/sanitizer.hpp"

#include <algorithm>
#include <sstream>

namespace vcpusim::san {
namespace {

/// True when taking `variant` may write `place`: its deltas or its
/// `writes` name it.
bool variant_writes(const EffectVariant& variant, const PlaceBase* place) {
  for (const TokenDelta& d : variant.deltas) {
    if (d.place.get() == place) return true;
  }
  for (const PlacePtr& p : variant.writes) {
    if (p.get() == place) return true;
  }
  return false;
}

}  // namespace

const char* to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kUndeclaredRead: return "undeclared-read";
    case ViolationKind::kUndeclaredWrite: return "undeclared-write";
    case ViolationKind::kPredicateWrite: return "predicate-write";
    case ViolationKind::kMissedTouch: return "missed-touch";
    case ViolationKind::kWriteOutsideVariant: return "write-outside-variant";
    case ViolationKind::kVariantOutOfRange: return "variant-out-of-range";
    case ViolationKind::kInvariantViolated: return "invariant-violated";
    case ViolationKind::kBoundViolated: return "bound-violated";
    case ViolationKind::kStaleDeclaredWrite: return "stale-declared-write";
  }
  return "?";
}

std::string FootprintViolation::to_text() const {
  std::ostringstream os;
  os << (advisory() ? "advisory" : "error") << ": " << to_string(kind) << ": ";
  if (!activity.empty()) os << "[" << activity << "] ";
  if (!gate.empty()) os << "gate '" << gate << "' ";
  if (!place.empty()) os << "(" << place << ") ";
  os << message;
  return os.str();
}

std::size_t FootprintReport::errors() const noexcept {
  std::size_t n = 0;
  for (const auto& v : violations) {
    if (!v.advisory()) ++n;
  }
  return n;
}

std::string FootprintReport::render_text() const {
  std::ostringstream os;
  for (const auto& v : violations) os << v.to_text() << "\n";
  os << "footprint sanitizer: " << errors() << " error(s), "
     << violations.size() - errors() << " advisory(ies)";
  if (suppressed != 0) os << ", " << suppressed << " suppressed";
  os << "\n";
  return os.str();
}

FootprintSanitizer::FootprintSanitizer(analyze::InvariantAnalysis analysis)
    : analysis_(std::move(analysis)) {
  expected_.resize(analysis_.invariants.size(), 0);
  for (std::size_t i = 0; i < analysis_.invariants.size(); ++i) {
    for (const auto& [token, coeff] : analysis_.invariants[i].terms) {
      (void)coeff;
      invariants_of_place_[analysis_.incidence.tokens[token].place].push_back(
          i);
    }
  }
  for (std::size_t b = 0; b < analysis_.bounds.size(); ++b) {
    bounds_of_place_[analysis_.incidence.tokens[analysis_.bounds[b].token]
                         .place]
        .push_back(b);
  }
  // Dedup (a place holding several tokens of one invariant's support
  // would otherwise trigger repeated re-checks).
  for (auto& [place, list] : invariants_of_place_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

void FootprintSanitizer::on_reset() {
  mode_ = Mode::kIdle;
  activity_ = nullptr;
  ctx_ = nullptr;
  gate_footprint_ = nullptr;
  gate_writes_.clear();
  firing_writes_.clear();
  finished_ = false;
  for (std::size_t i = 0; i < analysis_.invariants.size(); ++i) {
    expected_[i] = analysis_.evaluate(i);
  }
}

void FootprintSanitizer::record(ViolationKind kind, const std::string& gate,
                                const std::string& place,
                                std::string message) {
  std::string key = std::string(to_string(kind)) + "|" +
                    (activity_ != nullptr ? activity_->name() : "") + "|" +
                    gate + "|" + place;
  if (!seen_.insert(std::move(key)).second) {
    ++report_.suppressed;
    return;
  }
  if (report_.violations.size() >= kMaxStored) {
    ++report_.suppressed;
    return;
  }
  FootprintViolation violation;
  violation.kind = kind;
  violation.activity = activity_ != nullptr ? activity_->name() : "";
  violation.gate = gate;
  violation.place = place;
  violation.message = std::move(message);
  report_.violations.push_back(std::move(violation));
}

void FootprintSanitizer::begin_predicate(const Activity& activity) {
  mode_ = Mode::kPredicate;
  activity_ = &activity;
}

void FootprintSanitizer::end_predicate() {
  mode_ = Mode::kIdle;
  activity_ = nullptr;
}

void FootprintSanitizer::begin_firing(const Activity& activity,
                                      GateContext& ctx) {
  mode_ = Mode::kFiring;
  activity_ = &activity;
  ctx_ = &ctx;
  gate_footprint_ = nullptr;
  gate_name_.clear();
  gate_writes_.clear();
  firing_writes_.clear();
}

void FootprintSanitizer::enter_gate(const std::string& gate_name,
                                    const GateAccess& footprint) {
  close_gate();
  gate_footprint_ = &footprint;
  gate_name_ = gate_name;
  if (ctx_ != nullptr) {
    variant_before_ = ctx_->variant;
    ctx_->variant = kNoVariant;
  }
  auto& stats = gate_stats_[&footprint];
  if (stats.footprint == nullptr) {
    stats.activity = activity_ != nullptr ? activity_->name() : "";
    stats.gate = gate_name;
    stats.footprint = &footprint;
  }
  ++stats.fires;
}

void FootprintSanitizer::close_gate() {
  if (gate_footprint_ == nullptr) {
    gate_writes_.clear();
    return;
  }
  const GateAccess& fp = *gate_footprint_;
  if (ctx_ != nullptr) {
    // The last report of a firing wins, as without the sanitizer.
    const std::uint32_t reported = ctx_->variant;
    if (reported == kNoVariant) {
      ctx_->variant = variant_before_;
    } else {
      check_variant(fp, reported);
    }
  }
  if (fp.declared) {
    auto& stats = gate_stats_[&fp];
    for (const PlaceBase* place : gate_writes_) {
      stats.written.insert(place);
      if (fp.dynamic_writes && ctx_ != nullptr && ctx_->touched != nullptr) {
        const auto& touched = *ctx_->touched;
        if (std::find(touched.begin(), touched.end(), place) ==
            touched.end()) {
          record(ViolationKind::kMissedTouch, gate_name_, place->name(),
                 "dynamic-writes gate wrote the place without reporting it "
                 "via GateContext::touch(); incremental enabling misses the "
                 "re-evaluation");
        }
      }
    }
  }
  gate_footprint_ = nullptr;
  gate_writes_.clear();
}

void FootprintSanitizer::check_variant(const GateAccess& fp,
                                       std::uint32_t reported) {
  if (!fp.reports_variants() || reported >= fp.effects.size()) {
    record(ViolationKind::kVariantOutOfRange, gate_name_, "",
           "gate reported variant " + std::to_string(reported) +
               " but declares " +
               std::to_string(fp.reports_variants() ? fp.effects.size() : 0) +
               " reportable variant(s); the report may select another "
               "gate's variant row, and incremental enabling then misses "
               "this gate's writes");
    return;
  }
  const EffectVariant& variant = fp.effects[reported];
  for (const PlaceBase* place : gate_writes_) {
    if (variant_writes(variant, place)) continue;
    record(ViolationKind::kWriteOutsideVariant, gate_name_, place->name(),
           "gate wrote a place outside the places of the variant it "
           "reported ('" + variant.label + "'); incremental enabling will "
           "not re-evaluate the place's dependents");
  }
}

void FootprintSanitizer::end_firing() {
  close_gate();
  mode_ = Mode::kIdle;  // before check_structures: it reads places itself
  check_structures();
  activity_ = nullptr;
  ctx_ = nullptr;
  firing_writes_.clear();
}

void FootprintSanitizer::check_structures() {
  for (const PlaceBase* place : firing_writes_) {
    const auto inv_it = invariants_of_place_.find(place);
    if (inv_it != invariants_of_place_.end()) {
      for (const std::size_t i : inv_it->second) {
        const std::int64_t value = analysis_.evaluate(i);
        if (value != expected_[i]) {
          record(ViolationKind::kInvariantViolated, "",
                 analysis_.invariants[i].symbolic,
                 "conservation law evaluates to " + std::to_string(value) +
                     ", expected " + std::to_string(expected_[i]) +
                     " after this firing");
        }
      }
    }
    const auto bound_it = bounds_of_place_.find(place);
    if (bound_it != bounds_of_place_.end()) {
      for (const std::size_t b : bound_it->second) {
        const auto& bound = analysis_.bounds[b];
        const auto& token = analysis_.incidence.tokens[bound.token];
        const std::int64_t value = token.eval();
        if (value > bound.bound) {
          record(ViolationKind::kBoundViolated, "", token.name,
                 "token holds " + std::to_string(value) +
                     " but the structural bound proven from '" +
                     analysis_.invariants[bound.invariant].symbolic +
                     "' is " + std::to_string(bound.bound));
        }
      }
    }
  }
}

void FootprintSanitizer::finish_run() {
  if (finished_) return;
  finished_ = true;
  std::vector<const GateStats*> stats;
  stats.reserve(gate_stats_.size());
  for (const auto& [fp, s] : gate_stats_) stats.push_back(&s);
  std::sort(stats.begin(), stats.end(),
            [](const GateStats* a, const GateStats* b) {
              if (a->activity != b->activity) return a->activity < b->activity;
              return a->gate < b->gate;
            });
  for (const GateStats* s : stats) {
    const GateAccess& fp = *s->footprint;
    if (!fp.declared || s->fires == 0) continue;
    for (const PlacePtr& place : fp.writes) {
      if (s->written.count(place.get()) != 0) continue;
      activity_ = nullptr;  // record() keys on activity_; use stats names
      FootprintViolation violation;
      violation.kind = ViolationKind::kStaleDeclaredWrite;
      violation.activity = s->activity;
      violation.gate = s->gate;
      violation.place = place->name();
      violation.message =
          "declared write never performed across " +
          std::to_string(s->fires) +
          " firing(s); a stale declaration keeps dirty sets wider than "
          "needed (advisory — rarely-taken writes are legitimate)";
      const std::string key = "stale|" + s->activity + "|" + s->gate + "|" +
                              place->name();
      if (!seen_.insert(key).second) continue;
      if (report_.violations.size() >= kMaxStored) {
        ++report_.suppressed;
        continue;
      }
      report_.violations.push_back(std::move(violation));
    }
  }
}

void FootprintSanitizer::on_read(const PlaceBase& place) {
  if (mode_ == Mode::kIdle) return;
  if (mode_ == Mode::kPredicate) {
    if (activity_ == nullptr) return;
    bool all_declared = true;
    for (const InputGate& gate : activity_->input_gates()) {
      if (!gate.footprint.declared) {
        all_declared = false;
        break;
      }
      for (const PlacePtr& p : gate.footprint.reads) {
        if (p.get() == &place) return;
      }
      for (const PlacePtr& p : gate.footprint.writes) {
        if (p.get() == &place) return;
      }
    }
    if (!all_declared) return;  // opaque predicate: nothing to check
    record(ViolationKind::kUndeclaredRead, "", place.name(),
           "enabling predicate read a place outside every input gate's "
           "declared reads; incremental enabling will miss re-evaluations "
           "when it changes");
    return;
  }
  // Firing: the current gate's reads+writes are the allowed set.
  if (gate_footprint_ == nullptr || !gate_footprint_->declared) return;
  for (const PlacePtr& p : gate_footprint_->reads) {
    if (p.get() == &place) return;
  }
  for (const PlacePtr& p : gate_footprint_->writes) {
    if (p.get() == &place) return;
  }
  record(ViolationKind::kUndeclaredRead, gate_name_, place.name(),
         "gate function read a place outside its declared reads/writes");
}

void FootprintSanitizer::on_write(const PlaceBase& place) {
  if (mode_ == Mode::kIdle) return;
  if (mode_ == Mode::kPredicate) {
    record(ViolationKind::kPredicateWrite, "", place.name(),
           "enabling predicate obtained mutable access to the marking; "
           "predicates must be pure");
    return;
  }
  if (std::find(firing_writes_.begin(), firing_writes_.end(), &place) ==
      firing_writes_.end()) {
    firing_writes_.push_back(&place);
  }
  if (gate_footprint_ == nullptr || !gate_footprint_->declared) return;
  if (std::find(gate_writes_.begin(), gate_writes_.end(), &place) ==
      gate_writes_.end()) {
    gate_writes_.push_back(&place);
  }
  for (const PlacePtr& p : gate_footprint_->writes) {
    if (p.get() == &place) return;
  }
  record(ViolationKind::kUndeclaredWrite, gate_name_, place.name(),
         "gate function wrote a place outside its declared writes; "
         "incremental enabling will not re-evaluate its dependents");
}

}  // namespace vcpusim::san
