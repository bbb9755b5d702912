#include "san/analyze/diagnostic.hpp"

#include <sstream>

#include "stats/metrics.hpp"

namespace vcpusim::san::analyze {

const char* to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<CheckInfo>& check_catalog() {
  static const std::vector<CheckInfo> catalog = {
      {check::kDeadActivity, Severity::kWarning,
       "activity is never enabled at any probed marking"},
      {check::kOrphanPlace, Severity::kWarning,
       "place is read or written by no declared gate footprint"},
      {check::kJoinCollision, Severity::kError,
       "two distinct places joined under one shared name"},
      {check::kDuplicateJoin, Severity::kWarning,
       "same place recorded twice in the join registry"},
      {check::kBrokenJoin, Severity::kError,
       "join registry names a member the submodel does not hold"},
      {check::kSharedWriteRace, Severity::kWarning,
       "place written by concurrent gates without commuting updates"},
      {check::kInstantaneousCycle, Severity::kError,
       "instantaneous activities can re-enable each other in zero time"},
      {check::kCaseProbability, Severity::kError,
       "case weights are not a usable probability distribution"},
      {check::kDuplicateName, Severity::kError,
       "two places or activities share a qualified name"},
      {check::kIncompleteFootprints, Severity::kInfo,
       "undeclared gate footprints limited the whole-model checks"},
      {check::kSchedulerContract, Severity::kError,
       "scheduler violates the synthetic contract drive"},
      {check::kEffectFootprintMismatch, Severity::kError,
       "declared token effect targets a place outside the gate's writes"},
      {check::kIncompleteEffects, Severity::kInfo,
       "gate writes places without declaring token effects"},
      {check::kUnboundedPlace, Severity::kInfo,
       "no conservation invariant bounds this token"},
      {check::kInvariantBudget, Severity::kInfo,
       "P-invariant elimination stopped at its row budget"},
      {check::kProbeBudget, Severity::kInfo,
       "joint read domain exceeded the dead-activity probe budget"},
      {check::kTrampolineFallback, Severity::kInfo,
       "gate stays on the compiled kernel's trampoline slow path"},
  };
  return catalog;
}

namespace {

using stats::json_escape;

void json_field(std::ostringstream& os, const char* key,
                const std::string& value, bool trailing_comma = true) {
  os << '"' << key << "\":\"" << json_escape(value) << '"';
  if (trailing_comma) os << ',';
}

}  // namespace

std::string Diagnostic::to_text() const {
  std::ostringstream os;
  os << to_string(severity) << ": " << check << ": " << model;
  if (!submodel.empty()) os << "/" << submodel;
  if (!activity.empty()) os << " [" << activity << "]";
  if (!place.empty()) os << " (" << place << ")";
  os << ": " << message;
  return os.str();
}

std::string Diagnostic::to_json() const {
  std::ostringstream os;
  os << '{';
  json_field(os, "severity", to_string(severity));
  json_field(os, "check", check);
  json_field(os, "model", model);
  json_field(os, "submodel", submodel);
  json_field(os, "place", place);
  json_field(os, "activity", activity);
  json_field(os, "message", message);
  json_field(os, "explanation", explanation, false);
  os << '}';
  return os.str();
}

std::size_t Report::count(Severity severity) const noexcept {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string Report::render_text() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) os << d.to_text() << "\n";
  if (invariants.computed) {
    os << "invariants: " << invariants.invariants.size() << " over "
       << invariants.tokens - invariants.opaque_tokens << "/"
       << invariants.tokens << " tokens, " << invariants.columns
       << " firing variants";
    if (invariants.budget_exhausted) os << " [row budget exhausted]";
    os << "\n";
    for (const auto& line : invariants.invariants) {
      os << "  invariant: " << line << "\n";
    }
    for (const auto& line : invariants.bounds) os << "  bound: " << line << "\n";
    for (const auto& name : invariants.unbounded) {
      os << "  unbounded: " << name << "\n";
    }
  }
  os << model << ": " << errors() << " error(s), " << warnings()
     << " warning(s), " << count(Severity::kInfo) << " note(s)";
  if (!footprints_complete) {
    os << " [" << gates_declared << "/" << gates_total
       << " gate footprints declared; whole-model checks limited]";
  }
  os << "\n";
  return os.str();
}

std::string Report::render_json() const {
  std::ostringstream os;
  os << "{\"model\":\"" << model << "\",\"errors\":" << errors()
     << ",\"warnings\":" << warnings()
     << ",\"footprints_complete\":" << (footprints_complete ? "true" : "false")
     << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    if (i != 0) os << ',';
    os << diagnostics[i].to_json();
  }
  os << "]";
  if (invariants.computed) {
    const auto string_array = [&os](const char* key,
                                    const std::vector<std::string>& items) {
      os << ",\"" << key << "\":[";
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) os << ',';
        os << '"' << json_escape(items[i]) << '"';
      }
      os << "]";
    };
    os << ",\"invariant_analysis\":{\"tokens\":" << invariants.tokens
       << ",\"opaque_tokens\":" << invariants.opaque_tokens
       << ",\"columns\":" << invariants.columns << ",\"budget_exhausted\":"
       << (invariants.budget_exhausted ? "true" : "false");
    string_array("invariants", invariants.invariants);
    string_array("bounds", invariants.bounds);
    string_array("unbounded", invariants.unbounded);
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace vcpusim::san::analyze
