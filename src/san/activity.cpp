#include "san/activity.hpp"

#include <stdexcept>

namespace vcpusim::san {

Activity::Activity(std::string name, stats::DistributionPtr delay,
                   int priority)
    : name_(std::move(name)), delay_(std::move(delay)), priority_(priority) {
  if (!delay_) {
    throw std::invalid_argument("Activity '" + name_ +
                                "': null delay distribution (use "
                                "make_instantaneous for zero-time activities)");
  }
  cases_.emplace_back();
  total_weight_ = 1.0;
}

Activity::Activity(std::string name, int priority)
    : name_(std::move(name)), delay_(nullptr), priority_(priority) {
  cases_.emplace_back();
  total_weight_ = 1.0;
}

Activity Activity::make_instantaneous(std::string name, int priority) {
  return Activity(std::move(name), priority);
}

void Activity::add_input_gate(InputGate gate) {
  if (!gate.predicate) {
    throw std::invalid_argument("Activity '" + name_ + "': input gate '" +
                                gate.name + "' has no predicate");
  }
  input_gates_.push_back(std::move(gate));
}

void Activity::add_output_gate(OutputGate gate) {
  if (!gate.function) {
    throw std::invalid_argument("Activity '" + name_ + "': output gate '" +
                                gate.name + "' has no function");
  }
  cases_.back().output_gates.push_back(std::move(gate));
}

void Activity::add_case(Case c) {
  if (!(c.weight > 0)) {
    throw std::invalid_argument("Activity '" + name_ +
                                "': case weight must be > 0");
  }
  // The implicit default case is replaced by the first explicit case.
  if (cases_.size() == 1 && cases_.front().output_gates.empty() &&
      total_weight_ == 1.0 && !explicit_cases_) {
    cases_.clear();
    total_weight_ = 0.0;
  }
  explicit_cases_ = true;
  total_weight_ += c.weight;
  cases_.push_back(std::move(c));
}

}  // namespace vcpusim::san
