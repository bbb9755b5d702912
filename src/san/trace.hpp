// Structured tracing for the SAN simulator: the simulator (and the
// scheduler bridge, through GateContext) emits typed TraceEvents for
// activity fires, enabling changes, marking updates and scheduler
// decisions to one pluggable TraceSink. It is the simulator's only event
// channel. Concrete sinks (ring buffer, JSONL stream, Chrome
// trace_event) live in src/trace/sinks.hpp; the recorders that sample
// the live marking at each scheduler tick (trace::TimelineRecorder,
// trace::BarrierLatencyAnalyzer, vm::InvariantChecker) are sinks too.
//
// Determinism contract: every structured event is a pure function of the
// simulated trajectory — no wall-clock, no addresses, no thread ids — so
// for a fixed seed the event stream is byte-identical across --jobs
// values and across incremental-enabling on/off (enabling events are
// emitted only on actual activate/abort transitions, marking events from
// the fired activity's *declared* write set, both mode-independent).
// Wall-clock profiling lives outside the kernel, in exp::run_point's
// spans at the layer boundaries (exp::RunSpec::profile), never in a
// sink. See docs/OBSERVABILITY.md.
//
// Overhead contract: with no sink attached the simulator's only cost is
// one null-pointer test per emission site — no allocation, no
// formatting — preserving the zero-allocation steady state pinned by
// tests/perf/scheduler_hotpath_test.cpp. With a sink attached the
// simulator still formats nothing: a marking event carries its place,
// and a sink renders the value only if it keeps the event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "san/activity.hpp"

namespace vcpusim::san {

/// Event categories, usable as a bitmask filter (TraceSink::categories).
enum class TraceCategory : std::uint8_t {
  kFire = 1U << 0U,       ///< activity completion
  kEnabling = 1U << 1U,   ///< timed activity activated / aborted
  kMarking = 1U << 2U,    ///< place marking after a completion
  kScheduler = 1U << 3U,  ///< scheduler bridge decision (assign / release)
  kMarker = 1U << 4U,     ///< stream structure (replication boundaries)
};

constexpr std::uint8_t kTraceAll = 0x1F;

constexpr std::uint8_t trace_bit(TraceCategory c) noexcept {
  return static_cast<std::uint8_t>(c);
}

inline const char* trace_category_name(TraceCategory c) noexcept {
  switch (c) {
    case TraceCategory::kFire: return "fire";
    case TraceCategory::kEnabling: return "enabling";
    case TraceCategory::kMarking: return "marking";
    case TraceCategory::kScheduler: return "sched";
    case TraceCategory::kMarker: return "marker";
  }
  return "?";
}

/// One structured trace event. The string views alias storage owned by
/// the model (activity / place names) or the emitter's stack and are
/// valid only for the duration of the TraceSink::on_event call — sinks
/// that retain events must copy (trace::RingBufferSink does).
///
/// A kMarking event comes in one of two forms. The simulator's carries
/// `place`, whose live marking is the value, and no `detail`; a replayed
/// one (trace::RingBufferSink) carries the rendered value in `detail`
/// and no `place`. Read the value through detail_text, which serves
/// both.
struct TraceEvent {
  TraceCategory category = TraceCategory::kFire;
  Time time = 0.0;
  /// Completions so far in this run (the position in the trajectory).
  std::uint64_t seq = 0;
  /// Qualified activity / place name, or the marker label.
  std::string_view name;
  /// kFire: selected case index. kEnabling: 1 activated, 0 aborted.
  /// kScheduler: VCPU id. kMarker: payload (e.g. replication index).
  std::int64_t a = 0;
  /// kScheduler: PCPU id (assign) or -1 (release). Otherwise 0.
  std::int64_t b = 0;
  /// kMarking without `place`: rendered marking value. kScheduler:
  /// "in"/"out".
  std::string_view detail;
  /// kMarking from the simulator: the place whose live marking (valid
  /// during on_event only) is the value. Otherwise null.
  const PlaceBase* place = nullptr;
};

/// The event's detail text in either form: for an event that carries a
/// place, the marking rendered into `scratch` (PlaceBase::value_string_to,
/// the one renderer); otherwise `detail`. The view is valid until
/// `scratch` changes or the event's storage goes.
inline std::string_view detail_text(const TraceEvent& event,
                                    std::string& scratch) {
  if (event.place == nullptr) return event.detail;
  scratch.clear();
  event.place->value_string_to(scratch);
  return scratch;
}

/// Receiver of structured trace events. Implementations must not mutate
/// the model and must tolerate events from multiple consecutive runs.
class TraceSink {
 public:
  /// `categories` masks which events the emitters bother to construct
  /// (a cheap pre-filter read once per emission site).
  explicit TraceSink(std::uint8_t categories = kTraceAll)
      : categories_(categories) {}
  virtual ~TraceSink() = default;

  bool wants(TraceCategory c) const noexcept {
    return (categories_ & trace_bit(c)) != 0;
  }
  std::uint8_t categories() const noexcept { return categories_; }

  virtual void on_event(const TraceEvent& event) = 0;

  /// Flush/terminate the output (Chrome export closes its JSON array).
  /// Called by owners when the stream is complete; default no-op.
  virtual void finish() {}

 private:
  std::uint8_t categories_;
};

/// For sinks that sample the live marking when an event arrives (the
/// timeline, latency and invariant recorders): they subscribe to kMarker
/// and call this on one. A marker means an exp::run_point stream: its
/// replications run on systems the sink does not watch, and some are
/// replayed from a buffer after they ran, so every sample would be
/// garbage.
[[noreturn]] inline void throw_replayed_stream(std::string_view sink) {
  throw std::logic_error(
      std::string(sink) +
      " samples the live marking and cannot consume a replayed trace "
      "stream (e.g. exp::RunSpec::trace); attach it with "
      "Simulator::set_trace");
}

/// Category mask of the live-marking recorders: completions, plus
/// markers so a replayed stream is refused rather than misread.
constexpr std::uint8_t kLiveRecorderCategories =
    trace_bit(TraceCategory::kFire) | trace_bit(TraceCategory::kMarker);

}  // namespace vcpusim::san
