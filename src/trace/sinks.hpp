// Concrete structured-trace sinks (san::TraceSink implementations):
//
//  * RingBufferSink — in-memory, optionally bounded (keeps the *tail* of
//    the run); the programmatic inspection surface (tests, debuggers)
//    and the experiment runner's out-of-order buffer: a replication
//    that runs ahead of an unfolded predecessor records here and is
//    replayed into the user sink when it folds.
//  * JsonlSink — one JSON object per line, schema documented in
//    docs/OBSERVABILITY.md. Deterministic bytes for a given event
//    stream (doubles rendered with %.17g, no timestamps, no pointers).
//  * ChromeTraceSink — Chrome trace_event JSON ("chrome://tracing",
//    Perfetto). One simulated tick maps to 1ms of timeline; marking
//    events of numeric places become counter tracks.
//
// Sinks for CLI consumption are constructed through make_stream_sink();
// an unknown sink name throws with the valid names listed (same
// ergonomics as sched::make_factory's unknown-algorithm error).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "san/trace.hpp"

namespace vcpusim::trace {

/// Append helpers shared by the stream sinks. Each writes straight into
/// `out` (no temporaries), so a reused buffer stops allocating once it
/// has grown to the longest line. Exposed so tests pin the renderings;
/// JsonlSink writes the same bytes straight into its line buffer.
namespace json {
void append_int(std::string& out, std::int64_t v);
void append_uint(std::string& out, std::uint64_t v);
/// %.17g, which round-trips every finite double; non-finite -> null.
void append_double(std::string& out, double v);
/// `s` as a quoted JSON string: '"', '\\' and control characters are
/// escaped (\n \t \r by name, the rest as \u00xx); other bytes,
/// including non-ASCII ones, are copied through.
void append_string(std::string& out, std::string_view s);

/// append_string with memory: a direct-mapped table of quoted names,
/// indexed by the name's trace key (san::TraceEvent::name_key). A
/// non-zero key is never reused and its name never changes, so a hit
/// needs no content check: the slot that holds the key holds the name's
/// quoted form, escapes included. Key 0 names no object; such a name is
/// quoted afresh each time and never cached, as is one whose quoted form
/// is longer than a slot.
class QuotedNameCache {
  static constexpr std::size_t kSlotBytes = 128;

 public:
  static constexpr std::size_t kSlots = 1024;
  /// A hit is copied in blocks of this many bytes, copies of constant
  /// length that compile to a few vector moves instead of a library
  /// call: one block for a quoted form of at most this length, else its
  /// first and last blocks, which overlap.
  static constexpr std::size_t kShortCopy = 64;

  QuotedNameCache();
  /// Appends `s`, the name of key `key`, as append_string does.
  void append(std::string& out, std::uint64_t key, std::string_view s);
  /// The bytes append would add, written at `out`, which has room for
  /// max(6 * s.size() + 2, kShortCopy) of them; returns the end. Bytes
  /// between the end and out + kShortCopy may be overwritten.
  char* write(char* out, std::uint64_t key, std::string_view s);

 private:
  /// One cached name: its key (0 = empty) and quoted form.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t len = 0;
    char quoted[kSlotBytes - sizeof(std::uint64_t) - sizeof(std::uint32_t)]{};
  };
  static_assert((kSlots & (kSlots - 1)) == 0);  // key & (kSlots - 1)
  static_assert(sizeof(Slot::quoted) >= kShortCopy &&
                sizeof(Slot::quoted) <= 2 * kShortCopy);
  /// The slot holding `key`'s name, or nullptr.
  const Slot* find(std::uint64_t key) const;
  /// write's miss path, out of line so the hit path saves no registers.
  char* write_miss(char* out, std::uint64_t key, std::string_view s);
  /// Caches `quoted` as the quoted form of `key`'s name, if it fits.
  void remember(std::uint64_t key, const char* quoted, std::size_t n);

  std::unique_ptr<Slot[]> slots_;
};

/// The last rendering of a fragment that depends only on (time, seq) —
/// consecutive events share it. Keyed on the time's bit pattern, so -0
/// and 0 keep their own renderings and a NaN time still hits.
class StampCache {
 public:
  /// The cache's capacity, and the bytes write() copies whatever the
  /// stamp's length. The longest stamp, `<%.17g>,"seq":<2^64-1>`, is 51
  /// bytes.
  static constexpr std::size_t kCopy = 56;

  /// The cached rendering of (time, seq), or an empty view if the last
  /// stored one has another key.
  std::string_view find(double time, std::uint64_t seq) const;
  /// Writes the cached rendering of (time, seq) at `out`, which has
  /// room for kCopy bytes, and returns its end; nullptr if the last
  /// stored one has another key. All kCopy bytes are copied, so the
  /// ones past the end are overwritten too.
  char* write(char* out, double time, std::uint64_t seq) const;
  /// Remembers `rendered` as the rendering of (time, seq).
  void store(std::string_view rendered, double time, std::uint64_t seq);

 private:
  std::uint64_t time_bits_ = 0;
  std::uint64_t seq_ = 0;
  /// 0 = nothing cached. write() copies all of bytes_, a constant length
  /// GCC inlines as vector moves. find()'s callers copy len_ bytes: a
  /// full-width length keeps GCC from proving that copy small and
  /// inlining it as `rep movs`, which costs several times a memcpy call
  /// on some x86 parts.
  std::size_t len_ = 0;
  char bytes_[kCopy]{};
};
}  // namespace json

/// In-memory event store. Events are packed into fixed-size records
/// whose strings live in one byte arena per sink, so retaining an event
/// costs no allocation of its own. Records fill segments of doubling
/// size, so storage grows without ever copying and N events take
/// O(log N) allocations. Repeated names — the model's activity / place
/// names — are interned: a small cache keyed by the source pointer, each
/// hit confirmed by content because a view may alias reused storage.
class RingBufferSink final : public san::TraceSink {
 public:
  /// Keep at most `capacity` events (0 = unbounded); older events are
  /// dropped first, in O(1) amortized time per event.
  explicit RingBufferSink(std::size_t capacity = 0,
                          std::uint8_t categories = san::kTraceAll)
      : san::TraceSink(categories), capacity_(capacity) {}

  void on_event(const san::TraceEvent& event) override;

  /// The retained events, oldest first. The TraceEvents it hands out
  /// point into the sink's arena: their strings are invalidated by the
  /// next on_event() or clear().
  class View {
   public:
    class iterator {
     public:
      using value_type = san::TraceEvent;
      using difference_type = std::ptrdiff_t;
      iterator(const RingBufferSink* sink, std::size_t i)
          : sink_(sink), i_(i) {}
      san::TraceEvent operator*() const { return sink_->event_at(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& other) const { return i_ == other.i_; }
      bool operator!=(const iterator& other) const { return i_ != other.i_; }

     private:
      const RingBufferSink* sink_;
      std::size_t i_;
    };

    explicit View(const RingBufferSink& sink) : sink_(&sink) {}
    std::size_t size() const noexcept { return sink_->retained(); }
    bool empty() const noexcept { return size() == 0; }
    san::TraceEvent operator[](std::size_t i) const {
      return sink_->event_at(i);
    }
    san::TraceEvent front() const { return (*this)[0]; }
    san::TraceEvent back() const { return (*this)[size() - 1]; }
    iterator begin() const { return {sink_, 0}; }
    iterator end() const { return {sink_, size()}; }

   private:
    const RingBufferSink* sink_;
  };

  View events() const noexcept { return View(*this); }
  std::size_t total_events() const noexcept { return total_; }
  std::size_t dropped() const noexcept { return total_ - retained(); }
  /// Bytes of string storage held (interned, so usually far less than
  /// the retained events' name and detail lengths summed).
  std::size_t arena_bytes() const noexcept { return arena_.size(); }

  /// Number of retained events of one category.
  std::size_t count(san::TraceCategory category) const;

  /// Forward every retained event into `sink`, in order (how the
  /// experiment runner stitches per-replication streams together).
  void replay_into(san::TraceSink& sink) const;

  void clear() noexcept;

 private:
  /// One retained event (56 bytes): its strings are (offset, length)
  /// in arena_, and the category shares a word with the name length.
  struct Record {
    double time;
    std::uint64_t seq;
    std::int64_t a;
    std::int64_t b;
    std::uint64_t name_key;
    std::uint32_t name;
    std::uint32_t detail;
    std::uint32_t name_len : 24;
    std::uint32_t category : 8;
    std::uint32_t detail_len;
  };
  static constexpr std::size_t kMaxNameLen = (std::size_t{1} << 24U) - 1;
  /// Interning cache slot: where the bytes last seen at `source` sit.
  struct Interned {
    const char* source = nullptr;
    std::uint32_t len = 0;
    std::uint32_t offset = 0;
  };
  static constexpr unsigned kInternBits = 10;
  static constexpr std::size_t kInternSlots = std::size_t{1} << kInternBits;

  /// Records in segment k: kFirstSegment << k.
  static constexpr std::size_t kFirstSegment = 256;

  std::size_t retained() const noexcept { return size_ - head_; }
  /// Record `i` of the stored sequence (dead ones before head_ included).
  const Record& record(std::size_t i) const;
  Record& record(std::size_t i) {
    return const_cast<Record&>(std::as_const(*this).record(i));
  }
  san::TraceEvent event_at(std::size_t i) const;
  /// Arena offset of bytes equal to `s`, appending them on a cache miss.
  std::uint32_t intern(std::string_view s);
  /// Drop the dead records in front of head_ and, once the arena's dead
  /// bytes exceed its live bytes, rebuild it from the live records.
  void compact();

  std::size_t capacity_;
  std::vector<std::unique_ptr<Record[]>> segments_;
  std::size_t size_ = 0;  ///< records stored
  std::size_t head_ = 0;  ///< first live record (bounded mode)
  std::string arena_;
  std::array<Interned, kInternSlots> interned_{};
  std::size_t total_ = 0;
  /// A kernel marking's value, rendered at on_event (the live marking
  /// changes later) and interned from here.
  std::string text_;
};

class JsonlSink final : public san::TraceSink {
 public:
  /// Writes to `os`, which must outlive the sink, one line per event,
  /// each handed to the stream buffer before on_event returns. The
  /// stream is flushed by finish().
  explicit JsonlSink(std::ostream& os, std::uint8_t categories = san::kTraceAll)
      : san::TraceSink(categories), os_(&os) {}

  void on_event(const san::TraceEvent& event) override;
  void finish() override;

  /// The serialized line for one event (no trailing newline) — exposed
  /// so tests and the golden fixtures pin the exact format. Runs the
  /// same serializer as on_event, from empty caches.
  static std::string line(const san::TraceEvent& event);

 private:
  /// Writes each line into one reused char buffer, sized once per line
  /// from the event's string lengths, with names and the
  /// `"t":…,"seq":…` stamp copied from caches.
  class Serializer {
   public:
    /// The line for `event`, newline included; valid until the next call.
    std::string_view write_line(const san::TraceEvent& event);

   private:
    /// Room for `more` bytes after the first `used`, which are kept.
    char* reserve(std::size_t used, std::size_t more);

    json::QuotedNameCache names_;
    json::StampCache stamp_;
    std::vector<char> buf_;
    std::string text_;  ///< a streamed marking's rendered value
  };

  /// Hands `line` to the stream buffer as ostream::write would, minus
  /// its sentry object: nothing when the stream is not good(), badbit
  /// on a short write, tie() flushed first and unitbuf honoured.
  void deliver(std::string_view line);

  std::ostream* os_;
  Serializer serializer_;
};

class ChromeTraceSink final : public san::TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os,
                           std::uint8_t categories = san::kTraceAll)
      : san::TraceSink(categories), os_(&os) {}

  void on_event(const san::TraceEvent& event) override;
  /// Closes the traceEvents array; on_event after finish() is invalid.
  void finish() override;

 private:
  std::ostream* os_;
  bool open_ = false;
  bool first_ = true;
  std::string entry_;   ///< reused serialization buffer
  std::string text_;    ///< a kernel marking's rendered value
  std::string number_;  ///< NUL-terminated copy of a marking value
  json::QuotedNameCache names_;
  json::StampCache ts_;  ///< the last "ts" value, keyed on the event time
};

/// Valid names for make_stream_sink, sorted.
const std::vector<std::string>& stream_sink_names();

/// Construct a named stream sink ("jsonl", "chrome") writing to `os`.
/// Throws std::invalid_argument listing the valid sink names on an
/// unknown name.
std::unique_ptr<san::TraceSink> make_stream_sink(const std::string& name,
                                                 std::ostream& os,
                                                 std::uint8_t categories =
                                                     san::kTraceAll);

/// Parse a comma-separated category list ("fire,sched", "all") into a
/// TraceSink categories mask. Throws std::invalid_argument listing the
/// valid category names on an unknown entry.
std::uint8_t parse_trace_categories(const std::string& list);

}  // namespace vcpusim::trace
