// SAN places.
//
// In the formal SAN definition (Sanders & Meyer) a place holds a natural
// number of tokens. Mobius generalizes this with "extended places" whose
// marking is an arbitrary structure — the paper's VCPU_slot place, for
// example, carries {remaining_load, sync_point, status}. We model both:
// Place<T> holds any copyable marking type, and TokenPlace is the classic
// Place<int64_t> specialization.
//
// Places are shared_ptr-owned so that Join composition (Mobius "join
// places", paper Tables 1 and 2) is literal state sharing: two submodels
// holding the same Place object.
//
// Markings live behind one indirection (`store_`): normally the place's
// inline `value_` member, but the compiled engine (san/compiled.hpp) may
// relocate a trivially copyable marking into its contiguous arena via
// bind_storage(), after which every existing gate closure transparently
// reads and writes the arena slot. The storage_* virtuals are the cold
// introspection surface that compilation uses; none of them is touched
// on the simulation hot path.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <locale>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vcpusim::san {

class PlaceBase;

/// Observation hook for the footprint sanitizer (san/sanitizer.hpp).
/// When installed (thread-local, normally for the duration of a
/// sanitized run), every Place<T>::get/mut/set reports through it. The
/// hook is observation-only: listeners must not mutate markings.
class PlaceAccessListener {
 public:
  virtual ~PlaceAccessListener() = default;
  virtual void on_read(const PlaceBase& place) = 0;
  virtual void on_write(const PlaceBase& place) = 0;
};

/// Marking types whose contents the compiled engine can restore with a
/// flat byte copy even though the container itself is not trivially
/// copyable: std::vector of trivially copyable elements.
template <class T>
struct IsPodVector : std::false_type {};
template <class E, class A>
struct IsPodVector<std::vector<E, A>>
    : std::bool_constant<std::is_trivially_copyable_v<E>> {};

/// The trace name key of a place or activity: a process-wide serial,
/// taken at construction from one relaxed atomic counter, so it is never
/// handed out twice. Names are immutable, so a key stands for the same
/// bytes for as long as the process runs, and a trace sink may cache a
/// name's rendering under its key without comparing content
/// (trace::json::QuotedNameCache). 0 is the key of no name: a moved-from
/// object holds it, and so does every object built after the first
/// 2^32 - 1 keys. A key is stored in 32 bits because they fit in padding
/// that PlaceBase and Activity already have; 64 bits grew every place by
/// 8 bytes, which slowed untraced runs.
class TraceKey {
 public:
  TraceKey() noexcept : value_(next()) {}
  TraceKey(TraceKey&& other) noexcept
      : value_(std::exchange(other.value_, 0U)) {}
  TraceKey& operator=(TraceKey&& other) noexcept {
    value_ = std::exchange(other.value_, 0U);
    return *this;
  }
  TraceKey(const TraceKey&) = delete;
  TraceKey& operator=(const TraceKey&) = delete;

  std::uint64_t value() const noexcept { return value_; }

 private:
  static std::uint32_t next() noexcept {
    static constinit std::atomic<std::uint64_t> last{0};
    const std::uint64_t serial =
        last.fetch_add(1, std::memory_order_relaxed) + 1;
    return serial <= std::numeric_limits<std::uint32_t>::max()
               ? static_cast<std::uint32_t>(serial)
               : 0U;
  }

  std::uint32_t value_;
};

class PlaceBase {
 public:
  explicit PlaceBase(std::string name) : name_(std::move(name)) {}
  virtual ~PlaceBase() = default;

  PlaceBase(const PlaceBase&) = delete;
  PlaceBase& operator=(const PlaceBase&) = delete;

  const std::string& name() const noexcept { return name_; }
  /// The name's trace key (san::TraceEvent::name_key).
  std::uint64_t trace_key() const noexcept { return trace_key_.value(); }

  /// Install (or clear, with nullptr) the thread-local access listener.
  /// Returns the previously installed listener so callers can restore
  /// it. With no listener installed the per-access cost is one
  /// thread-local load and a predictable branch, inlined into every
  /// get/mut/set (the slot is constant-initialized, so no TLS init
  /// wrapper is called).
  static PlaceAccessListener* exchange_listener(
      PlaceAccessListener* listener) noexcept {
    PlaceAccessListener* prev = listener_;
    listener_ = listener;
    return prev;
  }

  static PlaceAccessListener* listener() noexcept { return listener_; }

  /// Restore the initial marking (start of a replication).
  virtual void reset() = 0;

  /// Append the rendered marking value to `out`: the text of a
  /// structured marking trace event (see san::detail_text). Appending
  /// into a reused buffer keeps the tracing hot path allocation-free.
  virtual void value_string_to(std::string& out) const = 0;

  /// Room write_json_value needs at `out`.
  static constexpr std::size_t kJsonValueMax = 32;

  /// Write the rendered marking value as a quoted JSON string at `out`
  /// and return the end, for markings whose text never needs escaping
  /// (integers, floating point, `<struct>`). Returns nullptr and writes
  /// nothing for the others (streamable types): the caller escapes
  /// value_string_to's text itself.
  virtual char* write_json_value(char* out) const = 0;

  // --- compiled-engine storage introspection (san/compiled.hpp) ------
  // Cold surface: every virtual below is called at compile/teardown
  // time only, never per event. Place<T> implements them from T.

  /// How the compiled engine can host this place's marking.
  enum class StorageKind : std::uint8_t {
    kOpaque = 0,  ///< unsupported type: marking stays inline, reset() fallback
    kTrivial,     ///< trivially copyable: marking relocates into the arena
    kPodVector,   ///< vector of POD elements: contents restored by span copy
  };

  virtual StorageKind storage_kind() const noexcept = 0;
  /// Bytes / alignment of one arena slot (kTrivial only; 0 / 1 otherwise).
  virtual std::size_t storage_size() const noexcept = 0;
  virtual std::size_t storage_align() const noexcept = 0;
  /// Address of the live marking (the arena slot once bound, the inline
  /// member otherwise). Compiled predicates and deltas read through the
  /// pointers captured from here at compile time.
  virtual void* marking_ptr() noexcept = 0;

  /// Relocate the live marking into `slot` (kTrivial only). Throws
  /// std::logic_error if the marking is already bound — a model can be
  /// compiled by at most one engine at a time.
  virtual void bind_storage(void* slot) = 0;
  /// Move the marking back inline (no-op when not bound).
  virtual void unbind_storage() noexcept = 0;
  /// Copy-construct the *initial* marking at `dst` (kTrivial only) —
  /// fills the compiled engine's initial-image block.
  virtual void write_initial(void* dst) const = 0;

  /// kPodVector restore recipe: `restore(vec, initial, count)` copies the
  /// initial elements back into the live vector (throwing if the run
  /// resized it). All pointers stay valid for the place's lifetime.
  struct PodVectorSpan {
    void* vec = nullptr;            ///< the live std::vector object
    const void* initial = nullptr;  ///< initial element bytes
    std::size_t count = 0;          ///< initial element count
    void (*restore)(void* vec, const void* initial, std::size_t count) =
        nullptr;
  };
  virtual PodVectorSpan pod_vector_span() = 0;

  /// Dense index assigned by san::CompiledModel while this place's model
  /// is compiled (kNoCompiledId otherwise). Engine bookkeeping — the
  /// simulator's incremental-enabling touch lookups use it in place of a
  /// hash probe.
  static constexpr std::uint32_t kNoCompiledId = 0xffff'ffffu;
  std::uint32_t compiled_id() const noexcept { return compiled_id_; }
  void set_compiled_id(std::uint32_t id) noexcept { compiled_id_ = id; }

  /// Thread-local count of virtual reset() calls — the instrumentation
  /// behind the compiled engine's guarantee that restoring the initial
  /// marking is a block copy, not a per-place virtual walk.
  static std::uint64_t reset_count() noexcept { return reset_count_; }

 protected:
  void notify_read() const {
    if (listener_ != nullptr) listener_->on_read(*this);
  }
  void notify_write() const {
    if (listener_ != nullptr) listener_->on_write(*this);
  }
  static void note_reset() noexcept { ++reset_count_; }

 private:
  // Inline and constinit: every translation unit sees a constant-
  // initialized slot and reads it directly, without the out-of-line
  // access and TLS-init-wrapper test a thread_local defined in a .cpp
  // costs on each place access.
  static inline thread_local constinit PlaceAccessListener* listener_ =
      nullptr;
  static inline thread_local constinit std::uint64_t reset_count_ = 0;

  std::string name_;
  std::uint32_t compiled_id_ = kNoCompiledId;
  TraceKey trace_key_;  // in compiled_id_'s padding
};

/// A place whose marking is a value of type T, which must be copyable.
/// Trace events render a numeric marking with to_chars, another
/// streamable one with operator<<, and anything else as `<struct>`.
template <class T>
class Place final : public PlaceBase {
 public:
  Place(std::string name, T initial)
      : PlaceBase(std::move(name)), value_(initial), initial_(initial) {}

  const T& get() const noexcept {
    notify_read();
    return *store_;
  }

  /// Mutable access. The engine re-evaluates activity enabling after every
  /// firing, so in-place mutation from gate functions is safe.
  T& mut() noexcept {
    notify_write();
    return *store_;
  }

  void set(T v) {
    notify_write();
    *store_ = std::move(v);
  }

  void reset() override {
    note_reset();
    *store_ = initial_;
  }

  void value_string_to(std::string& out) const override {
    if constexpr (kStreamed<T>) {
      std::ostringstream os;
      os.imbue(std::locale::classic());
      os << *store_;
      out += os.str();
    } else {
      char buf[kJsonValueMax];
      out.append(buf, format_value(buf, *store_));
    }
  }

  char* write_json_value(char* out) const override {
    if constexpr (kStreamed<T>) {
      (void)out;
      return nullptr;
    } else {
      *out = '"';
      char* end = format_value(out + 1, *store_);
      *end = '"';
      return end + 1;
    }
  }

  // --- compiled-engine storage (see PlaceBase) -----------------------
  StorageKind storage_kind() const noexcept override { return kStorage; }

  std::size_t storage_size() const noexcept override {
    return kStorage == StorageKind::kTrivial ? sizeof(T) : 0;
  }

  std::size_t storage_align() const noexcept override {
    return kStorage == StorageKind::kTrivial ? alignof(T) : 1;
  }

  void* marking_ptr() noexcept override { return store_; }

  void bind_storage(void* slot) override {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (store_ != &value_) {
        throw std::logic_error(
            "Place '" + name() +
            "': marking is already arena-bound (a model can be compiled by "
            "at most one engine at a time)");
      }
      store_ = new (slot) T(value_);
    } else {
      (void)slot;
      throw std::logic_error("Place '" + name() +
                             "': marking type cannot live in the arena");
    }
  }

  void unbind_storage() noexcept override {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (store_ != &value_) {
        value_ = *store_;
        store_ = &value_;
      }
    }
  }

  void write_initial(void* dst) const override {
    if constexpr (std::is_trivially_copyable_v<T>) {
      new (dst) T(initial_);
    } else {
      (void)dst;
      throw std::logic_error("Place '" + name() +
                             "': marking type has no arena image");
    }
  }

  PodVectorSpan pod_vector_span() override {
    if constexpr (IsPodVector<T>::value) {
      using E = typename T::value_type;
      return PodVectorSpan{store_,
                           initial_.empty() ? nullptr : initial_.data(),
                           initial_.size(), &restore_pod_vector<E>};
    } else {
      return {};
    }
  }

 private:
  static constexpr StorageKind kStorage =
      std::is_trivially_copyable_v<T> ? StorageKind::kTrivial
      : IsPodVector<T>::value         ? StorageKind::kPodVector
                                      : StorageKind::kOpaque;

  template <class U>
  static constexpr bool kStreamable =
      requires(std::ostringstream& os, const U& v) { os << v; };

  // Character types would stream as glyphs but to_chars as numbers, so
  // only the numeric integrals take the integer to_chars path. Floating
  // point takes to_chars too; everything else renders through operator<<
  // on a stream imbued with the classic locale. No rendering depends on
  // the global locale.
  template <class U>
  static constexpr bool kNumericIntegral =
      std::is_integral_v<U> && !std::is_same_v<U, char> &&
      !std::is_same_v<U, signed char> && !std::is_same_v<U, unsigned char> &&
      !std::is_same_v<U, wchar_t> && !std::is_same_v<U, char8_t> &&
      !std::is_same_v<U, char16_t> && !std::is_same_v<U, char32_t>;

  /// Markings rendered by operator<<; the rest by format_value.
  template <class U>
  static constexpr bool kStreamed = !kNumericIntegral<U> &&
                                    !std::is_floating_point_v<U> &&
                                    kStreamable<U>;

  /// Renders a marking that is not kStreamed at `out`, which has room
  /// for kJsonValueMax - 2 bytes (the longest is 20), and returns the
  /// end. None of its renderings needs JSON escaping.
  template <class U>
  static char* format_value(char* out, const U& v) {
    constexpr std::size_t kRoom = kJsonValueMax - 2;
    if constexpr (kNumericIntegral<U>) {
      if constexpr (std::is_signed_v<U>) {
        return std::to_chars(out, out + kRoom, static_cast<long long>(v)).ptr;
      } else {
        return std::to_chars(out, out + kRoom,
                             static_cast<unsigned long long>(v))
            .ptr;
      }
    } else if constexpr (std::is_floating_point_v<U>) {
      // to_chars(general, 6) is specified as %.6g in the C locale: what
      // a default ostream prints under the classic locale, whatever the
      // global locale is now.
      return std::to_chars(out, out + kRoom, v, std::chars_format::general,
                           6)
          .ptr;
    } else {
      constexpr std::string_view kStruct = "<struct>";
      std::memcpy(out, kStruct.data(), kStruct.size());
      return out + kStruct.size();
    }
  }

  template <class E>
  static void restore_pod_vector(void* vec, const void* initial,
                                 std::size_t count) {
    auto& v = *static_cast<std::vector<E>*>(vec);
    if (v.size() != count) {
      throw std::logic_error(
          "compiled engine: a pod-vector marking was resized during the "
          "run; resizing vector markings is unsupported under the "
          "compiled engine");
    }
    if (count != 0) std::memcpy(v.data(), initial, count * sizeof(E));
  }

  T value_;
  T initial_;
  T* store_ = &value_;
};

/// Classic SAN place: a count of tokens.
using TokenPlace = Place<std::int64_t>;

using PlacePtr = std::shared_ptr<PlaceBase>;

}  // namespace vcpusim::san
