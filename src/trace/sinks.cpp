#include "trace/sinks.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace vcpusim::trace {
namespace {

/// Fibonacci hash of an address: its slot in a direct-mapped cache of
/// 2^bits slots (RingBufferSink interning).
std::size_t address_slot(const char* p, unsigned bits) {
  const auto key =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                  (64U - bits));
}

/// Writers behind the json:: append helpers and JsonlSink's lines. Each
/// renders at `out`, which has room for the bytes noted, and returns the
/// end.

/// Copies `s` (no terminator). `s` may be a null empty view.
char* put(char* out, std::string_view s) {
  if (!s.empty()) std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

/// At most 20 bytes.
char* write_int(char* out, std::int64_t v) {
  return std::to_chars(out, out + 20, v).ptr;
}

/// At most 20 bytes.
char* write_uint(char* out, std::uint64_t v) {
  return std::to_chars(out, out + 20, v).ptr;
}

/// %.17g, at most 24 bytes. to_chars(general, 17) is specified as
/// printf("%.17g"), which round-trips every finite double exactly; the
/// JSONL golden fixtures depend on this rendering being stable.
char* write_double(char* out, double v) {
  if (!std::isfinite(v)) return put(out, "null");
  // Integral values below 2^53 (simulated ticks, mostly) render under
  // %.17g as their plain digits, since the decimal exponent is below the
  // precision; the integer path is several times cheaper. -0 keeps its
  // sign through the general path.
  if (std::fabs(v) < 9007199254740992.0) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      return write_int(out, i);
    }
  }
  return std::to_chars(out, out + 24, v, std::chars_format::general, 17).ptr;
}

/// Room write_string needs for a string of `size` bytes.
constexpr std::size_t string_room(std::size_t size) { return 6 * size + 2; }

/// Bytes write_string must escape: '"', '\\' and the control range.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> table{};
  for (std::size_t c = 0; c < 0x20; ++c) table[c] = true;
  table['"'] = true;
  table['\\'] = true;
  return table;
}();

/// `s` quoted and escaped; at most string_room(s.size()) bytes.
char* write_string(char* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out++ = '"';
  std::size_t clean = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!kNeedsEscape[c]) continue;
    out = put(out, s.substr(clean, i - clean));
    clean = i + 1;
    switch (c) {
      case '"': out = put(out, "\\\""); break;
      case '\\': out = put(out, "\\\\"); break;
      case '\n': out = put(out, "\\n"); break;
      case '\t': out = put(out, "\\t"); break;
      case '\r': out = put(out, "\\r"); break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4U],
                               kHex[c & 0xFU]};
        out = put(out, std::string_view(escape, sizeof(escape)));
      }
    }
  }
  out = put(out, s.substr(clean));
  *out++ = '"';
  return out;
}

}  // namespace

namespace json {

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, write_int(buf, v));
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, write_uint(buf, v));
}

void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, write_double(buf, v));
}

void append_string(std::string& out, std::string_view s) {
  const std::size_t from = out.size();
  out.resize(from + string_room(s.size()));
  out.resize(static_cast<std::size_t>(write_string(out.data() + from, s) -
                                      out.data()));
}

QuotedNameCache::QuotedNameCache()
    : slots_(std::make_unique<Slot[]>(kSlots)) {}

const QuotedNameCache::Slot* QuotedNameCache::find(std::uint64_t key) const {
  const Slot& slot = slots_[key & (kSlots - 1)];
  // An empty slot holds key 0, the key of no name: it must not hit.
  return key != 0 && slot.key == key ? &slot : nullptr;
}

void QuotedNameCache::remember(std::uint64_t key, const char* quoted,
                               std::size_t n) {
  Slot& slot = slots_[key & (kSlots - 1)];
  if (key == 0 || n > sizeof(slot.quoted)) return;
  std::memcpy(slot.quoted, quoted, n);
  slot.key = key;
  slot.len = static_cast<std::uint32_t>(n);
}

void QuotedNameCache::append(std::string& out, std::uint64_t key,
                             std::string_view s) {
  if (const Slot* hit = find(key)) {
    out.append(hit->quoted, hit->len);
    return;
  }
  const std::size_t from = out.size();
  append_string(out, s);
  remember(key, out.data() + from, out.size() - from);
}

char* QuotedNameCache::write(char* out, std::uint64_t key,
                             std::string_view s) {
  if (const Slot* hit = find(key)) {
    const std::size_t n = hit->len;
    std::memcpy(out, hit->quoted, kShortCopy);
    if (n > kShortCopy) {
      std::memcpy(out + n - kShortCopy, hit->quoted + n - kShortCopy,
                  kShortCopy);
    }
    return out + n;
  }
  return write_miss(out, key, s);
}

[[gnu::noinline]] char* QuotedNameCache::write_miss(char* out,
                                                    std::uint64_t key,
                                                    std::string_view s) {
  char* const end = write_string(out, s);
  remember(key, out, static_cast<std::size_t>(end - out));
  return end;
}

std::string_view StampCache::find(double time, std::uint64_t seq) const {
  if (seq != seq_ || std::bit_cast<std::uint64_t>(time) != time_bits_) {
    return {};
  }
  return {bytes_, len_};
}

char* StampCache::write(char* out, double time, std::uint64_t seq) const {
  if (len_ == 0 || seq != seq_ ||
      std::bit_cast<std::uint64_t>(time) != time_bits_) {
    return nullptr;
  }
  std::memcpy(out, bytes_, kCopy);
  return out + len_;
}

void StampCache::store(std::string_view rendered, double time,
                       std::uint64_t seq) {
  if (rendered.size() > sizeof(bytes_)) {
    len_ = 0;
    return;
  }
  std::memcpy(bytes_, rendered.data(), rendered.size());
  len_ = rendered.size();
  time_bits_ = std::bit_cast<std::uint64_t>(time);
  seq_ = seq;
}

}  // namespace json

namespace {

/// True iff `s` is entirely one finite number (so a marking value can be
/// promoted to a Chrome counter track). strtod needs a terminated
/// string, so `s` is copied into the caller's reused `scratch`.
bool parse_number(std::string_view s, std::string& scratch, double* out) {
  if (s.empty()) return false;
  scratch.assign(s);
  char* end = nullptr;
  const double v = std::strtod(scratch.c_str(), &end);
  if (end != scratch.c_str() + scratch.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Bytes a line prefix copy writes, whatever the prefix's length.
constexpr std::size_t kPrefixCopy = 32;

/// The opening of a JSONL line up to its time value, zero-padded to
/// kPrefixCopy bytes so it is copied with a constant length.
struct LinePrefix {
  char bytes[kPrefixCopy];
  std::size_t size;
};

template <std::size_t N>
constexpr LinePrefix make_prefix(const char (&text)[N]) {
  static_assert(N - 1 <= kPrefixCopy);
  LinePrefix prefix{};
  for (std::size_t i = 0; i + 1 < N; ++i) prefix.bytes[i] = text[i];
  prefix.size = N - 1;
  return prefix;
}

constexpr LinePrefix kFirePrefix = make_prefix(R"({"kind":"fire","t":)");
constexpr LinePrefix kEnablingPrefix =
    make_prefix(R"({"kind":"enabling","t":)");
constexpr LinePrefix kMarkingPrefix = make_prefix(R"({"kind":"marking","t":)");
constexpr LinePrefix kSchedPrefix = make_prefix(R"({"kind":"sched","t":)");
constexpr LinePrefix kMarkerPrefix = make_prefix(R"({"kind":"marker","t":)");
constexpr LinePrefix kUnknownPrefix = make_prefix(R"({"kind":"?","t":)");

const LinePrefix& line_prefix(san::TraceCategory category) {
  switch (category) {
    case san::TraceCategory::kFire: return kFirePrefix;
    case san::TraceCategory::kEnabling: return kEnablingPrefix;
    case san::TraceCategory::kMarking: return kMarkingPrefix;
    case san::TraceCategory::kScheduler: return kSchedPrefix;
    case san::TraceCategory::kMarker: return kMarkerPrefix;
  }
  return kUnknownPrefix;
}

}  // namespace

std::uint32_t RingBufferSink::intern(std::string_view s) {
  if (s.empty()) return 0;
  Interned& slot = interned_[address_slot(s.data(), kInternBits)];
  if (slot.source == s.data() && slot.len == s.size() &&
      std::memcmp(arena_.data() + slot.offset, s.data(), s.size()) == 0) {
    return slot.offset;
  }
  constexpr std::size_t kMaxArena = std::numeric_limits<std::uint32_t>::max();
  if (s.size() > kMaxArena - arena_.size()) {
    throw std::length_error("RingBufferSink: trace arena exceeds 4 GiB");
  }
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.append(s);
  slot = Interned{s.data(), static_cast<std::uint32_t>(s.size()), offset};
  return offset;
}

const RingBufferSink::Record& RingBufferSink::record(std::size_t i) const {
  // Segment k starts at kFirstSegment * (2^k - 1).
  const std::size_t k = std::bit_width(i / kFirstSegment + 1) - 1;
  return segments_[k][i - kFirstSegment * ((std::size_t{1} << k) - 1)];
}

void RingBufferSink::on_event(const san::TraceEvent& event) {
  if (event.name.size() > kMaxNameLen) {
    throw std::length_error("RingBufferSink: event name exceeds 16 MiB");
  }
  const std::uint32_t name = intern(event.name);
  const std::string_view text = san::detail_text(event, text_);
  const std::uint32_t detail = intern(text);
  if (size_ == kFirstSegment * ((std::size_t{1} << segments_.size()) - 1)) {
    segments_.push_back(std::make_unique_for_overwrite<Record[]>(
        kFirstSegment << segments_.size()));
  }
  Record& r = record(size_);
  r.time = event.time;
  r.seq = event.seq;
  r.a = event.a;
  r.b = event.b;
  r.name_key = event.name_key;
  r.name = name;
  r.detail = detail;
  r.name_len = static_cast<std::uint32_t>(event.name.size());
  r.category = trace_bit(event.category);
  r.detail_len = static_cast<std::uint32_t>(text.size());
  ++size_;
  ++total_;
  if (capacity_ != 0 && retained() > capacity_) {
    ++head_;
    if (head_ >= retained()) compact();
  }
}

void RingBufferSink::compact() {
  const std::size_t live = retained();
  std::size_t live_bytes = 0;
  for (std::size_t i = 0; i < live; ++i) {
    Record& r = record(i);
    r = record(head_ + i);
    live_bytes += r.name_len + r.detail_len;
  }
  size_ = live;
  head_ = 0;
  // live_bytes counts shared strings once per record, so it bounds the
  // live arena bytes from above: past twice that, dead bytes dominate.
  if (arena_.size() <= 2 * live_bytes) return;
  // Re-intern the live strings into a fresh arena. Keyed by their
  // old-arena addresses, strings the records share stay shared.
  std::string old;
  old.swap(arena_);
  arena_.reserve(live_bytes);
  interned_.fill(Interned{});
  for (std::size_t i = 0; i < live; ++i) {
    Record& r = record(i);
    r.name = intern(std::string_view(old.data() + r.name, r.name_len));
    r.detail = intern(std::string_view(old.data() + r.detail, r.detail_len));
  }
  interned_.fill(Interned{});  // the keys point into `old`
}

void RingBufferSink::clear() noexcept {
  size_ = 0;
  head_ = 0;
  arena_.clear();
  interned_.fill(Interned{});
  total_ = 0;
}

san::TraceEvent RingBufferSink::event_at(std::size_t i) const {
  const Record& r = record(head_ + i);
  return san::TraceEvent{static_cast<san::TraceCategory>(r.category),
                         r.time,
                         r.seq,
                         std::string_view(arena_.data() + r.name, r.name_len),
                         r.a,
                         r.b,
                         std::string_view(arena_.data() + r.detail,
                                          r.detail_len),
                         nullptr,
                         r.name_key};
}

std::size_t RingBufferSink::count(san::TraceCategory category) const {
  std::size_t n = 0;
  for (std::size_t i = head_; i < size_; ++i) {
    n += record(i).category == trace_bit(category) ? 1 : 0;
  }
  return n;
}

void RingBufferSink::replay_into(san::TraceSink& sink) const {
  for (std::size_t i = 0; i < retained(); ++i) {
    const san::TraceEvent event = event_at(i);
    if (sink.wants(event.category)) sink.on_event(event);
  }
}

/// Room for all of a line but its names and marking value: a prefix
/// (23 bytes), the stamp (24 + 7 + 20) and the widest payload, sched's
/// (6 + 8 + 20 + 8 + 20), plus the closing "}\n". On top of that, the
/// slack of the constant-length copies: each writes at most kOverCopy
/// bytes from a point inside the line, so every byte past its fragment
/// lands in the buffer and is overwritten or cut off at the line's end.
constexpr std::size_t kOverCopy =
    std::max({kPrefixCopy, json::StampCache::kCopy,
              json::QuotedNameCache::kShortCopy});
constexpr std::size_t kLineRoom = 160 + kOverCopy;

char* JsonlSink::Serializer::reserve(std::size_t used, std::size_t more) {
  if (buf_.size() - used < more) {
    buf_.resize(std::max(used + more, 2 * buf_.size()));
  }
  return buf_.data() + used;
}

/// Names and the (time, seq) stamp come from the caches; a kernel
/// marking of a type that needs no escaping writes its value straight
/// into the line. The prefix, the stamp and cached names are copied
/// with constant lengths (kOverCopy).
std::string_view JsonlSink::Serializer::write_line(
    const san::TraceEvent& event) {
  std::size_t room = kLineRoom + string_room(event.name.size()) +
                     string_room(event.detail.size());
  if (event.place != nullptr) room += san::PlaceBase::kJsonValueMax;
  char* p = reserve(0, room);
  const LinePrefix& prefix = line_prefix(event.category);
  std::memcpy(p, prefix.bytes, kPrefixCopy);
  p += prefix.size;
  if (char* const end = stamp_.write(p, event.time, event.seq)) {
    p = end;
  } else {
    char* const from = p;
    p = write_double(p, event.time);
    p = put(p, R"(,"seq":)");
    p = write_uint(p, event.seq);
    stamp_.store({from, static_cast<std::size_t>(p - from)}, event.time,
                 event.seq);
  }
  switch (event.category) {
    case san::TraceCategory::kFire:
      p = put(p, R"(,"activity":)");
      p = names_.write(p, event.name_key, event.name);
      p = put(p, R"(,"case":)");
      p = write_int(p, event.a);
      break;
    case san::TraceCategory::kEnabling:
      p = put(p, R"(,"activity":)");
      p = names_.write(p, event.name_key, event.name);
      p = put(p, R"(,"active":)");
      p = write_int(p, event.a);
      break;
    case san::TraceCategory::kMarking: {
      p = put(p, R"(,"place":)");
      p = names_.write(p, event.name_key, event.name);
      p = put(p, R"(,"value":)");
      char* const end =
          event.place != nullptr ? event.place->write_json_value(p) : nullptr;
      if (end != nullptr) {
        p = end;
        break;
      }
      const std::string_view text = san::detail_text(event, text_);
      p = reserve(static_cast<std::size_t>(p - buf_.data()),
                  string_room(text.size()) + 2);
      p = write_string(p, text);
      break;
    }
    case san::TraceCategory::kScheduler:
      p = put(p, R"(,"op":)");
      p = names_.write(p, 0, event.detail);
      p = put(p, R"(,"vcpu":)");
      p = write_int(p, event.a);
      p = put(p, R"(,"pcpu":)");
      p = write_int(p, event.b);
      break;
    case san::TraceCategory::kMarker:
      p = put(p, R"(,"label":)");
      p = names_.write(p, event.name_key, event.name);
      p = put(p, R"(,"value":)");
      p = write_int(p, event.a);
      break;
  }
  *p++ = '}';
  *p++ = '\n';
  return {buf_.data(), static_cast<std::size_t>(p - buf_.data())};
}

std::string JsonlSink::line(const san::TraceEvent& event) {
  Serializer serializer;
  const std::string_view line = serializer.write_line(event);
  return std::string(line.substr(0, line.size() - 1));
}

void JsonlSink::on_event(const san::TraceEvent& event) {
  deliver(serializer_.write_line(event));
}

void JsonlSink::deliver(std::string_view line) {
  std::ostream& os = *os_;
  if (os.tie() != nullptr && os.good()) os.tie()->flush();
  if (!os.good()) {
    if (os.bad()) os.setstate(std::ios_base::failbit);
    return;
  }
  const auto n = static_cast<std::streamsize>(line.size());
  try {
    if (os.rdbuf()->sputn(line.data(), n) != n) {
      os.setstate(std::ios_base::badbit);
    }
  } catch (...) {
    os.setstate(std::ios_base::badbit);
  }
  if ((os.flags() & std::ios_base::unitbuf) != 0 &&
      os.rdbuf()->pubsync() == -1) {
    os.setstate(std::ios_base::badbit);
  }
}

void JsonlSink::finish() { os_->flush(); }

void ChromeTraceSink::on_event(const san::TraceEvent& event) {
  if (!open_) {
    *os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    open_ = true;
  }
  std::string& out = entry_;
  out.clear();
  if (!first_) out.push_back(',');
  out.append("\n{\"name\":");
  const auto append_ts = [&] {
    if (const std::string_view ts = ts_.find(event.time, 0); !ts.empty()) {
      out.append(ts);
      return;
    }
    const std::size_t from = out.size();
    // One simulated tick -> 1ms of timeline (ts is in microseconds).
    json::append_double(out, event.time * 1000.0);
    ts_.store(std::string_view(out).substr(from), event.time, 0);
  };
  switch (event.category) {
    case san::TraceCategory::kFire:
      names_.append(out, event.name_key, event.name);
      out.append(",\"cat\":\"fire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                 "\"tid\":0,\"ts\":");
      append_ts();
      out.append(",\"args\":{\"case\":");
      json::append_int(out, event.a);
      out.append(",\"seq\":");
      json::append_uint(out, event.seq);
      break;
    case san::TraceCategory::kEnabling:
      names_.append(out, event.name_key, event.name);
      out.append(",\"cat\":\"enabling\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                 "\"tid\":1,\"ts\":");
      append_ts();
      out.append(",\"args\":{\"active\":");
      json::append_int(out, event.a);
      break;
    case san::TraceCategory::kMarking: {
      double value = 0.0;
      // Only numeric markings become counters: the value is the marking's
      // text parsed, so a floating place keeps its %.6g value.
      if (!parse_number(san::detail_text(event, text_), number_, &value)) {
        return;
      }
      names_.append(out, event.name_key, event.name);
      out.append(",\"cat\":\"marking\",\"ph\":\"C\",\"pid\":0,\"ts\":");
      append_ts();
      out.append(",\"args\":{\"value\":");
      json::append_double(out, value);
      break;
    }
    case san::TraceCategory::kScheduler:
      // One timeline row per VCPU (tid = vcpu id + 2 keeps rows 0/1 for
      // fire / enabling instants).
      names_.append(out, 0, event.detail);
      out.append(",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                 "\"tid\":");
      json::append_int(out, event.a + 2);
      out.append(",\"ts\":");
      append_ts();
      out.append(",\"args\":{\"vcpu\":");
      json::append_int(out, event.a);
      out.append(",\"pcpu\":");
      json::append_int(out, event.b);
      break;
    case san::TraceCategory::kMarker:
      names_.append(out, event.name_key, event.name);
      out.append(",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,"
                 "\"tid\":0,\"ts\":");
      append_ts();
      out.append(",\"args\":{\"value\":");
      json::append_int(out, event.a);
      break;
  }
  out.append("}}");
  os_->write(out.data(), static_cast<std::streamsize>(out.size()));
  first_ = false;
}

void ChromeTraceSink::finish() {
  if (!open_) {
    *os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    open_ = true;
  }
  *os_ << "\n]}\n";
  os_->flush();
}

const std::vector<std::string>& stream_sink_names() {
  static const std::vector<std::string> names = {"chrome", "jsonl"};
  return names;
}

std::unique_ptr<san::TraceSink> make_stream_sink(const std::string& name,
                                                 std::ostream& os,
                                                 std::uint8_t categories) {
  if (name == "jsonl") return std::make_unique<JsonlSink>(os, categories);
  if (name == "chrome") return std::make_unique<ChromeTraceSink>(os, categories);
  std::ostringstream msg;
  msg << "unknown trace sink '" << name << "' (valid sinks:";
  for (const std::string& n : stream_sink_names()) msg << " " << n;
  msg << ")";
  throw std::invalid_argument(msg.str());
}

std::uint8_t parse_trace_categories(const std::string& list) {
  std::uint8_t mask = 0;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    if (item == "all") {
      mask |= san::kTraceAll;
    } else if (item == "fire") {
      mask |= trace_bit(san::TraceCategory::kFire);
    } else if (item == "enabling") {
      mask |= trace_bit(san::TraceCategory::kEnabling);
    } else if (item == "marking") {
      mask |= trace_bit(san::TraceCategory::kMarking);
    } else if (item == "sched") {
      mask |= trace_bit(san::TraceCategory::kScheduler);
    } else if (item == "marker") {
      mask |= trace_bit(san::TraceCategory::kMarker);
    } else {
      throw std::invalid_argument(
          "unknown trace category '" + item +
          "' (valid categories: all enabling fire marker marking sched)");
    }
  }
  if (mask == 0) {
    throw std::invalid_argument("empty trace category list");
  }
  return mask;
}

}  // namespace vcpusim::trace
