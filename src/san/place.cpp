#include "san/place.hpp"

// Header-only templates; this TU anchors the vtable of PlaceBase
// instantiations used across the library. The thread-local access-
// listener slot lives in the header (inline), so every Place<T>::get/
// mut/set reads it without an out-of-line call.
namespace vcpusim::san {

namespace {
[[maybe_unused]] const TokenPlace anchor{"_anchor", 0};
}
}  // namespace vcpusim::san
