// Global allocation counter for tests that assert an exact number of heap
// allocations. counting_new.cpp replaces the global allocation functions;
// it is its own translation unit so that no call site inlines them (GCC 12
// would otherwise pair an inlined free() with the caller's operator new
// and warn -Wmismatched-new-delete).
#pragma once

#include <cstdint>

namespace looplynx::test {

/// Calls to global operator new / new[] since program start. Counting is a
/// plain increment: the tests that read it are single-threaded.
std::uint64_t global_news();

}  // namespace looplynx::test
