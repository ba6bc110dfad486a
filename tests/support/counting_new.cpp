#include "tests/support/counting_new.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_news = 0;
}

namespace looplynx::test {

std::uint64_t global_news() { return g_news; }

}  // namespace looplynx::test

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
