#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

std::uint64_t g_allocs = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

namespace rbcast::testing {

void start_counting_allocations() {
  g_allocs = 0;
  g_counting = true;
}

std::uint64_t stop_counting_allocations() {
  g_counting = false;
  return g_allocs;
}

}  // namespace rbcast::testing

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
