// Counting global allocation functions for measured allocation gates.
// Linking alloc_counter.cpp into a test binary replaces every replaceable
// global operator new/delete (plain, nothrow, over-aligned, sized); the
// count advances only while counting is on. The
// replacements live in their own translation unit so the compiler never
// inlines them into a caller's new/delete pair.
#pragma once

#include <cstdint>

namespace rbcast::testing {

void start_counting_allocations();
std::uint64_t stop_counting_allocations();

// Heap allocations (operator new calls) made while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  start_counting_allocations();
  fn();
  return stop_counting_allocations();
}

}  // namespace rbcast::testing
