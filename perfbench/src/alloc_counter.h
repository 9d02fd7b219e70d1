// Heap-allocation counter for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new/delete family; every
// allocation made anywhere in the process (the rbcast library included)
// bumps one counter. The benchmark reads it around a measured phase for
// the end-to-end allocs_per_delivery figure, and the tracer reads it at
// every span boundary so allocations are attributed to the layer that made
// them. The benchmark is single-threaded, so the counter is a plain
// integer.
#pragma once

#include <cstdint>

namespace perfbench {

// Calls to a global operator new (any overload) since process start.
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace perfbench
