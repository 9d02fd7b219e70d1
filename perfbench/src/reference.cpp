#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

// 2^18 slots: a 1 MiB successor table and 2 MiB of values, past the
// private caches like the simulator's working set.
constexpr std::uint32_t kSlots = 1U << 18;
// Steps per pass; about kReferenceNominalS of work.
constexpr int kSteps = 200000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Built once and never freed, so a pass neither allocates nor faults in
// pages: the allocator's state after a run does not move the timing.
struct Arena {
  std::vector<std::uint32_t> next;  // one cycle through every slot
  std::vector<std::uint64_t> value;

  Arena() : next(kSlots), value(kSlots) {
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      next[i] = i;
      value[i] = xorshift(x);
    }
    // Sattolo's shuffle: a single cycle, so the walk visits every slot.
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(next[i], next[xorshift(x) % i]);
    }
  }
};

const Arena& arena() {
  static const Arena a;
  return a;
}

using Op = std::uint64_t (*)(std::uint64_t, std::uint64_t);
std::uint64_t op_mul(std::uint64_t acc, std::uint64_t v) {
  return acc * 0x9E3779B97F4A7C15ULL ^ v;
}
std::uint64_t op_rot(std::uint64_t acc, std::uint64_t v) {
  return ((acc << 7) | (acc >> 57)) + v;
}
std::uint64_t op_shift(std::uint64_t acc, std::uint64_t v) {
  return acc ^ (v >> 3) ^ (acc << 11);
}
std::uint64_t op_add(std::uint64_t acc, std::uint64_t v) {
  return acc + v + (acc >> 29);
}

// A dependent walk through the arena with a data-dependent indirect call
// per step: cache misses, mispredicted branches and indirect calls, the
// mix an event loop over heap objects runs on.
std::uint64_t reference_work(const Arena& a) {
  static constexpr Op kOps[] = {op_mul, op_rot, op_shift, op_add};
  std::uint32_t i = 0;
  std::uint64_t acc = 1;
  for (int step = 0; step < kSteps; ++step) {
    i = a.next[i];
    acc = kOps[acc & 3](acc, a.value[i]);
  }
  return acc;
}

double reference_pass_s() {
  using Clock = std::chrono::steady_clock;
  const Arena& a = arena();
  const Clock::time_point t0 = Clock::now();
  volatile std::uint64_t sink = reference_work(a);
  static_cast<void>(sink);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double reference_s(int passes) {
  std::vector<double> xs;
  for (int i = 0; i < passes; ++i) xs.push_back(reference_pass_s());
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace perfbench
