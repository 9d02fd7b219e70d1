// The message-box free list behind ProtocolMessage's class-scoped operator
// new/delete (core/messages.h): what a box costs cold and recycled, the cap
// on what one thread keeps, boxes that cross threads, ASan poisoning of
// listed blocks, and a check that a run's event digest does not depend on
// whether the list was warm.
//
// This binary links the counting global operator new (support/alloc_counter):
// the list grows only through ::operator new, so the counter sees every
// block it takes from the heap.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "harness/experiment.h"
#include "support/alloc_counter.h"
#include "support/message_pool.h"
#include "topo/generators.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rbcast::core {
namespace {

using rbcast::testing::allocations_during;
using rbcast::testing::fill_message_pool;

// A message that owns no heap memory itself: only its box is counted.
std::any boxed() { return std::any(ProtocolMessage{DetachNotice{}}); }

// Appends `count` boxes to `out`; a measured caller reserves room first.
void add_boxes(std::vector<std::any>& out, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) out.push_back(boxed());
}

// `count` boxes alive at once, freed when the result is destroyed.
std::vector<std::any> boxes(std::size_t count) {
  std::vector<std::any> out;
  out.reserve(count);
  add_boxes(out, count);
  return out;
}

TEST(MessagePool, ColdBoxCostsOneAllocationAndARecycledBoxNone) {
  // A new thread starts with an empty list, whatever ran before.
  std::uint64_t cold = 0;
  std::uint64_t recycled = 0;
  std::thread([&] {
    cold = allocations_during([] { (void)boxed(); });
    recycled = allocations_during([] { (void)boxed(); });
  }).join();
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(recycled, 0u);
}

TEST(MessagePool, KeepsAtMostTheCapAcrossAFree) {
  // cap + k boxes freed together: the list keeps cap blocks and returns k
  // to the heap, so the next cap + k boxes cost exactly k allocations.
  constexpr std::size_t kExtra = 7;
  (void)boxes(kPooledBoxes + kExtra);
  std::vector<std::any> again;
  again.reserve(kPooledBoxes + kExtra);
  EXPECT_EQ(allocations_during(
                [&again] { add_boxes(again, kPooledBoxes + kExtra); }),
            kExtra);
}

TEST(MessagePool, CopiedAnyReusesABlock) {
  fill_message_pool();
  const std::any original(ProtocolMessage{InfoMsg{SeqSet{}, HostId{3}}});
  std::any copy;
  EXPECT_EQ(allocations_during([&] { copy = original; }), 0u);
  const auto* a = std::any_cast<ProtocolMessage>(&original);
  const auto* b = std::any_cast<ProtocolMessage>(&copy);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  ASSERT_TRUE(std::holds_alternative<InfoMsg>(*b));
  EXPECT_EQ(std::get<InfoMsg>(*b).parent, HostId{3});
}

TEST(MessagePool, OtherSizesGoStraightToTheHeap) {
  constexpr std::size_t kOther = sizeof(ProtocolMessage) / 2;
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(allocations_during([] {
                void* block = ProtocolMessage::operator new(kOther);
                ProtocolMessage::operator delete(block, kOther);
              }),
              1u);
  }
}

// Built on one thread, freed on another: the block joins the freeing
// thread's list. The builder also frees boxes of its own, which its list
// returns to the heap at thread exit, and the main thread frees half of
// what it was handed (LeakSanitizer checks both under the asan-ubsan
// preset).
TEST(MessagePool, BoxBuiltOnAnotherThreadIsFreedOnThisOne) {
  std::vector<std::any> handed_over;
  std::thread([&handed_over] {
    handed_over = boxes(32);
    (void)boxes(16);
  }).join();
  ASSERT_EQ(handed_over.size(), 32u);
  for (const std::any& box : handed_over) {
    ASSERT_NE(std::any_cast<ProtocolMessage>(&box), nullptr);
  }
  handed_over.resize(16);
  // A cold list filled only by the other thread's blocks: rebuilding as
  // many boxes takes nothing from the heap.
  std::uint64_t rebuilt_cost = 1;
  std::thread([&handed_over, &rebuilt_cost] {
    handed_over.clear();
    std::vector<std::any> rebuilt;
    rebuilt.reserve(16);
    rebuilt_cost =
        allocations_during([&rebuilt] { add_boxes(rebuilt, 16); });
  }).join();
  EXPECT_EQ(rebuilt_cost, 0u);
}

#if defined(__SANITIZE_ADDRESS__)
// A listed block is poisoned, so a stale pointer into a recycled box still
// faults; taking the block again unpoisons it.
TEST(MessagePool, FreedBoxIsPoisonedUntilReused) {
  auto* box = new ProtocolMessage(DetachNotice{});
  const void* raw = box;
  delete box;
  EXPECT_TRUE(__asan_address_is_poisoned(raw));
  EXPECT_DEATH(
      { (void)*static_cast<const volatile unsigned char*>(raw); },
      "use-after-poison");
  auto* reused = new ProtocolMessage(DetachNotice{});
  EXPECT_EQ(static_cast<const void*>(reused), raw);
  EXPECT_FALSE(__asan_address_is_poisoned(raw));
  delete reused;
}
#endif

// --- the list carries no behaviour ------------------------------------------

std::uint64_t small_run_digest() {
  harness::ScenarioOptions options;
  options.seed = 7;
  harness::Experiment e(
      topo::make_clustered_wan(
          topo::ClusteredWanOptions{.clusters = 3, .hosts_per_cluster = 3})
          .topology,
      options);
  e.start();
  e.broadcast_stream(10, sim::milliseconds(300), sim::seconds(1));
  e.run_until(sim::seconds(30));
  EXPECT_TRUE(e.all_delivered());
  return e.events().digest();
}

TEST(MessagePool, DigestIsTheSameWithAColdOrAWarmList) {
  std::uint64_t cold = 0;
  std::thread([&cold] { cold = small_run_digest(); }).join();
  (void)small_run_digest();  // leaves this thread's list warm
  const std::uint64_t warm = small_run_digest();
  EXPECT_EQ(cold, warm);
}

}  // namespace
}  // namespace rbcast::core
