// Measured allocation gate for the INFO rounds (Section 4.2: hosts
// "periodically update one another on the current values of their INFO
// sets"). One round sends the same set to every destination. SeqSet copies
// share one interval block, so the set itself is never copied, and the
// std::any box that carries each message is a block recycled through the
// message-box free list: once that list is warm, a round allocates at most
// the one clone of the host's INFO set.
//
// This binary links a counting global operator new (support/alloc_counter)
// and measures the allocations of a real round directly. Its companion
// hot_path_alloc_test measures the event path and the upcalls the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "core/broadcast_host.h"
#include "support/alloc_counter.h"
#include "support/counting_transport.h"
#include "support/message_pool.h"
#include "util/rng.h"
#include "util/seq_set.h"

namespace rbcast::core {
namespace {

using rbcast::testing::allocations_during;
using rbcast::testing::CountingTransport;
using rbcast::testing::fill_message_pool;

constexpr int kClusterPeers = 8;
constexpr int kFarPeers = 16;

// The source (host 0) with a non-empty INFO set, kClusterPeers cluster
// members and kFarPeers hosts outside its cluster; no parent, no children.
struct Round {
  CountingTransport transport;
  std::unique_ptr<BroadcastHost> host;
  // Sends whose InfoMsg reads the same interval block as host's INFO set.
  std::size_t shared_sends = 0;

  Round() {
    std::vector<HostId> all;
    for (int i = 0; i <= kClusterPeers + kFarPeers; ++i) {
      all.push_back(HostId{i});
    }
    Config config;
    config.cluster_knowledge = Config::ClusterKnowledge::kStatic;
    util::RngFactory rngs(1);
    host = std::make_unique<BroadcastHost>(transport, HostId{0}, HostId{0},
                                           all, config, rngs.stream("host", 0));
    std::vector<HostId> cluster;
    for (int i = 1; i <= kClusterPeers; ++i) cluster.push_back(HostId{i});
    host->seed_cluster(cluster);
    for (int i = 0; i < 5; ++i) host->broadcast("m");
    transport.on_send = [this](HostId, const ProtocolMessage& message) {
      const auto* info = std::get_if<InfoMsg>(&message);
      if (info != nullptr &&
          info->info.shares_storage_with(host->state().info())) {
        ++shared_sends;
      }
    };
  }
};

TEST(InfoRoundAllocations, InterRoundAllocatesAtMostOneClone) {
  Round r;
  r.host->run_info_inter_now();  // warm-up: one-time per-host tables
  r.transport.sends = 0;
  r.shared_sends = 0;
  fill_message_pool();
  const std::uint64_t allocs =
      allocations_during([&r] { r.host->run_info_inter_now(); });
  ASSERT_EQ(r.transport.sends, std::size_t{kFarPeers});
  EXPECT_EQ(r.shared_sends, std::size_t{kFarPeers});
  // Every box is recycled; at most the INFO set is cloned once.
  EXPECT_LE(allocs, 1u);
}

TEST(InfoRoundAllocations, IntraRoundAllocatesAtMostOneClone) {
  Round r;
  r.host->run_info_intra_now();  // warm-up: one-time per-host tables
  r.transport.sends = 0;
  r.shared_sends = 0;
  fill_message_pool();
  const std::uint64_t allocs =
      allocations_during([&r] { r.host->run_info_intra_now(); });
  ASSERT_EQ(r.transport.sends, std::size_t{kClusterPeers});
  EXPECT_EQ(r.shared_sends, std::size_t{kClusterPeers});
  EXPECT_LE(allocs, 1u);
}

TEST(SeqSetAllocations, CopyAllocatesNothingAndCloneExactlyOnce) {
  const SeqSet original = SeqSet::of({1, 2, 3, 7, 8, 12});
  SeqSet copy;
  EXPECT_EQ(allocations_during([&] { copy = original; }), 0u);
  EXPECT_EQ(allocations_during([&] { SeqSet another = copy; }), 0u);
  // The first real mutation of a shared block clones it: one allocation,
  // even when the mutation also adds an interval.
  EXPECT_EQ(allocations_during([&] { copy.insert(20); }), 1u);
  EXPECT_FALSE(copy.shares_storage_with(original));
  SeqSet merged = original;
  const SeqSet operand = SeqSet::contiguous(30);
  EXPECT_EQ(allocations_during([&] { merged.merge(operand); }), 1u);
  // A mutation that changes nothing never clones.
  SeqSet same = original;
  EXPECT_EQ(allocations_during([&] {
              same.insert(2);
              same.prune_below(0);
            }),
            0u);
  EXPECT_TRUE(same.shares_storage_with(original));
}

}  // namespace
}  // namespace rbcast::core
