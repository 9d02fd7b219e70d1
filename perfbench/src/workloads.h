// The benchmark's named workloads and the inputs each derives from a seed.
//
// A workload is one scenario: topology, Config, source and the protocol's
// own random streams (host timer phases, network jitter and loss, rooted
// at kProtocolSeed) are fixed. The benchmark seed makes the inputs the
// program receives: for each of `variants` input variants, the phase of
// the open-loop broadcast schedule inside its first interval and the
// message bodies. A run cycles through the variants, and the virtual-time
// metrics are medians over one pass through all of them.
//
//   wan64    8x8 ring clustered WAN on T1 trunks, default Config,
//            lossless, batching off, 200 messages every 500 ms — INFO is
//            ~94% of sends, so the event queue, the control plane and
//            observer fan-out do most of the work.
//   stream16 4x4 star WAN, default Config, 1% trunk loss, 5 ms batching,
//            10000 messages every 100 ms — the data path, the coalescer,
//            SeqSet and drop/gap-fill recovery do the work.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "topo/generators.h"
#include "util/ids.h"
#include "util/time.h"

namespace perfbench {

// Every workload broadcasts from host 0.
inline constexpr rbcast::HostId kSource{0};
// The root of the protocol's random streams: the default seed of
// rbcast_sim and rbcast_node, so each workload is one scenario.
inline constexpr std::uint64_t kProtocolSeed = 1;

struct Inputs {
  std::string workload;
  std::uint64_t seed{1};
  int variant{0};
  int variants{1};

  rbcast::topo::ClusteredWanOptions wan{};
  rbcast::core::Config protocol{};

  // Broadcast k (seq k+1) is due at first_at + k * interval after start().
  int messages{0};
  rbcast::util::Duration interval{0};
  rbcast::util::Duration first_at{0};
  // Give up this long after start().
  rbcast::util::Duration deadline{0};

  std::vector<std::string> bodies;  // bodies[k] is the body of seq k+1

  [[nodiscard]] std::size_t host_count() const {
    return static_cast<std::size_t>(wan.clusters) *
           static_cast<std::size_t>(wan.hosts_per_cluster);
  }
  // (host, message) pairs a complete run delivers, the source excluded.
  [[nodiscard]] std::uint64_t pairs() const {
    return static_cast<std::uint64_t>(host_count() - 1) *
           static_cast<std::uint64_t>(messages);
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Input variant `variant` (0 <= variant < Inputs::variants) of a workload;
// nullopt for an unknown workload name.
[[nodiscard]] std::optional<Inputs> make_inputs(std::string_view workload,
                                                std::uint64_t seed,
                                                int variant);

}  // namespace perfbench
