#include "workloads.h"

#include <algorithm>
#include <cstring>

#include "util/rng.h"

namespace perfbench {

namespace util = rbcast::util;

namespace {
// The stream starts this long after start(), and the run gives up this
// long after the last broadcast was due.
constexpr util::Duration kLead = util::seconds(1);
constexpr util::Duration kDrain = util::seconds(600);
}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"wan64", "stream16"};
  return names;
}

std::optional<Inputs> make_inputs(std::string_view workload,
                                  std::uint64_t seed, int variant) {
  Inputs in;
  in.workload = std::string(workload);
  in.seed = seed;
  in.variant = variant;
  if (workload == "wan64") {
    in.wan.clusters = 8;
    in.wan.hosts_per_cluster = 8;
    in.wan.shape = rbcast::topo::TrunkShape::kRing;
    // T1 trunks: on the 56 kbit/s default the INFO load saturates every
    // trunk and the run turns chaotic (see perfbench/README.md).
    in.wan.expensive.bandwidth_bytes_per_sec = 1.544e6 / 8;
    in.messages = 200;
    in.interval = util::milliseconds(500);
    in.variants = 16;
  } else if (workload == "stream16") {
    in.wan.clusters = 4;
    in.wan.hosts_per_cluster = 4;
    in.wan.shape = rbcast::topo::TrunkShape::kStar;
    in.wan.expensive.loss_probability = 0.01;
    in.protocol.batch_flush_delay = util::milliseconds(5);
    in.messages = 10000;
    in.interval = util::milliseconds(100);
    in.variants = 10;
  } else {
    return std::nullopt;
  }

  // The schedule's phase within its first interval and the bodies.
  const util::RngFactory rngs(seed);
  util::Rng phase = rngs.stream("perfbench.phase", variant);
  in.first_at = kLead + phase.uniform_int(0, in.interval - 1);
  in.deadline = in.first_at + in.messages * in.interval + kDrain;
  util::Rng body_rng = rngs.stream("perfbench.bodies", variant);
  in.bodies.reserve(static_cast<std::size_t>(in.messages));
  for (int k = 0; k < in.messages; ++k) {
    std::string body(in.protocol.data_bytes, '\0');
    for (std::size_t at = 0; at < body.size(); at += 8) {
      const std::uint64_t word = body_rng.engine()();
      std::memcpy(body.data() + at, &word,
                  std::min<std::size_t>(8, body.size() - at));
    }
    in.bodies.push_back(std::move(body));
  }
  return in;
}

}  // namespace perfbench
