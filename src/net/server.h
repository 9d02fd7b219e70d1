// A communication server (switch).
//
// Servers are *nonprogrammable*: all a server does is store-and-forward
// individually addressed packets along routes computed by the routing
// layer. There is deliberately no broadcast support, no duplication on
// behalf of the application, and no failure reporting — that is the entire
// premise of the paper.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/routing.h"
#include "topo/topology.h"

namespace rbcast::net {

class Server {
 public:
  Server(ServerId id, const topo::Topology& topology, const Routing& routing);

  [[nodiscard]] ServerId id() const { return id_; }

  struct ForwardChoice {
    LinkId link{kNoLink};   // valid iff an operational link was found
    bool had_route{false};  // routing knew a next hop (link may be down)
  };

  // Picks the outgoing link toward `dst_server` per the current routes:
  // the first trunk to the next hop, in insertion order, for which
  // `link_up(LinkId)` holds.
  template <typename LinkUp>
  [[nodiscard]] ForwardChoice choose_link(ServerId dst_server,
                                          LinkUp&& link_up) const {
    ForwardChoice choice;
    const ServerId hop = routing_->next_hop(id_, dst_server);
    if (!hop.valid()) return choice;
    choice.had_route = true;
    // A server has a handful of trunks: a linear scan beats a search.
    for (const auto& [neighbor, link] : trunks_) {
      if (neighbor > hop) break;
      if (neighbor == hop && link_up(link)) {
        choice.link = link;
        break;
      }
    }
    return choice;
  }

  // --- accounting ---------------------------------------------------------
  void count_forwarded() { ++forwarded_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

 private:
  using Trunk = std::pair<ServerId, LinkId>;  // (neighbor, link)

  ServerId id_;
  const Routing* routing_;
  // Incident trunks ordered by neighbor server; within a neighbor, in
  // insertion order.
  std::vector<Trunk> trunks_;
  std::uint64_t forwarded_{0};
};

}  // namespace rbcast::net
