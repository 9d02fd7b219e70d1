#include "net/server.h"

#include <algorithm>

namespace rbcast::net {

Server::Server(ServerId id, const topo::Topology& topology,
               const Routing& routing)
    : id_(id), routing_(&routing) {
  for (LinkId lid : topology.trunk_links_of(id)) {
    const ServerId neighbor = topology.link(lid).other_end(id);
    // After every trunk to the same neighbor: insertion order within it.
    trunks_.emplace(
        std::ranges::upper_bound(trunks_, neighbor, {}, &Trunk::first),
        neighbor, lid);
  }
}

}  // namespace rbcast::net
