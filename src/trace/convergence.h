// Convergence probes: do the hosts' parent pointers currently form the
// structure Section 4 promises?
//
// At quiescence in a connected network the host parent graph should be a
// tree rooted at the source that *induces a cluster tree*: per Section 4.1,
// (1) the graph is a tree, and (2) the children of every cluster leader
// include all other hosts of its cluster — equivalently, each ground-truth
// cluster has exactly one leader and every other member is attached
// directly to it.
//
// Tests assert these properties after fault-free runs and after
// fault/repair cycles; benches report them as convergence observables.
#pragma once

#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "net/network.h"

namespace rbcast::trace {

struct ConvergenceReport {
  // Parent pointers contain no cycle.
  bool acyclic{false};
  // Exactly one root (a host with no parent) and it is the source, and
  // every host reaches the source by following parents.
  bool tree_rooted_at_source{false};
  // Condition (2) of Section 4.1 against ground-truth clusters.
  bool induces_cluster_tree{false};
  // All hosts hold every message the source has generated.
  bool all_caught_up{false};

  // Hosts whose parent lies outside their ground-truth cluster (or is
  // NIL) — "cluster leaders" per Section 4.1. The source counts.
  int leader_count{0};
  std::vector<int> leaders_per_cluster;

  // Longest parent chain, in edges; a host on or above a cycle reads n.
  int depth{0};
  // Hosts other than the source with no parent.
  int orphans{0};

  // Human-readable diagnosis of the first violated property (empty when
  // everything holds).
  std::string detail;

  [[nodiscard]] bool fully_converged() const {
    return acyclic && tree_rooted_at_source && induces_cluster_tree;
  }
};

// `hosts` must contain one entry per host, indexed by HostId value.
[[nodiscard]] ConvergenceReport analyze_convergence(
    const std::vector<const core::BroadcastHost*>& hosts,
    const net::Network& network, HostId source);

}  // namespace rbcast::trace
