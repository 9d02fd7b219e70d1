#include "trace/convergence.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace rbcast::trace {

ConvergenceReport analyze_convergence(
    const std::vector<const core::BroadcastHost*>& hosts,
    const net::Network& network, HostId source) {
  ConvergenceReport report;
  const std::size_t n = hosts.size();
  RBCAST_CHECK_ARG(n > 0, "no hosts to analyze");
  std::ostringstream detail;

  auto parent_of = [&](HostId h) {
    return hosts[static_cast<std::size_t>(h.value)]->parent();
  };

  // --- acyclicity, rootedness and depth --------------------------------
  report.acyclic = true;
  bool all_reach_source = true;
  int roots = 0;
  HostId a_root = kNoHost;
  for (std::size_t i = 0; i < n; ++i) {
    const HostId start{static_cast<std::int32_t>(i)};
    if (!parent_of(start).valid()) {
      ++roots;
      a_root = start;
      if (start != source) ++report.orphans;
    }
    // Walk to the root; a walk of n hosts without reaching one means a
    // cycle, and the host's depth reads n.
    HostId cursor = start;
    std::size_t steps = 0;
    while (parent_of(cursor).valid() && steps < n) {
      cursor = parent_of(cursor);
      ++steps;
    }
    report.depth = std::max(report.depth, static_cast<int>(steps));
    if (parent_of(cursor).valid()) {
      if (report.acyclic) detail << "cycle reachable from " << start << "; ";
      report.acyclic = false;
    } else if (cursor != source) {
      all_reach_source = false;
    }
  }
  report.tree_rooted_at_source =
      report.acyclic && roots == 1 && a_root == source && all_reach_source;
  if (report.acyclic && !report.tree_rooted_at_source) {
    detail << roots << " roots (source " << source << "); ";
  }

  // --- induced cluster tree -------------------------------------------
  const auto clusters = network.clusters();
  const auto& cluster_of = network.host_cluster_index();
  report.leaders_per_cluster.assign(clusters.size(), 0);
  bool members_under_leader = true;

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    HostId leader = kNoHost;
    for (HostId h : clusters[c]) {
      const HostId p = parent_of(h);
      const bool is_leader =
          !p.valid() ||
          cluster_of[static_cast<std::size_t>(p.value)] != static_cast<int>(c);
      if (is_leader) {
        ++report.leaders_per_cluster[c];
        ++report.leader_count;
        leader = h;
      }
    }
    if (report.leaders_per_cluster[c] != 1) {
      members_under_leader = false;
      detail << "cluster " << c << " has " << report.leaders_per_cluster[c]
             << " leaders; ";
      continue;
    }
    for (HostId h : clusters[c]) {
      if (h == leader) continue;
      if (parent_of(h) != leader) {
        members_under_leader = false;
        detail << h << " not directly under leader " << leader << "; ";
      }
    }
  }
  report.induces_cluster_tree =
      report.acyclic && report.tree_rooted_at_source && members_under_leader;

  // --- stream completeness ------------------------------------------------
  const core::BroadcastHost* src =
      hosts[static_cast<std::size_t>(source.value)];
  const util::Seq last = src->last_broadcast_seq();
  report.all_caught_up = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& info = hosts[i]->info();
    if (info.count() != last || (last > 0 && info.max_seq() != last)) {
      report.all_caught_up = false;
      detail << "host h" << i << " has " << info.count() << "/" << last
             << " messages; ";
      break;
    }
  }

  report.detail = detail.str();
  return report;
}

}  // namespace rbcast::trace
