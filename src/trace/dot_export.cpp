#include "trace/dot_export.h"

#include <ostream>
#include <sstream>

#include "util/assert.h"

namespace rbcast::trace {

void write_parent_graph_dot(
    std::ostream& os, const std::vector<const core::BroadcastHost*>& hosts,
    const net::Network& network, HostId source) {
  RBCAST_CHECK_ARG(!hosts.empty(), "no hosts to export");
  const auto clusters = network.clusters();
  const auto& cluster_of = network.host_cluster_index();

  os << "digraph parent_graph {\n"
     << "  rankdir=BT;\n"
     << "  node [shape=box, style=filled, fillcolor=white];\n";

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    os << "  subgraph cluster_" << c << " {\n"
       << "    label=\"cluster " << c << "\";\n"
       << "    style=rounded;\n";
    for (HostId h : clusters[c]) {
      const auto* host = hosts[static_cast<std::size_t>(h.value)];
      const HostId parent = host->parent();
      const bool is_leader =
          !parent.valid() ||
          cluster_of[static_cast<std::size_t>(parent.value)] !=
              static_cast<int>(c);
      os << "    h" << h.value << " [label=\"h" << h.value;
      if (h == source) os << "\\n(source)";
      os << "\\nINFO max " << host->info().max_seq() << '"';
      if (h == source) {
        os << ", fillcolor=gold";
      } else if (is_leader) {
        os << ", fillcolor=lightblue";  // the paper's shaded leader boxes
      }
      os << "];\n";
    }
    os << "  }\n";
  }

  for (const auto* host : hosts) {
    const HostId parent = host->parent();
    if (!parent.valid()) continue;
    const bool crosses =
        cluster_of[static_cast<std::size_t>(host->self().value)] !=
        cluster_of[static_cast<std::size_t>(parent.value)];
    os << "  h" << host->self().value << " -> h" << parent.value;
    if (crosses) os << " [style=dashed, color=red]";
    os << ";\n";
  }
  os << "}\n";
}

void write_topology_dot(std::ostream& os, const net::Network& network) {
  const auto& topology = network.topology();
  os << "graph topology {\n"
     << "  layout=neato;\n"
     << "  overlap=false;\n"
     << "  node [fontsize=10];\n";
  for (const auto& server : topology.servers()) {
    os << "  s" << server.id.value << " [shape=circle];\n";
  }
  for (const auto& host : topology.hosts()) {
    os << "  h" << host.id.value << " [shape=box];\n"
       << "  h" << host.id.value << " -- s" << host.server.value
       << " [style=dotted];\n";
  }
  for (const auto& link : topology.links()) {
    if (link.is_access) continue;
    os << "  s" << link.a.value << " -- s" << link.b.value;
    const bool down = !network.link_up(link.id);
    if (link.link_class == topo::LinkClass::kExpensive) {
      os << " [style=dashed" << (down ? ", color=red" : "") << "]";
    } else if (down) {
      os << " [color=red]";
    }
    os << ";\n";
  }
  os << "}\n";
}

std::string parent_graph_dot(
    const std::vector<const core::BroadcastHost*>& hosts,
    const net::Network& network, HostId source) {
  std::ostringstream os;
  write_parent_graph_dot(os, hosts, network, source);
  return os.str();
}

std::string topology_dot(const net::Network& network) {
  std::ostringstream os;
  write_topology_dot(os, network);
  return os.str();
}

}  // namespace rbcast::trace
