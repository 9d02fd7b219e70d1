#include "harness/invariant_monitor.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "model/invariants.h"
#include "trace/convergence.h"
#include "util/assert.h"

namespace rbcast::harness {

namespace inv = model::invariants;

InvariantMonitor::InvariantMonitor(
    sim::Simulator& simulator, std::vector<const core::BroadcastHost*> hosts,
    const net::Network& network, HostId source, MonitorOptions options)
    : simulator_(simulator),
      hosts_(std::move(hosts)),
      network_(network),
      source_(source),
      options_(options),
      delivery_counts_(hosts_.size()),
      delivered_bodies_(hosts_.size()),
      proto_delivered_(hosts_.size()),
      orphan_since_(hosts_.size()),
      sweep_task_(simulator, kSweepPeriod, [this] { sweep_now(); }) {
  RBCAST_CHECK_ARG(!hosts_.empty(), "monitor needs at least one host");
  // Every non-source host starts orphaned (parent = NIL) at t=0.
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->self() != source_) orphan_since_[i] = sim::TimePoint{0};
  }
}

void InvariantMonitor::start() { sweep_task_.start(kSweepPeriod); }

void InvariantMonitor::set_faults_quiet_at(sim::TimePoint t) {
  quiet_at_ = t;
  liveness_anchor_.reset();
  cycle_since_.reset();
  converge_checked_ = false;
}

void InvariantMonitor::set_byzantine_hosts(std::set<HostId> hosts) {
  byzantine_hosts_ = std::move(hosts);
}

void InvariantMonitor::on_source_broadcast(util::Seq seq,
                                           std::string_view body) {
  RBCAST_CHECK_ARG(seq == source_bodies_.size() + 1,
                   "source broadcasts must be reported in sequence order");
  source_bodies_.emplace_back(body);
  if (quiet_at_.has_value() && !liveness_anchor_.has_value() &&
      simulator_.now() >= *quiet_at_) {
    liveness_anchor_ = simulator_.now();
  }
}

void InvariantMonitor::on_app_delivery(HostId host, util::Seq seq,
                                       std::string_view body) {
  const auto i = static_cast<std::size_t>(host.value);
  RBCAST_CHECK_ARG(host.valid() && i < hosts_.size(), "unknown host");
  ++delivery_counts_[i][seq];
  delivered_bodies_[i].emplace(seq, std::string(body));  // keep the first body seen
  // Blast radius: a delivery of a body the source never generated (wrong
  // bytes, or a sequence beyond the stream) marks this host corrupted; the
  // hop distance to the nearest adversary is measured now, while the
  // parent graph that carried the bad data is still standing. The source
  // itself is exempt: its local delivery IS the ground truth and races
  // the on_source_broadcast report by one event.
  if (!byzantine_hosts_.empty() && host != source_) {
    const bool invented = seq > source_bodies_.size();
    const bool wrong_body = !invented && body != source_bodies_[seq - 1];
    if (invented || wrong_body) note_corruption(host);
  }
}

void InvariantMonitor::note_corruption(HostId host) {
  if (!corrupted_hosts_.insert(host).second) return;  // hosts, not frames
  const int hops = hops_to_byzantine(host);
  // An unreachable host still counts as corrupted; bucket it at the host
  // count so it reads as "farther than any real path".
  const int bucket = hops >= 0 ? hops : static_cast<int>(hosts_.size());
  ++corrupted_by_hops_[bucket];
  max_corruption_hops_ = std::max(max_corruption_hops_, bucket);
}

int InvariantMonitor::hops_to_byzantine(HostId host) const {
  if (byzantine_hosts_.empty()) return -1;
  if (byzantine_hosts_.contains(host)) return 0;
  // Undirected BFS over the current parent edges {i, parent(i)}.
  const std::size_t n = hosts_.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    const HostId parent = hosts_[i]->parent();
    if (!parent.valid()) continue;
    const auto p = static_cast<std::size_t>(parent.value);
    if (p >= n) continue;
    adj[i].push_back(p);
    adj[p].push_back(i);
  }
  std::vector<int> dist(n, -1);
  std::vector<std::size_t> frontier{static_cast<std::size_t>(host.value)};
  dist[static_cast<std::size_t>(host.value)] = 0;
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t i : frontier) {
      if (byzantine_hosts_.contains(hosts_[i]->self())) return dist[i];
      for (const std::size_t j : adj[i]) {
        if (dist[j] >= 0) continue;
        dist[j] = dist[i] + 1;
        next.push_back(j);
      }
    }
    frontier = std::move(next);
  }
  return -1;
}

ContainmentReport InvariantMonitor::containment() const {
  ContainmentReport r;
  r.byzantine = byzantine_hosts_;
  r.corrupted_hosts = corrupted_hosts_;
  r.max_hops = max_corruption_hops_;
  r.hosts_by_hops = corrupted_by_hops_;
  for (const InvariantViolation& v : violations_) {
    if (std::find(r.invariants.begin(), r.invariants.end(), v.invariant) ==
        r.invariants.end()) {
      r.invariants.push_back(v.invariant);
    }
  }
  return r;
}

std::string to_string(const ContainmentReport& r) {
  std::ostringstream os;
  auto put_set = [&os](const std::set<HostId>& s) {
    os << "{";
    bool first = true;
    for (HostId h : s) {
      if (!first) os << ",";
      os << h.value;
      first = false;
    }
    os << "}";
  };
  os << "byzantine=";
  put_set(r.byzantine);
  os << " corrupted=";
  put_set(r.corrupted_hosts);
  os << " max_hops=" << r.max_hops << " by_hops={";
  bool first = true;
  for (const auto& [hops, count] : r.hosts_by_hops) {
    if (!first) os << ",";
    os << hops << ":" << count;
    first = false;
  }
  os << "} invariants=[";
  first = true;
  for (const std::string& id : r.invariants) {
    if (!first) os << ",";
    os << id;
    first = false;
  }
  os << "] contained=" << (r.contained() ? "yes" : "no");
  return os.str();
}

void InvariantMonitor::on_attached(HostId host, HostId /*parent*/) {
  orphan_since_[static_cast<std::size_t>(host.value)].reset();
}

void InvariantMonitor::on_detached(HostId host, HostId /*old_parent*/,
                                   bool /*timeout*/) {
  orphan_since_[static_cast<std::size_t>(host.value)] = simulator_.now();
}

void InvariantMonitor::on_delivered(HostId host, util::Seq seq) {
  // The protocol layer announces each first receipt exactly once; a repeat
  // means a duplicate slipped past the INFO bookkeeping (I1 at the
  // protocol layer, before the application even sees it).
  const auto i = static_cast<std::size_t>(host.value);
  if (!proto_delivered_[i].insert(seq).second) {
    std::ostringstream os;
    os << host << " announced first receipt of message " << seq << " twice";
    record(inv::kExactlyOnce, "I1p#" + std::to_string(host.value), os.str());
  }
}

void InvariantMonitor::on_deliver(const net::Delivery& d) {
  if (d.trace_id == 0 || net::trace_source(d.trace_id) != source_) return;
  const auto seq = static_cast<util::Seq>(net::trace_seq(d.trace_id));
  if (seq > source_bodies_.size()) {
    // Under a Byzantine schedule, forged frames reaching a host are the
    // adversary exercising its assumed power (it owns its own sends); the
    // invariant is over host STATE, and the census/delivery I3 checks
    // decide whether any host actually accepted the invention.
    if (!byzantine_hosts_.empty()) return;
    std::ostringstream os;
    os << "a copy of message " << seq << " reached " << d.to << " but only "
       << source_bodies_.size() << " messages were generated";
    record(inv::kNoInvention, "I3w#" + std::to_string(d.to.value), os.str());
  }
}

void InvariantMonitor::record(const char* invariant,
                              const std::string& dedup_key,
                              const std::string& description) {
  if (!seen_.insert(dedup_key).second) return;
  if (violations_.size() >= kMaxViolations) {
    ++dropped_;
    return;
  }
  // I2/I3 are the invariants bad data breaks; under a Byzantine schedule
  // they are attributed to the adversary class so downstream consumers
  // (the ddmin signature, repro reports) can tell lying relays apart from
  // crash/partition failures.
  std::string category;
  if (!byzantine_hosts_.empty() &&
      (std::string_view(invariant) == inv::kIntegrity ||
       std::string_view(invariant) == inv::kNoInvention)) {
    category = "byzantine";
  }
  violations_.push_back(InvariantViolation{invariant, description,
                                           simulator_.now(),
                                           std::move(category)});
}

void InvariantMonitor::sweep_now() {
  ++sweeps_;
  check_safety();
  check_liveness();
}

void InvariantMonitor::finish() {
  sweep_now();
  sweep_task_.stop();
}

void InvariantMonitor::check_safety() {
  auto report = [&](const char* id, std::size_t i,
                    const std::optional<std::string>& what) {
    if (what.has_value()) {
      record(id, std::string(id) + "#" + std::to_string(i), *what);
    }
  };
  const auto generated = static_cast<util::Seq>(source_bodies_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const core::BroadcastHost& host = *hosts_[i];
    const HostId self = host.self();
    report(inv::kExactlyOnce, i,
           inv::check_exactly_once(self, delivery_counts_[i]));
    report(inv::kIntegrity, i,
           inv::check_integrity(self, delivered_bodies_[i], source_bodies_));
    report(inv::kNoInvention, i,
           inv::check_no_invention(self, host.info().max_seq(), generated));
    report(inv::kInfoConsistency, i,
           inv::check_info_consistency(self, delivery_counts_[i].size(),
                                       host.info().count()));
    report(inv::kSaneParent, i, inv::check_sane_parent(self, host.parent()));
  }
}

void InvariantMonitor::check_liveness() {
  const sim::TimePoint now = simulator_.now();
  if (!quiet_at_.has_value() || now < *quiet_at_) {
    cycle_since_.reset();
    return;
  }

  // C1: a parent cycle may exist transiently (the Section 4.3 rule breaks
  // it within a round); one persisting for the whole orphan bound is a
  // liveness failure.
  if (const auto on_cycle = find_parent_cycle(); on_cycle.has_value()) {
    if (!cycle_since_.has_value()) cycle_since_ = now;
    if (now - *cycle_since_ >= options_.orphan_limit) {
      std::ostringstream os;
      os << "parent cycle through " << *on_cycle << " has persisted since t="
         << sim::to_seconds(*cycle_since_) << "s";
      record(kCycleAfterQuiet, "C1", os.str());
    }
  } else {
    cycle_since_.reset();
  }

  // C2/C3 run only once new information has flowed after quiescence (see
  // the header: a caught-up orphan has no attach candidate without it).
  if (!liveness_anchor_.has_value()) return;
  const sim::TimePoint anchor = *liveness_anchor_;

  // C2: every non-source host must re-attach within the orphan bound.
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (!orphan_since_[i].has_value()) continue;
    const sim::TimePoint since = std::max(*orphan_since_[i], anchor);
    if (now - since > options_.orphan_limit) {
      std::ostringstream os;
      os << hosts_[i]->self() << " has been orphaned since t="
         << sim::to_seconds(since) << "s (limit "
         << sim::to_seconds(options_.orphan_limit) << "s)";
      record(kOrphanBound, "C2#" + std::to_string(i), os.str());
    }
  }

  // C3: checked once, at the deadline.
  if (converge_checked_ || now < anchor + options_.converge_deadline) {
    return;
  }
  converge_checked_ = true;
  const trace::ConvergenceReport report =
      trace::analyze_convergence(hosts_, network_, source_);
  if (!report.fully_converged()) {
    record(kConvergeDeadline, "C3",
           "parent graph is not a source-rooted cluster tree at the "
           "convergence deadline: " +
               report.detail);
  }
  const auto generated = static_cast<util::Seq>(source_bodies_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const auto& info = hosts_[i]->info();
    if (info.count() < generated || info.max_seq() < generated) {
      std::ostringstream os;
      os << hosts_[i]->self() << " holds " << info.count() << " of "
         << generated << " messages at the convergence deadline";
      record(kConvergeDeadline, "C3#" + std::to_string(i), os.str());
    }
  }
}

std::optional<HostId> InvariantMonitor::find_parent_cycle() const {
  const std::size_t n = hosts_.size();
  for (std::size_t i = 0; i < n; ++i) {
    HostId cursor = hosts_[i]->self();
    std::size_t steps = 0;
    while (steps <= n) {
      const HostId up = hosts_[static_cast<std::size_t>(cursor.value)]->parent();
      if (!up.valid()) break;
      cursor = up;
      ++steps;
    }
    if (steps > n) return hosts_[i]->self();
  }
  return std::nullopt;
}

}  // namespace rbcast::harness
