#include "core/host_state.h"

#include <algorithm>
#include <functional>

#include "util/assert.h"

namespace rbcast::core {

namespace {
const SeqSet kEmptySet{};
}

HostState::HostState(HostId self, std::vector<HostId> all_hosts,
                     HostId source)
    : self_(self), all_hosts_(std::move(all_hosts)), source_(source) {
  RBCAST_CHECK_ARG(self.valid(), "invalid self id");
  // Callers usually pass topology order, which is already strictly
  // ascending; sort and de-duplicate only when it is not.
  if (std::adjacent_find(all_hosts_.begin(), all_hosts_.end(),
                         std::greater_equal<>()) != all_hosts_.end()) {
    std::sort(all_hosts_.begin(), all_hosts_.end());
    all_hosts_.erase(std::unique(all_hosts_.begin(), all_hosts_.end()),
                     all_hosts_.end());
  }
  const std::size_t self_slot = slot(self_);
  RBCAST_CHECK_ARG(self_slot != npos, "self must be among all_hosts");
  source_order_ = all_hosts_.back().value + 1;
  // "CLUSTER_i is initialized to {i}, i.e., in the beginning each host
  // assumes that it is in a cluster by itself."
  member_flags_.assign(all_hosts_.size(), 0);
  set_flag(self_slot, kInCluster, true);
}

void HostState::check_invariants() const {
#if defined(RBCAST_PARANOID)
  // "CLUSTER_i always contains i"; a host is never its own child; the
  // membership flags cover every slot and each set's size counts its bits;
  // the per-peer table is unsized or covers every slot; the stored
  // messages are strictly ascending and each is recorded in INFO.
  RBCAST_ASSERT(member_flags_.size() == all_hosts_.size());
  RBCAST_ASSERT(in_cluster(self_));
  RBCAST_ASSERT(!is_child(self_));
  std::size_t cluster_bits = 0;
  std::size_t child_bits = 0;
  for (const std::uint8_t flags : member_flags_) {
    RBCAST_ASSERT((flags & ~(kInCluster | kChild)) == 0);
    cluster_bits += (flags & kInCluster) != 0 ? 1 : 0;
    child_bits += (flags & kChild) != 0 ? 1 : 0;
  }
  RBCAST_ASSERT(cluster_bits == cluster_size_);
  RBCAST_ASSERT(child_bits == children_size_);
  RBCAST_ASSERT(peers_.empty() || peers_.size() == all_hosts_.size());
  for (std::size_t k = 0; k < bodies_.size(); ++k) {
    RBCAST_ASSERT_MSG(k == 0 || bodies_[k - 1].seq < bodies_[k].seq,
                      "stored messages out of seq order");
    RBCAST_ASSERT_MSG(info_.contains(bodies_[k].seq),
                      "body stored without INFO entry");
  }
#endif
}

bool HostState::record_message(Seq seq, Payload body,
                               std::optional<AuthTag> auth) {
  if (!info_.insert(seq)) return false;
  // INFO did not hold seq, so neither does the store.
  StoredMessage message{seq, std::move(body), auth};
  if (bodies_.empty() || bodies_.back().seq < seq) {
    bodies_.push_back(std::move(message));
  } else {
    bodies_.insert(std::ranges::lower_bound(bodies_, seq, {},
                                            &StoredMessage::seq),
                   std::move(message));
  }
  check_invariants();
  return true;
}

const HostState::StoredMessage* HostState::stored(Seq seq) const {
  const auto it =
      std::ranges::lower_bound(bodies_, seq, {}, &StoredMessage::seq);
  return it != bodies_.end() && it->seq == seq ? &*it : nullptr;
}

void HostState::prune(Seq watermark) {
  info_.prune_below(watermark);
  bodies_.erase(bodies_.begin(), std::ranges::upper_bound(
                                     bodies_, watermark, {},
                                     &StoredMessage::seq));
}

Seq HostState::safe_prefix() const {
  Seq prefix = info_.contiguous_prefix();
  for (std::size_t k = 0; k < all_hosts_.size() && prefix > 0; ++k) {
    if (all_hosts_[k] == self_) continue;
    prefix = k < peers_.size()
                 ? std::min(prefix, peers_[k].map.contiguous_prefix())
                 : 0;  // never heard from
  }
  return prefix;
}

std::size_t HostState::search_slot(HostId h) const {
  const auto it = std::lower_bound(all_hosts_.begin(), all_hosts_.end(), h);
  if (it == all_hosts_.end() || *it != h) return npos;
  return static_cast<std::size_t>(it - all_hosts_.begin());
}

HostState::PeerView& HostState::peer_view(HostId j) {
  const std::size_t k = slot(j);
  RBCAST_CHECK_ARG(k != npos, "peer is not among all_hosts");
  if (peers_.empty()) peers_.resize(all_hosts_.size());  // once per host
  return peers_[k];
}

const SeqSet& HostState::map(HostId j) const {
  if (j == self_) return info_;
  const std::size_t k = slot(j);  // npos is past the end too
  return k < peers_.size() ? peers_[k].map : kEmptySet;
}

void HostState::learn_info(HostId j, const SeqSet& info) {
  if (j == self_) return;
  peer_view(j).map.merge(info);
}

void HostState::learn_has(HostId j, Seq seq) {
  if (j == self_) return;
  peer_view(j).map.insert(seq);
}

void HostState::update_cluster_from_cost_bit(HostId j, bool expensive) {
  if (j == self_) return;
  const std::size_t k = slot(j);
  RBCAST_CHECK_ARG(k != npos, "peer is not among all_hosts");
  set_flag(k, kInCluster, !expensive);
}

void HostState::set_cluster(const std::vector<HostId>& cluster) {
  for (HostId j : cluster) {
    RBCAST_CHECK_ARG(slot(j) != npos, "cluster member is not among all_hosts");
  }
  for (std::size_t k = 0; k < member_flags_.size(); ++k) {
    set_flag(k, kInCluster, all_hosts_[k] == self_);
  }
  for (HostId j : cluster) set_flag(slot(j), kInCluster, true);
  check_invariants();
}

void HostState::add_child(HostId j) {
  if (j == self_) return;
  const std::size_t k = slot(j);
  RBCAST_CHECK_ARG(k != npos, "peer is not among all_hosts");
  set_flag(k, kChild, true);
}

HostId HostState::parent_of(HostId j) const {
  if (j == self_) return parent_;
  const std::size_t k = slot(j);
  return k < peers_.size() ? peers_[k].parent : kNoHost;
}

void HostState::learn_parent(HostId j, HostId parent) {
  if (j == self_) return;
  peer_view(j).parent = parent;
  check_invariants();
}

void HostState::ancestors_of_self(AncestorWalk& walk) const {
  walk.ancestors.clear();
  walk.cycle = false;
  for (HostId cursor = parent(); cursor.valid(); cursor = parent_of(cursor)) {
    if (cursor == self_) {
      walk.cycle = true;
      return;
    }
    if (std::find(walk.ancestors.begin(), walk.ancestors.end(), cursor) !=
        walk.ancestors.end()) {
      return;  // a cycle that does not pass through self (stale views)
    }
    walk.ancestors.push_back(cursor);
  }
}

}  // namespace rbcast::core
