// Per-host protocol state — the data structures of Section 4.2, kept free
// of any networking or timing so the attachment and gap-filling logic can
// be unit-tested in isolation.
//
//   INFO_i      — sequence numbers of all messages received by i
//   MAP_i[j]    — i's (possibly stale) view of INFO_j; MAP_i[i] == INFO_i
//   CLUSTER_i   — hosts i currently believes share its cluster
//   CHILDREN_i  — i's children in the host parent graph
//   p_i[j]      — i's view of j's parent; p_i[i] is i's true parent
//   order(i)    — the static linear ordering over all hosts
//
// Every per-peer query is O(1) and allocates nothing: a peer's slot is one
// verified array read (slot()), and CLUSTER_i and CHILDREN_i are two bits
// per slot rather than ordered sets, read back in ascending id order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/auth.h"
#include "core/config.h"
#include "core/payload.h"
#include "util/ids.h"
#include "util/seq_set.h"

namespace rbcast::core {

using util::Seq;
using util::SeqSet;

class HostState {
 public:
  // `all_hosts` must contain `self`. Any fixed linear order satisfies the
  // paper's requirement; ours is the host id value with the broadcast
  // source promoted to the maximum. The promotion matters for liveness:
  // option (2) of the attachment procedure consolidates a cluster's
  // leaders under its greatest-order member, and the source — the one
  // permanent root, which never attaches — must therefore outrank its
  // cluster peers or a second leader in the source's cluster would be a
  // stable configuration whenever the stream is quiescent (option (1)
  // needs an INFO gap that only exists while a message is in flight).
  // Found by the chaos harness; see DESIGN.md Section 10.
  HostState(HostId self, std::vector<HostId> all_hosts,
            HostId source = kNoHost);

  [[nodiscard]] HostId self() const { return self_; }
  // Every member, in ascending id order, without duplicates.
  [[nodiscard]] const std::vector<HostId>& all_hosts() const {
    return all_hosts_;
  }

  // --- peer slots ----------------------------------------------------------
  //
  // A member's slot is its rank in all_hosts(): 0..n-1, ascending with the
  // id. Per-peer tables here and in BroadcastHost are vectors indexed by
  // slot, never by raw id — ids are arbitrary (a config may say
  // 2000000000, a datagram's sender field is whatever the peer wrote).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  // npos for a host outside all_hosts(). Topologies number their hosts
  // 0..n-1, so a member's id is usually its rank: the id is tried as the
  // slot first and kept only if all_hosts() holds that very id there
  // (a negative id wraps past the end). Any other id takes the binary
  // search, so sparse and forged ids get the same answer, just slower.
  [[nodiscard]] std::size_t slot(HostId h) const {
    const auto guess = static_cast<std::size_t>(h.value);
    if (guess < all_hosts_.size() && all_hosts_[guess] == h) return guess;
    return search_slot(h);
  }

  // --- static order ------------------------------------------------------
  [[nodiscard]] int order(HostId h) const {
    return h == source_ ? source_order_ : h.value;
  }

  // --- INFO / message store ----------------------------------------------

  [[nodiscard]] const SeqSet& info() const { return info_; }

  // A message kept for gap fills until pruning: its body and, when
  // Config::auth_enabled, the source's tag, which relays forward verbatim
  // because they cannot re-sign.
  struct StoredMessage {
    Seq seq{0};
    Payload body;
    std::optional<AuthTag> auth;
  };

  // Records receipt of message `seq` with payload `body` (and its tag, if
  // any). Returns true if it was new (first receipt — exactly-once delivery
  // to the application keys off this).
  bool record_message(Seq seq, Payload body,
                      std::optional<AuthTag> auth = std::nullopt);

  [[nodiscard]] bool has_message(Seq seq) const { return info_.contains(seq); }
  // A stored message; nullptr if unknown or pruned away. The pointer lasts
  // until the next record_message() or prune().
  [[nodiscard]] const StoredMessage* stored(Seq seq) const;
  // Payload of a stored message; nullptr if unknown or pruned away.
  [[nodiscard]] const Payload* body_of(Seq seq) const {
    const StoredMessage* message = stored(seq);
    return message != nullptr ? &message->body : nullptr;
  }
  // Every stored message, in ascending seq order.
  [[nodiscard]] std::span<const StoredMessage> stored_messages() const {
    return bodies_;
  }

  // Drops state for the safe prefix 1..watermark (Section 6 pruning).
  void prune(Seq watermark);

  // Largest prefix 1..n known (via MAP) to be held by *every* host; the
  // safe pruning watermark. Hosts never heard from pin this at 0.
  [[nodiscard]] Seq safe_prefix() const;

  // --- MAP -----------------------------------------------------------------

  // View of INFO_j (INFO_i itself when j == self; empty for a member never
  // heard from and for a non-member).
  [[nodiscard]] const SeqSet& map(HostId j) const;
  // Merges freshly learned knowledge about j's INFO set (INFO sets only
  // grow, so merging is always sound even with reordered control traffic).
  // The learn_* calls ignore j == self and throw std::invalid_argument for
  // a j outside all_hosts().
  void learn_info(HostId j, const SeqSet& info);
  // Records that j provably has `seq` (we received a data message from j).
  void learn_has(HostId j, Seq seq);

  // --- CLUSTER and CHILDREN ---------------------------------------------------
  //
  // Both sets live as one flag byte per slot, so membership tests and
  // changes are O(1) and allocate nothing, and reading a set back walks
  // the slots in ascending id order, which the INFO recipients, the
  // forward loops and the model checker's state key all depend on.

  // One of the two sets, read in place: iterates member ids in ascending
  // order and allocates nothing. It reflects later changes; clearing the
  // member under an iterator is safe, any other change while iterating is
  // not.
  class MemberSet {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = HostId;
      using difference_type = std::ptrdiff_t;
      using pointer = const HostId*;
      using reference = HostId;

      iterator() = default;
      HostId operator*() const { return state_->all_hosts_[k_]; }
      iterator& operator++() {
        k_ = state_->next_member(k_ + 1, flag_);
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.k_ == b.k_;
      }

     private:
      friend class MemberSet;
      iterator(const HostState* state, std::uint8_t flag, std::size_t k)
          : state_(state), flag_(flag), k_(k) {}
      const HostState* state_{nullptr};
      std::uint8_t flag_{0};
      std::size_t k_{0};
    };

    [[nodiscard]] iterator begin() const {
      return {state_, flag_, state_->next_member(0, flag_)};
    }
    [[nodiscard]] iterator end() const {
      return {state_, flag_, state_->all_hosts_.size()};
    }
    [[nodiscard]] std::size_t size() const {
      return state_->member_count(flag_);
    }
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] bool contains(HostId j) const {
      return state_->has_flag(j, flag_);
    }

   private:
    friend class HostState;
    MemberSet(const HostState* state, std::uint8_t flag)
        : state_(state), flag_(flag) {}
    const HostState* state_;
    std::uint8_t flag_;
  };

  [[nodiscard]] MemberSet cluster() const { return {this, kInCluster}; }
  // False for a non-member.
  [[nodiscard]] bool in_cluster(HostId j) const {
    return has_flag(j, kInCluster);
  }
  // Applies the paper's cost-bit rule: a cheap delivery from j adds j to
  // CLUSTER_i, an expensive one removes it. No-op for self; throws
  // std::invalid_argument for a j outside all_hosts().
  void update_cluster_from_cost_bit(HostId j, bool expensive);
  // Overrides the cluster set (static cluster knowledge mode); self stays
  // in. Throws std::invalid_argument, changing nothing, if any listed
  // host is outside all_hosts().
  void set_cluster(const std::vector<HostId>& cluster);

  // --- parent graph ---------------------------------------------------------

  [[nodiscard]] HostId parent() const { return parent_; }
  void set_parent(HostId p) { parent_ = p; }

  // p_i[j]: i's view of j's parent (kNoHost when unknown / none, and for a
  // non-member).
  [[nodiscard]] HostId parent_of(HostId j) const;
  void learn_parent(HostId j, HostId parent);

  [[nodiscard]] MemberSet children() const { return {this, kChild}; }
  // Self is never a child: adding it is a no-op. Throws
  // std::invalid_argument for a j outside all_hosts().
  void add_child(HostId j);
  // No-op for a host that is not a child, members and non-members alike.
  void remove_child(HostId j) {
    const std::size_t k = slot(j);
    if (k != npos) set_flag(k, kChild, false);
  }
  // False for a non-member.
  [[nodiscard]] bool is_child(HostId j) const { return has_flag(j, kChild); }

  // Parent-graph neighbors: calls fn(h) for each child in ascending id
  // order, then for the current parent (if any, and not also a child).
  // Builds no container, so the periodic gap-fill rounds allocate nothing
  // here; fn must not add or remove children.
  template <typename Fn>
  void for_each_neighbor(Fn&& fn) const {
    for (HostId child : children()) fn(child);
    if (parent_.valid() && !is_child(parent_)) fn(parent_);
  }

  // Ancestor chain of self according to p_i[]: follows parent pointers
  // until NIL, a host with no known parent, or a repetition. If the walk
  // returns to self, a cycle is reported along with its members.
  struct AncestorWalk {
    std::vector<HostId> ancestors;  // in order: parent, grandparent, ...
    bool cycle{false};              // true iff the walk re-reached self
  };
  // Refills `walk`, reusing its buffer: a caller that keeps one walk across
  // attachment rounds allocates only when a chain outgrows all earlier
  // ones. Repeats are found by scanning the chain walked so far (at most
  // n hosts, usually one to three).
  void ancestors_of_self(AncestorWalk& walk) const;

 private:
  // Full-structure consistency sweep; no-op unless RBCAST_PARANOID.
  void check_invariants() const;
  // slot()'s binary search, for ids that are not their own rank.
  [[nodiscard]] std::size_t search_slot(HostId h) const;

  // member_flags_ bits.
  static constexpr std::uint8_t kInCluster = 1;
  static constexpr std::uint8_t kChild = 2;
  [[nodiscard]] bool has_flag(HostId j, std::uint8_t flag) const {
    const std::size_t k = slot(j);
    return k != npos && (member_flags_[k] & flag) != 0;
  }
  [[nodiscard]] std::size_t member_count(std::uint8_t flag) const {
    return flag == kInCluster ? cluster_size_ : children_size_;
  }
  // The first slot at or after k whose `flag` is set (n when none is).
  [[nodiscard]] std::size_t next_member(std::size_t k,
                                        std::uint8_t flag) const {
    while (k < member_flags_.size() && (member_flags_[k] & flag) == 0) ++k;
    return k;
  }
  // Sets or clears `flag` at slot k, keeping its set's size in step.
  void set_flag(std::size_t k, std::uint8_t flag, bool on) {
    std::uint8_t& flags = member_flags_[k];
    if (((flags & flag) != 0) == on) return;
    flags = static_cast<std::uint8_t>(flags ^ flag);
    std::size_t& size = flag == kInCluster ? cluster_size_ : children_size_;
    size = on ? size + 1 : size - 1;
  }
  // MAP_i[j] and p_i[j], side by side (an INFO receipt writes both).
  struct PeerView {
    SeqSet map;
    HostId parent{kNoHost};
  };
  // The entry of member j for the learn_* calls: throws
  // std::invalid_argument for a non-member, and sizes peers_ on first use.
  [[nodiscard]] PeerView& peer_view(HostId j);

  HostId self_;
  std::vector<HostId> all_hosts_;  // sorted: slot order is id order
  HostId source_{kNoHost};
  int source_order_{0};  // 1 + max host id: strictly above every peer

  SeqSet info_;
  // The stored messages, ascending by seq, one entry each: an in-order
  // receipt appends, a gap fill inserts at its place, and prune() erases
  // the prefix but keeps the capacity, so a steady stream allocates
  // nothing here once the buffer has grown to the unpruned window.
  std::vector<StoredMessage> bodies_;
  // Indexed by slot, so an INFO receipt touches no tree and allocates
  // nothing beyond the merge's interval growth. Ascending slot order is
  // ascending id order — the order the std::map tables this replaces
  // iterated in — so protocol decisions stay seed-reproducible. Empty
  // until the first learn_* call, then sized to all_hosts() for good;
  // readers treat a slot past the end like an unheard member (this keeps
  // the n² tables out of a fleet's construction, as the std::maps did).
  // Self's own slot is unused: MAP_i[i] is info_, p_i[i] is parent_.
  // Footprint: n slots of 40 B here (plus 40 B in BroadcastHost's
  // per-peer table), so n² · 80 B fleet-wide; the std::map form already
  // held one ~80 B MAP node per peer once every peer had been heard, which
  // the inter-cluster INFO round guarantees in steady state.
  std::vector<PeerView> peers_;
  HostId parent_{kNoHost};
  // CLUSTER_i and CHILDREN_i: kInCluster and kChild bits, one byte per
  // slot, sized to all_hosts() at construction (n bytes, a fraction of
  // one PeerView per peer), plus each set's member count.
  std::vector<std::uint8_t> member_flags_;
  std::size_t cluster_size_{0};
  std::size_t children_size_{0};
};

}  // namespace rbcast::core
