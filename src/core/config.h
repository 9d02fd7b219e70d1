// Tunable parameters of the reliable broadcast protocol.
//
// Section 6 of the paper: "these trade-offs are embodied in the frequency
// with which hosts enact INFO exchange, parent pointer exchange, and gap
// filling. These can be tuned according to specific cost-reliability
// requirements." Every such frequency is a field here; the trade-off bench
// (E7) sweeps them. Config{} holds the paper-faithful defaults;
// Config::for_size(n) is the one tuned profile the experiment benches use.
//
// A field is an option only while something sets it to a second value: a
// tool, bench, example or perfbench, or a test that needs the other value
// for more than checking the field's own cap. A value nothing varies is a
// named constant next to the code that uses it, with its reason
// (kGapfillBurst, kAttachRetryBurst in broadcast_host.h;
// kAttachBackfillBurst in protocol_rules.h). A new tunable joins this
// struct together with its second value, e.g. set by for_size.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/time.h"
#include "util/seq_set.h"

namespace rbcast::core {

struct Config {
  // --- periodic activities ----------------------------------------------

  // The attachment procedure is "periodically activated at every host"
  // (Section 4.2). "This time period is a parameter of the algorithm."
  util::Duration attach_period{util::seconds(2)};

  // INFO set + parent pointer exchange. "This is done more frequently for
  // the members of the same cluster and less frequently for the members of
  // different clusters" (Section 4.4) — the same split applies to the
  // exchanges themselves, since intra-cluster messages are cheap.
  // Parent-graph neighbors (parent/children) are treated as intra-rate
  // peers regardless of cluster: the parent timeout depends on hearing
  // them routinely.
  util::Duration info_period_intra{util::milliseconds(500)};
  util::Duration info_period_inter{util::seconds(4)};

  // Periodic gap filling toward parent-graph neighbors (frequent) and
  // toward everyone else — the Section 4.4 non-neighbor extension (rare,
  // "the frequency of this type of gap filling should be relatively low
  // since it operates across cluster boundaries").
  util::Duration gapfill_period_neighbor{util::seconds(1)};
  util::Duration gapfill_period_far{util::seconds(8)};

  // --- timeouts ----------------------------------------------------------

  // "time out on a parent that fails to send messages" (Section 4.3); on
  // expiry the parent pointer is set to NIL.
  util::Duration parent_timeout{util::seconds(10)};

  // "If the acknowledgment to this [attach request] times out, the
  // procedure is repeated to find another candidate" (Section 4.2).
  util::Duration attach_ack_timeout{util::seconds(1)};

  // Engineering necessity the paper leaves implicit: a parent must
  // eventually forget a child it never hears from, or it would forward
  // data to departed/unreachable children forever.
  util::Duration child_timeout{util::seconds(30)};

  // --- volume limits ------------------------------------------------------

  // After offering a message to a peer (gap fill, back-fill or forward),
  // the sender refrains from re-offering the same sequence number to that
  // peer for this long — the offered seqs are optimistically folded into
  // the sender's view of the peer's INFO set. Without this, consecutive
  // gap-fill rounds against a MAP that has not refreshed yet (INFO exchange
  // is slower than gap filling) re-send identical messages (~10% excess
  // inter-cluster traffic in E1). Rollback-free: nothing is ever removed
  // from MAP; when the period lapses an unacknowledged offer is simply
  // offered again, so a lost gap fill delays redelivery by at most this
  // period. Should span a couple of neighbor gap-fill rounds and stay
  // below gapfill_period_far.
  util::Duration gapfill_suppress_period{util::seconds(3)};

  // Hysteresis for case II option (3): a cluster leader switches to an
  // out-of-cluster host j only when max(MAP[j]) exceeds max(MAP[parent])
  // by more than this margin. 0 reproduces the paper exactly (any strictly
  // greater INFO set triggers a switch); the ablation bench explores the
  // churn/delay trade-off of larger margins.
  util::Seq parent_switch_margin{0};

  // --- feature toggles (ablations) ----------------------------------------

  // The Section 4.4 extension: gap filling between hosts that are not
  // parent-graph neighbors. Required for the Figure 4.1 scenario; E10
  // ablates it.
  bool nonneighbor_gapfill{true};

  // How many non-neighbor targets one host fills per far round. Bounding
  // this matters: if every up-to-date host filled every laggard each
  // round, a cluster behind a slow trunk would receive the same missing
  // messages from all of them at once and congestion-collapse. A small
  // random subset keeps aggregate repair traffic proportional to the gap,
  // not to the host count (the paper: the frequency of cross-cluster gap
  // filling "should be relatively low").
  std::size_t far_fill_targets{2};

  // Section 6 optimization: prune INFO prefixes once every host is known
  // to have them.
  bool enable_pruning{true};

  // Section 6 optimization: piggyback the sender's INFO set and parent
  // pointer on every data message, keeping parent-graph neighbors' MAPs
  // fresh without separate control packets (allows stretching the INFO
  // exchange periods). Off by default: the baseline protocol sends
  // control messages separately.
  bool piggyback_info{false};

  // Byzantine hardening (see core/auth.h): when on, every DATA/gap-fill
  // frame carries a payload digest and a per-source authentication tag
  // over (source, seq, digest); receivers drop frames whose tag does not
  // verify and count them in Counters::auth_rejects. Off by default — the
  // faithful paper protocol trusts relays, and the determinism digests are
  // pinned with authentication disabled.
  bool auth_enabled{false};

  // Seed of the per-source key schedule. All honest hosts share it (a
  // symmetric stand-in for a signature PKI); the Byzantine adversary layer
  // never recomputes tags, which models unforgeability.
  std::uint64_t auth_secret{0x52424341'55544831ULL};  // "RBCA UTH1"

  // Cluster knowledge mode (Section 6 discussion):
  //   kDynamic — maintain CLUSTER_i from the cost bit (the paper's default)
  //   kStatic  — CLUSTER_i fixed to ground truth at start, never updated
  //   kNone    — every host believes it is alone in its cluster
  enum class ClusterKnowledge { kDynamic, kStatic, kNone };
  ClusterKnowledge cluster_knowledge{ClusterKnowledge::kDynamic};

  // --- data plane (transport batching) ------------------------------------

  // Per-link coalescing (transport::Coalescer): outbound frames to the
  // same destination buffer for up to `batch_flush_delay` or until the
  // encoded datagram would exceed `batch_max_bytes`, then flush as one
  // multi-frame datagram (wire version 2). 0 disables batching — the
  // default, and the configuration the determinism digests are pinned
  // under. The composition roots (harness::Experiment, rbcast_node) map
  // these into the transport's CoalescerConfig.
  util::Duration batch_flush_delay{0};
  std::size_t batch_max_bytes{1200};

  // --- workload ----------------------------------------------------------

  // Payload size of one data message body.
  std::size_t data_bytes{256};

  // --- tuning ---------------------------------------------------------------

  // The tuned profile for `host_count` hosts: mid-range periods under which
  // the benches' WANs converge within seconds, with the inter-cluster
  // periods stretched by host_count/16 beyond 16 hosts. INFO exchange is
  // all-pairs, so without the stretch each expensive trunk's control load
  // would grow with n until it crowded out the data.
  static Config for_size(std::size_t host_count) {
    Config c;
    c.attach_period = util::seconds(1);
    c.info_period_inter = util::seconds(2);
    c.gapfill_period_far = util::seconds(4);
    c.parent_timeout = util::seconds(6);
    // Must comfortably exceed the worst host-to-host round trip (slow
    // trunks plus queueing), or a host behind a slow link livelocks cycling
    // through candidates whose accepts keep arriving "late".
    c.attach_ack_timeout = util::seconds(2);
    if (host_count > 16) {
      const double factor = static_cast<double>(host_count) / 16.0;
      c.info_period_inter = util::scaled(c.info_period_inter, factor);
      c.gapfill_period_far = util::scaled(c.gapfill_period_far, factor);
    }
    return c;
  }

  bool operator==(const Config&) const = default;
};

}  // namespace rbcast::core
