// BroadcastHost — the complete protocol automaton running on one host.
//
// Runs the protocol rules (protocol_rules.h, shared with the model
// checker) over a transport::Transport: its scheduler drives the periodic
// activations and timeouts, its endpoint is the paper's single-destination
// send, and its upcall is the cost-bit delivery. One instance runs per
// participating host; the instance whose id equals `source` plays the
// source role (generates the stream, never runs the attachment procedure,
// is the root of the host parent graph).
//
// Delivery semantics offered to the application: every broadcast message is
// delivered exactly once per host, not necessarily in order — the paper
// deliberately relaxes ordering to cut delay (Section 1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/host_state.h"
#include "core/messages.h"
#include "core/protocol_observer.h"
#include "core/protocol_rules.h"
#include "net/message.h"
#include "transport/transport.h"
#include "util/metrics_registry.h"
#include "util/scheduler.h"
#include "util/rng.h"

namespace rbcast::core {

// Max gap-fill data messages sent to one peer per periodic round.
inline constexpr std::size_t kGapfillBurst = 16;

// How many consecutive attach timeouts may trigger an *immediate* retry
// against the next candidate. The paper's "the procedure is repeated" must
// not degenerate into a request stream at rate 1/attach_ack_timeout when
// every candidate is silent (total partition): once this many retries in a
// row have timed out, further attempts are left to the periodic attachment
// timer (rate 1/attach_period), which keeps attach traffic bounded however
// long the partition lasts. Reset on any completed handshake.
inline constexpr std::size_t kAttachRetryBurst = 3;

class BroadcastHost : private ProtocolRules<BroadcastHost> {
 public:
  // Called on first receipt of each data message (unordered delivery).
  // The view aliases the refcounted Payload held in HostState; copy it if
  // it must outlive the callback.
  using AppDeliverFn = std::function<void(Seq, std::string_view body)>;

  // Attaches `self` to `transport` (which must outlive this object),
  // wiring on_delivery as the upcall and running the periodic tasks on the
  // transport's scheduler. The same host code runs over the simulator
  // (SimTransport) and real sockets (UdpTransport); the destructor
  // detaches. `rng` drives only phase jitter of the periodic tasks (so
  // hosts do not act in lock-step).
  BroadcastHost(transport::Transport& transport, HostId self, HostId source,
                std::vector<HostId> all_hosts, Config config, util::Rng rng,
                AppDeliverFn app_deliver = {});

  ~BroadcastHost();

  BroadcastHost(const BroadcastHost&) = delete;
  BroadcastHost& operator=(const BroadcastHost&) = delete;

  // Arms the periodic activities. Call once.
  void start();

  // Transport upcall: a message for this host arrived (with its cost bit).
  void on_delivery(const net::Delivery& delivery);

  // Source API: appends the next message to the broadcast stream.
  // Precondition: is_source().
  Seq broadcast(std::string body);

  // --- introspection ------------------------------------------------------

  [[nodiscard]] HostId self() const { return state_.self(); }
  [[nodiscard]] bool is_source() const { return self() == source_; }
  [[nodiscard]] const HostState& state() const { return state_; }
  [[nodiscard]] HostId parent() const { return state_.parent(); }
  [[nodiscard]] const SeqSet& info() const { return state_.info(); }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Seq last_broadcast_seq() const { return next_seq_ - 1; }

  struct Counters {
    std::uint64_t attach_attempts{0};
    // Attach attempts keyed by the rule that proposed them ("I.1".."III.1")
    // — which options actually fire is itself an experimental observable.
    std::map<std::string, std::uint64_t> attempts_by_rule;
    std::uint64_t attach_timeouts{0};
    std::uint64_t attaches_completed{0};
    std::uint64_t cycles_broken{0};
    std::uint64_t parent_timeouts{0};
    std::uint64_t new_max_rejected{0};  // new maximum offered by a non-parent
    std::uint64_t duplicates_discarded{0};
    std::uint64_t data_forwarded{0};
    std::uint64_t gapfills_sent{0};
    std::uint64_t deliveries{0};  // first receipts handed to the app
    // Deliveries whose payload failed wire decoding (empty std::any from
    // the transport): counted and dropped, exactly like any other loss.
    std::uint64_t decode_errors{0};
    // Data frames dropped because the per-source authentication tag was
    // missing or failed verification (Config::auth_enabled, see auth.h).
    // Rejected frames leave every bit of protocol state untouched — not
    // even liveness or cluster bookkeeping may trust them.
    std::uint64_t auth_rejects{0};
    // Deliveries whose claimed sender is invalid, this host itself, or not
    // among all_hosts: dropped before any bookkeeping, like decode errors —
    // an unknown sender must not join CLUSTER_i or become a send target.
    std::uint64_t unknown_sender{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Forces the attachment procedure to run now (tests).
  void run_attachment_now() { attachment_round(); }

  // Forces one gap-fill round now (tests).
  void run_gapfill_neighbor_now() { gapfill_round_neighbor(); }
  void run_gapfill_far_now() { gapfill_round_far(); }

  // Forces one INFO round now (tests).
  void run_info_intra_now() { info_round_intra(); }
  void run_info_inter_now() { info_round_inter(); }

  // Seeds CLUSTER_i (static cluster knowledge mode, or "some information
  // to the contrary" at initialization — Section 4.2). Call before start().
  void seed_cluster(const std::vector<HostId>& cluster) {
    state_.set_cluster(cluster);
  }

  // Installs a protocol-event observer (nullptr to remove).
  void set_observer(ProtocolObserver* observer) { observer_ = observer; }

  // Registers this host's counters and attachment/watermark gauges into
  // `registry` under the shared host.* names, labelled `labels` (e.g.
  // "host=\"3\"" — must be unique per host within one registry). The
  // registration is observation-only and is dropped automatically when
  // the host is destroyed. At most one registry per host.
  void register_metrics(util::MetricsRegistry& registry,
                        const std::string& labels);

 private:
  friend class ProtocolRules<BroadcastHost>;

  // --- ProtocolRules hooks (see protocol_rules.h) ----------------------
  void send_data(HostId to, const HostState::StoredMessage& message,
                 DataSend why);
  [[nodiscard]] bool keeps_auth() const { return config_.auth_enabled; }
  void deliver(const HostState::StoredMessage& message, HostId from,
               bool gap_fill);
  void on_duplicate(HostId, const DataMsg&) {
    ++counters_.duplicates_discarded;
  }
  bool rejects_new_max(HostId from, Seq seq);
  // Candidates whose handshake recently timed out, purging lapsed ones.
  [[nodiscard]] std::set<HostId> attach_exclusions();
  void on_cycle_broken();
  void on_detached(HostId old_parent, bool timeout);
  void on_attach_requested(HostId candidate, const std::string& rule);
  void arm_attach_timer(HostId candidate);
  void on_attached(HostId parent);

  // --- periodic activities ---------------------------------------------
  void attachment_round();
  void info_round_intra();
  void info_round_inter();
  void gapfill_round_neighbor();
  void gapfill_round_far();
  void maintenance_round();  // parent/child timeouts, pruning

  // --- helpers -----------------------------------------------------------
  void send_message(HostId to, ProtocolMessage m);
  // Builds a data message carrying `message`'s body and tag (attaching the
  // piggybacked INFO when enabled).
  [[nodiscard]] DataMsg make_data(const HostState::StoredMessage& message,
                                  bool gap_fill) const;
  // Records that `seq` was just offered to `to` (any data send counts);
  // re-offers are suppressed until the suppress period lapses or the peer
  // reports an INFO set that still lacks the seq (see clear_refuted_offers).
  void note_offered(HostId to, Seq seq);
  // Drops offers toward `from` that its freshly reported INFO refutes.
  void clear_refuted_offers(HostId from, const SeqSet& reported);
  // Live (unexpired) offers toward `j`, ascending, purging lapsed ones.
  // The view reads offer_seqs_ and is valid until the next call.
  [[nodiscard]] std::span<const Seq> recent_offers(HostId j);
  void on_attach_timeout(HostId candidate);
  struct PeerBook;
  // The bookkeeping entry of member `j`; sizes peers_ on first use.
  [[nodiscard]] PeerBook& peer_book(HostId j);

  transport::Transport& transport_;
  util::Scheduler& scheduler_;
  HostId source_;
  Config config_;
  // Initialized after the base, whose construction validates the
  // constructor's arguments, so a rejected construction never leaves
  // `self` attached.
  net::HostEndpoint& endpoint_;
  util::Rng rng_;
  AppDeliverFn app_deliver_;
  ProtocolObserver* observer_{nullptr};

  Seq next_seq_{1};  // source only: next sequence number to assign

  // Timeout of the attach handshake in flight (pending_attach_).
  util::EventId attach_timer_{};
  // Timeouts since the last completed handshake; once past
  // kAttachRetryBurst, retries wait for the periodic timer.
  std::size_t consecutive_attach_timeouts_{0};

  // Candidates whose handshake recently timed out, with expiry times.
  // Ordered: current_exclusions() iterates it, and the exclusion order
  // feeds attachment decisions.
  std::map<HostId, util::TimePoint> failed_candidates_;

  // Liveness bookkeeping.
  util::TimePoint last_parent_heard_{0};

  // Per-peer bookkeeping, indexed by HostState::slot(): empty until first
  // used, then sized to all_hosts for good. Every peer it is asked about is
  // a member (on_delivery drops the rest).
  struct PeerBook {
    util::TimePoint last_heard{0};  // 0 = never heard
    // Piggyback suppression (Config::piggyback_info): when a data message
    // carrying our INFO set just went to this peer, intra-cluster INFO
    // rounds before this time skip it — the report already rode along.
    // 0 (never piggybacked) suppresses nothing.
    util::TimePoint piggyback_until{0};
    // Optimistic offer tracking (duplicate gap-fill suppression): the
    // expiry time of each outstanding offer, in ascending seq order. A
    // sorted vector: offers mostly append, and its capacity is reused.
    struct Offer {
      Seq seq;
      util::TimePoint expires;
    };
    std::vector<Offer> offered;
  };
  std::vector<PeerBook> peers_;

  // Buffers reused across rounds, so that a steady-state round allocates
  // only the boxes of the messages it sends: info_round_intra()'s
  // recipients, recent_offers()'s view, attachment_round()'s ancestor
  // chain and gapfill_round_far()'s behind non-neighbors.
  std::vector<HostId> info_targets_;
  std::vector<Seq> offer_seqs_;
  HostState::AncestorWalk ancestor_walk_;
  std::vector<HostId> far_behind_;

  Counters counters_;

  // Metric registration to undo on destruction (register_metrics).
  util::MetricsRegistry* metrics_registry_{nullptr};
  std::string metrics_labels_;
  std::vector<std::string> metrics_names_;

  // Periodic tasks (declared last: they capture `this` and must die first).
  std::unique_ptr<util::PeriodicTask> attach_task_;
  std::unique_ptr<util::PeriodicTask> info_intra_task_;
  std::unique_ptr<util::PeriodicTask> info_inter_task_;
  std::unique_ptr<util::PeriodicTask> gapfill_neighbor_task_;
  std::unique_ptr<util::PeriodicTask> gapfill_far_task_;
  std::unique_ptr<util::PeriodicTask> maintenance_task_;
};

}  // namespace rbcast::core
