// Metrics collection: everything the evaluation section measures.
//
// Two sources feed one registry:
//  * the network (via NetObserver) — transmission counts and bytes, split
//    by message kind, link class and intra/inter-cluster crossing; drops;
//    per-server queue backlogs (the congestion experiment);
//  * the network's own books, read on demand — ground-truth clusters and
//    each link direction's wire time (utilization);
//  * the application callbacks (wired by the harness) — broadcast times
//    and first-delivery times per (host, seq), giving delivery latency and
//    completeness.
//
// The paper's Section 5 cost metric — "the number of inter-cluster
// host-to-host transmissions" — is the `send.intercluster.*` counter
// family: a host-to-host send whose endpoints sit in different
// ground-truth clusters at the moment of sending.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/seq_set.h"
#include "util/stats.h"

namespace rbcast::trace {

using util::Seq;

class Metrics : public net::NetObserver {
 public:
  // A time that has not happened (no receipt, no backlog observed).
  static constexpr sim::TimePoint kNever = -1;

  Metrics(sim::Simulator& simulator, net::Network& network);

  // Not copyable: the resolved counter slots point into this counters_.
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // Registers itself as the network observer.
  void attach();

  // --- NetObserver -------------------------------------------------------
  void on_host_send(const net::Delivery& d) override;
  void on_deliver(const net::Delivery& d) override;
  void on_drop(const net::Delivery& d, net::DropReason reason) override;
  void on_link_transmit(LinkId link, const net::Delivery& d) override;
  void on_queue_backlog(ServerId server, LinkId link,
                        sim::Duration backlog) override;

  // --- application-level hooks -----------------------------------------

  void record_broadcast(Seq seq);
  // Keeps the first delivery of `seq` at `host`, which must be a host of
  // the topology (std::invalid_argument otherwise).
  void record_delivery(HostId host, Seq seq);

  // --- queries ------------------------------------------------------------

  [[nodiscard]] const util::CounterMap& counters() const { return counters_; }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    return counters_.get(name);
  }

  // Sum over a counter family: every counter whose name starts with
  // `prefix`.
  [[nodiscard]] std::uint64_t counter_prefix_sum(
      const std::string& prefix) const;

  // Host-level sends of every kind. The "send." prefix also matches the
  // "send.intercluster." sub-family, which counts some of the same sends a
  // second time, so that family is subtracted.
  [[nodiscard]] std::uint64_t host_sends() const;

  // Data-family transmissions crossing cluster boundaries (the paper's
  // cost metric). Includes first sends, forwards, gap fills and baseline
  // retransmissions; excludes control traffic.
  [[nodiscard]] std::uint64_t intercluster_data_sends() const;
  // Control-family equivalents (info/attach/detach/ack).
  [[nodiscard]] std::uint64_t intercluster_control_sends() const;

  // First-delivery latency (seconds) of message `seq` at `host`; negative
  // when not delivered.
  [[nodiscard]] double delivery_latency(HostId host, Seq seq) const;

  // Latencies of all recorded first deliveries, in seconds.
  [[nodiscard]] util::Samples all_latencies() const;
  // Latencies restricted to sequence numbers in [lo, hi].
  [[nodiscard]] util::Samples latencies_between(Seq lo, Seq hi) const;

  // How many hosts have received `seq` so far (including the source).
  [[nodiscard]] std::size_t delivered_count(Seq seq) const;

  // Serialization backlog observed at one server's outgoing queues: the
  // largest since the last reset(), and the latest ever (kNever before the
  // first). reset() keeps `latest`: it is the queue's state, not a
  // statistic of the window.
  struct QueueBacklog {
    sim::Duration max{0};
    sim::Duration latest{kNever};
  };
  // Indexed by ServerId.
  [[nodiscard]] const std::vector<QueueBacklog>& queue_backlogs() const {
    return backlog_;
  }
  // The largest backlog at `server` since the last reset, in seconds (0
  // for a server outside the topology).
  [[nodiscard]] double max_queue_backlog_seconds(ServerId server) const;

  // Wire time the busier direction of `link` has spent transmitting since
  // the last reset, framing included — the numerator of its utilization.
  // Read from the network, which books it as it transmits.
  [[nodiscard]] sim::Duration link_busy_time(LinkId link) const;
  // Busy fraction of a link's busier direction since the last reset (0
  // when no time passed); never above 1.
  [[nodiscard]] double link_utilization(LinkId link) const;
  // The busiest trunk by utilization (kNoLink when nothing was sent).
  [[nodiscard]] LinkId busiest_trunk() const;

  // Completion curve: for each bucket boundary t (multiples of
  // `bucket_seconds` since time 0 up to the last recorded delivery),
  // the fraction of all expected (host, seq) deliveries — `host_count`
  // per broadcast message — that had happened by t. The time series the
  // partition experiment plots.
  [[nodiscard]] std::vector<std::pair<double, double>> completion_curve(
      double bucket_seconds, std::size_t host_count) const;

  // --- CSV export (scripting / plotting) -----------------------------------

  // name,value for every counter.
  void write_counters_csv(std::ostream& os) const;
  // seq,host,latency_seconds for every recorded first delivery.
  void write_latencies_csv(std::ostream& os) const;

  // Clears everything (measurement-window scoping in benches).
  void reset();

 private:
  static constexpr std::size_t kLinkClasses =
      static_cast<std::size_t>(topo::LinkClass::kExpensive) + 1;
  static constexpr std::size_t kDropReasons =
      static_cast<std::size_t>(net::DropReason::kQueueOverflow) + 1;

  // Where the per-packet counters of one message kind live in counters_.
  // Each pointer is resolved on the counter's first increment, so a
  // counter that never fires never appears, exactly as with inc(); after
  // that an increment builds no string and does no map lookup.
  struct KindSlots {
    std::string kind;
    std::uint64_t* send{nullptr};
    std::uint64_t* send_bytes{nullptr};
    std::uint64_t* send_intercluster{nullptr};
    std::uint64_t* send_bytes_intercluster{nullptr};
    std::uint64_t* deliver{nullptr};
    std::uint64_t* drop_kind{nullptr};
    std::array<std::uint64_t*, kLinkClasses> link{};  // link.<class>.<kind>
  };

  [[nodiscard]] KindSlots& kind_slots(const std::string& kind);
  // Adds `by` to the counter behind `slot`. Only its first use names the
  // counter: the name parts are concatenated and looked up out of line,
  // so a resolved increment is one null test and one add.
  template <typename... Parts>
  void add(std::uint64_t*& slot, std::uint64_t by, const Parts&... name) {
    if (slot == nullptr) [[unlikely]] {
      slot = resolve({std::string_view(name)...});
    }
    *slot += by;
  }
  // The counter named by concatenating `name`, created at 0 if absent.
  [[nodiscard]] std::uint64_t* resolve(
      std::initializer_list<std::string_view> name);

  sim::Simulator& simulator_;
  net::Network& network_;

  util::CounterMap counters_;
  // Slot caches into counters_; reset() drops them with the counters.
  std::vector<KindSlots> kinds_;
  std::array<std::uint64_t*, kLinkClasses> link_{};        // link.<class>
  std::array<std::uint64_t*, kLinkClasses> link_bytes_{};  // link_bytes.<class>
  std::array<std::uint64_t*, kDropReasons> drop_{};        // drop.<reason>
  // Queue backlog per server, indexed by ServerId; sized to the topology
  // at construction, so a hop's on_queue_backlog() is one vector index.
  std::vector<QueueBacklog> backlog_;
  // Each link direction's wire time at the last reset (zero before the
  // first), indexed by LinkId: where the utilization window starts.
  std::vector<std::array<sim::Duration, 2>> wire_at_reset_;
  sim::TimePoint window_start_{0};

  // Broadcast time and first receipts per seq, one row per distinct seq.
  // A row is kRowHeader slots — the broadcast time (kNever until
  // record_broadcast) and how many hosts received the seq — then one
  // first-receipt time per topology host (kNever where it has not
  // arrived). Rows are appended to fixed-size chunks, so no seq costs a
  // heap block of its own, and index_ maps seqs, in ascending order, to
  // their rows: memory grows with the number of distinct seqs, never with
  // their values, and a forged or far-off seq costs one row like any other.
  static constexpr std::size_t kBroadcastAt = 0;
  static constexpr std::size_t kCount = 1;
  static constexpr std::size_t kRowHeader = 2;
  static constexpr std::size_t kRowsPerChunk = 64;
  struct IndexEntry {
    Seq seq;
    std::uint32_t row;
  };
  // The first index entry whose seq is not below `seq`.
  [[nodiscard]] std::vector<IndexEntry>::const_iterator seek(Seq seq) const;
  // The row of `seq`, or nullptr when it has none.
  [[nodiscard]] const sim::TimePoint* find_row(Seq seq) const;
  // The row of `seq`, appended (all kNever, count 0) when it has none.
  [[nodiscard]] sim::TimePoint* row_for(Seq seq);
  [[nodiscard]] sim::TimePoint* row(std::uint32_t index) const {
    return row_chunks_[index / kRowsPerChunk].get() +
           (index % kRowsPerChunk) * row_stride_;
  }
  // Calls fn(seq, row) for every broadcast seq in [lo, hi], ascending.
  template <typename Fn>
  void for_each_broadcast(Seq lo, Seq hi, Fn&& fn) const;
  // Calls fn(host, at) for every first receipt in row `r`, in host order.
  template <typename Fn>
  void for_each_delivery(const sim::TimePoint* r, Fn&& fn) const;

  std::size_t hosts_;       // topology hosts at construction
  std::size_t row_stride_;  // kRowHeader + hosts_
  std::vector<IndexEntry> index_;
  std::vector<std::unique_ptr<sim::TimePoint[]>> row_chunks_;
  std::uint32_t rows_{0};      // rows in use; reset() keeps the chunks
  std::size_t broadcasts_{0};  // rows with a broadcast time
};

}  // namespace rbcast::trace
