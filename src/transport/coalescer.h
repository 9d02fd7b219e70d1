// Coalescer — per-destination outbound frame batching for the data plane.
//
// Both transport backends funnel sends through one of these when batching
// is enabled (Config::batch_flush_delay > 0). Frames queue per destination
// host; a queue flushes as one multi-frame datagram when either
//
//   - adding the next frame would push the encoded datagram past
//     `max_bytes` (size flush: the full queue goes out first, then the new
//     frame starts a fresh one), or
//   - `flush_delay` elapses after the queue's first frame arrived
//     (deadline flush: bounds the latency cost of waiting for company).
//
// The coalescer is backend-agnostic: it never encodes anything itself. An
// Item carries whatever the backend needs to materialise the datagram at
// flush time — the simulator keeps the std::any payload, the UDP backend
// keeps pre-encoded frame bytes — plus the byte count used against the
// size budget. Timers come from the same util::Scheduler the owning
// transport runs on, so simulated batching is as deterministic as
// everything else in the DES.
//
// A flush lends the batch to the backend as a span over a buffer the
// queue keeps: once every destination's two buffers have grown to their
// largest batch, queueing and flushing allocate nothing.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/message.h"
#include "util/ids.h"
#include "util/metrics_registry.h"
#include "util/scheduler.h"

namespace rbcast::transport {

struct CoalescerConfig {
  // 0 disables batching entirely: the owning transport must not construct
  // a Coalescer (enabled() is the gate the backends check).
  util::Duration flush_delay{0};
  // Encoded-datagram budget, container overhead included.
  std::size_t max_bytes{1200};

  [[nodiscard]] bool enabled() const { return flush_delay > 0; }
};

class Coalescer {
 public:
  // One queued frame. `bytes` is the encoded version-1 frame size — what
  // the frame costs inside a batch container before the per-frame length
  // prefix. The backend fills whichever carrier it flushes from.
  struct Item {
    std::any payload;      // sim backend: the in-memory protocol message
    std::string encoded;   // udp backend: encoded version-1 frame bytes
    std::size_t bytes{0};
    std::string kind;
    net::TraceId trace_id{0};
  };

  struct Stats {
    std::uint64_t frames_enqueued{0};
    std::uint64_t batches_flushed{0};
    std::uint64_t size_flushes{0};
    std::uint64_t deadline_flushes{0};
  };

  // Receives one batch, in enqueue order. The items are the coalescer's
  // and are destroyed when the call returns: move out whatever must
  // outlive it. The callback may re-enter enqueue().
  using FlushFn = std::function<void(HostId to, std::span<Item> items)>;

  Coalescer(util::Scheduler& scheduler, CoalescerConfig config, FlushFn flush);
  ~Coalescer();

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  // Queues `item` for `to`, size-flushing the existing queue first when the
  // datagram budget would overflow. The first frame in a queue arms the
  // deadline timer.
  void enqueue(HostId to, Item item);

  // Flushes one destination / every destination immediately (shutdown and
  // test hook; counted as deadline flushes in neither case).
  void flush(HostId to);
  void flush_all();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_frames() const;

 private:
  struct Queue {
    std::vector<Item> items;
    // Empty between flushes; a flush swaps it in for `items`, lends the
    // batch out, then clears and keeps it, so both buffers keep capacity.
    std::vector<Item> spare;
    std::size_t bytes{0};  // encoded datagram size if flushed now
    util::EventId timer{};
    bool timer_armed{false};
  };

  // Empties `q` (cancelling its deadline) and returns its frames, held in
  // the buffer that was the spare.
  std::vector<Item> take_batch(Queue& q);
  // Hands `batch` to the flush callback, then keeps its buffer as q's spare.
  void lend(Queue& q, HostId to, std::vector<Item> batch);
  void do_flush(Queue& q, HostId to);

  util::Scheduler& scheduler_;
  CoalescerConfig config_;
  FlushFn flush_;
  // Ordered by host id so flush_all() walks destinations deterministically.
  std::map<HostId::value_type, Queue> queues_;
  Stats stats_;
};

// Registers the standard transport.coalescer.* series over snapshot
// callbacks. Both backends call this with their own aggregation, so a sim
// run and a real node expose identical coalescer metric names
// (DESIGN.md §14). `stats_fn` must stay callable for the registry's
// lifetime (or until the names are unregistered); `pending_fn` may be
// empty to skip the queue-depth gauge.
void register_coalescer_metrics(util::MetricsRegistry& registry,
                                std::function<Coalescer::Stats()> stats_fn,
                                std::function<std::size_t()> pending_fn = {});

}  // namespace rbcast::transport
