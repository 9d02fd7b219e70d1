#include "transport/coalescer.h"

#include <utility>

#include "transport/wire.h"
#include "util/assert.h"

namespace rbcast::transport {

Coalescer::Coalescer(util::Scheduler& scheduler, CoalescerConfig config,
                     FlushFn flush)
    : scheduler_(scheduler), config_(config), flush_(std::move(flush)) {
  RBCAST_CHECK_ARG(config_.enabled(), "Coalescer built with batching off");
  RBCAST_CHECK_ARG(config_.max_bytes > kBatchHeaderBytes,
                   "batch_max_bytes leaves no room for frames");
  RBCAST_CHECK_ARG(flush_ != nullptr, "Coalescer: null flush fn");
}

Coalescer::~Coalescer() {
  for (auto& [host, q] : queues_) {
    if (q.timer_armed) scheduler_.cancel(q.timer);
  }
}

void Coalescer::enqueue(HostId to, Item item) {
  RBCAST_CHECK_ARG(to.valid(), "Coalescer::enqueue: bad destination");
  Queue& q = queues_[to.value];
  const std::size_t cost = kBatchPerFrameBytes + item.bytes;
  // A frame that would push the datagram past the budget sends the queue
  // ahead of it as one batch and starts a fresh queue. It joins that queue
  // before the batch is lent out, so frames a re-entrant flush callback
  // enqueues line up behind it. A frame that cannot fit even alone still
  // goes out (as an oversized singleton datagram) rather than sticking in
  // the queue forever.
  std::vector<Item> batch;
  const bool size_flush =
      !q.items.empty() && q.bytes + cost > config_.max_bytes;
  if (size_flush) {
    ++stats_.size_flushes;
    batch = take_batch(q);
  }
  // An empty queue costs the container header once its first frame lands.
  if (q.items.empty()) q.bytes = kBatchHeaderBytes;
  q.bytes += cost;
  q.items.push_back(std::move(item));
  ++stats_.frames_enqueued;
  if (size_flush) lend(q, to, std::move(batch));
  // The queue's first frame arms the deadline (after the flush above, so
  // the timer is scheduled after whatever the callback sent).
  if (!q.timer_armed && !q.items.empty()) {
    q.timer = scheduler_.after(config_.flush_delay, [this, to] {
      auto it = queues_.find(to.value);
      if (it == queues_.end() || it->second.items.empty()) return;
      it->second.timer_armed = false;
      ++stats_.deadline_flushes;
      do_flush(it->second, to);
    });
    q.timer_armed = true;
  }
  if (q.items.size() >= kMaxBatchFrames) {
    ++stats_.size_flushes;
    do_flush(q, to);
  }
}

void Coalescer::flush(HostId to) {
  auto it = queues_.find(to.value);
  if (it == queues_.end() || it->second.items.empty()) return;
  do_flush(it->second, to);
}

void Coalescer::flush_all() {
  for (auto& [host, q] : queues_) {
    if (!q.items.empty()) do_flush(q, HostId{host});
  }
}

std::size_t Coalescer::pending_frames() const {
  std::size_t n = 0;
  for (const auto& [host, q] : queues_) n += q.items.size();
  return n;
}

std::vector<Coalescer::Item> Coalescer::take_batch(Queue& q) {
  if (q.timer_armed) {
    scheduler_.cancel(q.timer);
    q.timer_armed = false;
  }
  std::vector<Item> batch = std::move(q.spare);
  batch.swap(q.items);
  q.bytes = 0;
  return batch;
}

void Coalescer::lend(Queue& q, HostId to, std::vector<Item> batch) {
  ++stats_.batches_flushed;
  // The queue no longer holds these frames, so the callback may re-enter
  // enqueue(). A nested flush finds no spare and takes an empty buffer;
  // this batch's buffer then becomes the spare again.
  flush_(to, batch);
  batch.clear();
  q.spare = std::move(batch);
}

void Coalescer::do_flush(Queue& q, HostId to) { lend(q, to, take_batch(q)); }

void register_coalescer_metrics(util::MetricsRegistry& registry,
                                std::function<Coalescer::Stats()> stats_fn,
                                std::function<std::size_t()> pending_fn) {
  registry.register_counter_fn(
      "transport.coalescer.frames_enqueued", "",
      "Frames queued for outbound batching",
      [stats_fn] { return stats_fn().frames_enqueued; });
  registry.register_counter_fn(
      "transport.coalescer.batches_flushed", "",
      "Batch datagrams materialised (size, deadline and shutdown flushes)",
      [stats_fn] { return stats_fn().batches_flushed; });
  registry.register_counter_fn(
      "transport.coalescer.size_flushes", "",
      "Flushes forced by the datagram byte budget",
      [stats_fn] { return stats_fn().size_flushes; });
  registry.register_counter_fn(
      "transport.coalescer.deadline_flushes", "",
      "Flushes forced by the flush-delay deadline",
      [stats_fn] { return stats_fn().deadline_flushes; });
  if (pending_fn) {
    registry.register_gauge_fn(
        "transport.coalescer.pending_frames", "",
        "Frames currently queued awaiting a flush", [pending_fn] {
          return static_cast<double>(pending_fn());
        });
  }
}

}  // namespace rbcast::transport
