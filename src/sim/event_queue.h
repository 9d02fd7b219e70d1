// Pending-event set for the discrete-event simulator.
//
// Actions live in a slot vector. Slots are recycled through a free list
// threaded through the vector itself, so once the vector has grown to the
// run's peak pending count, scheduling, cancelling and firing allocate
// nothing (std::function keeps small closures such as `[this, index]`
// inline).
//
// An EventId packs (insertion sequence, slot): the sequence in the high
// bits, the slot index in the low kSlotBits. A slot remembers the id of
// its current occupant, so a stale handle whose slot has since been
// reused no longer matches and cancel() returns false. Sequences start at
// 1, so EventId{0} ("no timer") is never issued.
//
// Ordering is (time, insertion sequence). Because the sequence occupies
// the id's high bits, comparing ids compares sequences, and simultaneous
// events fire in the order they were scheduled, which keeps runs
// deterministic.
//
// The order is kept by a monotone radix queue (Ahuja, Mehlhorn, Orlin and
// Tarjan) on the time, read as an unsigned key. `last_` is the key of the
// most recent refill. A pending event with key k sits in bucket
// bucket_of(k, last_): bucket 0 when k <= last_, else the bit width of
// k ^ last_ (1..64). Each bucket is a doubly-linked list threaded through
// the slots, so cancel() unlinks in O(1) and leaves no tombstone behind.
// Bucket 0 is sorted by (time, id); pop() takes its head. When bucket 0
// runs dry, a refill finds the first non-empty bucket, makes its floor
// (the least key appended to it since it was last empty, so at most its
// minimum) the new `last_` and relinks its entries in one pass, each into
// a lower bucket; those at the floor land in bucket 0. An entry therefore
// moves down at most 64 times however long it waits.
//
// Buckets above 0 are always in sequence order: a schedule appends the
// newest sequence, and a refill splits one bucket stably into buckets that
// are empty. So the entries a refill moves into bucket 0 arrive already
// sorted. A schedule at or before `last_` is inserted into bucket 0 by a
// scan from its tail, which at `last_` itself stops at once. A time before
// `last_` is legal: the simulator's clock trails `last_` after
// next_time() has looked past the end of a run_until().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"
#include "util/scheduler.h"

namespace rbcast::sim {

// Handle type shared with the abstract util::Scheduler interface that
// Simulator implements (the protocol layer holds these without seeing the
// queue).
using EventId = util::EventId;

class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue() {
    head_.fill(kNil);
    tail_.fill(kNil);
  }

  // Low bits of an EventId value that hold the slot index: up to 2^24
  // simultaneously pending events, and 2^40 scheduled events per queue.
  static constexpr int kSlotBits = 24;

  // Schedules `action` at absolute time `t`. Returns a handle usable with
  // cancel(). Precondition: action is non-null.
  EventId schedule(TimePoint t, Action action);

  // Cancels a pending event. Returns false if it already fired, was
  // already cancelled, or the handle is stale. O(1): the slot is unlinked
  // from its bucket.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Entries the ordering structure holds. Cancelled events are unlinked at
  // once, so this always equals size(); kept so tests and benchmarks can
  // assert that arm/disarm churn leaves nothing behind.
  [[nodiscard]] std::size_t backing_size() const { return live_; }

  // Action slots ever allocated (live + free); the high-water mark of
  // pending events, since freed slots are reused.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  // Time of the earliest pending event; only valid when !empty().
  [[nodiscard]] TimePoint next_time() const;

  struct Fired {
    TimePoint time;
    Action action;
  };

  // Removes and returns the earliest pending event; only when !empty().
  Fired pop();

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr int kBuckets = 65;

  struct Slot {
    Action action;
    std::uint64_t id{0};  // occupant's EventId value; 0 while free
    TimePoint time{0};
    std::uint32_t prev{kNil};
    // The next slot in the bucket, or in the free list while free.
    std::uint32_t next{kNil};
    std::uint8_t bucket{0};
  };

  // Order-preserving map of a signed time onto the unsigned radix key.
  [[nodiscard]] static std::uint64_t key_of(TimePoint t) {
    return static_cast<std::uint64_t>(t) ^ (std::uint64_t{1} << 63);
  }
  [[nodiscard]] static int bucket_of(std::uint64_t key, std::uint64_t last);
  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t id) {
    constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
    return static_cast<std::uint32_t>(id & kSlotMask);
  }

  // Links `slot` into bucket_of(its key, last_): sorted into bucket 0,
  // appended to any other.
  void link(std::uint32_t slot) const;
  void append(int bucket, std::uint32_t slot) const;
  void unlink(std::uint32_t slot) const;
  // Refills the empty bucket 0 from the first non-empty buckets.
  void refill() const;
  void release(std::uint32_t slot);
  // Full-structure sweep, amortized to one per live_ operations; a no-op
  // unless RBCAST_PARANOID.
  void check_invariants() const;

  // The buckets are mutable because next_time() refills bucket 0: that
  // relinks entries without changing the pending set.
  mutable std::vector<Slot> slots_;
  mutable std::array<std::uint32_t, kBuckets> head_;
  mutable std::array<std::uint32_t, kBuckets> tail_;
  // floor_[b]: the least key appended to bucket b since it was last
  // empty. Cancels leave it alone, so it is a lower bound of the bucket's
  // keys, and it always lies in bucket b itself.
  mutable std::array<std::uint64_t, kBuckets> floor_{};
  // Bit b - 1 is set iff bucket b (1..64) is non-empty.
  mutable std::uint64_t occupied_{0};
  mutable std::uint64_t last_{key_of(0)};
  std::uint32_t free_head_{kNil};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
  mutable std::size_t ops_since_check_{0};
};

}  // namespace rbcast::sim
