// Pending-event set for the discrete-event simulator.
//
// Actions live in a slot vector; a binary heap of {time, id} entries
// orders them. Slots are recycled through a free list threaded through
// the vector itself, so once the vector has grown to the run's peak
// pending count, scheduling and firing allocate nothing (std::function
// keeps small closures such as `[this, index]` inline).
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
// deterministic. Cancellation is lazy: the heap entry stays as a tombstone
// (its slot no longer carries its id) and is skipped on pop, which makes
// cancel O(1) amortized — important because the protocol arms and disarms
// many acknowledgment timeouts.
//
// Tombstones are not allowed to accumulate without bound: when dead
// entries outnumber live ones the heap is compacted (dead entries filtered
// out, heap rebuilt). Rebuilding cannot disturb the firing order because
// the (time, id) keys of live entries are untouched — the heap is only a
// different arrangement of the same totally ordered set. This keeps a long
// run with heavy timer arm/disarm churn at O(live) memory instead of
// O(total cancellations).
#pragma once

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

  // Low bits of an EventId value that hold the slot index: up to 2^24
  // simultaneously pending events, and 2^40 scheduled events per queue.
  static constexpr int kSlotBits = 24;

  // Schedules `action` at absolute time `t`. Returns a handle usable with
  // cancel(). Precondition: action is non-null.
  EventId schedule(TimePoint t, Action action);

  // Cancels a pending event. Returns false if it already fired, was
  // already cancelled, or the handle is stale. O(1) amortized (tombstone +
  // periodic compaction).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Heap entries currently allocated, live + tombstones — exposed so tests
  // and benchmarks can assert that compaction bounds tombstone growth.
  [[nodiscard]] std::size_t backing_size() const { return heap_.size(); }

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
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Entry {
    TimePoint time;
    std::uint64_t id;  // EventId value: (seq << kSlotBits) | slot
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  struct Slot {
    Action action;
    std::uint64_t id{0};  // occupant's EventId value; 0 while free
    std::uint32_t next_free{kNoSlot};
  };

  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t id) {
    constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
    return static_cast<std::uint32_t>(id & kSlotMask);
  }
  [[nodiscard]] bool is_live(const Entry& e) const {
    return slots_[slot_of(e.id)].id == e.id;
  }
  void release(std::uint32_t slot);
  void skip_cancelled() const;
  void maybe_compact();

  // Min-heap over Entry via std::greater (see operator> above), stored as
  // an explicit vector so compaction can filter and rebuild it in place.
  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
};

}  // namespace rbcast::sim
