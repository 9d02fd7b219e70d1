#include "sim/event_queue.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::sim {

namespace {
// Below this size the heap is left alone: compacting tiny heaps would churn
// for no measurable memory win.
constexpr std::size_t kMinCompactSize = 64;
constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                  << (64 - EventQueue::kSlotBits);
}  // namespace

EventId EventQueue::schedule(TimePoint t, Action action) {
  RBCAST_ASSERT_MSG(action != nullptr, "null event action");
  RBCAST_ASSERT_MSG(next_seq_ < kMaxSeq, "event sequence space exhausted");
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    RBCAST_ASSERT_MSG(slots_.size() < (std::size_t{1} << kSlotBits),
                      "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].action = std::move(action);
  slots_[slot].id = id;
  heap_.push_back(Entry{t, id});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_;
  RBCAST_PARANOID_ASSERT(heap_.size() >= live_);
  return EventId{id};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = slot_of(id.value);
  if (slot >= slots_.size() || slots_[slot].id != id.value) return false;
  release(slot);
  maybe_compact();
  RBCAST_PARANOID_ASSERT(heap_.size() >= live_);
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Destroyed on return, once the slot is back on the free list: a
  // captured object's destructor may itself schedule or cancel.
  const Action doomed = std::move(s.action);
  s.action = nullptr;
  s.id = 0;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void EventQueue::maybe_compact() {
  // Compact once tombstones outnumber live entries. Each compaction is
  // O(heap) but at least half the heap is dead when it runs, so the cost
  // amortizes to O(1) per cancellation.
  if (heap_.size() < kMinCompactSize || heap_.size() - live_ <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  RBCAST_PARANOID_ASSERT(heap_.size() == live_);
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty() && !is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

TimePoint EventQueue::next_time() const {
  skip_cancelled();
  RBCAST_ASSERT_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  skip_cancelled();
  RBCAST_ASSERT_MSG(!heap_.empty(), "pop() on empty queue");
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  const std::uint32_t slot = slot_of(top.id);
  Fired fired{top.time, std::move(slots_[slot].action)};
  release(slot);
  RBCAST_PARANOID_ASSERT(heap_.size() >= live_);
  return fired;
}

}  // namespace rbcast::sim
