#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace rbcast::sim {

namespace {
constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                  << (64 - EventQueue::kSlotBits);
}  // namespace

int EventQueue::bucket_of(std::uint64_t key, std::uint64_t last) {
  return key <= last ? 0 : std::bit_width(key ^ last);
}

EventId EventQueue::schedule(TimePoint t, Action action) {
  RBCAST_ASSERT_MSG(action != nullptr, "null event action");
  RBCAST_ASSERT_MSG(next_seq_ < kMaxSeq, "event sequence space exhausted");
  std::uint32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = slots_[slot].next;
  } else {
    RBCAST_ASSERT_MSG(slots_.size() < (std::size_t{1} << kSlotBits),
                      "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.id = id;
  s.time = t;
  link(slot);
  ++live_;
  check_invariants();
  return EventId{id};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = slot_of(id.value);
  if (slot >= slots_.size() || slots_[slot].id != id.value) return false;
  unlink(slot);
  release(slot);
  check_invariants();
  return true;
}

void EventQueue::link(std::uint32_t slot) const {
  const int bucket = bucket_of(key_of(slots_[slot].time), last_);
  if (bucket != 0) {
    append(bucket, slot);
    return;
  }
  // Sorted insert by (time, id), scanning from the tail: the new id is the
  // largest, so only a later time ahead of it moves the insertion point.
  Slot& s = slots_[slot];
  std::uint32_t after = tail_[0];
  while (after != kNil && slots_[after].time > s.time) {
    after = slots_[after].prev;
  }
  const std::uint32_t before = after == kNil ? head_[0] : slots_[after].next;
  s.bucket = 0;
  s.prev = after;
  s.next = before;
  (after == kNil ? head_[0] : slots_[after].next) = slot;
  (before == kNil ? tail_[0] : slots_[before].prev) = slot;
}

void EventQueue::append(int bucket, std::uint32_t slot) const {
  const auto b = static_cast<std::size_t>(bucket);
  Slot& s = slots_[slot];
  s.bucket = static_cast<std::uint8_t>(bucket);
  s.prev = tail_[b];
  s.next = kNil;
  const std::uint64_t key = key_of(s.time);
  if (tail_[b] == kNil) {
    head_[b] = slot;
    floor_[b] = key;
    if (bucket != 0) occupied_ |= std::uint64_t{1} << (bucket - 1);
  } else {
    slots_[tail_[b]].next = slot;
    floor_[b] = std::min(floor_[b], key);
  }
  tail_[b] = slot;
}

void EventQueue::unlink(std::uint32_t slot) const {
  const Slot& s = slots_[slot];
  const std::size_t b = s.bucket;
  (s.prev == kNil ? head_[b] : slots_[s.prev].next) = s.next;
  (s.next == kNil ? tail_[b] : slots_[s.next].prev) = s.prev;
  if (b != 0 && head_[b] == kNil) occupied_ &= ~(std::uint64_t{1} << (b - 1));
}

void EventQueue::refill() const {
  RBCAST_ASSERT_MSG(occupied_ != 0, "refill of an empty queue");
  while (head_[0] == kNil) {
    const int bucket = std::countr_zero(occupied_) + 1;
    const auto b = static_cast<std::size_t>(bucket);
    // The bucket's floor is a key that belongs in it and is at most its
    // minimum (a cancel may have removed the minimum itself), so taking it
    // as `last_` moves every entry into a lower bucket, and the entries at
    // the floor into bucket 0. A floor that no entry still has leaves
    // bucket 0 empty for another round. The lower buckets are all empty,
    // so appending in list order keeps each in sequence order.
    last_ = floor_[b];
    std::uint32_t i = head_[b];
    head_[b] = kNil;
    tail_[b] = kNil;
    occupied_ &= ~(std::uint64_t{1} << (bucket - 1));
    while (i != kNil) {
      const std::uint32_t next = slots_[i].next;
      append(bucket_of(key_of(slots_[i].time), last_), i);
      i = next;
    }
  }
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Destroyed on return, once the slot is back on the free list: a
  // captured object's destructor may itself schedule or cancel.
  const Action doomed = std::move(s.action);
  s.action = nullptr;
  s.id = 0;
  s.next = free_head_;
  free_head_ = slot;
  --live_;
}

TimePoint EventQueue::next_time() const {
  RBCAST_ASSERT_MSG(live_ != 0, "next_time() on empty queue");
  if (head_[0] == kNil) refill();
  return slots_[head_[0]].time;
}

EventQueue::Fired EventQueue::pop() {
  RBCAST_ASSERT_MSG(live_ != 0, "pop() on empty queue");
  if (head_[0] == kNil) refill();
  const std::uint32_t slot = head_[0];
  unlink(slot);
  Fired fired{slots_[slot].time, std::move(slots_[slot].action)};
  release(slot);
  check_invariants();
  return fired;
}

void EventQueue::check_invariants() const {
#if defined(RBCAST_PARANOID)
  // A sweep costs O(live), so it runs once per live_ operations: O(1)
  // amortized, and every operation on a queue of one or two entries.
  if (++ops_since_check_ < live_) return;
  ops_since_check_ = 0;
  std::size_t linked = 0;
  for (std::size_t b = 0; b < head_.size(); ++b) {
    RBCAST_ASSERT_MSG(
        b == 0 || ((occupied_ >> (b - 1)) & 1) == (head_[b] != kNil),
        "occupancy mask out of step with the buckets");
    RBCAST_ASSERT_MSG(head_[b] == kNil || b == 0 ||
                          bucket_of(floor_[b], last_) == static_cast<int>(b),
                      "bucket floor does not belong in its bucket");
    std::uint32_t prev = kNil;
    for (std::uint32_t i = head_[b]; i != kNil; i = slots_[i].next) {
      const Slot& s = slots_[i];
      RBCAST_ASSERT_MSG(b == 0 || floor_[b] <= key_of(s.time),
                        "bucket floor above an entry");
      RBCAST_ASSERT_MSG(s.id != 0 && slot_of(s.id) == i, "free slot linked");
      RBCAST_ASSERT_MSG(s.prev == prev, "broken back link");
      RBCAST_ASSERT_MSG(s.bucket == b, "slot records the wrong bucket");
      RBCAST_ASSERT_MSG(bucket_of(key_of(s.time), last_) == static_cast<int>(b),
                        "slot misfiled: not in bucket_of(time, last_)");
      if (prev != kNil) {
        const Slot& p = slots_[prev];
        RBCAST_ASSERT_MSG(
            b != 0 || p.time < s.time || (p.time == s.time && p.id < s.id),
            "bucket 0 out of (time, id) order");
        RBCAST_ASSERT_MSG(b == 0 || p.id < s.id,
                          "bucket above 0 out of sequence order");
      }
      prev = i;
      ++linked;
    }
    RBCAST_ASSERT_MSG(tail_[b] == prev, "stale bucket tail");
  }
  RBCAST_ASSERT_MSG(linked == live_, "bucket lengths do not sum to live_");
#endif
}

}  // namespace rbcast::sim
