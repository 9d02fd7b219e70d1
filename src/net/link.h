// Runtime state of one link: up/down, per-direction serialization queue,
// loss and duplication draws, and the wire time each direction has used.
//
// Failure semantics follow the paper exactly: messages "can ... be lost at
// any point (even when the link over which the lost message was sent is
// perceived to be operational), or be spontaneously duplicated", and
// neither loss nor link failure is reported to anyone.
#pragma once

#include <cstddef>

#include "sim/time.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace rbcast::net {

class LinkState {
 public:
  // Every transmission is charged `overhead_bytes` of framing on top of
  // its payload (NetConfig::per_packet_overhead_bytes).
  LinkState(const topo::LinkSpec& spec, util::Rng rng,
            std::size_t overhead_bytes = 0);

  [[nodiscard]] const topo::LinkSpec& spec() const { return *spec_; }
  [[nodiscard]] bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  // Which direction a transmission from server `from` uses (trunks only).
  [[nodiscard]] int direction_from(ServerId from) const {
    return from == spec_->a ? 0 : 1;
  }

  struct TxResult {
    // Copies that will actually arrive: 0 = lost, 1 = normal,
    // 2 = spontaneously duplicated.
    int copies{0};
    // Wait until the wire is free (serialization backlog at enqueue).
    sim::Duration queue_wait{0};
    // Time to clock the message, framing included, onto the wire.
    sim::Duration tx_time{0};
    // One-way arrival offsets from `now` for each copy (queue + tx + prop).
    sim::Duration arrival_offset[2]{0, 0};
  };

  // Serialization backlog a message enqueued now in direction `dir` would
  // wait behind (0 when the wire is idle). Lets the owner implement
  // finite buffers: real store-and-forward servers tail-drop rather than
  // queue unboundedly.
  [[nodiscard]] sim::Duration queue_backlog(int dir,
                                            sim::TimePoint now) const {
    return next_free_[dir] > now ? next_free_[dir] - now : 0;
  }

  // Wire time direction `dir` has spent transmitting up to `now`. The
  // wire is busy without a break over [now, next free), so that backlog
  // is exactly the part of the booked time still to come.
  [[nodiscard]] sim::Duration wire_time(int dir, sim::TimePoint now) const {
    return booked_[dir] - queue_backlog(dir, now);
  }

  // Attempts to transmit `bytes` of payload in direction `dir` at time
  // `now`. Precondition: up(). Occupies the wire even for copies that are
  // lost (the bits were sent; they just never arrived).
  TxResult transmit(std::size_t bytes, int dir, sim::TimePoint now);

 private:
  const topo::LinkSpec* spec_;
  std::size_t overhead_bytes_;
  bool up_{true};
  sim::TimePoint next_free_[2]{0, 0};
  sim::Duration booked_[2]{0, 0};  // wire time ever queued per direction
  util::Rng rng_;
};

}  // namespace rbcast::net
