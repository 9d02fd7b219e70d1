#include "net/link.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::net {

LinkState::LinkState(const topo::LinkSpec& spec, util::Rng rng,
                     std::size_t overhead_bytes)
    : spec_(&spec), overhead_bytes_(overhead_bytes), rng_(rng) {}

LinkState::TxResult LinkState::transmit(std::size_t bytes, int dir,
                                        sim::TimePoint now) {
  RBCAST_ASSERT_MSG(up_, "transmit on a down link");
  RBCAST_ASSERT(dir == 0 || dir == 1);

  TxResult r;
  r.tx_time = spec_->transmission_time(bytes + overhead_bytes_);

  const sim::TimePoint start = std::max(now, next_free_[dir]);
  r.queue_wait = start - now;
  next_free_[dir] = start + r.tx_time;
  booked_[dir] += r.tx_time;

  if (rng_.chance(spec_->params.loss_probability)) {
    r.copies = 0;  // the wire was busy, but nothing arrives
    return r;
  }
  r.copies = rng_.chance(spec_->params.duplication_probability) ? 2 : 1;

  const sim::Duration base =
      r.queue_wait + r.tx_time + spec_->params.propagation_delay;
  r.arrival_offset[0] = base;
  if (r.copies == 2) {
    // The duplicate trails the original by one extra transmission slot.
    next_free_[dir] += r.tx_time;
    booked_[dir] += r.tx_time;
    r.arrival_offset[1] = base + r.tx_time;
  }
  return r;
}

}  // namespace rbcast::net
