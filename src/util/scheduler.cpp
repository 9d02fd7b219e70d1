#include "util/scheduler.h"

#include <algorithm>

#include "util/assert.h"
#include "util/rng.h"

namespace rbcast::util {

PeriodicTask::PeriodicTask(Scheduler& scheduler, Duration period,
                           std::function<void()> action)
    : scheduler_(scheduler), period_(period), action_(std::move(action)) {
  RBCAST_CHECK_ARG(period > 0, "periodic task needs a positive period");
  RBCAST_CHECK_ARG(action_ != nullptr, "periodic task needs an action");
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start(Duration first_delay) {
  RBCAST_ASSERT_MSG(!pending_.valid(), "task already running");
  RBCAST_ASSERT(first_delay >= 0);
  pending_ = scheduler_.after(first_delay, [this] { fire(); });
}

void PeriodicTask::stop() {
  if (pending_.valid()) {
    scheduler_.cancel(pending_);
    pending_ = EventId{};
  }
}

void PeriodicTask::fire() {
  // Reschedule before running the action so the action may stop() us.
  pending_ = scheduler_.after(period_, [this] { fire(); });
  action_();
}

Duration phase_jitter(Rng& rng, Duration period) {
  // max() keeps the degenerate period == 1 (or 0) case a valid draw range;
  // the formula predates this helper, so seeded draw sequences are
  // unchanged by the extraction.
  return rng.uniform_int(0, std::max<Duration>(period - 1, 0));
}

}  // namespace rbcast::util
