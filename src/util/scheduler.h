// Scheduler — the abstract clock-and-timer surface the protocol runs on.
//
// BroadcastHost and the comparison protocols need exactly three services
// from their runtime: the current time, one-shot timers, and timer
// cancellation. This interface captures those three and nothing else, so
// the protocol layer (src/core) does not depend on the discrete-event
// simulator: sim::Simulator implements Scheduler for simulated runs, and a
// future real-socket backend implements it with wall-clock timers — the
// Transport extraction planned in ROADMAP.md. rbcast_analyze enforces the
// resulting layer boundary (core must not include sim/ headers).
//
// PeriodicTask, the self-rescheduling activity wrapper the paper's
// "periodically activated" procedures use, lives here too because it needs
// only the Scheduler surface.
#pragma once

#include <cstdint>
#include <functional>

#include "util/time.h"

namespace rbcast::util {

class Rng;

// Handle to a scheduled (pending) timer. Value 0 is "no timer".
struct EventId {
  std::uint64_t value{0};
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

class Scheduler {
 public:
  using Action = std::function<void()>;

  virtual ~Scheduler() = default;

  [[nodiscard]] virtual TimePoint now() const = 0;

  // Schedules `action` to fire `d` ticks from now (d >= 0). Returns a
  // handle usable with cancel().
  virtual EventId after(Duration d, Action action) = 0;

  // Cancels a pending timer; false if it already fired.
  virtual bool cancel(EventId id) = 0;
};

// A self-rescheduling periodic activity (the paper's "periodically
// activated" procedures: attachment, INFO exchange, gap filling).
//
// The first firing can be offset (jittered) so that hosts do not act in
// lock-step; after that the task fires every `period` ticks until stopped
// or destroyed. Destroying the task cancels the pending event (RAII).
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& scheduler, Duration period,
               std::function<void()> action);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // Arms the task; the first firing happens `first_delay` from now.
  void start(Duration first_delay);
  void stop();

  [[nodiscard]] bool running() const { return pending_.valid(); }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void fire();

  Scheduler& scheduler_;
  const Duration period_;
  std::function<void()> action_;
  EventId pending_{};
};

// The phase offset for a periodic task's first firing: uniform in
// [0, period), drawn from the caller's named stream. This is THE jitter
// policy for both schedulers — protocols pass the result to
// PeriodicTask::start() whether they run under sim::Simulator or
// util::RealTimeScheduler, so sim and real runs de-phase identically for
// the same seed. Exactly one uniform_int draw per call (the sequence pin
// in real_time_scheduler_test relies on this).
[[nodiscard]] Duration phase_jitter(Rng& rng, Duration period);

}  // namespace rbcast::util
