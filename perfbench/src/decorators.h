// Forwarding decorators for the traced run.
//
// Each wraps one public seam of a layer, forwards every call unchanged
// and opens a tracer span around it, so the traced run executes exactly
// the calls the untraced one does (the faithfulness check in main.cpp
// holds it to that):
//
//   TracingTransport        transport::Transport — wraps the DeliveryFn
//                           handed to attach() (core.upcall span), the
//                           HostEndpoint it returns (transport.send span)
//                           and the scheduler hosts run their timers on
//                           (core.timer span around every firing).
//   TracingNetObserver      net::NetObserver in front of trace::Metrics.
//   TracingProtocolObserver core::ProtocolObserver in front of EventLog.
//
// TracingTransport also counts the frames that cross it into TraceCounts,
// and TracingNetObserver keeps every queue backlog: trace::Metrics keeps
// only their mean and maximum per server, not a percentile.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol_observer.h"
#include "net/message.h"
#include "tracer.h"
#include "transport/transport.h"
#include "util/scheduler.h"
#include "util/stats.h"

namespace perfbench {

using rbcast::HostId;

struct TraceCounts {
  // Frames hosts handed to HostEndpoint::send, and the INFO share of them.
  std::uint64_t frames{0};
  std::uint64_t frame_bytes{0};
  std::uint64_t info_frames{0};
  std::uint64_t info_bytes{0};
  // Upcalls carrying a DataMsg (first receipts, duplicates and rejects).
  std::uint64_t data_received{0};
  // Every NetObserver::on_queue_backlog, in seconds.
  rbcast::util::Samples queue_backlog_s;
  // Simulator::step() calls that fired a scenario event, and the largest
  // pending-event count seen between steps.
  std::uint64_t sim_events{0};
  std::size_t pending_peak{0};
};

class TracingScheduler final : public rbcast::util::Scheduler {
 public:
  TracingScheduler(rbcast::util::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] rbcast::util::TimePoint now() const override {
    return inner_.now();
  }
  rbcast::util::EventId after(rbcast::util::Duration d,
                              Action action) override;
  bool cancel(rbcast::util::EventId id) override { return inner_.cancel(id); }

 private:
  rbcast::util::Scheduler& inner_;
  Tracer& tracer_;
};

class TracingEndpoint final : public rbcast::net::HostEndpoint {
 public:
  TracingEndpoint(rbcast::net::HostEndpoint& inner, Tracer& tracer,
                  TraceCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  [[nodiscard]] HostId self() const override { return inner_.self(); }
  void send(HostId to, std::any payload, std::size_t bytes, std::string kind,
            rbcast::net::TraceId trace_id) override;

 private:
  rbcast::net::HostEndpoint& inner_;
  Tracer& tracer_;
  TraceCounts& counts_;
};

class TracingTransport final : public rbcast::transport::Transport {
 public:
  TracingTransport(rbcast::transport::Transport& inner, Tracer& tracer,
                   TraceCounts& counts)
      : inner_(inner),
        tracer_(tracer),
        counts_(counts),
        scheduler_(inner.scheduler(), tracer) {}

  [[nodiscard]] rbcast::util::Scheduler& scheduler() override {
    return scheduler_;
  }
  rbcast::net::HostEndpoint& attach(HostId host,
                                    rbcast::net::DeliveryFn deliver) override;
  void detach(HostId host) override { inner_.detach(host); }

 private:
  rbcast::transport::Transport& inner_;
  Tracer& tracer_;
  TraceCounts& counts_;
  TracingScheduler scheduler_;
  std::vector<std::unique_ptr<TracingEndpoint>> endpoints_;
};

class TracingNetObserver final : public rbcast::net::NetObserver {
 public:
  TracingNetObserver(rbcast::net::NetObserver& inner, Tracer& tracer,
                     TraceCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  void on_host_send(const rbcast::net::Delivery& d) override;
  void on_deliver(const rbcast::net::Delivery& d) override;
  void on_drop(const rbcast::net::Delivery& d,
               rbcast::net::DropReason reason) override;
  void on_link_transmit(rbcast::LinkId link,
                        const rbcast::net::Delivery& d) override;
  void on_queue_backlog(rbcast::ServerId server, rbcast::LinkId link,
                        rbcast::util::Duration backlog) override;

 private:
  rbcast::net::NetObserver& inner_;
  Tracer& tracer_;
  TraceCounts& counts_;
};

class TracingProtocolObserver final : public rbcast::core::ProtocolObserver {
 public:
  TracingProtocolObserver(rbcast::core::ProtocolObserver& inner,
                          Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_attach_requested(HostId host, HostId candidate,
                           const std::string& rule) override;
  void on_attached(HostId host, HostId parent) override;
  void on_detached(HostId host, HostId old_parent, bool timeout) override;
  void on_cycle_broken(HostId host) override;
  void on_attach_timeout(HostId host, HostId candidate) override;
  void on_new_max_rejected(HostId host, HostId from,
                           rbcast::util::Seq seq) override;
  void on_delivered(HostId host, rbcast::util::Seq seq) override;
  void on_gapfill_offered(HostId host, HostId to,
                          rbcast::util::Seq seq) override;
  void on_gapfill_accepted(HostId host, HostId from,
                           rbcast::util::Seq seq) override;
  void on_gapfill_relayed(HostId host, HostId to,
                          rbcast::util::Seq seq) override;

 private:
  rbcast::core::ProtocolObserver& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
