// AdminServer — the node's out-of-band observation socket.
//
// A minimal HTTP/1.1 GET server bound to 127.0.0.1 (never a routable
// address) and driven entirely by util::RealTimeScheduler's poll loop: no
// threads, no blocking calls, so protocol timers and admin requests
// interleave on the one event loop rbcast_node already runs. The node
// registers a handler per path — /metrics (Prometheus text), /status
// (JSON snapshot), /healthz (convergence-aware readiness) — and the
// server does the transport: accept, buffered nonblocking reads with a
// request-size cap and an idle deadline, defensive request-line parsing,
// and chunk-at-a-time nonblocking writes.
//
// Hostile-input contract: a malformed, oversized, slow or half-closed
// request must never take the node down — it is answered with a 4xx/5xx
// or the connection is dropped, and the failure is counted in Stats.
// Handler exceptions become 500s for the same reason.
//
// The admin plane is strictly out of band: it shares no socket, codec or
// state with the protocol's wire format (PROTOCOL.md §13) and only reads
// what the handlers expose.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "util/real_time_scheduler.h"

namespace rbcast::trace {

class AdminServer {
 public:
  struct Response {
    int status{200};
    std::string content_type{"text/plain; charset=utf-8"};
    std::string body;
  };
  using Handler = std::function<Response()>;

  struct Stats {
    std::uint64_t connections{0};
    std::uint64_t requests{0};      // well-formed GETs routed to a handler
    std::uint64_t bad_requests{0};  // parse failures, caps, non-GET
    std::uint64_t not_found{0};
    std::uint64_t handler_errors{0};  // handler threw -> 500
    std::uint64_t timeouts{0};        // idle connections dropped
  };

  // Binds 127.0.0.1:`port` (0 = ephemeral; read the result back with
  // port()). Throws std::runtime_error when the socket cannot be bound.
  // `scheduler` must outlive this object.
  AdminServer(util::RealTimeScheduler& scheduler, std::uint16_t port);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Registers `handler` for exact-match `path` (query strings are stripped
  // before matching). Re-registering a path replaces the handler.
  void handle(const std::string& path, Handler handler);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }

 private:
  struct Conn {
    std::string in;        // bytes read so far (capped)
    std::string out;       // encoded response
    std::size_t written{0};
    bool responding{false};  // request parsed, now draining `out`
    util::EventId idle_timer{};
  };

  void on_acceptable();
  void on_readable(int fd);
  void process_request(int fd, Conn& conn);
  void start_response(int fd, Conn& conn, const Response& response);
  void continue_write(int fd);
  void close_conn(int fd);
  void arm_idle_timer(int fd, Conn& conn);

  util::RealTimeScheduler& scheduler_;
  int listen_fd_{-1};
  std::uint16_t port_{0};
  // Ordered (deterministic iteration); keyed by connection fd.
  std::map<int, Conn> conns_;
  std::map<std::string, Handler> handlers_;
  Stats stats_;
};

}  // namespace rbcast::trace
