// rbcast_top — fleet-wide live view over node admin endpoints.
//
// Polls each endpoint's /status document (the JSON twin of /metrics —
// trace::parse_status_json is the only wire dependency) and renders an
// aggregated table: per-endpoint host counts, readiness, delivery
// throughput, p99 delivery latency derived from histogram deltas between
// polls, batch amortization (frames per datagram) and orphan/leader
// counts. One row per endpoint plus a fleet summary row.
//
// Modes:
//   * interactive (default): clear-and-redraw every --interval-s;
//   * --once: one poll, one render, exit 0 iff every endpoint answered;
//   * --json (with --once the CI shape): machine-readable aggregate.
//
// Strictly an observer: nothing here can write to a node — the admin
// plane serves GETs only.
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "parse_number.h"
#include "trace/exposition.h"
#include "util/json.h"
#include "util/table.h"

using namespace rbcast;

namespace {

struct Options {
  std::vector<std::string> endpoints;  // "host:port" or "port" (localhost)
  std::string endpoints_file;
  double interval_s = 2.0;
  int timeout_ms = 2000;
  bool once = false;
  bool json = false;
};

void usage() {
  std::cout <<
      "rbcast_top — live fleet view over rbcast_node admin endpoints\n\n"
      "usage: rbcast_top [options] ENDPOINT...\n"
      "  ENDPOINT              host:port, or a bare port (127.0.0.1)\n"
      "  --endpoints-file F    read endpoints (one per line, # comments)\n"
      "  --interval-s T        refresh period (default 2)\n"
      "  --timeout-ms N        per-request timeout (default 2000)\n"
      "  --once                poll once, print, exit (0 iff all answered)\n"
      "  --json                machine-readable aggregate instead of the\n"
      "                        table (--once --json is the CI shape)\n"
      "  --help                this text\n";
}

bool parse(int argc, char** argv, Options& options) {
  const tools::ArgReader args{argc, argv};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--once") {
      options.once = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--endpoints-file") {
      if ((value = args.value(i)) == nullptr) return false;
      options.endpoints_file = value;
    } else if (arg == "--interval-s") {
      if (!args.number(i, options.interval_s)) return false;
    } else if (arg == "--timeout-ms") {
      if (!args.number(i, options.timeout_ms)) return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << " (try --help)\n";
      return false;
    } else {
      options.endpoints.push_back(arg);
    }
  }
  if (!(options.interval_s > 0) || options.timeout_ms <= 0) {
    std::cerr << "--interval-s and --timeout-ms must be positive\n";
    return false;
  }
  if (!options.endpoints_file.empty()) {
    std::ifstream in(options.endpoints_file);
    if (!in) {
      std::cerr << "cannot open " << options.endpoints_file << "\n";
      return false;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream trim(line);
      std::string token;
      if (trim >> token) options.endpoints.push_back(token);
    }
  }
  if (options.endpoints.empty()) {
    std::cerr << "no endpoints given (try --help)\n";
    return false;
  }
  return true;
}

// "host:port" / bare "port" -> (host, port-string).
std::pair<std::string, std::string> split_endpoint(const std::string& ep) {
  const std::size_t colon = ep.rfind(':');
  if (colon == std::string::npos) return {"127.0.0.1", ep};
  return {ep.substr(0, colon), ep.substr(colon + 1)};
}

// Minimal HTTP GET with a wall-clock budget: nonblocking connect +
// poll-paced write/read until EOF. Returns the response body iff the
// status line says 200.
std::optional<std::string> http_get(const std::string& endpoint,
                                    const std::string& path, int timeout_ms,
                                    std::string& error) {
  const auto [host, port] = split_endpoint(endpoint);

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    error = "cannot resolve " + endpoint;
    return std::nullopt;
  }
  const int fd = ::socket(res->ai_family, SOCK_NONBLOCK | SOCK_STREAM, 0);
  if (fd < 0) {
    ::freeaddrinfo(res);
    error = "socket() failed";
    return std::nullopt;
  }
  int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  auto fail = [&](const std::string& what) {
    ::close(fd);
    error = what;
    return std::nullopt;
  };
  if (rc != 0 && errno != EINPROGRESS) return fail("connect failed");
  pollfd pfd{fd, POLLOUT, 0};
  if (rc != 0) {
    if (::poll(&pfd, 1, timeout_ms) <= 0) return fail("connect timeout");
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      return fail("connection refused");
    }
  }

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = ::write(fd, request.data() + written,
                              request.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pfd.events = POLLOUT;
      if (::poll(&pfd, 1, timeout_ms) <= 0) return fail("write timeout");
      continue;
    }
    return fail("write failed");
  }

  std::string response;
  while (true) {
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;  // EOF: Connection: close semantics
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pfd.events = POLLIN;
      if (::poll(&pfd, 1, timeout_ms) <= 0) return fail("read timeout");
      continue;
    }
    return fail("read failed");
  }
  ::close(fd);

  const std::size_t eol = response.find("\r\n");
  if (eol == std::string::npos) {
    error = "malformed response";
    return std::nullopt;
  }
  if (response.compare(0, 5, "HTTP/") != 0 ||
      response.substr(0, eol).find(" 200 ") == std::string::npos) {
    error = "HTTP error: " + response.substr(0, eol);
    return std::nullopt;
  }
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    error = "no body";
    return std::nullopt;
  }
  return response.substr(body + 4);
}

// One endpoint's numbers after a poll.
struct Sample {
  bool reachable{false};
  std::string error;
  bool ready{false};
  std::uint64_t hosts{0};
  std::uint64_t converged_hosts{0};  // info_count == messages_expected
  std::uint64_t deliveries{0};
  std::uint64_t orphans{0};
  std::uint64_t leaders{0};
  std::uint64_t decode_errors{0};
  std::uint64_t auth_rejects{0};
  std::int64_t messages_expected{0};
  double now_s{0};
  // delivery.latency_seconds, summed across label sets.
  std::vector<double> lat_bounds;
  std::vector<std::uint64_t> lat_cumulative;
  std::uint64_t lat_count{0};
  // Coalescer amortization inputs.
  std::uint64_t frames_enqueued{0};
  std::uint64_t batches_flushed{0};
};

Sample poll_endpoint(const std::string& endpoint, int timeout_ms) {
  Sample s;
  std::string error;
  const std::optional<std::string> body =
      http_get(endpoint, "/status", timeout_ms, error);
  if (!body) {
    s.error = error;
    return s;
  }
  trace::StatusDoc doc;
  try {
    doc = trace::parse_status_json(*body);
  } catch (const std::exception& e) {
    s.error = e.what();
    return s;
  }
  s.reachable = true;
  s.ready = doc.ready;
  s.now_s = doc.now_s;
  s.messages_expected = doc.messages_expected;
  s.hosts = doc.hosts.size();
  for (const trace::HostStatus& h : doc.hosts) {
    if (h.info_count ==
        static_cast<std::uint64_t>(doc.messages_expected)) {
      ++s.converged_hosts;
    }
    s.deliveries += h.deliveries;
    s.decode_errors += h.decode_errors;
    s.auth_rejects += h.auth_rejects;
    if (h.orphan) ++s.orphans;
    if (h.leader) ++s.leaders;
  }
  for (const util::MetricSnapshot& m : doc.metrics) {
    if (m.kind == util::MetricSnapshot::Kind::kHistogram &&
        m.name == "delivery.latency_seconds") {
      if (s.lat_bounds.empty()) {
        s.lat_bounds = m.bounds;
        s.lat_cumulative.assign(m.bounds.size(), 0);
      }
      if (m.bounds == s.lat_bounds) {
        for (std::size_t i = 0; i < m.cumulative.size(); ++i) {
          s.lat_cumulative[i] += m.cumulative[i];
        }
        s.lat_count += m.count;
      }
    } else if (m.kind == util::MetricSnapshot::Kind::kCounter) {
      if (m.name == "transport.frame_decode_errors") {
        s.decode_errors += m.counter;
      } else if (m.name == "transport.coalescer.frames_enqueued") {
        s.frames_enqueued += m.counter;
      } else if (m.name == "transport.coalescer.batches_flushed") {
        s.batches_flushed += m.counter;
      }
    }
  }
  return s;
}

// p99 from bucket counts: the upper bound of the first bucket covering
// the 99th percentile (NaN when empty, +inf above the last bound).
double histogram_p99(const std::vector<double>& bounds,
                     const std::vector<std::uint64_t>& cumulative,
                     std::uint64_t count) {
  if (count == 0 || bounds.empty()) return std::nan("");
  const auto target =
      static_cast<std::uint64_t>(std::ceil(0.99 * static_cast<double>(count)));
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (cumulative[i] >= target) return bounds[i];
  }
  return std::numeric_limits<double>::infinity();
}

std::string fmt_ms(double seconds) {
  if (std::isnan(seconds)) return "-";
  if (std::isinf(seconds)) return "inf";
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << seconds * 1e3;
  return os.str();
}

std::string fmt_ratio(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(2)
     << static_cast<double>(num) / static_cast<double>(den);
  return os.str();
}

// A never-reached placeholder for "no previous sample".
const Sample kNoSample{};

// The whole-fleet aggregate of one polling round.
struct Fleet {
  std::uint64_t reachable{0};
  bool all_ready{true};
  Sample sum;  // totals across endpoints (lat_* merged when bounds agree)
};

Fleet aggregate(const std::vector<Sample>& samples) {
  Fleet f;
  for (const Sample& s : samples) {
    if (!s.reachable) {
      f.all_ready = false;
      continue;
    }
    ++f.reachable;
    f.all_ready = f.all_ready && s.ready;
    f.sum.hosts += s.hosts;
    f.sum.converged_hosts += s.converged_hosts;
    f.sum.deliveries += s.deliveries;
    f.sum.orphans += s.orphans;
    f.sum.leaders += s.leaders;
    f.sum.decode_errors += s.decode_errors;
    f.sum.auth_rejects += s.auth_rejects;
    f.sum.frames_enqueued += s.frames_enqueued;
    f.sum.batches_flushed += s.batches_flushed;
    if (s.lat_bounds.empty()) continue;
    if (f.sum.lat_bounds.empty()) {
      f.sum.lat_bounds = s.lat_bounds;
      f.sum.lat_cumulative.assign(s.lat_bounds.size(), 0);
    }
    if (s.lat_bounds == f.sum.lat_bounds) {
      for (std::size_t i = 0; i < s.lat_cumulative.size(); ++i) {
        f.sum.lat_cumulative[i] += s.lat_cumulative[i];
      }
      f.sum.lat_count += s.lat_count;
    }
  }
  return f;
}

// Latency distribution accrued between two polls: p99 over the bucket
// deltas. On the first round `prev` is empty, so the delta is the
// cumulative total — exactly right for --once.
double delta_p99(const Sample& prev, const Sample& cur) {
  if (prev.lat_bounds != cur.lat_bounds || prev.lat_bounds.empty()) {
    return histogram_p99(cur.lat_bounds, cur.lat_cumulative, cur.lat_count);
  }
  std::vector<std::uint64_t> delta(cur.lat_cumulative.size(), 0);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = cur.lat_cumulative[i] - prev.lat_cumulative[i];
  }
  return histogram_p99(cur.lat_bounds, delta, cur.lat_count - prev.lat_count);
}

void render_table(const Options& options, const std::vector<Sample>& current,
                  const std::vector<Sample>& previous, double dt_s) {
  const Fleet fleet = aggregate(current);
  const Fleet fleet_prev = aggregate(previous);

  std::cout << "rbcast_top — " << options.endpoints.size() << " endpoint(s), "
            << fleet.sum.hosts << " hosts, "
            << fleet.sum.converged_hosts << " converged, fleet "
            << (fleet.reachable == options.endpoints.size() && fleet.all_ready
                    ? "READY"
                    : "not ready")
            << "\n\n";

  util::Table table({"endpoint", "hosts", "ready", "deliv", "deliv/s",
                     "p99_ms", "fr/dgram", "orph", "lead", "decode_err",
                     "auth.rejects"});
  auto rate_cell = [&](std::uint64_t cur, std::uint64_t prev,
                       bool have_prev) -> std::string {
    if (dt_s <= 0 || !have_prev) return "-";
    std::ostringstream os;
    os << std::fixed << std::setprecision(1)
       << static_cast<double>(cur - prev) / dt_s;
    return os.str();
  };
  for (std::size_t i = 0; i < current.size(); ++i) {
    const Sample& s = current[i];
    if (!s.reachable) {
      table.row().cell(options.endpoints[i]).cell("-").cell(
          "DOWN: " + s.error);
      for (int c = 0; c < 8; ++c) table.cell("-");
      continue;
    }
    const Sample& p = i < previous.size() ? previous[i] : kNoSample;
    table.row()
        .cell(options.endpoints[i])
        .cell(s.hosts)
        .cell(s.ready ? "yes" : "no")
        .cell(s.deliveries)
        .cell(rate_cell(s.deliveries, p.deliveries, p.reachable))
        .cell(fmt_ms(delta_p99(p, s)))
        .cell(fmt_ratio(s.frames_enqueued, s.batches_flushed))
        .cell(s.orphans)
        .cell(s.leaders)
        .cell(s.decode_errors)
        .cell(s.auth_rejects);
  }
  if (current.size() > 1) {
    table.row()
        .cell("fleet")
        .cell(fleet.sum.hosts)
        .cell(fleet.all_ready ? "yes" : "no")
        .cell(fleet.sum.deliveries)
        .cell(rate_cell(fleet.sum.deliveries, fleet_prev.sum.deliveries,
                        !previous.empty()))
        .cell(fmt_ms(delta_p99(fleet_prev.sum, fleet.sum)))
        .cell(fmt_ratio(fleet.sum.frames_enqueued, fleet.sum.batches_flushed))
        .cell(fleet.sum.orphans)
        .cell(fleet.sum.leaders)
        .cell(fleet.sum.decode_errors)
        .cell(fleet.sum.auth_rejects);
  }
  table.print(std::cout);
  std::cout << std::flush;
}

void render_json(const Options& options, const std::vector<Sample>& current,
                 const std::vector<Sample>& previous) {
  const Fleet fleet = aggregate(current);
  const Fleet fleet_prev = aggregate(previous);
  std::ostringstream os;
  os << "{\"endpoints\":[";
  for (std::size_t i = 0; i < current.size(); ++i) {
    const Sample& s = current[i];
    if (i > 0) os << ",";
    os << "{\"endpoint\":";
    util::write_json_string(os, options.endpoints[i]);
    os << ",\"reachable\":" << (s.reachable ? "true" : "false")
       << ",\"ready\":" << (s.ready ? "true" : "false")
       << ",\"hosts\":" << s.hosts
       << ",\"converged_hosts\":" << s.converged_hosts
       << ",\"deliveries\":" << s.deliveries << ",\"orphans\":" << s.orphans
       << ",\"leaders\":" << s.leaders
       << ",\"decode_errors\":" << s.decode_errors
       << ",\"auth_rejects\":" << s.auth_rejects << "}";
  }
  os << "],\"fleet\":{\"endpoints\":" << options.endpoints.size()
     << ",\"reachable\":" << fleet.reachable
     << ",\"hosts\":" << fleet.sum.hosts
     << ",\"converged_hosts\":" << fleet.sum.converged_hosts
     << ",\"converged\":"
     << (fleet.reachable == options.endpoints.size() && fleet.all_ready
             ? "true"
             : "false")
     << ",\"deliveries\":" << fleet.sum.deliveries
     << ",\"orphans\":" << fleet.sum.orphans
     << ",\"leaders\":" << fleet.sum.leaders
     << ",\"decode_errors\":" << fleet.sum.decode_errors
     << ",\"auth_rejects\":" << fleet.sum.auth_rejects
     << ",\"p99_s\":";
  util::write_json_number(os, delta_p99(fleet_prev.sum, fleet.sum));
  os << ",\"frames_per_datagram\":";
  if (fleet.sum.batches_flushed == 0) {
    os << "null";
  } else {
    util::write_json_number(os,
                            static_cast<double>(fleet.sum.frames_enqueued) /
                                static_cast<double>(fleet.sum.batches_flushed));
  }
  os << "}}";
  std::cout << os.str() << "\n" << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return 2;

  std::vector<Sample> previous;
  double prev_at_ms = 0;
  while (true) {
    std::vector<Sample> current;
    current.reserve(options.endpoints.size());
    for (const std::string& ep : options.endpoints) {
      current.push_back(poll_endpoint(ep, options.timeout_ms));
    }
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    const double now_ms =
        static_cast<double>(ts.tv_sec) * 1e3 +
        static_cast<double>(ts.tv_nsec) / 1e6;
    const double dt_s =
        previous.empty() ? 0 : (now_ms - prev_at_ms) / 1e3;

    if (options.json) {
      render_json(options, current, previous);
    } else {
      if (!options.once) std::cout << "\x1b[H\x1b[2J";  // clear, home
      render_table(options, current, previous, dt_s);
    }

    if (options.once) {
      for (const Sample& s : current) {
        if (!s.reachable) return 1;
      }
      return 0;
    }
    previous = std::move(current);
    prev_at_ms = now_ms;
    ::poll(nullptr, 0, static_cast<int>(options.interval_s * 1e3));
  }
}
