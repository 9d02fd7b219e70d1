// rbcast_node — the protocol over real UDP sockets.
//
// Runs BroadcastHost instances on util::RealTimeScheduler +
// transport::UdpTransport: the same protocol automaton the simulator
// drives, now on the wall clock against real (localhost or LAN) datagram
// sockets. A JSON config names every host's address; one process can run
// a single host (`--host N`, one process per machine — the deployment
// shape) or the whole topology (`--all-hosts` — the integration-test
// shape, where port 0 entries bind ephemeral ports).
//
// The run streams `messages` broadcasts from the source, then waits for
// every locally hosted instance to hold the full sequence set; exit 0 on
// convergence before the deadline, 1 otherwise. With --trace-out the run
// emits the same JSONL schema as rbcast_sim, so
// `rbcast_trace --compare sim.jsonl real.jsonl` diffs a simulated and a
// real run of one workload.
//
// Config example (tests/data/node_32.json is the CI one):
//   {
//     "hosts": [{"id": 0, "addr": "127.0.0.1", "port": 0}, ...],
//     "source": 0, "seed": 1,
//     "messages": 20, "interval_ms": 100, "run_s": 30,
//     "impairment": {"loss": 0.05, "duplicate": 0.02, "reorder": 0.1,
//                    "delay_max_ms": 10, "seed": 7},
//     "protocol": {"attach_period_ms": 200, "info_intra_ms": 100,
//                  "batch_flush_ms": 2, "batch_max_bytes": 1200, ...}
//   }
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/wire_codec.h"
#include "parse_number.h"
#include "trace/admin_server.h"
#include "trace/event_log.h"
#include "trace/exposition.h"
#include "trace/metric_sampler.h"
#include "trace/net_tap.h"
#include "trace/trace_sink.h"
#include "transport/udp_transport.h"
#include "transport/wire.h"
#include "util/json.h"
#include "util/metrics_registry.h"
#include "util/real_time_scheduler.h"
#include "util/rng.h"

using namespace rbcast;

namespace {

constexpr const char* kContext = "node config";

struct NodeConfig {
  std::vector<transport::UdpTransport::Peer> peers;
  HostId source{0};
  std::uint64_t seed{1};
  int messages{20};
  util::Duration interval{util::milliseconds(100)};
  util::Duration run_for{util::seconds(30)};
  int admin_port{-1};  // <0 = no admin endpoint; 0 = ephemeral
  transport::ImpairmentConfig impairment;
  core::Config protocol;
};

struct CliOptions {
  std::string config_path;
  std::int32_t host = -1;  // --host N; -1 = --all-hosts
  bool all_hosts = false;
  std::string trace_out;
  std::optional<double> run_s;        // unset: take the config's value
  std::optional<std::uint64_t> seed;  // unset: take the config's value
  int admin_port = -2;                // -2: take the config's value
  std::string admin_port_file;  // write the bound port here (scripts)
  double linger_s = 0;          // keep serving admin after the run ends
};

// Reads a millisecond count into a Duration, falling back to `fallback`
// when the key is absent.
util::Duration ms_or(const util::Json& obj, const char* key,
                     util::Duration fallback) {
  const double ms = util::json_num_or(obj, key, util::to_seconds(fallback) *
                                                    1e3, kContext);
  return util::from_seconds(ms / 1e3);
}

// The largest body whose DATA frame still fits one datagram: a gap fill
// (the longer kind label) without a piggybacked INFO set or a tag.
std::size_t max_data_bytes() {
  const core::ProtocolMessage fill{core::DataMsg{1, "", true, {}, {}}};
  return transport::kMaxDatagramBytes - transport::kFrameHeaderBytes -
         std::strlen(core::kind_of(fill)) - core::encode_message(fill).size();
}

NodeConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::Json root = util::parse_json(buffer.str(), kContext);

  NodeConfig cfg;
  const util::Json* hosts = root.find("hosts");
  if (hosts == nullptr || hosts->type != util::Json::Type::kArray ||
      hosts->items.empty()) {
    throw std::invalid_argument(
        std::string(kContext) + ": 'hosts' must be a non-empty array");
  }
  for (const util::Json& h : hosts->items) {
    transport::UdpTransport::Peer peer;
    const int id = util::json_int_or(h, "id", -1, kContext);
    if (id < 0) {
      throw std::invalid_argument(std::string(kContext) +
                                  ": every host needs a non-negative 'id'");
    }
    peer.host = HostId{id};
    peer.addr = util::json_str_or(h, "addr", "127.0.0.1", kContext);
    const int port = util::json_int_or(h, "port", 0, kContext);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument(std::string(kContext) +
                                  ": 'port' out of range");
    }
    peer.port = static_cast<std::uint16_t>(port);
    cfg.peers.push_back(peer);
  }

  cfg.source = HostId{util::json_int_or(root, "source", 0, kContext)};
  cfg.seed = util::json_u64_or(root, "seed", 1, kContext);
  cfg.messages = util::json_int_or(root, "messages", 20, kContext);
  cfg.interval = ms_or(root, "interval_ms", cfg.interval);
  cfg.run_for = util::from_seconds(
      util::json_num_or(root, "run_s", 30, kContext));
  cfg.admin_port = util::json_int_or(root, "admin_port", -1, kContext);
  if (cfg.admin_port > 65535) {
    throw std::invalid_argument(std::string(kContext) +
                                ": 'admin_port' out of range");
  }

  if (const util::Json* imp = root.find("impairment"); imp != nullptr) {
    cfg.impairment.loss = util::json_num_or(*imp, "loss", 0, kContext);
    cfg.impairment.duplicate =
        util::json_num_or(*imp, "duplicate", 0, kContext);
    cfg.impairment.reorder = util::json_num_or(*imp, "reorder", 0, kContext);
    cfg.impairment.delay_max =
        ms_or(*imp, "delay_max_ms", cfg.impairment.delay_max);
    cfg.impairment.seed = util::json_u64_or(*imp, "seed", 0, kContext);
  }

  // Real-time defaults are much tighter than the simulator's: a localhost
  // test must converge in wall seconds, not virtual minutes. Every period
  // is still overridable per config.
  core::Config& p = cfg.protocol;
  p.attach_period = util::milliseconds(200);
  p.info_period_intra = util::milliseconds(100);
  p.info_period_inter = util::milliseconds(400);
  p.gapfill_period_neighbor = util::milliseconds(200);
  p.gapfill_period_far = util::milliseconds(800);
  p.parent_timeout = util::seconds(2);
  p.attach_ack_timeout = util::milliseconds(300);
  p.child_timeout = util::seconds(6);
  p.gapfill_suppress_period = util::milliseconds(600);
  p.data_bytes = 64;
  if (const util::Json* proto = root.find("protocol"); proto != nullptr) {
    p.attach_period = ms_or(*proto, "attach_period_ms", p.attach_period);
    p.info_period_intra =
        ms_or(*proto, "info_intra_ms", p.info_period_intra);
    p.info_period_inter =
        ms_or(*proto, "info_inter_ms", p.info_period_inter);
    p.gapfill_period_neighbor =
        ms_or(*proto, "gapfill_neighbor_ms", p.gapfill_period_neighbor);
    p.gapfill_period_far =
        ms_or(*proto, "gapfill_far_ms", p.gapfill_period_far);
    p.parent_timeout = ms_or(*proto, "parent_timeout_ms", p.parent_timeout);
    p.attach_ack_timeout =
        ms_or(*proto, "attach_ack_timeout_ms", p.attach_ack_timeout);
    p.child_timeout = ms_or(*proto, "child_timeout_ms", p.child_timeout);
    p.gapfill_suppress_period =
        ms_or(*proto, "gapfill_suppress_ms", p.gapfill_suppress_period);
    // Every DATA frame must fit one datagram: the transport does not
    // fragment, and a larger body would only ever fail to send.
    const int data_bytes = util::json_int_or(
        *proto, "data_bytes", static_cast<int>(p.data_bytes), kContext);
    if (data_bytes < 0 ||
        static_cast<std::size_t>(data_bytes) > max_data_bytes()) {
      throw std::invalid_argument(
          std::string(kContext) + ": 'data_bytes' must be 0.." +
          std::to_string(max_data_bytes()) + " to fit one UDP datagram");
    }
    p.data_bytes = static_cast<std::size_t>(data_bytes);
    // Transport coalescing: batch_flush_ms > 0 buffers outbound frames
    // per destination and flushes multi-frame (wire v2) datagrams.
    p.batch_flush_delay = ms_or(*proto, "batch_flush_ms",
                                p.batch_flush_delay);
    const int batch_max_bytes =
        util::json_int_or(*proto, "batch_max_bytes",
                          static_cast<int>(p.batch_max_bytes), kContext);
    if (batch_max_bytes < 1 ||
        static_cast<std::size_t>(batch_max_bytes) >
            transport::kMaxDatagramBytes) {
      throw std::invalid_argument(
          std::string(kContext) + ": 'batch_max_bytes' must be 1.." +
          std::to_string(transport::kMaxDatagramBytes) +
          " to fit one UDP datagram");
    }
    p.batch_max_bytes = static_cast<std::size_t>(batch_max_bytes);
  }
  return cfg;
}

void usage() {
  std::cout <<
      "rbcast_node — reliable broadcast over real UDP sockets\n\n"
      "usage: rbcast_node --config CONFIG.json (--host N | --all-hosts)\n"
      "                   [--trace-out F] [--run-s T] [--seed N]\n"
      "                   [--admin-port P] [--admin-port-file F]\n"
      "                   [--linger-s T]\n\n"
      "  --config F      JSON topology + workload (see tools/rbcast_node.cpp\n"
      "                  header for the schema)\n"
      "  --host N        run only host N in this process (one process per\n"
      "                  machine; every peer needs a fixed port)\n"
      "  --all-hosts     run the whole topology in this process (integration\n"
      "                  tests; port 0 entries bind ephemeral ports)\n"
      "  --trace-out F   stream a JSONL trace (same schema as rbcast_sim;\n"
      "                  diff the two with rbcast_trace --compare)\n"
      "  --run-s T       override the config's wall-clock deadline\n"
      "  --seed N        override the config's seed\n"
      "  --admin-port P  serve /metrics, /status and /healthz on\n"
      "                  127.0.0.1:P (0 = ephemeral; also the 'admin_port'\n"
      "                  config key). Observation-only, out of band.\n"
      "  --admin-port-file F\n"
      "                  write the bound admin port to F (scripts resolving\n"
      "                  an ephemeral port)\n"
      "  --linger-s T    keep serving the admin endpoint T seconds after\n"
      "                  the run ends (GET /quit ends the linger early)\n"
      "  --help          this text\n\n"
      "Exits 0 when every host in this process delivered the whole stream\n"
      "before the deadline, 1 otherwise.\n";
}

bool parse(int argc, char** argv, CliOptions& options) {
  const tools::ArgReader args{argc, argv};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--all-hosts") {
      options.all_hosts = true;
    } else if (arg == "--config") {
      if ((value = args.value(i)) == nullptr) return false;
      options.config_path = value;
    } else if (arg == "--host") {
      if (!args.number(i, options.host)) return false;
    } else if (arg == "--trace-out") {
      if ((value = args.value(i)) == nullptr) return false;
      options.trace_out = value;
    } else if (arg == "--run-s") {
      if (!args.number(i, options.run_s.emplace())) return false;
    } else if (arg == "--seed") {
      if (!args.number(i, options.seed.emplace())) return false;
    } else if (arg == "--admin-port") {
      if (!args.number(i, options.admin_port)) return false;
    } else if (arg == "--admin-port-file") {
      if ((value = args.value(i)) == nullptr) return false;
      options.admin_port_file = value;
    } else if (arg == "--linger-s") {
      if (!args.number(i, options.linger_s)) return false;
    } else {
      std::cerr << "unknown flag: " << arg << " (try --help)\n";
      return false;
    }
  }
  if (options.config_path.empty()) {
    std::cerr << "--config is required (try --help)\n";
    return false;
  }
  if ((options.run_s && !(*options.run_s > 0)) ||
      options.admin_port > 65535 || !(options.linger_s >= 0)) {
    std::cerr << "--run-s must be positive, --admin-port at most 65535 "
                 "and --linger-s not negative\n";
    return false;
  }
  if (options.all_hosts == (options.host >= 0)) {
    std::cerr << "exactly one of --host N / --all-hosts is required\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse(argc, argv, cli)) return 2;

  NodeConfig cfg;
  try {
    cfg = load_config(cli.config_path);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (cli.run_s) cfg.run_for = util::from_seconds(*cli.run_s);
  if (cli.seed) cfg.seed = *cli.seed;
  if (cli.admin_port != -2) cfg.admin_port = cli.admin_port;

  std::vector<HostId> all_hosts;
  all_hosts.reserve(cfg.peers.size());
  for (const auto& peer : cfg.peers) all_hosts.push_back(peer.host);

  std::vector<HostId> local_hosts;
  if (cli.all_hosts) {
    local_hosts = all_hosts;
  } else {
    const HostId wanted{cli.host};
    for (const HostId h : all_hosts) {
      if (h == wanted) local_hosts.push_back(h);
    }
    if (local_hosts.empty()) {
      std::cerr << "host " << cli.host << " is not in the config's host "
                << "table\n";
      return 2;
    }
  }

  // --- wiring: scheduler -> codec -> transport -> hosts --------------------

  util::RealTimeScheduler scheduler;
  const core::ProtocolCodec codec;
  transport::UdpTransport::Config tcfg;
  tcfg.peers = cfg.peers;
  tcfg.impairment = cfg.impairment;
  tcfg.coalesce = transport::CoalescerConfig{cfg.protocol.batch_flush_delay,
                                             cfg.protocol.batch_max_bytes};

  std::ofstream trace_file;
  std::unique_ptr<trace::JsonlSink> sink;
  if (!cli.trace_out.empty()) {
    trace_file.open(cli.trace_out);
    if (!trace_file) {
      std::cerr << "cannot open " << cli.trace_out << " for writing\n";
      return 2;
    }
    sink = std::make_unique<trace::JsonlSink>(trace_file);
  }

  trace::EventLog events(scheduler);
  std::unique_ptr<trace::NetTap> tap;

  int exit_code = 1;
  try {
    // Declared before the transport and hosts: both register snapshot
    // callbacks and (hosts) unregister in their destructors.
    util::MetricsRegistry registry;
    transport::UdpTransport transport(scheduler, codec, std::move(tcfg));
    transport.register_metrics(registry);

    // Source-broadcast -> local-delivery latency. Fully populated in
    // --all-hosts mode; in --host mode only deliveries on this process's
    // hosts of locally originated broadcasts land here (usually none).
    util::Histogram& delivery_latency = registry.histogram(
        "delivery.latency_seconds", trace::MetricSampler::latency_bounds(),
        "", "Source broadcast to first local delivery, seconds");
    std::map<util::Seq, util::TimePoint> broadcast_at;

    if (sink != nullptr) {
      std::ostringstream topo;
      topo << "udp-" << all_hosts.size() << "-hosts";
      sink->record(trace::run_manifest(cfg.seed, topo.str(), "paper",
                                       trace::describe_config(cfg.protocol)));
      events.set_sink(sink.get());
      tap = std::make_unique<trace::NetTap>(scheduler, *sink);
      transport.set_observer(tap.get());
    }

    util::RngFactory rngs(cfg.seed);
    std::vector<std::unique_ptr<core::BroadcastHost>> hosts;
    hosts.reserve(local_hosts.size());
    for (const HostId h : local_hosts) {
      hosts.push_back(std::make_unique<core::BroadcastHost>(
          transport, h, cfg.source, all_hosts, cfg.protocol,
          rngs.stream("host.jitter", h.value),
          [&](util::Seq seq, std::string_view) {
            const auto it = broadcast_at.find(seq);
            if (it == broadcast_at.end()) return;
            delivery_latency.add(
                util::to_seconds(scheduler.now() - it->second));
          }));
      hosts.back()->set_observer(&events);
      hosts.back()->register_metrics(
          registry, "host=\"" + std::to_string(h.value) + "\"");
    }
    for (auto& host : hosts) host->start();

    // --- workload: the source streams `messages` broadcasts ----------------

    core::BroadcastHost* source = nullptr;
    for (auto& host : hosts) {
      if (host->is_source()) source = host.get();
    }
    int sent = 0;
    std::function<void()> send_next = [&] {
      if (source == nullptr || sent >= cfg.messages) return;
      ++sent;
      const util::Seq seq =
          source->broadcast(std::string(cfg.protocol.data_bytes, 'x'));
      broadcast_at[seq] = scheduler.now();
      if (sent < cfg.messages) scheduler.after(cfg.interval, send_next);
    };
    if (source != nullptr && cfg.messages > 0) {
      scheduler.after(cfg.interval, send_next);
    }

    // --- convergence poll ---------------------------------------------------

    // Every locally hosted instance must hold seqs 1..messages; once true,
    // stop the loop early instead of sleeping out the deadline.
    util::TimePoint converged_at = -1;
    std::function<void()> poll = [&] {
      bool done = sent >= cfg.messages || source == nullptr;
      for (auto& host : hosts) {
        done = done &&
               host->info().count() == static_cast<std::uint64_t>(cfg.messages);
      }
      if (done) {
        converged_at = scheduler.now();
        scheduler.stop();
        return;
      }
      scheduler.after(util::milliseconds(200), poll);
    };
    scheduler.after(util::milliseconds(200), poll);

    // --- admin endpoint (observation-only, out of band) ---------------------

    std::unique_ptr<trace::AdminServer> admin;
    if (cfg.admin_port >= 0) {
      admin = std::make_unique<trace::AdminServer>(
          scheduler, static_cast<std::uint16_t>(cfg.admin_port));
      trace::AdminServer* srv = admin.get();
      registry.register_counter_fn("admin.requests", "",
                                   "Admin GETs routed to a handler",
                                   [srv] { return srv->stats().requests; });
      registry.register_counter_fn(
          "admin.bad_requests", "",
          "Malformed, oversized or non-GET admin requests",
          [srv] { return srv->stats().bad_requests; });
      registry.register_gauge_fn(
          "admin.open_connections", "", "Admin connections currently open",
          [srv] { return static_cast<double>(srv->open_connections()); });

      const auto make_status = [&] {
        trace::StatusDoc doc;
        doc.now_s = util::to_seconds(scheduler.now());
        doc.ready = converged_at >= 0;
        doc.source = cfg.source.value;
        doc.messages_expected = cfg.messages;
        doc.messages_sent = sent;
        for (const auto& host : hosts) {
          trace::HostStatus hs;
          hs.id = host->self().value;
          hs.source = host->is_source();
          const HostId parent = host->parent();
          hs.parent = parent.valid() ? parent.value : -1;
          hs.orphan = !host->is_source() && !parent.valid();
          hs.leader = !parent.valid() || !host->state().in_cluster(parent);
          hs.info_count = host->info().count();
          hs.max_seq = host->info().max_seq();
          hs.deliveries = host->counters().deliveries;
          hs.decode_errors = host->counters().decode_errors;
          hs.auth_rejects = host->counters().auth_rejects;
          for (const HostId j : host->state().cluster()) {
            hs.cluster.push_back(j.value);
          }
          doc.hosts.push_back(std::move(hs));
        }
        doc.metrics = registry.snapshot();
        return doc;
      };

      admin->handle("/metrics", [&registry] {
        std::ostringstream os;
        trace::write_prometheus(os, registry.snapshot());
        trace::AdminServer::Response r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = os.str();
        return r;
      });
      admin->handle("/status", [make_status] {
        trace::AdminServer::Response r;
        r.content_type = "application/json";
        r.body = trace::status_json(make_status());
        return r;
      });
      admin->handle("/healthz", [&converged_at] {
        trace::AdminServer::Response r;
        if (converged_at >= 0) {
          r.body = "ok\n";
        } else {
          r.status = 503;
          r.body = "not ready\n";
        }
        return r;
      });
      // Ends a --linger-s wait early (smoke tests); the stop is delayed a
      // beat so the response drains before the loop exits.
      admin->handle("/quit", [&scheduler] {
        scheduler.after(util::milliseconds(50), [&scheduler] {
          scheduler.stop();
        });
        trace::AdminServer::Response r;
        r.body = "bye\n";
        return r;
      });

      std::cout << "admin: http://127.0.0.1:" << admin->port() << "\n"
                << std::flush;
      if (!cli.admin_port_file.empty()) {
        std::ofstream pf(cli.admin_port_file);
        pf << admin->port() << "\n";
        if (!pf) {
          std::cerr << "cannot write " << cli.admin_port_file << "\n";
          return 2;
        }
      }
    }

    scheduler.run_until(cfg.run_for);

    // --- report -------------------------------------------------------------

    const auto& stats = transport.stats();
    std::cout << "hosts: " << hosts.size() << "/" << all_hosts.size()
              << " local  messages: " << sent << "/" << cfg.messages
              << "  seed: " << cfg.seed << "\n";
    std::cout << "datagrams: " << stats.datagrams_sent << " sent, "
              << stats.datagrams_received << " received, "
              << stats.frame_decode_errors << " frame errors, "
              << stats.payload_decode_errors << " payload errors, "
              << stats.impair_drops << " impaired away, "
              << stats.send_errors << " send errors\n";
    if (converged_at >= 0) {
      std::cout << "converged: yes at " << util::to_seconds(converged_at)
                << "s\n";
      exit_code = 0;
    } else {
      std::cout << "converged: NO within " << util::to_seconds(cfg.run_for)
                << "s\n";
      for (auto& host : hosts) {
        if (host->info().count() ==
            static_cast<std::uint64_t>(cfg.messages)) {
          continue;
        }
        std::cout << "  h" << host->self().value << " holds "
                  << host->info().count() << "/" << cfg.messages << "\n";
      }
      exit_code = 1;
    }
    // Keep the admin endpoint up after the verdict so scrapers (and the
    // smoke's rbcast_top) can observe the final state; GET /quit ends the
    // wait early. Hosts stay alive so /status keeps answering.
    if (admin != nullptr && cli.linger_s > 0) {
      std::cout << "admin: lingering " << cli.linger_s << "s\n" << std::flush;
      scheduler.run_for(util::from_seconds(cli.linger_s));
    }
    // Hosts detach from the transport here, before either dies.
    hosts.clear();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  if (sink != nullptr) {
    sink->close();
    std::cerr << "wrote " << cli.trace_out << "\n";
  }
  return exit_code;
}
