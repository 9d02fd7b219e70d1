#include "trace/trace_sink.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/config.h"
#include "util/json.h"

namespace rbcast::trace {

namespace {

void write_value(std::ostream& os, const FieldValue& value) {
  std::visit(
      [&os](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          os << (v ? "true" : "false");
        } else if constexpr (std::is_same_v<T, double>) {
          util::write_json_number(os, v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          util::write_json_string(os, v);
        } else {
          os << v;
        }
      },
      value);
}

// True when the value is numeric (usable as a Chrome counter arg).
bool numeric(const FieldValue& value) {
  return !std::holds_alternative<std::string>(value);
}

}  // namespace

// --- JsonlSink --------------------------------------------------------------

void JsonlSink::record(const TraceRecord& r) {
  os_ << "{\"t\":" << r.at << ",\"cat\":";
  util::write_json_string(os_, r.category);
  os_ << ",\"ev\":";
  util::write_json_string(os_, r.name);
  os_ << ",\"host\":" << r.host.value;
  for (const auto& [key, value] : r.fields) {
    os_ << ',';
    util::write_json_string(os_, key);
    os_ << ':';
    write_value(os_, value);
  }
  os_ << "}\n";
}

void JsonlSink::close() { os_.flush(); }

// --- ChromeTraceSink --------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(os) { os_ << "[\n"; }

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::begin_event() {
  if (!first_) os_ << ",\n";
  first_ = false;
}

void ChromeTraceSink::name_track(int tid, const std::string& name) {
  if (std::find(named_tracks_.begin(), named_tracks_.end(), tid) !=
      named_tracks_.end()) {
    return;
  }
  named_tracks_.push_back(tid);
  begin_event();
  os_ << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
      << R"(,"args":{"name":)";
  util::write_json_string(os_, name);
  os_ << "}}";
}

void ChromeTraceSink::record(const TraceRecord& r) {
  if (closed_) return;
  // Track 0 carries run-global records; host h<N> rides track N+1.
  const int tid = r.host.valid() ? r.host.value + 1 : 0;

  if (r.category == "manifest") {
    begin_event();
    os_ << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":)";
    std::ostringstream label;
    label << "rbcast";
    for (const auto& [key, value] : r.fields) {
      if (key == "topology" || key == "seed") {
        label << ' ' << key << '=';
        std::visit([&label](const auto& v) { label << v; }, value);
      }
    }
    util::write_json_string(os_, label.str());
    os_ << "}}";
  }
  name_track(tid, r.host.valid() ? "h" + std::to_string(r.host.value)
                                 : "run");

  if (r.category == "metric") {
    // One counter event per record; numeric fields become series.
    begin_event();
    os_ << R"({"name":)";
    util::write_json_string(os_, r.name);
    os_ << R"(,"cat":"metric","ph":"C","ts":)" << r.at
        << R"(,"pid":1,"args":{)";
    bool first_field = true;
    for (const auto& [key, value] : r.fields) {
      if (!numeric(value)) continue;
      if (!first_field) os_ << ',';
      first_field = false;
      util::write_json_string(os_, key);
      os_ << ':';
      write_value(os_, value);
    }
    os_ << "}}";
    return;
  }

  begin_event();
  os_ << R"({"name":)";
  util::write_json_string(os_, r.name);
  os_ << R"(,"cat":)";
  util::write_json_string(os_, r.category);
  os_ << R"(,"ph":"i","s":"t","ts":)" << r.at << R"(,"pid":1,"tid":)" << tid
      << R"(,"args":{)";
  bool first_field = true;
  for (const auto& [key, value] : r.fields) {
    if (!first_field) os_ << ',';
    first_field = false;
    util::write_json_string(os_, key);
    os_ << ':';
    write_value(os_, value);
  }
  os_ << "}}";
}

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  os_ << "\n]\n";
  os_.flush();
}

// --- run manifest ---------------------------------------------------------

const char* build_version() {
#ifdef RBCAST_GIT_DESCRIBE
  return RBCAST_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string describe_config(const core::Config& config) {
  using Knowledge = core::Config::ClusterKnowledge;
  const char* knowledge =
      config.cluster_knowledge == Knowledge::kDynamic  ? "dynamic"
      : config.cluster_knowledge == Knowledge::kStatic ? "static"
                                                       : "none";
  std::ostringstream os;
  os << "attach_period=" << sim::to_seconds(config.attach_period)
     << "s attach_ack_timeout=" << sim::to_seconds(config.attach_ack_timeout)
     << "s info_intra=" << sim::to_seconds(config.info_period_intra)
     << "s info_inter=" << sim::to_seconds(config.info_period_inter)
     << "s gapfill_neighbor=" << sim::to_seconds(config.gapfill_period_neighbor)
     << "s gapfill_far=" << sim::to_seconds(config.gapfill_period_far)
     << "s parent_timeout=" << sim::to_seconds(config.parent_timeout)
     << "s child_timeout=" << sim::to_seconds(config.child_timeout)
     << "s suppress=" << sim::to_seconds(config.gapfill_suppress_period)
     << "s switch_margin=" << config.parent_switch_margin
     << " nonneighbor=" << (config.nonneighbor_gapfill ? 1 : 0)
     << " far_fill_targets=" << config.far_fill_targets
     << " pruning=" << (config.enable_pruning ? 1 : 0)
     << " piggyback=" << (config.piggyback_info ? 1 : 0)
     << " auth=" << (config.auth_enabled ? 1 : 0)
     << " cluster_knowledge=" << knowledge
     << " batch_flush=" << sim::to_seconds(config.batch_flush_delay)
     << "s batch_max_bytes=" << config.batch_max_bytes
     << " data_bytes=" << config.data_bytes;
  return os.str();
}

TraceRecord run_manifest(std::uint64_t seed, const std::string& topology,
                         const std::string& protocol,
                         const std::string& config) {
  TraceRecord r;
  r.at = 0;
  r.category = "manifest";
  r.name = "run";
  r.field("seed", seed)
      .field("topology", topology)
      .field("protocol", protocol)
      .field("config", config)
      .field("build", std::string(build_version()))
      .field("schema", std::int64_t{1});
  return r;
}

std::string manifest_line(const TraceRecord& manifest) {
  std::ostringstream os;
  os << "manifest:";
  for (const auto& [key, value] : manifest.fields) {
    os << ' ' << key << '=';
    std::visit(
        [&os](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, bool>) {
            os << (v ? "true" : "false");
          } else {
            os << v;
          }
        },
        value);
  }
  return os.str();
}

}  // namespace rbcast::trace
