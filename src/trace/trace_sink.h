// Structured trace export: one stream of timestamped records, many
// backends.
//
// Everything observable — protocol events (trace::EventLog), network
// events (trace::NetTap), periodic metric samples (trace::MetricSampler)
// and the run manifest — flows through a TraceSink as flat TraceRecords
// carrying the virtual timestamp, a category, an event name, the host
// track and typed key/value fields. Two backends ship:
//
//  * JsonlSink — one JSON object per line; the stable machine-readable
//    format read back by trace::TraceReader and the rbcast_trace CLI
//    (schema documented in PROTOCOL.md);
//  * ChromeTraceSink — the Chrome/Perfetto trace_event JSON array format
//    (load in ui.perfetto.dev or chrome://tracing); per-host tracks via
//    tid, metric samples as counter tracks.
//
// Determinism contract: records carry only virtual time and run
// parameters — never wall-clock time — so a replay of the same seed and
// topology produces byte-identical output (verified by a ctest).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"

namespace rbcast::core {
struct Config;
}  // namespace rbcast::core

namespace rbcast::trace {

// Typed field value; serialized unquoted (numbers, bools) or as an
// escaped JSON string.
using FieldValue =
    std::variant<std::int64_t, std::uint64_t, double, bool, std::string>;

struct TraceRecord {
  sim::TimePoint at{0};
  // Record family: "manifest", "protocol", "net", "metric".
  std::string category;
  // Event name within the family ("attached", "host_send", "latency"...).
  std::string name;
  // The track the record belongs to; kNoHost = run-global.
  HostId host{kNoHost};
  std::vector<std::pair<std::string, FieldValue>> fields;

  TraceRecord& field(std::string key, FieldValue value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& r) = 0;
  // Finalizes the output (closing brackets, stream flush). Idempotent;
  // backends also close on destruction.
  virtual void close() {}
};

// --- backends --------------------------------------------------------------

// One JSON object per line:
//   {"t":<us>,"cat":"...","ev":"...","host":<id|-1>, <fields...>}
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void record(const TraceRecord& r) override;
  void close() override;

 private:
  std::ostream& os_;
};

// Chrome trace_event JSON array. Protocol/net records become instant
// events ("ph":"i") on per-host tracks; metric records become counter
// events ("ph":"C"); the manifest becomes process metadata. Host tracks
// are named h<N> via thread_name metadata emitted on first use.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  ~ChromeTraceSink() override;
  void record(const TraceRecord& r) override;
  void close() override;

 private:
  void begin_event();
  void name_track(int tid, const std::string& name);

  std::ostream& os_;
  bool closed_{false};
  bool first_{true};
  std::vector<int> named_tracks_;
};

// Fans one record stream out to several sinks (e.g. JSONL + Chrome from
// one run). Sinks are borrowed.
class MultiSink final : public TraceSink {
 public:
  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void record(const TraceRecord& r) override {
    for (TraceSink* s : sinks_) s->record(r);
  }
  void close() override {
    for (TraceSink* s : sinks_) s->close();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

// --- run manifest ---------------------------------------------------------

// The version string baked in at configure time (`git describe
// --always --dirty`), or "unknown" outside a git checkout.
[[nodiscard]] const char* build_version();

// Compact single-line summary of the protocol tunables (periods in
// seconds, toggles), for the manifest and rbcast_sim stdout: every Config
// field but auth_secret, so two runs that differ only in, say, batching or
// authentication describe differently.
[[nodiscard]] std::string describe_config(const core::Config& config);

// The record every trace starts with: everything needed to reproduce the
// run (seed, topology, protocol, config, build). Deterministic — carries
// no wall-clock timestamp.
[[nodiscard]] TraceRecord run_manifest(std::uint64_t seed,
                                       const std::string& topology,
                                       const std::string& protocol,
                                       const std::string& config);

// Human-readable one-liner of the same manifest (rbcast_sim stdout).
[[nodiscard]] std::string manifest_line(const TraceRecord& manifest);

}  // namespace rbcast::trace
