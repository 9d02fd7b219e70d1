// Reading traces back: JSONL parsing and the analysis queries behind the
// rbcast_trace CLI.
//
// The reader understands exactly the flat one-object-per-line format
// JsonlSink writes (schema in PROTOCOL.md): each line goes through
// util::parse_json, the repo's one JSON codec, and the resulting object
// is mapped onto a TraceRecord, so the write path and the read path share
// one type. Integers come back exact to 64 bits. The query layer
// answers the questions an experimenter asks of a finished run:
//
//  * summarize   — record counts per category/event, hosts seen, time
//                  span, delivery/drop totals;
//  * timeline    — everything one host did, in time order;
//  * lineage     — the full causal relay + gap-fill path of one broadcast
//                  sequence number, reconstructed from trace ids;
//  * convergence — the attachment/cycle-break timeline and when the tree
//                  last changed shape.
//
// json_syntax_valid() wraps util::parse_json as a yes/no check; the
// trace tests use it to verify Chrome/Perfetto exports parse.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/trace_sink.h"

namespace rbcast::trace {

// --- parsing ---------------------------------------------------------------

// Parses one JSONL trace line into `out`. Returns false (and sets
// `error`) on malformed input, on a non-scalar field (null, arrays and
// objects are rejected), on a non-number "t"/"host" or a non-string
// "cat"/"ev". Unknown top-level keys become fields in line order, so
// the reader tolerates schema extensions.
[[nodiscard]] bool parse_jsonl_line(const std::string& line, TraceRecord* out,
                                    std::string* error);

// Reads a whole JSONL stream; empty lines are skipped. Returns false on
// the first malformed line (error names the line number).
[[nodiscard]] bool read_jsonl(std::istream& is,
                              std::vector<TraceRecord>* out,
                              std::string* error);

// Syntax check: `text` must be exactly one valid JSON value (the Chrome
// trace_event export is one JSON array), as util::parse_json reads it.
// Does not validate any schema.
[[nodiscard]] bool json_syntax_valid(const std::string& text,
                                     std::string* error);

// Field access helpers (nullptr / fallback when absent or wrong type).
[[nodiscard]] const FieldValue* find_field(const TraceRecord& r,
                                           const std::string& key);
[[nodiscard]] std::int64_t field_int(const TraceRecord& r,
                                     const std::string& key,
                                     std::int64_t fallback = -1);
[[nodiscard]] std::string field_string(const TraceRecord& r,
                                       const std::string& key);

// --- queries ---------------------------------------------------------------

// The head-of-trace manifest record, or nullptr when the trace lacks one.
[[nodiscard]] const TraceRecord* find_manifest(
    const std::vector<TraceRecord>& records);

struct TraceSummary {
  sim::TimePoint first_at{0};
  sim::TimePoint last_at{0};
  std::size_t records{0};
  std::size_t host_count{0};
  std::map<std::string, std::size_t> by_category;
  // "category/event" -> count.
  std::map<std::string, std::size_t> by_event;
  std::size_t deliveries{0};  // protocol first receipts
  std::size_t drops{0};       // network drops
  std::uint64_t max_seq{0};   // highest sequence number seen
};

[[nodiscard]] TraceSummary summarize(const std::vector<TraceRecord>& records);

// Records on host `host`'s track, in trace order.
[[nodiscard]] std::vector<TraceRecord> timeline(
    const std::vector<TraceRecord>& records, std::int32_t host);

// One hop (or protocol event) in the life of a traced broadcast message.
struct LineageStep {
  sim::TimePoint at{0};
  std::string event;  // host_send / deliver / drop / delivered / gapfill-*
  std::int32_t host{-1};  // the acting host (sender, receiver, offerer)
  std::int32_t peer{-1};  // counterpart host, -1 when none
  std::string detail;     // message kind or drop reason
};

// Every record about sequence number `seq` — network hops carrying its
// trace id plus protocol delivered/gap-fill events — in time order.
[[nodiscard]] std::vector<LineageStep> lineage(
    const std::vector<TraceRecord>& records, std::uint64_t seq);

// True when the delivery edges in `steps` connect `source` to every host
// in `hosts` (the lineage reaches the whole network).
[[nodiscard]] bool lineage_covers(const std::vector<LineageStep>& steps,
                                  std::int32_t source,
                                  const std::vector<std::int32_t>& hosts);

struct ConvergenceTimeline {
  std::size_t attaches{0};
  std::size_t detaches{0};
  std::size_t cycles_broken{0};
  std::size_t attach_timeouts{0};
  // Time of the last event that changed tree shape (attach/detach/cycle);
  // 0 when the trace has none.
  sim::TimePoint last_change_at{0};
};

[[nodiscard]] ConvergenceTimeline convergence_timeline(
    const std::vector<TraceRecord>& records);

// --- sim-vs-real divergence -------------------------------------------------
//
// Aligns two traces of the same topology/workload — canonically one
// simulated and one over real sockets — on what the protocol promised:
// which sequence numbers each host delivered. Timings are reported but
// never compared (virtual and wall clocks are different animals); the
// verdict is about delivery sets.

// Per-host protocol/delivered sets extracted from one trace.
struct DeliveryMap {
  // host -> delivered sequence numbers (first receipts).
  std::map<std::int32_t, std::vector<std::uint64_t>> by_host;
  std::uint64_t max_seq{0};
  sim::TimePoint last_delivery_at{0};
};

[[nodiscard]] DeliveryMap delivery_map(
    const std::vector<TraceRecord>& records);

struct TraceComparison {
  bool match{false};  // same host set, identical delivery set per host
  DeliveryMap left;
  DeliveryMap right;
  ConvergenceTimeline left_tree;
  ConvergenceTimeline right_tree;
  // Human-readable divergences (missing hosts, per-host set differences),
  // capped so a totally different pair of traces stays readable.
  std::vector<std::string> divergences;
};

[[nodiscard]] TraceComparison compare_traces(
    const std::vector<TraceRecord>& left,
    const std::vector<TraceRecord>& right);

// --- rendering (shared by rbcast_trace and tests) --------------------------

// One human-readable line per record: "[12.000s] h3 net/deliver ...".
void print_record(std::ostream& os, const TraceRecord& r);
void print_summary(std::ostream& os, const std::vector<TraceRecord>& records);
void print_lineage(std::ostream& os, const std::vector<LineageStep>& steps,
                   std::uint64_t seq);
void print_convergence(std::ostream& os,
                       const std::vector<TraceRecord>& records);
// Labels name the two traces in the report (e.g. file paths).
void print_comparison(std::ostream& os, const TraceComparison& cmp,
                      const std::string& left_label,
                      const std::string& right_label);

}  // namespace rbcast::trace
