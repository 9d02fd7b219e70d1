#include "trace/trace_reader.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace rbcast::trace {

namespace {

std::int64_t to_int(const FieldValue& v, std::int64_t fallback) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<std::int64_t>(*u);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    return static_cast<std::int64_t>(*d);
  }
  return fallback;
}

void write_field_value(std::ostream& os, const FieldValue& value) {
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

}  // namespace

// --- parsing ---------------------------------------------------------------

bool parse_jsonl_line(const std::string& line, TraceRecord* out,
                      std::string* error) {
  using Type = util::Json::Type;
  try {
    util::Json root = util::parse_json(line, "trace record");
    if (root.type != Type::kObject) {
      throw std::invalid_argument("expected '{'");
    }
    *out = TraceRecord{};
    for (auto& [key, json] : root.members) {
      if (key == "t") {
        out->at = util::json_i64(json, "\"t\"");
      } else if (key == "host") {
        out->host = HostId{static_cast<HostId::value_type>(
            util::json_i64(json, "\"host\""))};
      } else if (key == "cat" || key == "ev") {
        if (json.type != Type::kString) {
          throw std::invalid_argument("\"" + key + "\" must be a string");
        }
        (key == "cat" ? out->category : out->name) = std::move(json.str);
      } else if (json.type == Type::kNumber) {
        out->field(std::move(key),
                   std::visit([](auto n) { return FieldValue{n}; },
                              json.number));
      } else if (json.type == Type::kString) {
        out->field(std::move(key), std::move(json.str));
      } else if (json.type == Type::kBool) {
        out->field(std::move(key), json.boolean);
      } else {
        throw std::invalid_argument(
            "unsupported value (JSONL fields are scalars)");
      }
    }
    return true;
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
}

bool read_jsonl(std::istream& is, std::vector<TraceRecord>* out,
                std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceRecord r;
    std::string line_error;
    if (!parse_jsonl_line(line, &r, &line_error)) {
      std::ostringstream os;
      os << "line " << lineno << ": " << line_error;
      *error = os.str();
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

bool json_syntax_valid(const std::string& text, std::string* error) {
  try {
    (void)util::parse_json(text, "document");
    return true;
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
}

const FieldValue* find_field(const TraceRecord& r, const std::string& key) {
  for (const auto& [k, v] : r.fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t field_int(const TraceRecord& r, const std::string& key,
                       std::int64_t fallback) {
  const FieldValue* v = find_field(r, key);
  return v != nullptr ? to_int(*v, fallback) : fallback;
}

std::string field_string(const TraceRecord& r, const std::string& key) {
  const FieldValue* v = find_field(r, key);
  if (v == nullptr) return {};
  const auto* s = std::get_if<std::string>(v);
  return s != nullptr ? *s : std::string{};
}

// --- queries ---------------------------------------------------------------

const TraceRecord* find_manifest(const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    if (r.category == "manifest") return &r;
  }
  return nullptr;
}

TraceSummary summarize(const std::vector<TraceRecord>& records) {
  TraceSummary s;
  std::set<std::int32_t> hosts;
  bool first = true;
  for (const TraceRecord& r : records) {
    ++s.records;
    if (first || r.at < s.first_at) s.first_at = r.at;
    if (first || r.at > s.last_at) s.last_at = r.at;
    first = false;
    ++s.by_category[r.category];
    ++s.by_event[r.category + "/" + r.name];
    if (r.host.valid()) hosts.insert(r.host.value);
    if (r.category == "protocol" && r.name == "delivered") ++s.deliveries;
    if (r.category == "net" && r.name == "drop") ++s.drops;
    const std::int64_t seq = field_int(r, "seq", -1);
    if (seq > 0) {
      s.max_seq = std::max(s.max_seq, static_cast<std::uint64_t>(seq));
    }
  }
  s.host_count = hosts.size();
  return s;
}

std::vector<TraceRecord> timeline(const std::vector<TraceRecord>& records,
                                  std::int32_t host) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : records) {
    if (r.host.value == host) out.push_back(r);
  }
  return out;
}

std::vector<LineageStep> lineage(const std::vector<TraceRecord>& records,
                                 std::uint64_t seq) {
  std::vector<LineageStep> steps;
  for (const TraceRecord& r : records) {
    const std::int64_t record_seq = field_int(r, "seq", -1);
    if (record_seq < 0 || static_cast<std::uint64_t>(record_seq) != seq) {
      continue;
    }
    LineageStep step;
    step.at = r.at;
    step.event = r.name;
    step.host = r.host.value;
    if (r.category == "net") {
      if (r.name == "host_send") {
        step.peer = static_cast<std::int32_t>(field_int(r, "to", -1));
        step.detail = field_string(r, "kind");
      } else if (r.name == "deliver") {
        step.peer = static_cast<std::int32_t>(field_int(r, "from", -1));
        step.detail = field_string(r, "kind");
      } else if (r.name == "drop") {
        step.peer = static_cast<std::int32_t>(field_int(r, "from", -1));
        step.detail = field_string(r, "reason");
      } else {
        continue;
      }
    } else if (r.category == "protocol") {
      if (r.name != "delivered" && r.name != "gapfill-offered" &&
          r.name != "gapfill-accepted" && r.name != "gapfill-relayed") {
        continue;
      }
      step.peer = static_cast<std::int32_t>(field_int(r, "peer", -1));
    } else {
      continue;
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

bool lineage_covers(const std::vector<LineageStep>& steps,
                    std::int32_t source,
                    const std::vector<std::int32_t>& hosts) {
  std::set<std::int32_t> covered{source};
  // Fixpoint over delivery edges (peer = sender, host = receiver): a
  // single time-ordered pass would also do, but the fixpoint does not
  // depend on that invariant.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const LineageStep& step : steps) {
      if (step.event != "deliver") continue;
      if (covered.contains(step.peer) && !covered.contains(step.host)) {
        covered.insert(step.host);
        grew = true;
      }
    }
  }
  return std::all_of(hosts.begin(), hosts.end(), [&covered](std::int32_t h) {
    return covered.contains(h);
  });
}

ConvergenceTimeline convergence_timeline(
    const std::vector<TraceRecord>& records) {
  ConvergenceTimeline t;
  for (const TraceRecord& r : records) {
    if (r.category != "protocol") continue;
    const bool shape_change = r.name == "attached" || r.name == "detached" ||
                              r.name == "cycle-broken" ||
                              r.name == "parent-timeout";
    if (r.name == "attached") ++t.attaches;
    if (r.name == "detached" || r.name == "parent-timeout") ++t.detaches;
    if (r.name == "cycle-broken") ++t.cycles_broken;
    if (r.name == "attach-timeout") ++t.attach_timeouts;
    if (shape_change) t.last_change_at = std::max(t.last_change_at, r.at);
  }
  return t;
}

// --- sim-vs-real divergence -------------------------------------------------

DeliveryMap delivery_map(const std::vector<TraceRecord>& records) {
  DeliveryMap m;
  for (const TraceRecord& r : records) {
    if (r.category != "protocol" || r.name != "delivered") continue;
    const std::int64_t seq = field_int(r, "seq");
    if (seq < 0 || !r.host.valid()) continue;
    m.by_host[r.host.value].push_back(static_cast<std::uint64_t>(seq));
    m.max_seq = std::max(m.max_seq, static_cast<std::uint64_t>(seq));
    m.last_delivery_at = std::max(m.last_delivery_at, r.at);
  }
  // The verdict compares sets; order of first receipt legitimately differs
  // between a virtual and a wall clock.
  for (auto& [host, seqs] : m.by_host) std::sort(seqs.begin(), seqs.end());
  return m;
}

namespace {

// Renders up to kMaxListed elements of a seq list, then "... (+n more)".
std::string seq_list(const std::vector<std::uint64_t>& seqs) {
  constexpr std::size_t kMaxListed = 8;
  std::ostringstream os;
  for (std::size_t i = 0; i < seqs.size() && i < kMaxListed; ++i) {
    if (i > 0) os << ' ';
    os << seqs[i];
  }
  if (seqs.size() > kMaxListed) {
    os << " ... (+" << (seqs.size() - kMaxListed) << " more)";
  }
  return os.str();
}

}  // namespace

TraceComparison compare_traces(const std::vector<TraceRecord>& left,
                               const std::vector<TraceRecord>& right) {
  constexpr std::size_t kMaxDivergences = 32;
  TraceComparison cmp;
  cmp.left = delivery_map(left);
  cmp.right = delivery_map(right);
  cmp.left_tree = convergence_timeline(left);
  cmp.right_tree = convergence_timeline(right);

  auto note = [&cmp](const std::string& line) {
    if (cmp.divergences.size() < kMaxDivergences) cmp.divergences.push_back(line);
  };

  std::set<std::int32_t> hosts;
  for (const auto& [h, _] : cmp.left.by_host) hosts.insert(h);
  for (const auto& [h, _] : cmp.right.by_host) hosts.insert(h);
  for (const std::int32_t h : hosts) {
    const auto li = cmp.left.by_host.find(h);
    const auto ri = cmp.right.by_host.find(h);
    if (li == cmp.left.by_host.end()) {
      note("h" + std::to_string(h) + ": delivered nothing in left trace");
      continue;
    }
    if (ri == cmp.right.by_host.end()) {
      note("h" + std::to_string(h) + ": delivered nothing in right trace");
      continue;
    }
    if (li->second == ri->second) continue;
    std::vector<std::uint64_t> only_left;
    std::vector<std::uint64_t> only_right;
    std::set_difference(li->second.begin(), li->second.end(),
                        ri->second.begin(), ri->second.end(),
                        std::back_inserter(only_left));
    std::set_difference(ri->second.begin(), ri->second.end(),
                        li->second.begin(), li->second.end(),
                        std::back_inserter(only_right));
    if (!only_left.empty()) {
      note("h" + std::to_string(h) + ": only in left: " + seq_list(only_left));
    }
    if (!only_right.empty()) {
      note("h" + std::to_string(h) +
           ": only in right: " + seq_list(only_right));
    }
    // Duplicates within one trace make the multisets differ even when the
    // symmetric difference is empty (the protocol promises at-most-once).
    if (only_left.empty() && only_right.empty()) {
      note("h" + std::to_string(h) + ": duplicate deliveries differ");
    }
  }
  cmp.match = cmp.divergences.empty() && !hosts.empty();
  if (hosts.empty()) note("neither trace contains a protocol delivery");
  return cmp;
}

void print_comparison(std::ostream& os, const TraceComparison& cmp,
                      const std::string& left_label,
                      const std::string& right_label) {
  auto side = [&os](const char* tag, const std::string& label,
                    const DeliveryMap& m, const ConvergenceTimeline& t) {
    std::size_t total = 0;
    for (const auto& [_, seqs] : m.by_host) total += seqs.size();
    os << tag << ' ' << label << ": " << m.by_host.size() << " hosts, "
       << total << " deliveries, max seq " << m.max_seq
       << ", last delivery at " << sim::to_seconds(m.last_delivery_at)
       << "s\n"
       << tag << " tree: " << t.attaches << " attaches, " << t.detaches
       << " detaches, " << t.cycles_broken
       << " cycles broken, last shape change at "
       << sim::to_seconds(t.last_change_at) << "s\n";
  };
  side("left ", left_label, cmp.left, cmp.left_tree);
  side("right", right_label, cmp.right, cmp.right_tree);
  if (cmp.match) {
    os << "MATCH: every host delivered the same sequence set in both "
          "traces\n";
    return;
  }
  os << "DIVERGED: " << cmp.divergences.size() << " difference"
     << (cmp.divergences.size() == 1 ? "" : "s") << '\n';
  for (const std::string& d : cmp.divergences) os << "  " << d << '\n';
}

// --- rendering --------------------------------------------------------------

void print_record(std::ostream& os, const TraceRecord& r) {
  os << '[' << sim::to_seconds(r.at) << "s] ";
  if (r.host.valid()) {
    os << 'h' << r.host.value;
  } else {
    os << "run";
  }
  os << ' ' << r.category << '/' << r.name;
  for (const auto& [key, value] : r.fields) {
    os << ' ' << key << '=';
    write_field_value(os, value);
  }
  os << '\n';
}

void print_summary(std::ostream& os,
                   const std::vector<TraceRecord>& records) {
  const TraceRecord* manifest = find_manifest(records);
  if (manifest != nullptr) os << manifest_line(*manifest) << '\n';
  const TraceSummary s = summarize(records);
  os << "records: " << s.records << " spanning "
     << sim::to_seconds(s.first_at) << "s.." << sim::to_seconds(s.last_at)
     << "s over " << s.host_count << " hosts\n";
  os << "deliveries: " << s.deliveries << "  drops: " << s.drops
     << "  max seq: " << s.max_seq << '\n';
  for (const auto& [key, n] : s.by_event) {
    os << "  " << key << ": " << n << '\n';
  }
}

void print_lineage(std::ostream& os, const std::vector<LineageStep>& steps,
                   std::uint64_t seq) {
  os << "lineage of seq " << seq << " (" << steps.size() << " events)\n";
  for (const LineageStep& step : steps) {
    os << "  [" << sim::to_seconds(step.at) << "s] h" << step.host << ' '
       << step.event;
    if (step.peer >= 0) {
      const bool inbound = step.event == "deliver";
      os << (inbound ? " <- h" : " -> h") << step.peer;
    }
    if (!step.detail.empty()) os << " (" << step.detail << ')';
    os << '\n';
  }
}

void print_convergence(std::ostream& os,
                       const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    if (r.category != "protocol") continue;
    if (r.name == "delivered" || r.name.rfind("gapfill", 0) == 0) continue;
    print_record(os, r);
  }
  const ConvergenceTimeline t = convergence_timeline(records);
  os << "attaches: " << t.attaches << "  detaches: " << t.detaches
     << "  cycles broken: " << t.cycles_broken
     << "  attach timeouts: " << t.attach_timeouts << '\n';
  os << "tree shape last changed at " << sim::to_seconds(t.last_change_at)
     << "s\n";
}

}  // namespace rbcast::trace
