#include "trace/exposition.h"

#include <cctype>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace rbcast::trace {

namespace {

// Prometheus sample values print like JSON numbers; the non-finite ones
// take the text format's own spellings.
void write_prom_value(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    util::write_json_number(os, v);
  } else {
    os << (std::isnan(v) ? "NaN" : v > 0 ? "+Inf" : "-Inf");
  }
}

const char* kind_name(util::MetricSnapshot::Kind kind) {
  switch (kind) {
    case util::MetricSnapshot::Kind::kCounter:
      return "counter";
    case util::MetricSnapshot::Kind::kGauge:
      return "gauge";
    case util::MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

// "name" or "name{labels}" / "name{labels,le=...}" series heads.
std::string series(const std::string& name, const std::string& labels,
                   const std::string& extra = {}) {
  std::string out = name;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

void write_metric_json(std::ostream& os, const util::MetricSnapshot& m) {
  os << "{\"name\":";
  util::write_json_string(os, m.name);
  os << ",\"labels\":";
  util::write_json_string(os, m.labels);
  os << ",\"kind\":\"" << kind_name(m.kind) << "\"";
  switch (m.kind) {
    case util::MetricSnapshot::Kind::kCounter:
      os << ",\"value\":" << m.counter;
      break;
    case util::MetricSnapshot::Kind::kGauge:
      os << ",\"value\":";
      util::write_json_number(os, m.gauge);
      break;
    case util::MetricSnapshot::Kind::kHistogram: {
      os << ",\"bounds\":[";
      for (std::size_t i = 0; i < m.bounds.size(); ++i) {
        if (i > 0) os << ",";
        util::write_json_number(os, m.bounds[i]);
      }
      os << "],\"cumulative\":[";
      for (std::size_t i = 0; i < m.cumulative.size(); ++i) {
        os << (i > 0 ? "," : "") << m.cumulative[i];
      }
      os << "],\"count\":" << m.count << ",\"sum\":";
      util::write_json_number(os, m.sum);
      break;
    }
  }
  os << "}";
}

}  // namespace

std::string prometheus_name(const std::string& dotted) {
  std::string out;
  out.reserve(dotted.size() + 7);
  for (char c : dotted) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '_';
    out += ok ? c : '_';
  }
  if (out.rfind("rbcast", 0) != 0) out.insert(0, "rbcast_");
  return out;
}

void write_prometheus(std::ostream& os,
                      const std::vector<util::MetricSnapshot>& snapshot) {
  // The snapshot is ordered by (name, labels), so one family's series are
  // consecutive: emit HELP/TYPE at each family head only.
  std::string previous;
  for (const util::MetricSnapshot& m : snapshot) {
    const std::string name = prometheus_name(m.name);
    if (name != previous) {
      os << "# HELP " << name << " "
         << (m.help.empty() ? m.name : m.help) << "\n";
      os << "# TYPE " << name << " " << kind_name(m.kind) << "\n";
      previous = name;
    }
    switch (m.kind) {
      case util::MetricSnapshot::Kind::kCounter:
        os << series(name, m.labels) << " " << m.counter << "\n";
        break;
      case util::MetricSnapshot::Kind::kGauge:
        os << series(name, m.labels) << " ";
        write_prom_value(os, m.gauge);
        os << "\n";
        break;
      case util::MetricSnapshot::Kind::kHistogram: {
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          std::ostringstream le;
          le << "le=\"";
          write_prom_value(le, m.bounds[i]);
          le << "\"";
          os << series(name + "_bucket", m.labels, le.str()) << " "
             << m.cumulative[i] << "\n";
        }
        os << series(name + "_bucket", m.labels, "le=\"+Inf\"") << " "
           << m.count << "\n";
        os << series(name + "_sum", m.labels) << " ";
        write_prom_value(os, m.sum);
        os << "\n";
        os << series(name + "_count", m.labels) << " " << m.count << "\n";
        break;
      }
    }
  }
}

void write_metrics_json(std::ostream& os,
                        const std::vector<util::MetricSnapshot>& snapshot) {
  os << "[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) os << ",";
    write_metric_json(os, snapshot[i]);
  }
  os << "]";
}

void write_status_json(std::ostream& os, const StatusDoc& doc) {
  os << "{\"now_s\":";
  util::write_json_number(os, doc.now_s);
  os << ",\"ready\":" << (doc.ready ? "true" : "false")
     << ",\"source\":" << doc.source
     << ",\"messages_expected\":" << doc.messages_expected
     << ",\"messages_sent\":" << doc.messages_sent << ",\"hosts\":[";
  for (std::size_t i = 0; i < doc.hosts.size(); ++i) {
    const HostStatus& h = doc.hosts[i];
    if (i > 0) os << ",";
    os << "{\"id\":" << h.id
       << ",\"source\":" << (h.source ? "true" : "false")
       << ",\"parent\":" << h.parent
       << ",\"orphan\":" << (h.orphan ? "true" : "false")
       << ",\"leader\":" << (h.leader ? "true" : "false")
       << ",\"info_count\":" << h.info_count << ",\"max_seq\":" << h.max_seq
       << ",\"deliveries\":" << h.deliveries
       << ",\"decode_errors\":" << h.decode_errors
       << ",\"auth_rejects\":" << h.auth_rejects << ",\"cluster\":[";
    for (std::size_t j = 0; j < h.cluster.size(); ++j) {
      os << (j > 0 ? "," : "") << h.cluster[j];
    }
    os << "]}";
  }
  os << "],\"metrics\":";
  write_metrics_json(os, doc.metrics);
  os << "}";
}

std::string status_json(const StatusDoc& doc) {
  std::ostringstream os;
  write_status_json(os, doc);
  return os.str();
}

StatusDoc parse_status_json(const std::string& text) {
  constexpr const char* kContext = "status";
  const util::Json root = util::parse_json(text, kContext);
  if (root.type != util::Json::Type::kObject) {
    throw std::invalid_argument("status: document must be an object");
  }
  StatusDoc doc;
  doc.now_s = util::json_num_or(root, "now_s", 0, kContext);
  doc.ready = util::json_bool_or(root, "ready", false, kContext);
  doc.source = util::json_i64_or(root, "source", -1, kContext);
  doc.messages_expected =
      util::json_i64_or(root, "messages_expected", 0, kContext);
  doc.messages_sent = util::json_i64_or(root, "messages_sent", 0, kContext);

  const util::Json* hosts = root.find("hosts");
  if (hosts != nullptr) {
    if (hosts->type != util::Json::Type::kArray) {
      throw std::invalid_argument("status: 'hosts' must be an array");
    }
    for (const util::Json& h : hosts->items) {
      HostStatus hs;
      hs.id = util::json_i64_or(h, "id", -1, kContext);
      hs.source = util::json_bool_or(h, "source", false, kContext);
      hs.parent = util::json_i64_or(h, "parent", -1, kContext);
      hs.orphan = util::json_bool_or(h, "orphan", false, kContext);
      hs.leader = util::json_bool_or(h, "leader", false, kContext);
      hs.info_count = util::json_u64_or(h, "info_count", 0, kContext);
      hs.max_seq = util::json_i64_or(h, "max_seq", 0, kContext);
      hs.deliveries = util::json_u64_or(h, "deliveries", 0, kContext);
      hs.decode_errors = util::json_u64_or(h, "decode_errors", 0, kContext);
      // Absent in documents from pre-auth nodes: default 0, not an error.
      hs.auth_rejects = util::json_u64_or(h, "auth_rejects", 0, kContext);
      if (const util::Json* cluster = h.find("cluster"); cluster != nullptr) {
        if (cluster->type != util::Json::Type::kArray) {
          throw std::invalid_argument("status: 'cluster' must be an array");
        }
        for (const util::Json& member : cluster->items) {
          hs.cluster.push_back(util::json_i64(member, "status: 'cluster'"));
        }
      }
      doc.hosts.push_back(std::move(hs));
    }
  }

  const util::Json* metrics = root.find("metrics");
  if (metrics != nullptr) {
    if (metrics->type != util::Json::Type::kArray) {
      throw std::invalid_argument("status: 'metrics' must be an array");
    }
    for (const util::Json& m : metrics->items) {
      util::MetricSnapshot ms;
      ms.name = util::json_str_or(m, "name", "", kContext);
      ms.labels = util::json_str_or(m, "labels", "", kContext);
      const std::string kind = util::json_str_or(m, "kind", "", kContext);
      if (kind == "counter") {
        ms.kind = util::MetricSnapshot::Kind::kCounter;
        ms.counter = util::json_u64_or(m, "value", 0, kContext);
      } else if (kind == "gauge") {
        ms.kind = util::MetricSnapshot::Kind::kGauge;
        ms.gauge = util::json_num_or(m, "value", 0, kContext);
      } else if (kind == "histogram") {
        ms.kind = util::MetricSnapshot::Kind::kHistogram;
        ms.count = util::json_u64_or(m, "count", 0, kContext);
        ms.sum = util::json_num_or(m, "sum", 0, kContext);
        const util::Json* bounds = m.find("bounds");
        const util::Json* cumulative = m.find("cumulative");
        if (bounds == nullptr || cumulative == nullptr ||
            bounds->type != util::Json::Type::kArray ||
            cumulative->type != util::Json::Type::kArray ||
            bounds->items.size() != cumulative->items.size()) {
          throw std::invalid_argument(
              "status: histogram needs matching 'bounds'/'cumulative'");
        }
        for (const util::Json& b : bounds->items) {
          ms.bounds.push_back(util::json_double(b, "status: 'bounds'"));
        }
        for (const util::Json& c : cumulative->items) {
          ms.cumulative.push_back(util::json_u64(c, "status: 'cumulative'"));
        }
      } else {
        throw std::invalid_argument("status: unknown metric kind '" + kind +
                                    "'");
      }
      doc.metrics.push_back(std::move(ms));
    }
  }
  return doc;
}

}  // namespace rbcast::trace
