#include "trace/metrics.h"

#include <algorithm>
#include <ostream>

#include "util/assert.h"

namespace rbcast::trace {

namespace {
const util::Accumulator kEmptyAccumulator{};
}

std::vector<Metrics::IndexEntry>::const_iterator Metrics::seek(Seq seq) const {
  return std::lower_bound(
      index_.begin(), index_.end(), seq,
      [](const IndexEntry& entry, Seq key) { return entry.seq < key; });
}

template <typename Fn>
void Metrics::for_each_broadcast(Seq lo, Seq hi, Fn&& fn) const {
  for (auto it = seek(lo); it != index_.end() && it->seq <= hi; ++it) {
    const sim::TimePoint* r = row(it->row);
    if (r[kBroadcastAt] != kNever) fn(it->seq, r);
  }
}

template <typename Fn>
void Metrics::for_each_delivery(const sim::TimePoint* r, Fn&& fn) const {
  for (std::size_t index = 0; index < hosts_; ++index) {
    const sim::TimePoint at = r[kRowHeader + index];
    if (at == kNever) continue;
    fn(HostId{static_cast<HostId::value_type>(index)}, at);
  }
}

Metrics::Metrics(sim::Simulator& simulator, net::Network& network)
    : simulator_(simulator),
      network_(network),
      backlog_(network.topology().server_count()),
      link_busy_(network.topology().link_count(), 0),
      hosts_(network.topology().host_count()),
      row_stride_(kRowHeader + hosts_) {}

void Metrics::attach() { network_.set_observer(this); }

Metrics::KindSlots& Metrics::kind_slots(const std::string& kind) {
  // Kinds are a handful of short names: a length mismatch rejects most
  // entries, and the rest compare inline rather than through memcmp.
  for (KindSlots& k : kinds_) {
    if (k.kind.size() == kind.size() &&
        std::equal(kind.begin(), kind.end(), k.kind.begin(),
                   [](char a, char b) { return a == b; })) {
      return k;
    }
  }
  kinds_.push_back(KindSlots{.kind = kind});
  return kinds_.back();
}

std::uint64_t* Metrics::resolve(std::initializer_list<std::string_view> name) {
  std::string key;
  for (std::string_view part : name) key += part;
  return &counters_.slot(key);
}

bool Metrics::crosses_clusters(HostId a, HostId b) {
  if (cluster_epoch_ != network_.topology_epoch()) {
    cluster_index_ = network_.host_cluster_index();
    cluster_epoch_ = network_.topology_epoch();
  }
  return cluster_index_[static_cast<std::size_t>(a.value)] !=
         cluster_index_[static_cast<std::size_t>(b.value)];
}

void Metrics::on_host_send(const net::Delivery& d) {
  KindSlots& k = kind_slots(d.kind);
  add(k.send, 1, "send.", d.kind);
  add(k.send_bytes, d.bytes, "send_bytes.", d.kind);
  if (crosses_clusters(d.from, d.to)) {
    add(k.send_intercluster, 1, "send.intercluster.", d.kind);
    add(k.send_bytes_intercluster, d.bytes, "send_bytes.intercluster.",
        d.kind);
  }
}

void Metrics::on_deliver(const net::Delivery& d) {
  add(kind_slots(d.kind).deliver, 1, "deliver.", d.kind);
}

void Metrics::on_drop(const net::Delivery& d, net::DropReason reason) {
  add(drop_[static_cast<std::size_t>(reason)], 1, "drop.", to_string(reason));
  add(kind_slots(d.kind).drop_kind, 1, "drop_kind.", d.kind);
}

void Metrics::on_link_transmit(LinkId link, const net::Delivery& d) {
  const auto& spec = network_.topology().link(link);
  const auto cls = static_cast<std::size_t>(spec.link_class);
  const char* cls_name = topo::to_string(spec.link_class);
  add(link_[cls], 1, "link.", cls_name);
  add(kind_slots(d.kind).link[cls], 1, "link.", cls_name, ".", d.kind);
  add(link_bytes_[cls], d.bytes, "link_bytes.", cls_name);
  link_busy_[static_cast<std::size_t>(link.value)] +=
      spec.transmission_time(d.bytes);
}

void Metrics::on_queue_backlog(ServerId server, LinkId /*link*/,
                               sim::Duration backlog) {
  backlog_[static_cast<std::size_t>(server.value)].add(
      sim::to_seconds(backlog));
}

const sim::TimePoint* Metrics::find_row(Seq seq) const {
  const auto it = seek(seq);
  return it != index_.end() && it->seq == seq ? row(it->row) : nullptr;
}

sim::TimePoint* Metrics::row_for(Seq seq) {
  // Broadcasts arrive in seq order, so a new seq is almost always the
  // largest yet and appends; anything else is a binary search.
  std::size_t pos = index_.size();
  if (!index_.empty() && index_.back().seq >= seq) {
    const auto it = seek(seq);
    if (it->seq == seq) return row(it->row);
    pos = static_cast<std::size_t>(it - index_.begin());
  }
  if (rows_ == row_chunks_.size() * kRowsPerChunk) {
    row_chunks_.push_back(std::make_unique_for_overwrite<sim::TimePoint[]>(
        kRowsPerChunk * row_stride_));
    // The index grows with the chunks, so a seq whose row fits in an
    // existing chunk allocates nothing.
    const std::size_t rows = row_chunks_.size() * kRowsPerChunk;
    if (index_.capacity() < rows) {
      index_.reserve(std::max(rows, 2 * index_.capacity()));
    }
  }
  const std::uint32_t index = rows_++;
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(pos),
                IndexEntry{seq, index});
  sim::TimePoint* r = row(index);
  std::fill(r, r + row_stride_, kNever);
  r[kCount] = 0;
  return r;
}

void Metrics::record_broadcast(Seq seq) {
  sim::TimePoint* r = row_for(seq);
  if (r[kBroadcastAt] == kNever) ++broadcasts_;
  r[kBroadcastAt] = simulator_.now();
}

void Metrics::record_delivery(HostId host, Seq seq) {
  const auto index = static_cast<std::size_t>(host.value);  // kNoHost wraps
  RBCAST_CHECK_ARG(index < hosts_,
                   "record_delivery: host outside the topology");
  sim::TimePoint* r = row_for(seq);
  sim::TimePoint& at = r[kRowHeader + index];
  if (at != kNever) return;  // keeps the first one
  at = simulator_.now();
  ++r[kCount];
}

std::uint64_t Metrics::counter_prefix_sum(const std::string& prefix) const {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : counters_.all()) {
    if (name.rfind(prefix, 0) == 0) sum += value;
  }
  return sum;
}

std::uint64_t Metrics::host_sends() const {
  return counter_prefix_sum("send.") - counter_prefix_sum("send.intercluster.");
}

std::uint64_t Metrics::intercluster_data_sends() const {
  return counter("send.intercluster.data") +
         counter("send.intercluster.gapfill") +
         counter("send.intercluster.data_retx");
}

std::uint64_t Metrics::intercluster_control_sends() const {
  return counter_prefix_sum("send.intercluster.") - intercluster_data_sends();
}

double Metrics::delivery_latency(HostId host, Seq seq) const {
  const sim::TimePoint* r = find_row(seq);
  if (r == nullptr || r[kBroadcastAt] == kNever) return -1.0;
  const auto index = static_cast<std::size_t>(host.value);  // kNoHost wraps
  if (index >= hosts_ || r[kRowHeader + index] == kNever) return -1.0;
  return sim::to_seconds(r[kRowHeader + index] - r[kBroadcastAt]);
}

util::Samples Metrics::all_latencies() const {
  return latencies_between(1, ~Seq{0});
}

util::Samples Metrics::latencies_between(Seq lo, Seq hi) const {
  util::Samples out;
  for_each_broadcast(lo, hi, [&](Seq, const sim::TimePoint* r) {
    for_each_delivery(r, [&](HostId, sim::TimePoint at) {
      out.add(sim::to_seconds(at - r[kBroadcastAt]));
    });
  });
  return out;
}

std::size_t Metrics::delivered_count(Seq seq) const {
  const sim::TimePoint* r = find_row(seq);
  return r != nullptr ? static_cast<std::size_t>(r[kCount]) : 0;
}

sim::Duration Metrics::link_busy_time(LinkId link) const {
  const auto idx = static_cast<std::size_t>(link.value);
  return link.valid() && idx < link_busy_.size() ? link_busy_[idx] : 0;
}

double Metrics::link_utilization(LinkId link) const {
  const sim::Duration window = simulator_.now() - window_start_;
  if (window <= 0) return 0.0;
  return static_cast<double>(link_busy_time(link)) /
         static_cast<double>(window);
}

LinkId Metrics::busiest_trunk() const {
  LinkId best = kNoLink;
  sim::Duration best_busy = 0;
  for (std::size_t idx = 0; idx < link_busy_.size(); ++idx) {
    const LinkId link{static_cast<LinkId::value_type>(idx)};
    if (network_.topology().link(link).is_access) continue;
    if (link_busy_[idx] > best_busy) {
      best_busy = link_busy_[idx];
      best = link;
    }
  }
  return best;
}

std::vector<std::pair<double, double>> Metrics::completion_curve(
    double bucket_seconds, std::size_t host_count) const {
  RBCAST_CHECK_ARG(bucket_seconds > 0, "bucket must be positive");
  std::vector<double> times;
  for_each_broadcast(0, ~Seq{0}, [&](Seq, const sim::TimePoint* r) {
    for_each_delivery(r, [&](HostId, sim::TimePoint at) {
      times.push_back(sim::to_seconds(at));
    });
  });
  const double expected =
      static_cast<double>(broadcasts_) * static_cast<double>(host_count);
  std::vector<std::pair<double, double>> curve;
  if (times.empty() || expected == 0) return curve;
  std::sort(times.begin(), times.end());
  const double horizon = times.back();
  std::size_t done = 0;
  for (double t = 0.0; t <= horizon + bucket_seconds; t += bucket_seconds) {
    while (done < times.size() && times[done] <= t) ++done;
    curve.emplace_back(t, static_cast<double>(done) / expected);
  }
  return curve;
}

const util::Accumulator& Metrics::queue_backlog(ServerId server) const {
  const auto index = static_cast<std::size_t>(server.value);  // kNoServer wraps past the end
  return index < backlog_.size() ? backlog_[index] : kEmptyAccumulator;
}

double Metrics::max_queue_backlog_seconds(ServerId server) const {
  return queue_backlog(server).max();
}

void Metrics::write_counters_csv(std::ostream& os) const {
  os << "name,value\n";
  for (const auto& [name, value] : counters_.all()) {
    os << name << ',' << value << '\n';
  }
}

void Metrics::write_latencies_csv(std::ostream& os) const {
  os << "seq,host,latency_seconds\n";
  for_each_broadcast(0, ~Seq{0}, [&](Seq seq, const sim::TimePoint* r) {
    for_each_delivery(r, [&](HostId host, sim::TimePoint at) {
      os << seq << ',' << host.value << ','
         << sim::to_seconds(at - r[kBroadcastAt]) << '\n';
    });
  });
}

void Metrics::reset() {
  counters_.clear();
  kinds_.clear();
  link_.fill(nullptr);
  link_bytes_.fill(nullptr);
  drop_.fill(nullptr);
  std::fill(backlog_.begin(), backlog_.end(), util::Accumulator{});
  std::fill(link_busy_.begin(), link_busy_.end(), 0);
  window_start_ = simulator_.now();
  index_.clear();
  rows_ = 0;
  broadcasts_ = 0;
}

}  // namespace rbcast::trace
