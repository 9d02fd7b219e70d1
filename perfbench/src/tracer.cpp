#include "tracer.h"

#include <algorithm>
#include <ostream>

namespace perfbench {

namespace {
// Deepest nesting seen is step -> upcall -> send -> observer; the margin
// keeps stack_ from ever reallocating mid-run.
constexpr std::size_t kMaxDepth = 64;
}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimStep:
      return "sim.step";
    case Layer::kHarnessBroadcast:
      return "harness.broadcast";
    case Layer::kHarnessApp:
      return "harness.app_deliver";
    case Layer::kTransportSend:
      return "transport.send";
    case Layer::kCoreUpcall:
      return "core.upcall";
    case Layer::kCoreTimer:
      return "core.timer";
    case Layer::kNetObserver:
      return "trace.net_observer";
    case Layer::kProtocolObserver:
      return "trace.protocol_observer";
    case Layer::kCount:
      break;
  }
  return "?";
}

Tracer::Tracer(std::size_t keep_spans)
    : origin_(Clock::now()), keep_limit_(keep_spans) {
  stack_.reserve(kMaxDepth);
  kept_.reserve(keep_spans);
}

void Tracer::begin(Layer layer) {
  stack_.push_back(Open{layer, now_ns(), alloc_count(), 0, 0});
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const std::uint64_t allocs_now = alloc_count();
  const Open open = stack_.back();
  stack_.pop_back();
  const auto dur = static_cast<std::uint64_t>(t - open.start_ns);
  const std::uint64_t allocs = allocs_now - open.allocs_at;
  LayerTotals& lt = totals_[static_cast<std::size_t>(open.layer)];
  ++lt.calls;
  lt.total_ns += dur;
  lt.self_ns += dur - std::min(dur, open.child_ns);
  lt.self_allocs += allocs - std::min(allocs, open.child_allocs);
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().child_allocs += allocs;
  }
  if (kept_.size() < keep_limit_) {
    kept_.push_back(Kept{open.start_ns,
                         static_cast<std::uint32_t>(
                             std::min<std::uint64_t>(dur, UINT32_MAX)),
                         open.layer,
                         static_cast<std::uint8_t>(stack_.size())});
  }
}

void Tracer::exclude_allocs(std::uint64_t n) {
  excluded_ += n;
  if (!stack_.empty()) stack_.back().child_allocs += n;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const Kept& k : kept_) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << layer_name(k.layer)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(k.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(k.dur_ns) / 1000.0
       << ",\"args\":{\"depth\":" << static_cast<int>(k.depth) << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
