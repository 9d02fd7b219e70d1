// In-memory span tracer for the traced benchmark run.
//
// Spans are opened and closed by the forwarding decorators in
// decorators.h, around calls into each layer's public functions; nothing
// inside src/ is instrumented. Spans nest on one stack (the benchmark is
// single-threaded), so a span's parent is the span open when it began.
// On close the tracer books, per layer: calls, total time, self time (the
// span minus the part its child spans cover) and self allocations (read
// from the counting operator new at both boundaries). The first
// `keep_spans` closed spans are also kept verbatim for the Chrome
// trace_event file; everything is preallocated up front so the tracer
// itself allocates nothing while the run is measured.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "alloc_counter.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSimStep,           // sim: one Simulator::step()
  kHarnessBroadcast,  // harness: the workload generator's broadcast
  kHarnessApp,        // harness: the application delivery callback
  kTransportSend,     // transport: HostEndpoint::send as the host sees it
  kCoreUpcall,       // core: BroadcastHost::on_delivery
  kCoreTimer,         // core: a protocol timer firing
  kNetObserver,       // trace: trace::Metrics as the NetObserver
  kProtocolObserver,  // trace: trace::EventLog as the ProtocolObserver
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls{0};
  std::uint64_t total_ns{0};
  std::uint64_t self_ns{0};
  std::uint64_t self_allocs{0};
};

class Tracer {
 public:
  explicit Tracer(std::size_t keep_spans);

  void begin(Layer layer);
  void end();

  // Books allocations made by the tracing decorators themselves (e.g. the
  // wrapper closure around a timer action) as a child of the open span, so
  // they count against no layer.
  void exclude_allocs(std::uint64_t n);

  [[nodiscard]] const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t excluded_allocs() const { return excluded_; }

  // Chrome trace_event JSON ("X" events, microseconds) of the kept spans.
  void write_chrome_trace(std::ostream& os) const;

  // RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer) : tracer_(tracer) {
      tracer_.begin(layer);
    }
    ~Scope() { tracer_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

 private:
  using Clock = std::chrono::steady_clock;

  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::uint64_t allocs_at;
    std::uint64_t child_ns;
    std::uint64_t child_allocs;
  };
  struct Kept {
    std::int64_t start_ns;
    std::uint32_t dur_ns;
    Layer layer;
    std::uint8_t depth;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::size_t keep_limit_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::uint64_t excluded_{0};
};

}  // namespace perfbench
