#ifndef FIXREP_PERFBENCH_SPANS_H_
#define FIXREP_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock since the process-wide epoch.
int64_t NowNs();

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// One call into a fixrep layer, recorded by the benchmark around the
// call (the library itself is not instrumented here). `layer` is the
// module name (relation, rules, repair, common, serve); `request` groups
// the spans of one pass or one submitted batch; `parent` is the index of
// the enclosing span on the same thread, -1 at depth 0.
struct SpanRecord {
  std::string layer;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int depth = 0;
  uint64_t request = 0;
};

// In-memory span store. Disabled tracers record nothing; spans are only
// written out (WriteJson) when the run ends. Thread-safe: the serve
// workload records from two client threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Returns the span's index, or -1 when disabled.
  int Begin(const char* layer, const char* name, uint64_t request);
  void End(int id);

  std::vector<SpanRecord> Snapshot() const;
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span; always measures its own duration so untraced runs can use
// the same call sites for their timings.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name,
       uint64_t request = 0)
      : tracer_(tracer), start_ns_(NowNs()),
        id_(tracer->Begin(layer, name, request)) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (idempotent) and returns its duration in ms.
  double Stop() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      tracer_->End(id_);
    }
    return MsBetween(start_ns_, end_ns_);
  }

 private:
  Tracer* tracer_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  int id_;
};

// Self time per layer over `spans` (ms): each span's duration minus the
// part covered by its direct children. spans[i] is the tracer's span
// first_id + i (parents are tracer indices).
std::map<std::string, double> SelfMsByLayer(
    const std::vector<SpanRecord>& spans, size_t first_id = 0);

// Total duration of depth-0 spans (ms).
double DepthZeroMs(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // FIXREP_PERFBENCH_SPANS_H_
