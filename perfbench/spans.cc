#include "spans.h"

#include <fstream>

namespace perfbench {
namespace {

// Index of the innermost open span on this thread (-1: none).
thread_local int t_current = -1;

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

int Tracer::Begin(const char* layer, const char* name, uint64_t request) {
  if (!enabled()) return -1;
  SpanRecord span;
  span.layer = layer;
  span.name = name;
  span.parent = t_current;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  if (span.parent >= 0) span.depth = spans_[span.parent].depth + 1;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  t_current = static_cast<int>(spans_.size()) - 1;
  return t_current;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
  t_current = spans_[id].parent;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  const std::vector<SpanRecord> spans = Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"layer\": \""
        << s.layer << "\", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

std::map<std::string, double> SelfMsByLayer(
    const std::vector<SpanRecord>& spans, size_t first_id) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    const int64_t parent = static_cast<int64_t>(s.parent) -
                           static_cast<int64_t>(first_id);
    if (s.parent >= 0 && parent >= 0) {
      child_ns[parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    self[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

double DepthZeroMs(const std::vector<SpanRecord>& spans) {
  double total = 0;
  for (const SpanRecord& s : spans) {
    if (s.depth == 0) total += MsBetween(s.start_ns, s.end_ns);
  }
  return total;
}

}  // namespace perfbench
