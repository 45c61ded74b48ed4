#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

// In-memory span recorder for the traced run. Spans wrap the benchmark's
// own calls into each layer's public functions (no tracing inside the
// library); each has a name, start and end, the span that caused it, and a
// group id shared by every span of one arrival or one task. Spans stay in
// memory until the run ends and are then written out as JSON lines.
//
// One recorder per thread: Begin/End are not synchronized. Recorders from
// several threads are merged with Append after those threads have joined.

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name = nullptr;  ///< string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = kNoParent;
    std::uint64_t group = 0;
  };

  /// Per-name totals: how often a span ran, its summed duration, and its
  /// self time (duration minus the part its children cover).
  struct NameTotals {
    std::size_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };

  explicit SpanRecorder(std::size_t reserve = 0) { spans_.reserve(reserve); }

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span and returns its index (the parent handle for children).
  std::int32_t Begin(const char* name, std::int32_t parent,
                     std::uint64_t group) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.group = group;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Closes a span opened by Begin; returns its duration in nanoseconds.
  std::int64_t End(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    return span.end_ns - span.start_ns;
  }

  /// Moves every span of `other` into this recorder, re-basing parents.
  void Append(SpanRecorder&& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name. Children are assumed nested in their parent's
  /// interval (true for spans recorded by one thread with Begin/End).
  std::map<std::string, NameTotals> Totals() const;

  /// Writes one JSON object per span for which keep(span) holds (ids and
  /// parents stay those of the full recording). Returns false on I/O
  /// failure.
  bool WriteJsonl(const std::string& path,
                  const std::function<bool(const Span&)>& keep) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
