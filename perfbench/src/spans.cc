#include "src/spans.h"

#include <fstream>

namespace perfbench {

void SpanRecorder::Append(SpanRecorder&& other) {
  const std::int32_t base = static_cast<std::int32_t>(spans_.size());
  spans_.reserve(spans_.size() + other.spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals()
    const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = 1e-9 * static_cast<double>(span.end_ns -
                                                        span.start_ns);
    NameTotals& t = totals[span.name];
    ++t.count;
    t.total_seconds += duration;
    t.self_seconds += duration - 1e-9 * static_cast<double>(child_ns[i]);
  }
  return totals;
}

bool SpanRecorder::WriteJsonl(
    const std::string& path,
    const std::function<bool(const Span&)>& keep) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!keep(span)) continue;
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"group\":" << span.group << "}\n";
  }
  out.flush();
  return out.good();
}

}  // namespace perfbench
