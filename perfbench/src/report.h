#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

// The result of one benchmark run: output checks, attempt counts and named
// metrics with units. Printed as one human-readable line per metric and,
// last, the single JSON result line.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run will report correct=false.
  void Fail(const std::string& problem);

  void set_attempted(std::size_t n) { attempted_ = n; }
  void set_failed(std::size_t n) { failed_ = n; }

  bool correct() const { return problems_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& problems() const { return problems_; }

  /// "name = value unit" lines, then the JSON result line.
  void Print(std::ostream& os) const;
  std::string ResultJson() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Shortest decimal text that parses back to the same double.
std::string JsonNumber(double value);

/// Escapes a string for inclusion in JSON (quotes included).
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
