#include "src/report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& problem) { problems_.push_back(problem); }

std::string JsonNumber(double value) {
  char buffer[64];
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, r.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Report::ResultJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) os << ", ";
    os << JsonString(metrics_[i].name) << ": {\"value\": "
       << JsonNumber(metrics_[i].value)
       << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

void Report::Print(std::ostream& os) const {
  for (const std::string& problem : problems_) {
    os << "CHECK FAILED: " << problem << "\n";
  }
  for (const Metric& m : metrics_) {
    os << m.name << " = " << JsonNumber(m.value) << " " << m.unit << "\n";
  }
  os << ResultJson() << "\n";
  os.flush();
}

}  // namespace perfbench
