// Ordered metric collection and the JSON the workload binary prints.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload process measured. `metrics` holds the end-to-end set
/// (untraced) or the per-layer set (traced); `notes` are run-context and
/// sample-count fields printed alongside, never compared.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Self-check failures; any entry fails the run with no numbers recorded.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  void note(std::string key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    notes.emplace_back(std::move(key), buf);
  }
  void check(bool ok, std::string what) {
    if (!ok) errors.push_back(std::move(what));
  }
};

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// One JSON object on one line: {"attempted", "failed", "errors", "notes",
/// "metrics": {name: {"value", "unit"}}}. Values keep all 17 digits.
inline void print_report(const Report& r) {
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"errors\": [",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(r.errors[i]).c_str());
  }
  std::printf("], \"notes\": {");
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                json_escape(r.notes[i].first).c_str(),
                json_escape(r.notes[i].second).c_str());
  }
  std::printf("}, \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                json_escape(r.metrics[i].name).c_str(), r.metrics[i].value,
                json_escape(r.metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
