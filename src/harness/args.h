// Tiny command-line flag parser for the tools and examples:
// --name=value or --name value; unknown flags are fatal (typos should not
// silently run the wrong experiment), and so are numeric values with
// trailing characters or out of range.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gocast::harness {

class Args {
 public:
  /// Parses argv. `allowed` lists every legal flag name (without "--").
  Args(int argc, char** argv, const std::vector<std::string>& allowed);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;
  /// get_int for sizes and counts: a negative value is an error rather than
  /// a wrap to a huge unsigned count.
  [[nodiscard]] std::size_t get_count(const std::string& name,
                                      std::size_t fallback) const;
  /// A comma-separated list of counts ("8192,32768"); each element is
  /// checked as get_count checks one value.
  [[nodiscard]] std::vector<std::size_t> get_counts(
      const std::string& name, std::vector<std::size_t> fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gocast::harness
