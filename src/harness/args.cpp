#include "harness/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "common/assert.h"

namespace gocast::harness {

Args::Args(int argc, char** argv, const std::vector<std::string>& allowed) {
  auto is_allowed = [&allowed](const std::string& name) {
    return std::find(allowed.begin(), allowed.end(), name) != allowed.end();
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // "--flag value" unless the next token is another flag or missing.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!is_allowed(name)) {
      std::cerr << "unknown flag --" << name << "\nallowed:";
      for (const auto& a : allowed) std::cerr << " --" << a;
      std::cerr << "\n";
      std::exit(2);
    }
    values_[name] = value;
  }
}

bool Args::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Args::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Args::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text, &end);
  GOCAST_ASSERT_MSG(end != text && *end == '\0' && errno != ERANGE,
                    "bad number for --" << name << ": '" << it->second << "'");
  return v;
}

namespace {

long parse_int(const std::string& name, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(text.c_str(), &end, 10);
  GOCAST_ASSERT_MSG(end != text.c_str() && *end == '\0' && errno != ERANGE,
                    "bad integer for --" << name << ": '" << text << "'");
  return v;
}

std::size_t parse_count(const std::string& name, const std::string& text) {
  long v = parse_int(name, text);
  GOCAST_ASSERT_MSG(v >= 0, "--" << name << " must not be negative, got " << v);
  return static_cast<std::size_t>(v);
}

}  // namespace

long Args::get_int(const std::string& name, long fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_int(name, it->second);
}

std::size_t Args::get_count(const std::string& name,
                            std::size_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_count(name, it->second);
}

std::vector<std::size_t> Args::get_counts(
    const std::string& name, std::vector<std::size_t> fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::size_t> counts;
  const std::string& text = it->second;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    counts.push_back(parse_count(name, text.substr(begin, comma - begin)));
    if (comma == text.size()) return counts;
    begin = comma + 1;
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace gocast::harness
