#include "sim/time.hpp"

#include <cstdio>

namespace sim {

namespace {

std::string format_ns(std::int64_t ns) {
  const char* sign = ns < 0 ? "-" : "";
  const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                   : static_cast<std::uint64_t>(ns);
  const double v = static_cast<double>(mag);
  char buf[64];
  if (mag < 1'000) {
    std::snprintf(buf, sizeof(buf), "%s%lluns", sign,
                  static_cast<unsigned long long>(mag));
  } else if (mag < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%s%.3fus", sign, v / 1e3);
  } else if (mag < 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%s%.3fms", sign, v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", sign, v / 1e9);
  }
  return buf;
}

}  // namespace

std::string Duration::to_string() const { return format_ns(ns_); }
std::string Time::to_string() const { return format_ns(ns_); }

}  // namespace sim
