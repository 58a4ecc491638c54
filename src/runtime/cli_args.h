// Strict parsing of numeric command-line flag values, shared by the tools:
// signs, garbage, trailing characters and out-of-range values are usage
// errors, never whatever atoi would make of them.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace ccsig::runtime {

/// Parses a decimal count in [lo, hi] (lo >= 0) into `out`; returns false,
/// leaving `out` alone, on anything else.
template <typename T>
bool parse_count(const char* text, T& out, T lo = 0,
                 T hi = std::numeric_limits<T>::max()) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < static_cast<unsigned long long>(lo) ||
      v > static_cast<unsigned long long>(hi)) {
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

/// Parses a finite decimal number in the interval from `lo` to `hi` into
/// `out`; `open_lo` / `open_hi` exclude that endpoint. Returns false,
/// leaving `out` alone, on anything else.
inline bool parse_double(const char* text, double& out, double lo, double hi,
                         bool open_lo = false, bool open_hi = false) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) ||
      v < lo || v > hi || (open_lo && v == lo) || (open_hi && v == hi)) {
    return false;
  }
  out = v;
  return true;
}

/// Seconds in [0, 1e9], so int64 nanoseconds stay in range.
inline bool parse_seconds(const char* text, double& out) {
  return parse_double(text, out, 0, 1e9);
}

}  // namespace ccsig::runtime
