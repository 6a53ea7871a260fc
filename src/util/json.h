// Deterministic JSON primitives shared by every stable-JSON exporter.
//
// The campaign engines, the tuner, and the obs:: telemetry exporters all
// promise "equal reports serialize to equal strings", which hangs on
// exactly one number format and one escaping rule — keep them here so no
// two exporters can drift apart.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace reshape::util {

/// Locale-independent double formatting with round-trip precision; equal
/// doubles always serialize to equal strings.
inline std::string json_number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace reshape::util
