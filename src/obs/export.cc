#include "obs/export.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

namespace reshape::obs {

bool env_enabled(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return fallback;
  }
  const std::string_view v{value};
  return !(v == "0" || v == "off" || v == "false" || v == "OFF" ||
           v == "no");
}

TelemetryConfig TelemetryConfig::from_env(TelemetryConfig fallback) {
  TelemetryConfig config;
  config.metrics = env_enabled("OBS_METRICS", fallback.metrics);
  config.tracing = env_enabled("OBS_TRACE", fallback.tracing);
  config.profiling = env_enabled("OBS_PROFILE", fallback.profiling);
  config.windowed = env_enabled("OBS_WINDOWED", fallback.windowed);
  config.privacy = env_enabled("OBS_PRIVACY", fallback.privacy);
  config.privacy_pairs =
      env_enabled("OBS_PRIVACY_PAIRS", fallback.privacy_pairs);
  config.window = fallback.window;
  if (const char* value = std::getenv("OBS_WINDOW_US"); value != nullptr) {
    const long long us = std::atoll(value);
    if (us > 0) {
      config.window = util::Duration::microseconds(us);
    }
  }
  return config;
}

std::string TelemetryExport::to_json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  if (metrics != nullptr) {
    out << "\"metrics\":" << metrics->to_json();
    first = false;
  }
  if (windows != nullptr) {
    if (!first) {
      out << ",";
    }
    out << "\"windows\":" << windows->to_json();
    first = false;
  }
  if (profiler != nullptr) {
    if (!first) {
      out << ",";
    }
    out << "\"profile\":" << profiler->to_json();
    first = false;
  }
  if (trace != nullptr) {
    if (!first) {
      out << ",";
    }
    out << "\"trace\":" << trace->to_json();
  }
  out << "}";
  return out.str();
}

std::string EngineTelemetry::to_json() const {
  TelemetryExport doc;
  if (config.metrics) {
    doc.metrics = &metrics;
  }
  if (config.windowed || config.privacy) {
    doc.windows = &windows;
  }
  if (config.profiling) {
    doc.profiler = &profiler;
  }
  return doc.to_json();
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << contents;
  return static_cast<bool>(out);
}

}  // namespace reshape::obs
