// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/obs/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/obs/metrics.h"

namespace sos::obs {

namespace {

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

void TraceEvent::AppendKey(const std::string& key) {
  fields_ += ", \"";
  AppendJsonEscaped(fields_, key);
  fields_ += "\": ";
}

TraceEvent& TraceEvent::With(const std::string& key, const std::string& value) {
  AppendKey(key);
  fields_ += '"';
  AppendJsonEscaped(fields_, value);
  fields_ += '"';
  return *this;
}

TraceEvent& TraceEvent::WithU64(const std::string& key, uint64_t value) {
  AppendKey(key);
  fields_ += FormatU64(value);
  return *this;
}

TraceEvent& TraceEvent::WithF64(const std::string& key, double value) {
  if (!std::isfinite(value)) {
    return With(key, FormatJsonDouble(value));  // "nan"/"inf"/"-inf" are not JSON numbers
  }
  AppendKey(key);
  fields_ += FormatJsonDouble(value);
  return *this;
}

TraceSink::TraceSink(size_t capacity) : capacity_(capacity) { events_.reserve(capacity_); }

std::vector<TraceEvent> TraceSink::TakeEvents() {
  capacity_ = 0;
  return std::exchange(events_, {});
}

std::string TraceEventToJson(const TraceEvent& event) {
  std::string out = "{\"t_us\": ";
  out += FormatU64(event.t_us);
  out += ", \"type\": \"";
  AppendJsonEscaped(out, event.type);
  out += "\"";
  out += event.fields_json();
  out += "}";
  return out;
}

std::string TraceToJsonl(const std::vector<TraceEvent>& events, uint64_t dropped) {
  std::string out;
  for (const TraceEvent& event : events) {
    out += TraceEventToJson(event);
    out += "\n";
  }
  if (dropped > 0) {
    out += "{\"type\": \"trace.dropped\", \"count\": ";
    out += FormatU64(dropped);
    out += "}\n";
  }
  return out;
}

}  // namespace sos::obs
