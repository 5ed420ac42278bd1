// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/obs/metrics.h"

namespace sos::obs {

namespace {

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

// Field values are rendered by the With*() helpers; numeric ones arrive as
// already-formatted decimal/%.17g strings and are emitted bare, everything
// else is quoted. A value is "numeric" if the helper produced it, which we
// detect conservatively by shape so hand-built string fields stay quoted.
bool LooksNumeric(const std::string& v) {
  if (v.empty()) {
    return false;
  }
  size_t i = (v[0] == '-') ? 1 : 0;
  if (i == v.size()) {
    return false;
  }
  bool digits = false;
  for (; i < v.size(); ++i) {
    char c = v[i];
    if (c >= '0' && c <= '9') {
      digits = true;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      continue;
    } else {
      return false;
    }
  }
  return digits;
}

}  // namespace

TraceEvent& TraceEvent::With(const std::string& key, const std::string& value) {
  fields.emplace_back(key, value);
  return *this;
}

TraceEvent& TraceEvent::WithU64(const std::string& key, uint64_t value) {
  fields.emplace_back(key, FormatU64(value));
  return *this;
}

TraceEvent& TraceEvent::WithI64(const std::string& key, int64_t value) {
  fields.emplace_back(key, FormatI64(value));
  return *this;
}

TraceEvent& TraceEvent::WithF64(const std::string& key, double value) {
  fields.emplace_back(key, FormatJsonDouble(value));
  return *this;
}

TraceSink::TraceSink(size_t capacity) : capacity_(capacity) { events_.reserve(capacity_); }

void TraceSink::ToMetrics(MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "trace.events", events_.size());
  registry.SetCounter(prefix + "trace.dropped_events", dropped_);
}

std::string TraceEventToJson(const TraceEvent& event) {
  std::string out = "{\"t_us\": ";
  out += FormatU64(event.t_us);
  out += ", \"type\": \"";
  AppendJsonEscaped(out, event.type);
  out += "\"";
  for (const auto& [key, value] : event.fields) {
    out += ", \"";
    AppendJsonEscaped(out, key);
    out += "\": ";
    if (LooksNumeric(value)) {
      out += value;
    } else {
      out += "\"";
      AppendJsonEscaped(out, value);
      out += "\"";
    }
  }
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
