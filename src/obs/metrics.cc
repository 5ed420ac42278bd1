// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/obs/metrics.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace sos::obs {

namespace {

void AppendU64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendRow(std::string& out, const MetricRow& row) {
  out += "    {\"name\": \"";
  AppendJsonEscaped(out, row.name);
  out += "\", ";
  switch (row.kind) {
    case MetricKind::kCounter:
      out += "\"kind\": \"counter\", \"value\": ";
      AppendU64(out, row.counter);
      break;
    case MetricKind::kGauge:
      out += "\"kind\": \"gauge\", \"value\": ";
      out += FormatJsonDouble(row.gauge);
      break;
    case MetricKind::kHistogram: {
      out += "\"kind\": \"histogram\", \"count\": ";
      AppendU64(out, row.count);
      out += ", \"sum\": ";
      out += FormatJsonDouble(row.sum);
      out += ", \"buckets\": [";
      assert(row.buckets.size() == row.bounds.size() + 1);
      for (size_t i = 0; i < row.buckets.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += "{\"le\": ";
        if (i < row.bounds.size()) {
          out += FormatJsonDouble(row.bounds[i]);
        } else {
          out += "\"inf\"";
        }
        out += ", \"count\": ";
        AppendU64(out, row.buckets[i]);
        out += "}";
      }
      out += "]";
      break;
    }
  }
  out += "}";
}

}  // namespace

// --- MetricRegistry ----------------------------------------------------------

MetricRow& MetricRegistry::Slot(const std::string& name, MetricKind kind) {
  assert(!name.empty() && "metric names must be non-empty");
  const auto [it, inserted] = index_.try_emplace(name, rows_.size());
  if (inserted) {
    MetricRow& row = rows_.emplace_back();
    row.name = name;
    row.kind = kind;
  }
  MetricRow& row = rows_[it->second];
  assert(row.kind == kind && "metric kind mismatch");
  return row;
}

void MetricRegistry::SetCounter(const std::string& name, uint64_t value) {
  Slot(name, MetricKind::kCounter).counter = value;
}

void MetricRegistry::SetGauge(const std::string& name, double value) {
  Slot(name, MetricKind::kGauge).gauge = value;
}

void MetricRegistry::SetHistogram(const std::string& name, const std::vector<double>& bounds,
                                  const std::vector<uint64_t>& buckets, uint64_t count,
                                  double sum) {
  assert(buckets.size() == bounds.size() + 1 && "bucket count must match bounds + overflow");
  MetricRow& row = Slot(name, MetricKind::kHistogram);
  row.bounds = bounds;
  row.buckets = buckets;
  row.count = count;
  row.sum = sum;
}

void MetricRegistry::Append(const MetricsSnapshot& snapshot, const std::string& prefix) {
  for (const MetricRow& row : snapshot) {
    MetricRow copy = row;
    copy.name = prefix + row.name;
    MetricRow& dst = Slot(copy.name, copy.kind);
    dst = std::move(copy);
  }
}

std::string MetricRegistry::ToJson() const {
  std::string out = "{\n  \"metrics\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    AppendRow(out, rows_[i]);
    if (i + 1 < rows_.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string FormatJsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(StatusCode::kUnavailable, "cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status(StatusCode::kUnavailable, "short write to " + path);
  }
  return Status::Ok();
}

}  // namespace sos::obs
