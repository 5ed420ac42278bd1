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

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i - 1] < bounds_[i] && "histogram bounds must be strictly ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  ++buckets_[BucketIndex(bounds_, v)];
  ++count_;
  sum_ += v;
}

Histogram Histogram::LatencyUs() {
  return Histogram({10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
                    25000.0, 50000.0, 100000.0});
}

Histogram Histogram::Rber() {
  return Histogram({1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1});
}

Histogram Histogram::FromParts(std::vector<double> bounds, std::vector<uint64_t> buckets,
                               uint64_t count, double sum) {
  Histogram h(std::move(bounds));
  assert(buckets.size() == h.bounds_.size() + 1 && "bucket count must match bounds + overflow");
  h.buckets_ = std::move(buckets);
  h.count_ = count;
  h.sum_ = sum;
  return h;
}

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

void MetricRegistry::SetHistogram(const std::string& name, const Histogram& histogram) {
  MetricRow& row = Slot(name, MetricKind::kHistogram);
  row.bounds = histogram.bounds();
  row.buckets = histogram.buckets();
  row.count = histogram.count();
  row.sum = histogram.sum();
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
