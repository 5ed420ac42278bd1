// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Deterministic metrics layer (DESIGN.md §9).
//
// Every quantitative signal the simulator emits beyond its ASCII reports
// flows through a MetricRegistry: named counter, gauge and fixed-bucket
// histogram rows whose *registration order is the export order*. That single
// rule is what makes telemetry part of the repo's determinism contract --
// the JSON rendered from a registry is byte-identical across reruns and for
// any --jobs value, because nothing about it depends on hash order, wall
// clock, or thread scheduling. Names follow `layer.component.metric`
// (e.g. "ftl.pool.SYS.gc_relocations", "fleet.lifetime_years").
//
// Time never enters this layer except as *simulated* time carried in by the
// caller; soslint R2 applies to obs like any other library.

#ifndef SOS_SRC_OBS_METRICS_H_
#define SOS_SRC_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace sos::obs {

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

// One metric row: a named point-in-time value. The registry stores these
// directly; a vector of them is the portable form results carry across
// threads (LifetimeResult::device_metrics) and what the JSON renderer
// consumes.
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;               // kCounter
  double gauge = 0.0;                 // kGauge
  std::vector<double> bounds;         // kHistogram
  std::vector<uint64_t> buckets;      // kHistogram (bounds.size() + 1)
  uint64_t count = 0;                 // kHistogram
  double sum = 0.0;                   // kHistogram

  bool operator==(const MetricRow& other) const = default;
};

using MetricsSnapshot = std::vector<MetricRow>;

// Named metric rows. Registration order is stable export order. Each name
// holds one row: a repeated Set* of the name overwrites that row in place,
// and setting it as another kind asserts. The name index is a hash map used
// for lookup only; every walk of the registry goes through the ordered row
// vector (soslint R1).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Register-and-assign in one step. Exporters (the ToMetrics()
  // implementations) keep their counters as plain struct fields and call
  // these at export time.
  void SetCounter(const std::string& name, uint64_t value);
  void SetGauge(const std::string& name, double value);
  // A histogram row from its parts: `buckets` holds bounds.size() + 1
  // counts for the ascending, inclusive upper `bounds`; the last is the
  // overflow bucket.
  void SetHistogram(const std::string& name, const std::vector<double>& bounds,
                    const std::vector<uint64_t>& buckets, uint64_t count, double sum);

  // Copies snapshot rows into this registry (each name prefixed with
  // `prefix`), preserving their order. Lets a result captured in a worker
  // thread be merged into a report registry deterministically.
  void Append(const MetricsSnapshot& snapshot, const std::string& prefix = "");

  size_t size() const { return rows_.size(); }

  // Rows in registration order.
  const MetricsSnapshot& Snapshot() const { return rows_; }

  // Deterministic JSON document (see DESIGN.md §9 for the schema). Doubles
  // are rendered with %.17g so the round trip is exact and byte-stable.
  std::string ToJson() const;

 private:
  // The row named `name`, appended with `kind` on first use.
  MetricRow& Slot(const std::string& name, MetricKind kind);

  MetricsSnapshot rows_;                            // export order
  std::unordered_map<std::string, size_t> index_;   // lookup only, never iterated
};

// Appends `s` to `out` with JSON string escaping (quote, backslash and
// control characters; no surrounding quotes).
void AppendJsonEscaped(std::string& out, const std::string& s);

// %.17g double formatting shared by the JSON emitters (exact round trip,
// byte-stable across reruns on one platform).
std::string FormatJsonDouble(double v);

// Writes `json` to `path` atomically enough for bench use (truncate +
// write + close). kUnavailable on any I/O failure.
[[nodiscard]] Status WriteFile(const std::string& path, const std::string& content);

}  // namespace sos::obs

#endif  // SOS_SRC_OBS_METRICS_H_
