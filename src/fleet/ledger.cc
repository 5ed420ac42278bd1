// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fleet/ledger.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "src/carbon/embodied.h"
#include "src/sos/sos_device.h"

namespace sos::fleet {

namespace {

// Distribution bounds. Fixed constants (never data-derived), so every
// partial of every fleet shares bucket shapes and Merge() is total.
std::vector<double> LifetimeBounds() {
  return {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 25.0, 50.0};
}

std::vector<double> CapacityRetainedBounds() {
  return {0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.925, 0.95, 0.975, 0.99, 1.0};
}

std::vector<double> AutodeleteBounds() {
  return {0.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0};
}

std::vector<double> PecVarianceBounds() {
  return {1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0};
}

}  // namespace

int64_t ToMicro(double value) { return std::llround(value * kMicroScale); }

double FromMicro(int64_t micro) { return static_cast<double>(micro) / kMicroScale; }

int64_t EmbodiedMicroKg(uint64_t gb, FleetKind kind) {
  const FlashCarbonModel model;
  // SYS is pseudo-QLC, SPARE native PLC (paper §4.1-4.2).
  const double kg_per_gb =
      kind == FleetKind::kSos
          ? model.KgPerGbSplit(CellTech::kQlc, CellTech::kPlc, SosDeviceConfig{}.sys_share)
          : model.KgPerGb(CellTech::kTlc);
  return ToMicro(static_cast<double>(gb) * kg_per_gb);
}

// --- FleetHistogram ----------------------------------------------------------

FleetHistogram::FleetHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i - 1] < bounds_[i] && "histogram bounds must be strictly ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void FleetHistogram::Observe(double v) {
  ++buckets_[obs::BucketIndex(bounds_, v)];
  ++count_;
  micro_sum_ += ToMicro(v);
}

Status FleetHistogram::Merge(const FleetHistogram& other) {
  if (bounds_ != other.bounds_) {
    return Status(StatusCode::kInvalidArgument, "fleet histogram merge: bounds differ");
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  micro_sum_ += other.micro_sum_;
  return Status::Ok();
}

obs::Histogram FleetHistogram::ToObs() const {
  return obs::Histogram::FromParts(bounds_, buckets_, count_, FromMicro(micro_sum_));
}

// --- DeviceOutcome -----------------------------------------------------------

DeviceOutcome MakeOutcome(const DeviceDraw& draw, const LifetimeResult& result) {
  DeviceOutcome outcome;
  outcome.archetype = draw.archetype;
  outcome.kind = result.kind();
  outcome.full_size_gb = draw.full_size_gb;
  outcome.projected_lifetime_years = result.projected_lifetime_years();
  outcome.initial_exported_pages = result.initial_exported_pages();
  outcome.final_exported_pages = result.final_exported_pages();
  outcome.pec_variance = result.pec_variance();
  outcome.autodelete_files = result.autodelete().files_deleted;
  outcome.autodelete_bytes = result.autodelete().bytes_freed;
  outcome.create_failures = result.create_failures();
  outcome.host_bytes_written = result.host_bytes_written();
  outcome.daemon_activations = result.daemon_activations();
  outcome.trace_dropped = result.trace_dropped();
  return outcome;
}

// --- FleetLedger -------------------------------------------------------------

FleetLedger::FleetLedger()
    : lifetime_years_(LifetimeBounds()),
      capacity_retained_(CapacityRetainedBounds()),
      autodelete_files_(AutodeleteBounds()),
      pec_variance_(PecVarianceBounds()) {}

void FleetLedger::Fold(const DeviceOutcome& outcome) {
  const auto archetype = static_cast<size_t>(outcome.archetype);
  const auto kind = static_cast<size_t>(outcome.kind == DeviceKind::kSos ? FleetKind::kSos
                                                                          : FleetKind::kBaseline);
  ++devices_[archetype][kind];
  capacity_gb_[archetype][kind] += outcome.full_size_gb;

  // Distribution observations. Lifetime is clamped to 100 years: a device
  // that saw no wear projects "effectively forever", which would swamp the
  // population mean; clamped it still lands in the overflow bucket.
  const double lifetime = std::min(outcome.projected_lifetime_years, 100.0);
  lifetime_years_.Observe(lifetime);
  const double retained =
      outcome.initial_exported_pages > 0
          ? static_cast<double>(outcome.final_exported_pages) /
                static_cast<double>(outcome.initial_exported_pages)
          : 1.0;
  capacity_retained_.Observe(retained);
  autodelete_files_.Observe(static_cast<double>(outcome.autodelete_files));
  pec_variance_.Observe(outcome.pec_variance);

  autodelete_files_total_ += outcome.autodelete_files;
  autodelete_bytes_total_ += outcome.autodelete_bytes;
  create_failures_total_ += outcome.create_failures;
  host_bytes_total_ += outcome.host_bytes_written;
  daemon_activations_total_ += outcome.daemon_activations;
  trace_dropped_total_ += outcome.trace_dropped;
}

Status FleetLedger::Merge(const FleetLedger& other) {
  // Shapes first, so a refused merge adds nothing.
  Status status = Status::Ok();
  ForEachCell(
      [&](const std::string& key, const auto& mine, const auto& theirs) {
        if constexpr (std::is_same_v<decltype(mine), const FleetHistogram&>) {
          if (status.ok() && mine.bounds() != theirs.bounds()) {
            status = Status(StatusCode::kInvalidArgument,
                            "fleet ledger merge: bounds of '" + key + "' differ");
          }
        }
      },
      *this, other);
  if (!status.ok()) {
    return status;
  }
  ForEachCell(
      [&](const std::string&, auto& mine, const auto& theirs) {
        if constexpr (std::is_same_v<decltype(mine), FleetHistogram&>) {
          status = mine.Merge(theirs);  // cannot fail: shapes checked above
        } else {
          mine += theirs;
        }
      },
      *this, other);
  return status;
}

std::string FleetLedger::ArchetypeKey(size_t i) {
  return std::string("archetype.") + ArchetypeName(static_cast<Archetype>(i)) + ".";
}

uint64_t FleetLedger::archetype_devices(size_t archetype) const {
  return std::accumulate(devices_[archetype].begin(), devices_[archetype].end(), uint64_t{0});
}

uint64_t FleetLedger::KindDevices(FleetKind kind) const {
  uint64_t total = 0;
  for (const auto& row : devices_) {
    total += row[static_cast<size_t>(kind)];
  }
  return total;
}

EmbodiedCarbon FleetLedger::PriceArchetypes(size_t first, size_t last) const {
  EmbodiedCarbon carbon;
  for (size_t a = first; a < last; ++a) {
    for (size_t k = 0; k < kNumFleetKinds; ++k) {
      const uint64_t gb = capacity_gb_[a][k];
      carbon.capacity_gb += gb;
      carbon.actual_micro_kg += EmbodiedMicroKg(gb, static_cast<FleetKind>(k));
      carbon.tlc_counterfactual_micro_kg += EmbodiedMicroKg(gb, FleetKind::kBaseline);
    }
  }
  return carbon;
}

void FleetLedger::ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "devices", devices());
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    registry.SetCounter(prefix + ArchetypeKey(i) + "devices", archetype_devices(i));
  }
  registry.SetCounter(prefix + "devices.sos", sos_devices());
  registry.SetCounter(prefix + "devices.baseline", baseline_devices());
  registry.SetHistogram(prefix + "lifetime_years", lifetime_years_.ToObs());
  registry.SetHistogram(prefix + "capacity_retained", capacity_retained_.ToObs());
  registry.SetHistogram(prefix + "autodelete_files", autodelete_files_.ToObs());
  registry.SetHistogram(prefix + "pec_variance", pec_variance_.ToObs());
  const EmbodiedCarbon carbon = Carbon();
  registry.SetGauge(prefix + "carbon.actual_kg", FromMicro(carbon.actual_micro_kg));
  registry.SetGauge(prefix + "carbon.tlc_counterfactual_kg",
                    FromMicro(carbon.tlc_counterfactual_micro_kg));
  registry.SetGauge(prefix + "carbon.savings_kg", FromMicro(carbon.savings_micro_kg()));
  registry.SetGauge(prefix + "carbon.capacity_gb", static_cast<double>(carbon.capacity_gb));
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    const std::string arch_prefix = prefix + ArchetypeKey(i) + "carbon.";
    const EmbodiedCarbon archetype_carbon = ArchetypeCarbon(i);
    registry.SetGauge(arch_prefix + "actual_kg", FromMicro(archetype_carbon.actual_micro_kg));
    registry.SetGauge(arch_prefix + "savings_kg", FromMicro(archetype_carbon.savings_micro_kg()));
  }
  registry.SetCounter(prefix + "autodelete.files", autodelete_files_total_);
  registry.SetCounter(prefix + "autodelete.bytes", autodelete_bytes_total_);
  registry.SetCounter(prefix + "create_failures", create_failures_total_);
  registry.SetCounter(prefix + "host_bytes_written", host_bytes_total_);
  registry.SetCounter(prefix + "daemon_activations", daemon_activations_total_);
  registry.SetCounter(prefix + "trace.dropped_events", trace_dropped_total_);
}

}  // namespace sos::fleet
