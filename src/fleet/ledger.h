// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Fleet ledger: the mergeable aggregate of a device population
// (DESIGN.md §13).
//
// The determinism contract -- byte-identical aggregate output for any
// --jobs value and any shard split -- forbids floating-point accumulation:
// double addition is commutative but NOT associative, so two shard
// groupings of the same devices could disagree in the last ulp. Every
// mergeable quantity in this ledger is therefore an integer: plain counts
// (devices, gigabytes, events), or fixed-point micro-units (value x 1e6,
// rounded ONCE per device at observation time). Integer addition is an
// abelian monoid, so Merge() is exactly associative and commutative and any
// fold order -- serial, threaded, 2-shard, 8-shard -- lands on the same
// bits. Doubles are materialized only at render time, from integers that
// are already exact; carbon is one of them, priced from the gigabytes.

#ifndef SOS_SRC_FLEET_LEDGER_H_
#define SOS_SRC_FLEET_LEDGER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/archetype.h"
#include "src/obs/metrics.h"
#include "src/sos/lifetime_sim.h"

namespace sos::fleet {

// Fixed-point scale for ledger quantities: 1 unit = 1e-6 of the carried
// value (micro-years, micro-kg, ...).
inline constexpr double kMicroScale = 1e6;

// Rounds a per-device observation into ledger fixed point. The ONLY place a
// double becomes a ledger integer; everything after is exact arithmetic.
int64_t ToMicro(double value);

// Renders a fixed-point quantity back to double for reports. Exact in the
// sense that every shard grouping renders the same bits (the int is).
double FromMicro(int64_t micro);

// Fixed-bucket histogram with a fixed-point sum. Buckets follow
// obs::BucketIndex, the rule obs::Histogram uses, but the sum is carried in
// micro-units so merge stays exact.
class FleetHistogram {
 public:
  FleetHistogram() = default;
  explicit FleetHistogram(std::vector<double> upper_bounds);

  void Observe(double v);

  // Elementwise add; kInvalidArgument if bucket bounds differ.
  [[nodiscard]] Status Merge(const FleetHistogram& other);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t count() const { return count_; }
  int64_t micro_sum() const { return micro_sum_; }

  // Materializes the obs-layer histogram (sum = FromMicro(micro_sum)) for
  // registry export.
  obs::Histogram ToObs() const;

  bool operator==(const FleetHistogram&) const = default;

  // The histogram's state, in partial-file order: `visit(key, part...)` gets
  // the same part of each histogram passed. The bounds are its fixed shape,
  // not state, so they are not visited.
  template <typename Visit, typename... Histograms>
  static void ForEachPart(Visit&& visit, Histograms&... histograms) {
    visit("count", histograms.count_...);
    visit("micro_sum", histograms.micro_sum_...);
    visit("buckets", histograms.buckets_...);
  }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;  // bounds_.size() + 1, last = overflow
  uint64_t count_ = 0;
  int64_t micro_sum_ = 0;
};

// The per-device scalars the ledger folds. A plain value so tests can
// synthesize outcomes without running simulations; MakeOutcome() extracts
// one from a real LifetimeResult.
struct DeviceOutcome {
  Archetype archetype = Archetype::kLight;
  DeviceKind kind = DeviceKind::kSos;
  uint64_t full_size_gb = 128;

  double projected_lifetime_years = 0.0;
  uint64_t initial_exported_pages = 0;
  uint64_t final_exported_pages = 0;
  double pec_variance = 0.0;
  uint64_t autodelete_files = 0;
  uint64_t autodelete_bytes = 0;
  uint64_t create_failures = 0;
  uint64_t host_bytes_written = 0;
  uint64_t daemon_activations = 0;
  uint64_t trace_dropped = 0;
};

DeviceOutcome MakeOutcome(const DeviceDraw& draw, const LifetimeResult& result);

// The ledger's kind columns: a fleet device runs the SOS scheme or the TLC
// baseline.
enum class FleetKind : uint8_t { kSos = 0, kBaseline = 1 };
inline constexpr size_t kNumFleetKinds = 2;

// One integer cell per (archetype, kind), indexed [archetype][kind].
using ArchetypeKindCells = std::array<std::array<uint64_t, kNumFleetKinds>, kNumArchetypes>;

// The fleet's carbon price: embodied micro-kg of `gb` decimal GB stored on
// devices of `kind`. SOS gigabytes are priced as the pseudo-QLC / native
// PLC split of a default SosDeviceConfig (fleet devices are built with it),
// baseline gigabytes as TLC. The all-TLC counterfactual prices every
// gigabyte as kBaseline. Rounded once per call, so totals priced cell by
// cell are exact integer sums.
int64_t EmbodiedMicroKg(uint64_t gb, FleetKind kind);

// Embodied carbon of some of a ledger's gigabytes, priced at report time.
struct EmbodiedCarbon {
  uint64_t capacity_gb = 0;
  int64_t actual_micro_kg = 0;              // as built: SOS split or TLC
  int64_t tlc_counterfactual_micro_kg = 0;  // the same gigabytes built as TLC

  int64_t savings_micro_kg() const { return tlc_counterfactual_micro_kg - actual_micro_kg; }
};

// The fleet-level aggregate: devices and stored gigabytes per archetype and
// kind, and outcome distributions. Carbon is not a cell: it is priced from
// the gigabytes when reported. Fold() ingests one device; Merge() combines
// ledgers from any partition of the population (see file comment for why
// the result is bit-exact either way).
class FleetLedger {
 public:
  FleetLedger();

  void Fold(const DeviceOutcome& outcome);

  // Adds `other` cell by cell. kInvalidArgument, with this ledger
  // unchanged, if a histogram's bounds differ.
  [[nodiscard]] Status Merge(const FleetLedger& other);

  bool operator==(const FleetLedger&) const = default;

  uint64_t devices() const { return sos_devices() + baseline_devices(); }
  uint64_t archetype_devices(size_t archetype) const;
  uint64_t sos_devices() const { return KindDevices(FleetKind::kSos); }
  uint64_t baseline_devices() const { return KindDevices(FleetKind::kBaseline); }
  const FleetHistogram& lifetime_years() const { return lifetime_years_; }
  const FleetHistogram& capacity_retained() const { return capacity_retained_; }
  const FleetHistogram& autodelete_files() const { return autodelete_files_; }
  const FleetHistogram& pec_variance() const { return pec_variance_; }
  uint64_t autodelete_files_total() const { return autodelete_files_total_; }
  uint64_t autodelete_bytes_total() const { return autodelete_bytes_total_; }
  uint64_t create_failures_total() const { return create_failures_total_; }
  uint64_t host_bytes_total() const { return host_bytes_total_; }
  uint64_t daemon_activations_total() const { return daemon_activations_total_; }
  uint64_t trace_dropped_total() const { return trace_dropped_total_; }

  // Prices the gigabytes of one archetype, or of the fleet, one
  // EmbodiedMicroKg per cell.
  EmbodiedCarbon ArchetypeCarbon(size_t archetype) const {
    return PriceArchetypes(archetype, archetype + 1);
  }
  EmbodiedCarbon Carbon() const { return PriceArchetypes(0, kNumArchetypes); }

  // Registers the ledger under `prefix` ("fleet." by convention).
  // Registration order is fixed here, so the export is byte-stable for any
  // fold/merge grouping of the same population.
  void ToMetrics(obs::MetricRegistry& registry, const std::string& prefix = "fleet.") const;

  // The ledger schema: every mergeable cell once, with its partial-file
  // key, in partial-file order. A cell is a uint64_t count or a
  // FleetHistogram. `visit(key, cell...)` gets the same cell of each ledger
  // passed, so one walk serves Merge (two ledgers) and the partial codec
  // (one). A new field is one line here plus its Fold and
  // ToMetrics lines.
  template <typename Visit, typename... Ledgers>
  static void ForEachCell(Visit&& visit, Ledgers&... ledgers) {
    for (size_t a = 0; a < kNumArchetypes; ++a) {
      for (size_t k = 0; k < kNumFleetKinds; ++k) {
        visit(ArchetypeKey(a) + "devices." + kKindNames[k], ledgers.devices_[a][k]...);
        visit(ArchetypeKey(a) + "capacity_gb." + kKindNames[k], ledgers.capacity_gb_[a][k]...);
      }
    }
    visit("lifetime_years", ledgers.lifetime_years_...);
    visit("capacity_retained", ledgers.capacity_retained_...);
    visit("autodelete_files", ledgers.autodelete_files_...);
    visit("pec_variance", ledgers.pec_variance_...);
    visit("autodelete.files", ledgers.autodelete_files_total_...);
    visit("autodelete.bytes", ledgers.autodelete_bytes_total_...);
    visit("create_failures", ledgers.create_failures_total_...);
    visit("host_bytes_written", ledgers.host_bytes_total_...);
    visit("daemon_activations", ledgers.daemon_activations_total_...);
    visit("trace.dropped_events", ledgers.trace_dropped_total_...);
  }

 private:
  // "archetype.<name>." for archetype index i.
  static std::string ArchetypeKey(size_t i);
  static constexpr std::array<const char*, kNumFleetKinds> kKindNames = {"sos", "baseline"};

  uint64_t KindDevices(FleetKind kind) const;
  EmbodiedCarbon PriceArchetypes(size_t first, size_t last) const;

  ArchetypeKindCells devices_ = {};
  ArchetypeKindCells capacity_gb_ = {};
  FleetHistogram lifetime_years_;
  FleetHistogram capacity_retained_;  // final/initial exported pages
  FleetHistogram autodelete_files_;   // auto-deleted files per device
  FleetHistogram pec_variance_;       // wear spread within each device
  uint64_t autodelete_files_total_ = 0;
  uint64_t autodelete_bytes_total_ = 0;
  uint64_t create_failures_total_ = 0;
  uint64_t host_bytes_total_ = 0;
  uint64_t daemon_activations_total_ = 0;
  uint64_t trace_dropped_total_ = 0;
};

}  // namespace sos::fleet

#endif  // SOS_SRC_FLEET_LEDGER_H_
