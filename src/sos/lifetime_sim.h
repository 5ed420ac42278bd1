// Copyright (c) 2026 The SOS Authors. MIT License.
//
// End-to-end device-lifetime simulation: Figure 2 running for years.
//
// Wires the whole stack together -- workload generator -> file system ->
// (SOS or baseline) device -> NAND -- and runs it for a configurable number
// of simulated days with the SOS daemons on their schedules:
//   daily    migration daemon (classification review, §4.4)
//   monthly  degradation monitor (scrub + cloud repair, §4.3)
//   daily    auto-delete check (§4.5)
//
// The simulation runs at reduced geometry: a ~hundreds-of-MiB die stands in
// for a 128 GB phone, with file sizes and daily write volume scaled by the
// same factor, so wear *ratios* (bytes written / capacity / endurance) match
// the full-size device. Payload storage is off by default (error counts are
// still exact; content bytes are not retained), letting multi-year runs
// finish in seconds; tests and the quickstart run small payload-on configs.

#ifndef SOS_SRC_SOS_LIFETIME_SIM_H_
#define SOS_SRC_SOS_LIFETIME_SIM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/classify/logistic.h"
#include "src/host/cache_workload.h"
#include "src/host/workload.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sos/daemons.h"
#include "src/sos/sos_device.h"

namespace sos {

enum class DeviceKind : uint8_t {
  kSos,          // split pseudo-QLC / PLC with daemons (the paper's design)
  kTlcBaseline,  // conventional TLC device, uniform strong ECC
  kQlcBaseline,  // conventional QLC device, uniform strong ECC
  kPlcNaive,     // PLC everywhere with strong ECC but no SOS management
};

const char* DeviceKindName(DeviceKind kind);

// Short identifier safe for metric names and file paths ("sos", "tlc", ...).
const char* DeviceKindSlug(DeviceKind kind);

// Coarse device condition derived from wear and retained capacity; the
// simulation counts transitions between these states (health telemetry).
enum class HealthState : uint8_t { kHealthy, kWorn, kCritical };

const char* HealthStateName(HealthState state);

// Which workload drives the simulated device.
enum class WorkloadKind : uint8_t {
  kMobile,      // personal-device mix (photos, apps, caches; §2.3.2)
  kFlashCache,  // CacheLib-style TTL churn (src/host/cache_workload.h)
};

struct LifetimeSimConfig {
  DeviceKind kind = DeviceKind::kSos;
  uint64_t seed = 1;
  uint32_t days = 365 * 3;  // typical phone service life (§2.3.2)

  // Scaled-down geometry (see file comment). ~320 MiB of PLC cells.
  NandConfig nand;

  WorkloadKind workload_kind = WorkloadKind::kMobile;
  MobileWorkloadConfig workload;
  FlashCacheWorkloadConfig cache_workload;  // used when kind is kFlashCache
  uint64_t file_size_cap = 256 * kKiB;  // clamp synthesized file sizes

  // Daemon scheduling.
  uint32_t classify_period_days = 1;
  uint32_t scrub_period_days = 30;
  bool enable_autodelete = true;
  bool enable_cloud = false;

  MigrationDaemonConfig migration;
  AutoDeleteConfig autodelete;
  DegradationMonitorConfig monitor;
  SosDeviceConfig sos;  // nand is overwritten from `nand`

  // Classifier training corpus size (trained before the sim starts).
  size_t training_files = 6000;

  // Periodic on-device retraining (paper §4.4: "periodically re-evaluate
  // user preferences as these tend to change over time"): every N days the
  // classifiers are refit on the device's current file population (whose
  // ground-truth labels stand in for collected user feedback). 0 = off.
  uint32_t retrain_period_days = 0;

  // Record a DaySample every this many days.
  uint32_t sample_period_days = 30;

  // Capacity of the per-run trace buffer (keep-first / drop-newest; see
  // obs/trace.h). Fleet runs shrink this to 0 so a million devices don't
  // retain a million traces -- the dropped counter still accounts for every
  // event that would have been recorded.
  size_t trace_capacity = obs::TraceSink::kDefaultCapacity;

  // Capture the per-device metric rows (ftl.*, flash.die.*) into the
  // result. That is ~100 rows per run; the fleet runner turns this off and
  // folds only the scalar outcomes into its ledger.
  bool capture_device_metrics = true;

  LifetimeSimConfig() {
    nand.num_blocks = 256;
    nand.wordlines_per_block = 64;
    nand.page_size_bytes = 4096;
    nand.tech = CellTech::kPlc;
    nand.store_payloads = false;
    workload.photos_per_day = 8.0;
    workload.cache_files_per_day = 30.0;
    workload.reads_per_day = 200.0;
  }
};

struct DaySample {
  uint32_t day = 0;
  double max_wear_ratio = 0.0;      // worst block PEC / effective endurance
  double mean_pec = 0.0;            // die-wide
  uint64_t exported_pages = 0;      // capacity variance over time
  double fs_free_fraction = 0.0;
  uint64_t live_files = 0;
  uint64_t retired_blocks = 0;
  // Estimated media quality of SPARE data (1.0 for baselines, which store
  // everything reliably). Mean over mapped SPARE pages of the video-model
  // quality at each page's current predicted RBER.
  double spare_quality = 1.0;
  uint64_t spare_pages = 0;
};

// Outcome of one lifetime run. Mutation is confined to the owning
// LifetimeSim (friend); consumers read through the accessors or export via
// ToMetrics(). The result is a plain value: it carries its
// telemetry (metric rows + trace events) across worker threads, so batch
// exports stay independent of scheduling.
class LifetimeResult {
 public:
  DeviceKind kind() const { return kind_; }
  const std::vector<DaySample>& samples() const { return samples_; }
  const FtlStats& ftl() const { return ftl_; }
  uint64_t host_bytes_written() const { return host_bytes_written_; }
  // Bytes of file content returned to the host by successful reads ("served"
  // bytes, the denominator of the flash cache's carbon-per-served-byte).
  uint64_t bytes_served() const { return bytes_served_; }
  // Final population variance of per-block PEC across all pool-owned blocks
  // (the wear-variance outcome the lifetime-aware allocator targets).
  double pec_variance() const { return pec_variance_; }
  uint64_t create_failures() const { return create_failures_; }  // rejected even after auto-delete
  double final_max_wear_ratio() const { return final_max_wear_ratio_; }
  double final_mean_wear_ratio() const { return final_mean_wear_ratio_; }
  uint64_t final_exported_pages() const { return final_exported_pages_; }
  uint64_t initial_exported_pages() const { return initial_exported_pages_; }
  double final_spare_quality() const { return final_spare_quality_; }
  const MigrationDaemon::RunStats& migration() const { return migration_; }
  const AutoDeleteManager::RunStats& autodelete() const { return autodelete_; }
  const DegradationMonitor::RunStats& monitor() const { return monitor_; }
  uint64_t files_alive() const { return files_alive_; }
  uint64_t retrainings() const { return retrainings_; }

  // Years of identical use until the worst block reaches its endurance,
  // extrapolated from the final wear slope. The paper's order-of-magnitude
  // wear-gap claim (§2.3.2) reads directly off this.
  double projected_lifetime_years() const { return projected_lifetime_years_; }

  // --- Telemetry captured during the run (DESIGN.md §9) --------------------

  // Device metric rows (ftl.*, flash.die.*) snapshotted at end of run.
  const obs::MetricsSnapshot& device_metrics() const { return device_metrics_; }
  // FTL + daemon event trace, bounded (keep-first) with overflow count.
  const std::vector<obs::TraceEvent>& trace() const { return trace_; }
  uint64_t trace_dropped() const { return trace_dropped_; }
  // Total daemon RunOnce invocations (migration + monitor + auto-delete).
  uint64_t daemon_activations() const { return daemon_activations_; }
  // Coarse health-state changes observed over the run (see HealthState).
  uint64_t health_transitions() const { return health_transitions_; }

  // Registers the run's scalar outcomes (sim.*), daemon counters (sos.*)
  // and the captured device rows, each name prefixed with `prefix`.
  // Registration order is fixed by this function, so the export is
  // byte-stable for a given build.
  void ToMetrics(obs::MetricRegistry& registry, const std::string& prefix = "") const;

 private:
  friend class LifetimeSim;

  DeviceKind kind_ = DeviceKind::kSos;
  std::vector<DaySample> samples_;
  FtlStats ftl_;
  uint64_t host_bytes_written_ = 0;
  uint64_t bytes_served_ = 0;
  double pec_variance_ = 0.0;
  uint64_t create_failures_ = 0;
  double final_max_wear_ratio_ = 0.0;
  double final_mean_wear_ratio_ = 0.0;
  uint64_t final_exported_pages_ = 0;
  uint64_t initial_exported_pages_ = 0;
  double final_spare_quality_ = 1.0;
  MigrationDaemon::RunStats migration_;
  AutoDeleteManager::RunStats autodelete_;
  DegradationMonitor::RunStats monitor_;
  uint64_t files_alive_ = 0;
  uint64_t retrainings_ = 0;
  double projected_lifetime_years_ = 0.0;
  obs::MetricsSnapshot device_metrics_;
  std::vector<obs::TraceEvent> trace_;
  uint64_t trace_dropped_ = 0;
  uint64_t daemon_activations_ = 0;
  uint64_t health_transitions_ = 0;
};

class LifetimeSim {
 public:
  explicit LifetimeSim(const LifetimeSimConfig& config);

  // Runs the configured number of days and returns the result. Can be called
  // once per instance: the result takes the run's trace and state over.
  LifetimeResult Run();

 private:
  void ApplyEvent(const WorkloadEvent& event);
  void RunDaemons(uint32_t day);
  DaySample Sample(uint32_t day) const;
  double EstimateSpareQuality(uint64_t* pages_out) const;
  std::vector<uint8_t> ContentFor(uint64_t ref, uint64_t bytes);
  // Re-derives the coarse health state and counts/traces transitions.
  void UpdateHealthState(uint32_t day);
  // The live file `ref` names, or 0 for none.
  uint64_t FileIdOf(uint64_t ref) const {
    return ref < ref_to_fsid_.size() ? ref_to_fsid_[ref] : 0;
  }

  LifetimeSimConfig config_;
  SimClock clock_;
  std::unique_ptr<FtlBlockDevice> device_;
  SosDevice* sos_device_ = nullptr;  // device_ when kind is kSos, else null
  // Memoizes one open placement handle per distinct spec the host declares;
  // workload creates and daemon reclassifications all mint through it.
  std::unique_ptr<PlacementDirectory> placements_;
  std::unique_ptr<ExtentFileSystem> fs_;
  std::unique_ptr<WorkloadGenerator> workload_;
  std::unique_ptr<LogisticClassifier> priority_model_;
  std::unique_ptr<LogisticClassifier> deletion_model_;
  std::unique_ptr<MigrationDaemon> migration_;
  std::unique_ptr<DegradationMonitor> monitor_;
  std::unique_ptr<AutoDeleteManager> autodelete_;
  std::unique_ptr<InMemoryCloud> cloud_;
  // Workload file-ref -> live file id, indexed by ref; 0 is "no file" (file
  // ids start at 1). Refs are dense and never reused (WorkloadGenerator), so
  // the vector holds one word per create the workload ever made.
  std::vector<uint64_t> ref_to_fsid_;
  obs::TraceSink trace_;
  HealthState health_state_ = HealthState::kHealthy;
  LifetimeResult result_;
};

// The FTL behind whichever device kind is active (caller: perfbench/mirror.cc).
Ftl& FtlOf(SosDevice* sos_dev, BaselineDevice* baseline);

}  // namespace sos

#endif  // SOS_SRC_SOS_LIFETIME_SIM_H_
