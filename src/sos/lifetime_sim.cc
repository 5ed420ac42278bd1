// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/sos/lifetime_sim.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/classify/corpus.h"
#include "src/common/rng.h"
#include "src/media/quality.h"

namespace sos {

const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kSos:
      return "SOS (pQLC+PLC)";
    case DeviceKind::kTlcBaseline:
      return "TLC baseline";
    case DeviceKind::kQlcBaseline:
      return "QLC baseline";
    case DeviceKind::kPlcNaive:
      return "PLC naive";
  }
  return "???";
}

const char* DeviceKindSlug(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kSos:
      return "sos";
    case DeviceKind::kTlcBaseline:
      return "tlc";
    case DeviceKind::kQlcBaseline:
      return "qlc";
    case DeviceKind::kPlcNaive:
      return "plc_naive";
  }
  return "unknown";
}

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kWorn:
      return "worn";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

void LifetimeResult::ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "sim.host_bytes_written", host_bytes_written_);
  registry.SetCounter(prefix + "sim.create_failures", create_failures_);
  registry.SetGauge(prefix + "sim.final_max_wear_ratio", final_max_wear_ratio_);
  registry.SetGauge(prefix + "sim.final_mean_wear_ratio", final_mean_wear_ratio_);
  registry.SetCounter(prefix + "sim.initial_exported_pages", initial_exported_pages_);
  registry.SetCounter(prefix + "sim.final_exported_pages", final_exported_pages_);
  registry.SetGauge(prefix + "sim.final_spare_quality", final_spare_quality_);
  registry.SetCounter(prefix + "sim.files_alive", files_alive_);
  registry.SetCounter(prefix + "sim.retrainings", retrainings_);
  registry.SetGauge(prefix + "sim.projected_lifetime_years", projected_lifetime_years_);
  registry.SetCounter(prefix + "sim.bytes_served", bytes_served_);
  registry.SetGauge(prefix + "sim.pec_variance", pec_variance_);
  registry.SetCounter(prefix + "sos.daemon.activations", daemon_activations_);
  registry.SetCounter(prefix + "sos.health.transitions", health_transitions_);
  registry.SetCounter(prefix + "sos.migration.scanned", migration_.scanned);
  registry.SetCounter(prefix + "sos.migration.scored", migration_.scored);
  registry.SetCounter(prefix + "sos.migration.demoted", migration_.demoted);
  registry.SetCounter(prefix + "sos.migration.promoted", migration_.promoted);
  registry.SetCounter(prefix + "sos.migration.demote_failures", migration_.demote_failures);
  registry.SetCounter(prefix + "sos.monitor.pages_scanned", monitor_.pages_scanned);
  registry.SetCounter(prefix + "sos.monitor.pages_refreshed", monitor_.pages_refreshed);
  registry.SetCounter(prefix + "sos.monitor.files_repaired", monitor_.files_repaired);
  registry.SetCounter(prefix + "sos.monitor.files_at_risk", monitor_.files_at_risk);
  registry.SetCounter(prefix + "sos.autodelete.activations", autodelete_.activations);
  registry.SetCounter(prefix + "sos.autodelete.files_deleted", autodelete_.files_deleted);
  registry.SetCounter(prefix + "sos.autodelete.bytes_freed", autodelete_.bytes_freed);
  registry.SetCounter(prefix + "sos.autodelete.exhausted", autodelete_.exhausted);
  registry.SetCounter(prefix + "obs.trace.events", trace_.size());
  registry.SetCounter(prefix + "obs.trace.dropped", trace_dropped_);
  registry.Append(device_metrics_, prefix);
}

Ftl& FtlOf(SosDevice* sos_dev, BaselineDevice* baseline) {
  assert(sos_dev != nullptr || baseline != nullptr);
  return sos_dev != nullptr ? sos_dev->ftl() : baseline->ftl();
}

LifetimeSim::LifetimeSim(const LifetimeSimConfig& config)
    : config_(config), trace_(config.trace_capacity) {
  // Build the device.
  NandConfig nand = config_.nand;
  switch (config_.kind) {
    case DeviceKind::kSos: {
      SosDeviceConfig sos_config = config_.sos;
      sos_config.nand = nand;
      auto sos_device = std::make_unique<SosDevice>(sos_config, &clock_);
      sos_device_ = sos_device.get();
      device_ = std::move(sos_device);
      break;
    }
    case DeviceKind::kTlcBaseline:
      nand.tech = CellTech::kTlc;
      device_ = std::make_unique<BaselineDevice>(nand, &clock_, EccPreset::kBch,
                                                 GcPolicy::kGreedy);
      break;
    case DeviceKind::kQlcBaseline:
      nand.tech = CellTech::kQlc;
      device_ = std::make_unique<BaselineDevice>(nand, &clock_, EccPreset::kBch,
                                                 GcPolicy::kGreedy);
      break;
    case DeviceKind::kPlcNaive:
      nand.tech = CellTech::kPlc;
      device_ = std::make_unique<BaselineDevice>(nand, &clock_, EccPreset::kLdpc,
                                                 GcPolicy::kGreedy);
      break;
  }

  placements_ = std::make_unique<PlacementDirectory>(device_.get());
  fs_ = std::make_unique<ExtentFileSystem>(device_.get(), &clock_);

  switch (config_.workload_kind) {
    case WorkloadKind::kMobile: {
      MobileWorkloadConfig wl = config_.workload;
      wl.seed = DeriveSeed({config_.seed, 0x776cull});
      workload_ = std::make_unique<MobileWorkloadGenerator>(wl);
      break;
    }
    case WorkloadKind::kFlashCache: {
      FlashCacheWorkloadConfig wl = config_.cache_workload;
      wl.seed = DeriveSeed({config_.seed, 0x776cull});
      workload_ = std::make_unique<FlashCacheWorkloadGenerator>(wl);
      break;
    }
  }

  // Train classifiers offline on a synthetic "previously scanned" corpus.
  CorpusConfig corpus_config;
  corpus_config.num_files = config_.training_files;
  corpus_config.seed = DeriveSeed({config_.seed, 0x747261696eull /* "train" */});
  const std::vector<FileMeta> corpus = GenerateCorpus(corpus_config);
  const auto pointers = AsPointers(corpus);
  priority_model_ = std::make_unique<LogisticClassifier>(
      LogisticClassifier::Train(pointers, &ExpendableLabel, corpus_config.device_age_us));
  deletion_model_ = std::make_unique<LogisticClassifier>(
      LogisticClassifier::Train(pointers, &DeletionLabel, corpus_config.device_age_us));

  if (sos_device_ != nullptr) {
    migration_ = std::make_unique<MigrationDaemon>(fs_.get(), placements_.get(),
                                                   priority_model_.get(), config_.migration);
    if (config_.enable_cloud) {
      cloud_ = std::make_unique<InMemoryCloud>();
    }
    monitor_ = std::make_unique<DegradationMonitor>(fs_.get(), sos_device_, config_.monitor,
                                                    cloud_.get());
  }
  if (config_.enable_autodelete) {
    autodelete_ = std::make_unique<AutoDeleteManager>(fs_.get(), deletion_model_.get(),
                                                      config_.autodelete);
    autodelete_->SetTraceSink(&trace_);
  }
  device_->ftl().SetTraceSink(&trace_);
  result_.kind_ = config_.kind;
}

std::vector<uint8_t> LifetimeSim::ContentFor(uint64_t ref, uint64_t bytes) {
  if (!config_.nand.store_payloads) {
    return {};
  }
  std::vector<uint8_t> content(bytes);
  Rng rng(DeriveSeed({config_.seed, 0x636f6e74656e74ull /* "content" */, ref}));
  for (auto& b : content) {
    b = static_cast<uint8_t>(rng.NextU64() & 0xff);
  }
  return content;
}

void LifetimeSim::ApplyEvent(const WorkloadEvent& event) {
  if (event.at > clock_.now()) {
    clock_.AdvanceTo(event.at);
  }
  switch (event.op) {
    case WorkloadOp::kCreate: {
      FileMeta meta = event.meta;
      meta.size_bytes = std::min(meta.size_bytes, config_.file_size_cap);
      const std::vector<uint8_t> content = ContentFor(event.file_ref, meta.size_bytes);
      // Placement directive for the new file. Mobile data always lands
      // critical first (§4.4); the daemon demotes later. The flash cache
      // knows at admission time that a TTL'd object is degradable and
      // short-lived, so it says so up front. Baselines honor the handle
      // lifecycle but route every write identically.
      PlacementSpec spec;
      spec.durability = config_.workload_kind == WorkloadKind::kFlashCache &&
                                meta.true_priority == Priority::kExpendable
                            ? Durability::kDegradable
                            : Durability::kCritical;
      spec.lifetime = LifetimeHintFor(meta);
      const auto handle = placements_->For(spec);
      if (!handle.ok()) {
        ++result_.create_failures_;
        workload_->DropRef(event.file_ref);
        return;
      }
      auto created = fs_->CreateFile(meta, content, handle.value());
      if (!created.ok() && autodelete_ != nullptr) {
        // Emergency space reclamation, then retry once.
        autodelete_->RunOnce(clock_.now());
        created = fs_->CreateFile(meta, content, handle.value());
      }
      if (!created.ok()) {
        ++result_.create_failures_;
        workload_->DropRef(event.file_ref);
        return;
      }
      if (event.file_ref >= ref_to_fsid_.size()) {
        ref_to_fsid_.resize(event.file_ref + 1, 0);
      }
      ref_to_fsid_[event.file_ref] = created.value();
      result_.host_bytes_written_ += meta.size_bytes;
      if (cloud_ != nullptr) {
        cloud_->Store(created.value(), content);
      }
      break;
    }
    case WorkloadOp::kRead: {
      if (const uint64_t fsid = FileIdOf(event.file_ref); fsid != 0) {
        // Reads exist to age the device (read disturb); degraded or failed
        // payloads are an expected outcome on approximate pools.
        const FileMeta* meta = fs_->Lookup(fsid);
        if (fs_->ReadFile(fsid).ok() && meta != nullptr) {
          result_.bytes_served_ += std::min(meta->size_bytes, config_.file_size_cap);
        }
      }
      break;
    }
    case WorkloadOp::kUpdate: {
      const uint64_t fsid = FileIdOf(event.file_ref);
      const FileMeta* meta = fsid != 0 ? fs_->Lookup(fsid) : nullptr;
      if (meta == nullptr) {
        return;
      }
      const uint64_t bytes = std::min(meta->size_bytes, config_.file_size_cap);
      const std::vector<uint8_t> content = ContentFor(event.file_ref, bytes);
      if (fs_->OverwriteFile(fsid, content).ok()) {
        result_.host_bytes_written_ += bytes;
        if (cloud_ != nullptr) {
          cloud_->Store(fsid, content);
        }
      }
      break;
    }
    case WorkloadOp::kDelete: {
      if (const uint64_t fsid = FileIdOf(event.file_ref); fsid != 0) {
        if (cloud_ != nullptr) {
          cloud_->Forget(fsid);
        }
        // kNotFound is legal here: the auto-delete daemon may have reclaimed
        // the file already, leaving this ref stale until now.
        IgnoreResult(fs_->DeleteFile(fsid));
        ref_to_fsid_[event.file_ref] = 0;
      }
      break;
    }
  }
}

void LifetimeSim::RunDaemons(uint32_t day) {
  if (sos_device_ != nullptr) {
    // Nightly idle flush of the pseudo-SLC stage (§4.4 extension; a no-op
    // without staging). Daemons have no caller to report to; a mid-flush
    // device failure resurfaces on the next host op against the same device.
    IgnoreResult(sos_device_->FlushStage());
    // Overnight idle housekeeping: pre-pay GC so daytime writes don't stall.
    (void)sos_device_->ftl().BackgroundCollect();
  }
  if (sos_device_ != nullptr && config_.retrain_period_days > 0 && day > 0 &&
      day % config_.retrain_period_days == 0) {
    // Refit on the live file population: preferences drift and the device's
    // own mix diverges from the offline corpus over time (§4.4).
    const std::vector<const FileMeta*> files = fs_->ScanFiles();
    if (files.size() >= 200) {
      *priority_model_ = LogisticClassifier::Train(files, &ExpendableLabel, clock_.now());
      *deletion_model_ = LogisticClassifier::Train(files, &DeletionLabel, clock_.now());
      ++result_.retrainings_;
    }
  }
  if (migration_ != nullptr && config_.classify_period_days > 0 &&
      day % config_.classify_period_days == 0) {
    migration_->RunOnce(clock_.now());
    ++result_.daemon_activations_;
  }
  if (monitor_ != nullptr && config_.scrub_period_days > 0 &&
      day % config_.scrub_period_days == 0 && day > 0) {
    monitor_->RunOnce(clock_.now());
    ++result_.daemon_activations_;
  }
  if (autodelete_ != nullptr) {
    autodelete_->RunOnce(clock_.now());
    ++result_.daemon_activations_;
  }
  UpdateHealthState(day);
}

void LifetimeSim::UpdateHealthState(uint32_t day) {
  const Ftl& ftl = device_->ftl();
  const double wear = ftl.nand().MaxWearRatio();
  const double capacity_retained =
      result_.initial_exported_pages_ > 0
          ? static_cast<double>(ftl.ExportedPages()) /
                static_cast<double>(result_.initial_exported_pages_)
          : 1.0;
  HealthState next = HealthState::kHealthy;
  if (wear >= 1.0 || capacity_retained <= 0.7) {
    next = HealthState::kCritical;
  } else if (wear >= 0.5 || capacity_retained <= 0.9) {
    next = HealthState::kWorn;
  }
  if (next != health_state_) {
    ++result_.health_transitions_;
    trace_.Emit([&] {
      return obs::TraceEvent{clock_.now(), "sos.health.transition"}
          .WithU64("day", day)
          .With("from", HealthStateName(health_state_))
          .With("to", HealthStateName(next))
          .WithF64("max_wear_ratio", wear)
          .WithF64("capacity_retained", capacity_retained);
    });
    health_state_ = next;
  }
}

double LifetimeSim::EstimateSpareQuality(uint64_t* pages_out) const {
  if (sos_device_ == nullptr) {
    if (pages_out != nullptr) {
      *pages_out = 0;
    }
    return 1.0;
  }
  static const VideoQualityModel kVideoModel{VideoConfig{}};
  const Ftl& ftl = sos_device_->ftl();
  double quality_sum = 0.0;
  uint64_t pages = 0;
  for (uint32_t pool : {sos_device_->spare_pool(), sos_device_->rescue_pool()}) {
    for (uint64_t lba : ftl.LbasInPool(pool)) {
      auto rber = ftl.PredictLbaRber(lba, 0.0);
      if (!rber.ok()) {
        continue;
      }
      // ECC-less pool: user-visible BER equals raw BER. Score it with the
      // video model over a nominal media-file span.
      quality_sum += kVideoModel.ExpectedScore(rber.value(), 4 * kMiB);
      ++pages;
    }
  }
  if (pages_out != nullptr) {
    *pages_out = pages;
  }
  return pages > 0 ? quality_sum / static_cast<double>(pages) : 1.0;
}

DaySample LifetimeSim::Sample(uint32_t day) const {
  DaySample sample;
  sample.day = day;
  const Ftl& ftl = device_->ftl();
  sample.max_wear_ratio = ftl.nand().MaxWearRatio();
  sample.mean_pec = ftl.nand().MeanPec();
  sample.exported_pages = ftl.ExportedPages();
  const FsStats fs_stats = fs_->Stats();
  sample.fs_free_fraction =
      fs_stats.capacity_blocks > 0
          ? static_cast<double>(fs_stats.capacity_blocks -
                                std::min(fs_stats.used_blocks, fs_stats.capacity_blocks)) /
                static_cast<double>(fs_stats.capacity_blocks)
          : 0.0;
  sample.live_files = fs_stats.files;
  sample.retired_blocks = ftl.stats().retired_blocks();
  sample.spare_quality = EstimateSpareQuality(&sample.spare_pages);
  return sample;
}

LifetimeResult LifetimeSim::Run() {
  result_.initial_exported_pages_ = device_->ftl().ExportedPages();

  for (uint32_t day = 0; day < config_.days; ++day) {
    const SimTimeUs day_start = static_cast<SimTimeUs>(day) * kUsPerDay;
    if (day_start > clock_.now()) {
      clock_.AdvanceTo(day_start);
    }
    for (const WorkloadEvent& event : workload_->Day(day)) {
      ApplyEvent(event);
    }
    RunDaemons(day);
    if (config_.sample_period_days > 0 && day % config_.sample_period_days == 0) {
      result_.samples_.push_back(Sample(day));
    }
  }

  const Ftl& ftl = device_->ftl();
  result_.ftl_ = ftl.stats();
  result_.final_max_wear_ratio_ = ftl.nand().MaxWearRatio();
  // Mean wear ratio across the die: mean PEC over the *native-mode* rated
  // endurance is not meaningful for mixed-mode dies, so use max-wear pool
  // snapshots instead. Approximate with max ratio scaled by mean/max PEC.
  const double mean_pec = ftl.nand().MeanPec();
  result_.final_mean_wear_ratio_ =
      result_.final_max_wear_ratio_ > 0.0 && mean_pec > 0.0
          ? result_.final_max_wear_ratio_ * mean_pec /
                std::max(1.0, static_cast<double>([&] {
                           uint32_t max_pec = 0;
                           for (uint32_t b = 0; b < ftl.nand().config().num_blocks; ++b) {
                             max_pec = std::max(max_pec, ftl.nand().block_info(b).pec);
                           }
                           return max_pec;
                         }()))
          : 0.0;
  result_.final_exported_pages_ = ftl.ExportedPages();
  result_.final_spare_quality_ = EstimateSpareQuality(nullptr);
  result_.pec_variance_ = ftl.PecVariance();
  if (migration_ != nullptr) {
    result_.migration_ = migration_->lifetime_stats();
  }
  if (autodelete_ != nullptr) {
    result_.autodelete_ = autodelete_->lifetime_stats();
  }
  if (monitor_ != nullptr) {
    result_.monitor_ = monitor_->lifetime_stats();
  }
  result_.files_alive_ = fs_->Stats().files;

  const double years = static_cast<double>(config_.days) / 365.0;
  result_.projected_lifetime_years_ =
      result_.final_max_wear_ratio_ > 0.0 ? years / result_.final_max_wear_ratio_ : 1e6;

  // Capture the device-side telemetry into the portable result so exports
  // can happen on any thread after the simulator is gone.
  if (config_.capture_device_metrics) {
    obs::MetricRegistry device_registry;
    ftl.ToMetrics(device_registry, "ftl.");
    ftl.nand().ToMetrics(device_registry, "flash.die.");
    result_.device_metrics_ = device_registry.Snapshot();
  }
  // The trace is the result's largest member: hand it over, and the result
  // with it, rather than copy either.
  result_.trace_ = trace_.TakeEvents();
  result_.trace_dropped_ = trace_.dropped();
  return std::move(result_);
}

}  // namespace sos
