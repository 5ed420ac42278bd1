// Copyright (c) 2026 The SOS Authors. MIT License.

#include "perfbench/mirror.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_map>

#include "src/classify/corpus.h"
#include "src/classify/logistic.h"
#include "src/common/rng.h"
#include "src/host/cache_workload.h"
#include "src/host/file_system.h"
#include "src/media/quality.h"
#include "src/obs/trace.h"
#include "src/sos/daemons.h"

namespace sos::perfbench {
namespace {

// Every outcome field both producers fill; Flatten fixes the word order.
struct OutcomeFields {
  FtlStats ftl;
  uint64_t host_bytes_written = 0;
  uint64_t bytes_served = 0;
  uint64_t create_failures = 0;
  uint64_t files_alive = 0;
  uint64_t initial_exported_pages = 0;
  uint64_t final_exported_pages = 0;
  double final_max_wear_ratio = 0.0;
  double final_mean_wear_ratio = 0.0;
  double final_spare_quality = 1.0;
  double pec_variance = 0.0;
  MigrationDaemon::RunStats migration;
  DegradationMonitor::RunStats monitor;
  AutoDeleteManager::RunStats autodelete;
  uint64_t daemon_activations = 0;
  uint64_t retrainings = 0;
  std::vector<DaySample> samples;
};

SimOutcome Flatten(const OutcomeFields& f) {
  SimOutcome out;
  auto add = [&out](uint64_t w) { out.words.push_back(w); };
  auto add_f = [&out](double d) { out.words.push_back(std::bit_cast<uint64_t>(d)); };
  const FtlStats& s = f.ftl;
  for (uint64_t w : {s.host_writes(), s.nand_writes(), s.parity_writes(), s.gc_relocations(),
                     s.wl_relocations(), s.migrations(), s.refreshes(), s.gc_erases(),
                     s.background_collections(), s.retired_blocks(), s.resuscitated_blocks(),
                     s.ecc_failures(), s.retry_recoveries(), s.parity_rescues(),
                     s.degraded_reads(), s.grown_bad_blocks(), s.lost_pages()}) {
    add(w);
  }
  for (uint64_t w : {f.host_bytes_written, f.bytes_served, f.create_failures, f.files_alive,
                     f.initial_exported_pages, f.final_exported_pages}) {
    add(w);
  }
  for (double d :
       {f.final_max_wear_ratio, f.final_mean_wear_ratio, f.final_spare_quality, f.pec_variance}) {
    add_f(d);
  }
  for (uint64_t w : {f.migration.scanned, f.migration.demoted, f.migration.promoted,
                     f.migration.demote_failures, f.monitor.pages_scanned,
                     f.monitor.pages_refreshed, f.monitor.files_repaired, f.monitor.files_at_risk,
                     f.autodelete.activations, f.autodelete.files_deleted,
                     f.autodelete.bytes_freed, f.autodelete.exhausted, f.daemon_activations,
                     f.retrainings}) {
    add(w);
  }
  for (const DaySample& d : f.samples) {
    add(d.day);
    add_f(d.max_wear_ratio);
    add_f(d.mean_pec);
    add(d.exported_pages);
    add_f(d.fs_free_fraction);
    add(d.live_files);
    add(d.retired_blocks);
    add_f(d.spare_quality);
    add(d.spare_pages);
  }
  return out;
}

// LifetimeSim's stack and day loop, re-assembled with spans. Member order
// and call order follow src/sos/lifetime_sim.cc line for line; any
// divergence shows up as a SimOutcome mismatch.
class MirrorSim {
 public:
  MirrorSim(const LifetimeSimConfig& config, LayerProfile* profile);
  MirrorRun Run();

 private:
  void ApplyEvent(const WorkloadEvent& event);
  void RunDaemons(uint32_t day);
  DaySample Sample(uint32_t day) const;
  double EstimateSpareQuality(uint64_t* pages_out) const;
  std::vector<uint8_t> ContentFor(uint64_t ref, uint64_t bytes) const;
  Ftl& ftl() { return FtlOf(sos_device_.get(), baseline_device_.get()); }

  LifetimeSimConfig config_;
  LayerProfile* profile_;
  SimClock clock_;
  obs::TraceSink trace_;
  std::unique_ptr<SosDevice> sos_device_;
  std::unique_ptr<BaselineDevice> baseline_device_;
  std::unique_ptr<TimedBlockDevice> device_;
  std::unique_ptr<PlacementDirectory> placements_;
  std::unique_ptr<ExtentFileSystem> fs_;
  std::unique_ptr<WorkloadGenerator> workload_;
  std::unique_ptr<LogisticClassifier> priority_model_;
  std::unique_ptr<LogisticClassifier> deletion_model_;
  std::unique_ptr<TimedClassifier> timed_priority_;
  std::unique_ptr<TimedClassifier> timed_deletion_;
  std::unique_ptr<MigrationDaemon> migration_;
  std::unique_ptr<DegradationMonitor> monitor_;
  std::unique_ptr<AutoDeleteManager> autodelete_;
  std::unique_ptr<InMemoryCloud> cloud_;
  std::unordered_map<uint64_t, uint64_t> ref_to_fsid_;
  OutcomeFields result_;
  uint64_t events_ = 0;
};

MirrorSim::MirrorSim(const LifetimeSimConfig& config, LayerProfile* profile)
    : config_(config), profile_(profile), trace_(config.trace_capacity) {
  Span construct(profile_, Layer::kConstruct);
  NandConfig nand = config_.nand;
  BlockDevice* raw = nullptr;
  switch (config_.kind) {
    case DeviceKind::kSos: {
      SosDeviceConfig sos_config = config_.sos;
      sos_config.nand = nand;
      sos_device_ = std::make_unique<SosDevice>(sos_config, &clock_);
      raw = sos_device_.get();
      break;
    }
    case DeviceKind::kTlcBaseline:
      nand.tech = CellTech::kTlc;
      baseline_device_ =
          std::make_unique<BaselineDevice>(nand, &clock_, EccPreset::kBch, GcPolicy::kGreedy);
      raw = baseline_device_.get();
      break;
    case DeviceKind::kQlcBaseline:
      nand.tech = CellTech::kQlc;
      baseline_device_ =
          std::make_unique<BaselineDevice>(nand, &clock_, EccPreset::kBch, GcPolicy::kGreedy);
      raw = baseline_device_.get();
      break;
    case DeviceKind::kPlcNaive:
      nand.tech = CellTech::kPlc;
      baseline_device_ =
          std::make_unique<BaselineDevice>(nand, &clock_, EccPreset::kLdpc, GcPolicy::kGreedy);
      raw = baseline_device_.get();
      break;
  }
  device_ = std::make_unique<TimedBlockDevice>(raw, profile_);

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

  CorpusConfig corpus_config;
  corpus_config.num_files = config_.training_files;
  corpus_config.seed = DeriveSeed({config_.seed, 0x747261696eull /* "train" */});
  const std::vector<FileMeta> corpus = GenerateCorpus(corpus_config);
  const auto pointers = AsPointers(corpus);
  {
    Span train(profile_, Layer::kTrain);
    priority_model_ = std::make_unique<LogisticClassifier>(
        LogisticClassifier::Train(pointers, &ExpendableLabel, corpus_config.device_age_us));
    deletion_model_ = std::make_unique<LogisticClassifier>(
        LogisticClassifier::Train(pointers, &DeletionLabel, corpus_config.device_age_us));
  }
  timed_priority_ = std::make_unique<TimedClassifier>(priority_model_.get(), profile_);
  timed_deletion_ = std::make_unique<TimedClassifier>(deletion_model_.get(), profile_);

  if (sos_device_ != nullptr) {
    migration_ = std::make_unique<MigrationDaemon>(fs_.get(), placements_.get(),
                                                   timed_priority_.get(), config_.migration);
    if (config_.enable_cloud) {
      cloud_ = std::make_unique<InMemoryCloud>();
    }
    monitor_ = std::make_unique<DegradationMonitor>(fs_.get(), sos_device_.get(),
                                                    config_.monitor, cloud_.get());
  }
  if (config_.enable_autodelete) {
    autodelete_ = std::make_unique<AutoDeleteManager>(fs_.get(), timed_deletion_.get(),
                                                      config_.autodelete);
    autodelete_->SetTraceSink(&trace_);
  }
  ftl().SetTraceSink(&trace_);
}

std::vector<uint8_t> MirrorSim::ContentFor(uint64_t ref, uint64_t bytes) const {
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

void MirrorSim::ApplyEvent(const WorkloadEvent& event) {
  if (event.at > clock_.now()) {
    clock_.AdvanceTo(event.at);
  }
  switch (event.op) {
    case WorkloadOp::kCreate: {
      FileMeta meta = event.meta;
      meta.size_bytes = std::min(meta.size_bytes, config_.file_size_cap);
      const std::vector<uint8_t> content = ContentFor(event.file_ref, meta.size_bytes);
      PlacementSpec spec;
      spec.durability = config_.workload_kind == WorkloadKind::kFlashCache &&
                                meta.true_priority == Priority::kExpendable
                            ? Durability::kDegradable
                            : Durability::kCritical;
      spec.lifetime = LifetimeHintFor(meta);
      const auto handle = placements_->For(spec);
      if (!handle.ok()) {
        ++result_.create_failures;
        workload_->DropRef(event.file_ref);
        return;
      }
      Result<uint64_t> created = [&] {
        Span fs(profile_, Layer::kFs);
        return fs_->CreateFile(meta, content, handle.value());
      }();
      if (!created.ok() && autodelete_ != nullptr) {
        {
          Span daemon(profile_, Layer::kAutodelete);
          autodelete_->RunOnce(clock_.now());
        }
        Span fs(profile_, Layer::kFs);
        created = fs_->CreateFile(meta, content, handle.value());
      }
      if (!created.ok()) {
        ++result_.create_failures;
        workload_->DropRef(event.file_ref);
        return;
      }
      ref_to_fsid_[event.file_ref] = created.value();
      result_.host_bytes_written += meta.size_bytes;
      if (cloud_ != nullptr && !content.empty()) {
        cloud_->Store(created.value(), content);
      }
      break;
    }
    case WorkloadOp::kRead: {
      auto it = ref_to_fsid_.find(event.file_ref);
      if (it != ref_to_fsid_.end()) {
        Span fs(profile_, Layer::kFs);
        const FileMeta* meta = fs_->Lookup(it->second);
        if (fs_->ReadFile(it->second).ok() && meta != nullptr) {
          result_.bytes_served += std::min(meta->size_bytes, config_.file_size_cap);
        }
      }
      break;
    }
    case WorkloadOp::kUpdate: {
      auto it = ref_to_fsid_.find(event.file_ref);
      if (it == ref_to_fsid_.end()) {
        return;
      }
      Span fs(profile_, Layer::kFs);
      const FileMeta* meta = fs_->Lookup(it->second);
      if (meta == nullptr) {
        return;
      }
      const uint64_t bytes = std::min(meta->size_bytes, config_.file_size_cap);
      const std::vector<uint8_t> content = ContentFor(event.file_ref, bytes);
      if (fs_->OverwriteFile(it->second, content).ok()) {
        result_.host_bytes_written += bytes;
        if (cloud_ != nullptr && !content.empty()) {
          cloud_->Store(it->second, content);
        }
      }
      break;
    }
    case WorkloadOp::kDelete: {
      auto it = ref_to_fsid_.find(event.file_ref);
      if (it != ref_to_fsid_.end()) {
        if (cloud_ != nullptr) {
          cloud_->Forget(it->second);
        }
        {
          Span fs(profile_, Layer::kFs);
          IgnoreResult(fs_->DeleteFile(it->second));
        }
        ref_to_fsid_.erase(it);
      }
      break;
    }
  }
}

void MirrorSim::RunDaemons(uint32_t day) {
  {
    Span collect(profile_, Layer::kBackgroundCollect);
    if (sos_device_ != nullptr && sos_device_->staging_enabled()) {
      IgnoreResult(sos_device_->FlushStage());
    }
    if (sos_device_ != nullptr) {
      (void)sos_device_->ftl().BackgroundCollect();
    }
  }
  if (sos_device_ != nullptr && config_.retrain_period_days > 0 && day > 0 &&
      day % config_.retrain_period_days == 0) {
    const std::vector<const FileMeta*> files = fs_->ScanFiles();
    if (files.size() >= 200) {
      Span train(profile_, Layer::kTrain);
      *priority_model_ = LogisticClassifier::Train(files, &ExpendableLabel, clock_.now());
      *deletion_model_ = LogisticClassifier::Train(files, &DeletionLabel, clock_.now());
      ++result_.retrainings;
    }
  }
  if (migration_ != nullptr && config_.classify_period_days > 0 &&
      day % config_.classify_period_days == 0) {
    Span daemon(profile_, Layer::kMigration);
    migration_->RunOnce(clock_.now());
    ++result_.daemon_activations;
  }
  if (monitor_ != nullptr && config_.scrub_period_days > 0 &&
      day % config_.scrub_period_days == 0 && day > 0) {
    Span daemon(profile_, Layer::kMonitor);
    monitor_->RunOnce(clock_.now());
    ++result_.daemon_activations;
  }
  if (autodelete_ != nullptr) {
    Span daemon(profile_, Layer::kAutodelete);
    autodelete_->RunOnce(clock_.now());
    ++result_.daemon_activations;
  }
}

double MirrorSim::EstimateSpareQuality(uint64_t* pages_out) const {
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
      quality_sum += kVideoModel.ExpectedScore(rber.value(), 4 * kMiB);
      ++pages;
    }
  }
  if (pages_out != nullptr) {
    *pages_out = pages;
  }
  return pages > 0 ? quality_sum / static_cast<double>(pages) : 1.0;
}

DaySample MirrorSim::Sample(uint32_t day) const {
  DaySample sample;
  sample.day = day;
  const Ftl& ftl = FtlOf(sos_device_.get(), baseline_device_.get());
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

MirrorRun MirrorSim::Run() {
  Span run(profile_, Layer::kRun);
  result_.initial_exported_pages = ftl().ExportedPages();

  for (uint32_t day = 0; day < config_.days; ++day) {
    const SimTimeUs day_start = static_cast<SimTimeUs>(day) * kUsPerDay;
    if (day_start > clock_.now()) {
      clock_.AdvanceTo(day_start);
    }
    std::vector<WorkloadEvent> events;
    {
      Span workload(profile_, Layer::kWorkload);
      events = workload_->Day(day);
    }
    events_ += events.size();
    for (const WorkloadEvent& event : events) {
      ApplyEvent(event);
    }
    RunDaemons(day);
    if (config_.sample_period_days > 0 && day % config_.sample_period_days == 0) {
      Span sample(profile_, Layer::kSample);
      result_.samples.push_back(Sample(day));
    }
  }

  const Ftl& ftl = FtlOf(sos_device_.get(), baseline_device_.get());
  result_.ftl = ftl.stats();
  result_.final_max_wear_ratio = ftl.nand().MaxWearRatio();
  const double mean_pec = ftl.nand().MeanPec();
  uint32_t max_pec = 0;
  for (uint32_t b = 0; b < ftl.nand().config().num_blocks; ++b) {
    max_pec = std::max(max_pec, ftl.nand().block_info(b).pec);
  }
  result_.final_mean_wear_ratio =
      result_.final_max_wear_ratio > 0.0 && mean_pec > 0.0
          ? result_.final_max_wear_ratio * mean_pec /
                std::max(1.0, static_cast<double>(max_pec))
          : 0.0;
  result_.final_exported_pages = ftl.ExportedPages();
  {
    Span sample(profile_, Layer::kSample);
    result_.final_spare_quality = EstimateSpareQuality(nullptr);
  }
  result_.pec_variance = ftl.PecVariance();
  if (migration_ != nullptr) {
    result_.migration = migration_->lifetime_stats();
  }
  if (autodelete_ != nullptr) {
    result_.autodelete = autodelete_->lifetime_stats();
  }
  if (monitor_ != nullptr) {
    result_.monitor = monitor_->lifetime_stats();
  }
  result_.files_alive = fs_->Stats().files;

  MirrorRun out;
  out.outcome = Flatten(result_);
  out.ftl = result_.ftl;
  out.nand = ftl.nand().stats();
  out.migration = result_.migration;
  out.monitor = result_.monitor;
  out.events = events_;
  return out;
}

}  // namespace

uint64_t SimOutcome::Digest() const {
  perfbench::Digest digest;
  for (uint64_t w : words) {
    digest.Add(w);
  }
  return digest.value();
}

SimOutcome OutcomeOf(const LifetimeResult& result) {
  OutcomeFields f;
  f.ftl = result.ftl();
  f.host_bytes_written = result.host_bytes_written();
  f.bytes_served = result.bytes_served();
  f.create_failures = result.create_failures();
  f.files_alive = result.files_alive();
  f.initial_exported_pages = result.initial_exported_pages();
  f.final_exported_pages = result.final_exported_pages();
  f.final_max_wear_ratio = result.final_max_wear_ratio();
  f.final_mean_wear_ratio = result.final_mean_wear_ratio();
  f.final_spare_quality = result.final_spare_quality();
  f.pec_variance = result.pec_variance();
  f.migration = result.migration();
  f.monitor = result.monitor();
  f.autodelete = result.autodelete();
  f.daemon_activations = result.daemon_activations();
  f.retrainings = result.retrainings();
  f.samples = result.samples();
  return Flatten(f);
}

MirrorRun RunMirror(const LifetimeSimConfig& config, LayerProfile* profile) {
  MirrorSim sim(config, profile);
  return sim.Run();
}

}  // namespace sos::perfbench
