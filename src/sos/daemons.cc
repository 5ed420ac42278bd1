// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/sos/daemons.h"

#include "src/flash/error_model.h"
#include "src/flash/voltage_model.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace sos {

// ---------------------------------------------------------------------------
// MigrationDaemon.
// ---------------------------------------------------------------------------

MigrationDaemon::MigrationDaemon(ExtentFileSystem* fs, PlacementDirectory* placements,
                                 const BinaryClassifier* model,
                                 const MigrationDaemonConfig& config)
    : fs_(fs), placements_(placements), model_(model), config_(config) {
  assert(fs_ != nullptr && placements_ != nullptr && model_ != nullptr);
}

namespace {

// A file's window horizon starts at ScoreWindow's default of 4 days, doubles
// on every refresh after a certified window, up to this cap, and halves on
// every failed certification, down to one day.
constexpr uint8_t kMaxHorizonDays = 128;
constexpr uint8_t kCertified = 1;
constexpr uint8_t kDemoteSide = 2;   // score >= demote_threshold
constexpr uint8_t kPromoteSide = 4;  // score <= kPromoteThreshold

// Promote back to SYS when P(expendable) <= this (preferences drift, §4.4).
constexpr double kPromoteThreshold = 0.2;
// Never demote files younger than this (fresh data is still hot and its
// access features unsettled).
constexpr SimTimeUs kMinDemoteAgeUs = kUsPerDay;

// Prediction horizon: refresh pages that would cross the threshold within
// one scrub period.
constexpr double kLookaheadYears = 0.25;
// Refresh a page when its predicted RBER exceeds this fraction of the
// pool's quality budget (the SPARE retirement bound). 0.15 of the 2e-3
// default budget is ~3e-4 raw BER -- the point where video quality dips
// below ~0.8 and the paper's "dangerously degraded" rescue should fire.
constexpr double kRefreshFraction = 0.15;

// Auto-delete: only delete files the predictor scores at least this
// likely-to-delete.
constexpr double kMinDeleteScore = 0.3;

// A file handle's durability as one pass sees it.
enum class HandleDurability : uint8_t { kNotLooked, kClosed, kCritical, kDegradable };

// Each handle's durability as one pass looked it up, by handle id: a pass
// describes a handle once, not once per file. Handles close only between
// passes, so a table lives for one pass. A pass that opens a handle forgets
// that slot's entry: a reclassification may reopen a slot a file looked up
// while it was closed (the FDP alias).
class HandleDurabilityTable {
 public:
  explicit HandleDurabilityTable(const ExtentFileSystem& fs) : fs_(fs) {
    seen_.fill(HandleDurability::kNotLooked);
  }

  HandleDurability Of(PlacementHandle handle) {
    if (handle.id() >= seen_.size()) {
      return Describe(handle);  // malformed: fails the lookup, never cached
    }
    HandleDurability& entry = seen_[handle.id()];
    if (entry == HandleDurability::kNotLooked) {
      entry = Describe(handle);
    }
    return entry;
  }

  void Forget(PlacementHandle handle) {
    if (handle.id() < seen_.size()) {
      seen_[handle.id()] = HandleDurability::kNotLooked;
    }
  }

 private:
  HandleDurability Describe(PlacementHandle handle) const {
    const auto spec = fs_.DescribePlacement(handle);
    if (!spec.ok()) {
      return HandleDurability::kClosed;
    }
    return spec.value().durability == Durability::kCritical ? HandleDurability::kCritical
                                                             : HandleDurability::kDegradable;
  }

  const ExtentFileSystem& fs_;
  std::array<HandleDurability, kMaxPlacementHandles> seen_;
};

}  // namespace

MigrationDaemon::RunStats MigrationDaemon::RunOnce(SimTimeUs now) {
  RunStats stats;
  HandleDurabilityTable handles(*fs_);
  // Re-declares a file's placement with a fresh handle of the opposite
  // durability, keeping the file's lifetime hint. The directory memoizes
  // handles per spec, so repeat verdicts reuse one slot.
  auto reclassify = [&](uint64_t id, const FileMeta& meta, Durability durability) -> bool {
    PlacementSpec spec;
    spec.durability = durability;
    spec.lifetime = LifetimeHintFor(meta);
    auto handle = placements_->For(spec);
    if (!handle.ok()) {
      return false;
    }
    handles.Forget(handle.value());
    return fs_->ReclassifyFile(id, handle.value()).ok();
  };
  // A retrain assigns the model in place; its windows die with it.
  if (model_->Fingerprint() != fingerprint_) {
    fingerprint_ = model_->Fingerprint();
    windows_.clear();
  }
  // One pass in id order; reclassifying inside the walk is allowed (it
  // neither creates nor deletes files).
  fs_->ForEachFile([&](const FileView& file) {
    ++stats.scanned;
    if (file.id > windows_.size()) {
      windows_.resize(file.id);
    }
    ScoreWindow& window = windows_[file.id - 1];
    const uint64_t accesses = file.meta.read_count + file.meta.write_count;
    const SimTimeUs span_us = window.horizon_days * kUsPerDay;
    const bool in_window = (window.flags & kCertified) != 0 && window.accesses == accesses &&
                           now <= window.until && now + span_us >= window.until;
    if (!in_window) {
      ++stats.scored;
      if ((window.flags & kCertified) != 0) {
        window.horizon_days =
            static_cast<uint8_t>(std::min(window.horizon_days * 2, int{kMaxHorizonDays}));
      }
      const SimTimeUs until = now + window.horizon_days * kUsPerDay;
      const ScoreSpan span = model_->ScoreSpanCached(file.meta, file.static_features, now, until);
      // Adding the bias and clamping are monotone, so they carry the bounds.
      const double bias = config_.type_score_bias[static_cast<size_t>(file.meta.type)];
      const double score = std::clamp(span.at_t0 + bias, 0.0, 1.0);
      const double lo = std::clamp(span.lo + bias, 0.0, 1.0);
      const double hi = std::clamp(span.hi + bias, 0.0, 1.0);
      const bool demote_known = lo >= config_.demote_threshold || hi < config_.demote_threshold;
      const bool promote_known = hi <= kPromoteThreshold || lo > kPromoteThreshold;
      window.flags =
          static_cast<uint8_t>((score >= config_.demote_threshold ? kDemoteSide : 0) |
                               (score <= kPromoteThreshold ? kPromoteSide : 0));
      if (demote_known && promote_known) {
        window.flags |= kCertified;
        window.until = until;
        window.accesses = accesses;
      } else {
        window.horizon_days = static_cast<uint8_t>(std::max(window.horizon_days / 2, 1));
      }
    }
    if ((window.flags & (kDemoteSide | kPromoteSide)) == 0) {
      return;  // no verdict can act, whatever the file's durability
    }
    // A closed handle (closed out from under the file) matches neither
    // branch: nothing safe to do.
    const HandleDurability durability = handles.Of(file.placement);
    if (durability == HandleDurability::kCritical && (window.flags & kDemoteSide) != 0 &&
        now >= file.meta.created_us + kMinDemoteAgeUs) {
      if (reclassify(file.id, file.meta, Durability::kDegradable)) {
        ++stats.demoted;
      } else {
        ++stats.demote_failures;
      }
    } else if (durability == HandleDurability::kDegradable &&
               (window.flags & kPromoteSide) != 0) {
      if (reclassify(file.id, file.meta, Durability::kCritical)) {
        ++stats.promoted;
      }
    }
  });
  lifetime_.scanned += stats.scanned;
  lifetime_.scored += stats.scored;
  lifetime_.demoted += stats.demoted;
  lifetime_.promoted += stats.promoted;
  lifetime_.demote_failures += stats.demote_failures;
  return stats;
}

// ---------------------------------------------------------------------------
// DegradationMonitor.
// ---------------------------------------------------------------------------

DegradationMonitor::DegradationMonitor(ExtentFileSystem* fs, SosDevice* device,
                                       const DegradationMonitorConfig& config, CloudBackup* cloud)
    : fs_(fs), device_(device), config_(config), cloud_(cloud) {
  assert(fs_ != nullptr && device_ != nullptr);
}

void DegradationMonitor::ScrubPool(uint32_t pool_id, RunStats& stats) {
  Ftl& ftl = device_->ftl();
  const double budget = device_->config().spare_retire_rber;
  const double refresh_at = budget * kRefreshFraction;

  // Futility guard: refreshing rewrites data onto another block of the same
  // pool, which resets *retention* but not *wear*. Once the pool is worn
  // enough that even a freshly-programmed page would sit above the refresh
  // threshold, scrubbing would only burn more endurance chasing an
  // unreachable target (a refresh death spiral). Leave such pools to
  // retirement and the cloud-repair path.
  {
    const PoolSnapshot snap = ftl.Snapshot(pool_id);
    PageErrorState fresh;
    fresh.mode = snap.mode;
    fresh.endurance_pec =
        static_cast<double>(GetCellTechInfo(snap.mode).rated_endurance_pec);
    fresh.pec_at_program = static_cast<uint32_t>(snap.mean_pec);
    fresh.retention_years = 0.0;
    if (ComputeRber(ftl.nand().config().error_model, fresh) > refresh_at) {
      return;
    }
  }

  for (uint64_t lba : ftl.LbasInPool(pool_id)) {
    ++stats.pages_scanned;
    auto predicted = ftl.PredictLbaRber(lba, kLookaheadYears);
    if (!predicted.ok()) {
      continue;  // trimmed mid-scan
    }
    if (predicted.value() > refresh_at) {
      if (ftl.Refresh(lba).ok()) {
        ++stats.pages_refreshed;
      }
    }
  }
}

DegradationMonitor::RunStats DegradationMonitor::RunOnce(SimTimeUs /*now*/) {
  RunStats stats;
  ScrubPool(device_->spare_pool(), stats);
  ScrubPool(device_->rescue_pool(), stats);

  // File-level repair: the device's taint tracking identifies files whose
  // *stored* bytes absorbed unrecoverable corruption during a relocation
  // (FtlReadResult::tainted); those are the repair candidates. With a cloud
  // copy the local data is restored; without one the file is counted as at
  // risk, once however many passes find it so ("SOS does not inherently rely
  // on such redundant copies", §4.3).
  if (config_.cloud_repair) {
    Ftl& ftl = device_->ftl();
    HandleDurabilityTable handles(*fs_);
    // Repair overwrites in place, which the walk allows.
    fs_->ForEachFile([&](const FileView& file) {
      if (handles.Of(file.placement) != HandleDurability::kDegradable) {
        return;  // only degradable data may rot; critical files stay exact
      }
      bool tainted = false;
      for (const Extent& extent : file.extents) {
        for (uint32_t i = 0; i < extent.blocks && !tainted; ++i) {
          tainted = ftl.IsTainted(extent.lba + i);
        }
        if (tainted) {
          break;
        }
      }
      if (!tainted) {
        return;
      }
      if (cloud_ != nullptr && cloud_->Has(file.id)) {
        const std::vector<uint8_t> pristine = cloud_->Fetch(file.id);
        if (fs_->OverwriteFile(file.id, pristine).ok()) {
          ++stats.files_repaired;
        }
      } else {
        if (file.id > counted_at_risk_.size()) {
          counted_at_risk_.resize(file.id, 0);
        }
        if (counted_at_risk_[file.id - 1] == 0) {
          counted_at_risk_[file.id - 1] = 1;
          ++stats.files_at_risk;
        }
      }
    });
  }

  lifetime_.pages_scanned += stats.pages_scanned;
  lifetime_.pages_refreshed += stats.pages_refreshed;
  lifetime_.files_repaired += stats.files_repaired;
  lifetime_.files_at_risk += stats.files_at_risk;
  return stats;
}

// ---------------------------------------------------------------------------
// AutoDeleteManager.
// ---------------------------------------------------------------------------

AutoDeleteManager::AutoDeleteManager(ExtentFileSystem* fs, const BinaryClassifier* deletion_model,
                                     const AutoDeleteConfig& config)
    : fs_(fs), deletion_model_(deletion_model), config_(config) {
  assert(fs_ != nullptr && deletion_model_ != nullptr);
}

double AutoDeleteManager::FreeFraction() const {
  const FsStats stats = fs_->Stats();
  if (stats.capacity_blocks == 0) {
    return 0.0;
  }
  const uint64_t free_blocks =
      stats.capacity_blocks > stats.used_blocks ? stats.capacity_blocks - stats.used_blocks : 0;
  return static_cast<double>(free_blocks) / static_cast<double>(stats.capacity_blocks);
}

AutoDeleteManager::RunStats AutoDeleteManager::RunOnce(SimTimeUs now) {
  RunStats stats;
  const double free_before = FreeFraction();
  if (free_before >= config_.low_water_free) {
    return stats;
  }
  ++stats.activations;
  if (trace_ != nullptr) {
    trace_->Emit([&] {
      return obs::TraceEvent{now, "sos.autodelete.activated"}.WithF64("free_fraction",
                                                                      free_before);
    });
  }

  // Rank SPARE-resident files by predicted deletion likelihood. SYS files
  // are never auto-deleted (they are, by classification, critical).
  struct Candidate {
    uint64_t id;
    double score;
    uint64_t bytes;
  };
  std::vector<Candidate> candidates;
  HandleDurabilityTable handles(*fs_);
  fs_->ForEachFile([&](const FileView& file) {
    if (handles.Of(file.placement) != HandleDurability::kDegradable) {
      return;
    }
    candidates.push_back({file.id,
                          deletion_model_->ScoreCached(file.meta, file.static_features, now),
                          file.meta.size_bytes});
  });
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return a.score > b.score;
  });

  // First pass deletes only confident predictions; if that cannot restore
  // the high-water mark, SOS "temporarily transforms its data degradation
  // scheme to automatically delete data" (§4.5) -- the score gate is dropped
  // and the remaining SPARE files go in predicted-deletion order.
  for (const bool gated : {true, false}) {
    for (const Candidate& c : candidates) {
      if (FreeFraction() >= config_.high_water_free) {
        break;
      }
      if (gated && c.score < kMinDeleteScore) {
        break;  // candidates are sorted; the rest score lower
      }
      if (!gated && c.score >= kMinDeleteScore) {
        continue;  // already handled by the gated pass
      }
      if (fs_->DeleteFile(c.id).ok()) {
        ++stats.files_deleted;
        stats.bytes_freed += c.bytes;
        if (trace_ != nullptr) {
          trace_->Emit([&] {
            return obs::TraceEvent{now, "sos.autodelete.trim"}
                .WithU64("file_id", c.id)
                .WithF64("score", c.score)
                .WithU64("bytes", c.bytes);
          });
        }
      }
    }
    if (FreeFraction() >= config_.high_water_free) {
      break;
    }
  }
  if (FreeFraction() < config_.high_water_free) {
    ++stats.exhausted;
  }

  lifetime_.activations += stats.activations;
  lifetime_.files_deleted += stats.files_deleted;
  lifetime_.bytes_freed += stats.bytes_freed;
  lifetime_.exhausted += stats.exhausted;
  return stats;
}

}  // namespace sos
