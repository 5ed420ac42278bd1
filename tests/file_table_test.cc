// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Property test for ExtentFileSystem's flat file table (src/host/
// file_system.h): randomized create / delete / overwrite / reclassify / read
// sequences against an ordered-map reference model, over an in-memory block
// device so tens of thousands of ops cross tombstone compaction many times.
//
// At every full check the table must agree with the model on:
//   - ForEachFile and ScanFiles: exactly the live ids, ascending;
//   - per-file metadata, extents, placement and cached static features;
//   - Stats().files and used blocks;
// and at every step: Lookup of a deleted or never-issued id is null, and a
// new id is larger than every id issued before (ids are never reused).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>
#include "src/classify/features.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/host/block_device.h"
#include "src/host/file_system.h"

namespace sos {
namespace {

// Fixed-capacity RAM disk: stores payloads and the handle each LBA was last
// written or reclassified under.
class MemoryDevice final : public BlockDevice {
 public:
  MemoryDevice(uint32_t block_size, uint64_t capacity_blocks)
      : block_size_(block_size), capacity_blocks_(capacity_blocks) {}

  uint32_t block_size() const override { return block_size_; }
  uint64_t capacity_blocks() const override { return capacity_blocks_; }

  Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override {
    return handles_.Open(spec);
  }
  Status ClosePlacement(PlacementHandle handle) override { return handles_.Close(handle); }
  Result<PlacementSpec> DescribePlacement(PlacementHandle handle) const override {
    return handles_.Describe(handle);
  }

  Status Write(uint64_t lba, std::span<const uint8_t> data, PlacementHandle handle) override {
    if (Status s = handles_.Check(handle); !s.ok()) {
      return s;
    }
    Block& block = stored_[lba];
    block.data.assign(data.begin(), data.end());
    block.handle = handle;
    return Status::Ok();
  }

  Result<BlockReadResult> Read(uint64_t lba) override {
    BlockReadResult result;
    if (auto it = stored_.find(lba); it != stored_.end()) {
      result.data = it->second.data;
    }
    return result;
  }

  Status Trim(uint64_t lba) override {
    stored_.erase(lba);
    return Status::Ok();
  }

  Status Reclassify(uint64_t lba, PlacementHandle handle) override {
    auto it = stored_.find(lba);
    if (it == stored_.end()) {
      return Status(StatusCode::kNotFound, "unmapped lba");
    }
    it->second.handle = handle;
    return Status::Ok();
  }

  // Handle the block was last written or reclassified under (invalid if
  // unmapped).
  PlacementHandle HandleAt(uint64_t lba) const {
    auto it = stored_.find(lba);
    return it == stored_.end() ? PlacementHandle() : it->second.handle;
  }

 private:
  struct Block {
    std::vector<uint8_t> data;
    PlacementHandle handle;
  };
  uint32_t block_size_;
  uint64_t capacity_blocks_;
  PlacementHandleTable handles_;
  // Lookup/erase only, never iterated.
  std::unordered_map<uint64_t, Block> stored_;
};

// The reference: an ordered map of live files plus a copy of the file
// system's allocation policy (LIFO free list, then the bump frontier).
struct RefFile {
  std::string path;
  uint64_t size_bytes = 0;
  uint32_t read_count = 0;
  uint32_t write_count = 0;
  SimTimeUs last_accessed_us = 0;
  SimTimeUs last_modified_us = 0;
  std::vector<Extent> extents;
  PlacementHandle placement;
};

class RefModel {
 public:
  explicit RefModel(uint64_t capacity_blocks) : capacity_blocks_(capacity_blocks) {}

  // Mirrors ExtentFileSystem::Allocate; false when the budget is exceeded.
  bool Allocate(uint64_t blocks, std::vector<Extent>* out) {
    if (used_ + blocks > capacity_blocks_) {
      return false;
    }
    uint64_t remaining = blocks;
    while (remaining > 0 && !free_.empty()) {
      const uint64_t lba = free_.back();
      free_.pop_back();
      if (!out->empty() && out->back().lba + out->back().blocks == lba) {
        ++out->back().blocks;
      } else {
        out->push_back({lba, 1});
      }
      --remaining;
    }
    if (remaining > 0) {
      out->push_back({frontier_, static_cast<uint32_t>(remaining)});
      frontier_ += remaining;
    }
    used_ += blocks;
    return true;
  }

  void Release(const std::vector<Extent>& extents) {
    for (const Extent& e : extents) {
      for (uint32_t i = 0; i < e.blocks; ++i) {
        free_.push_back(e.lba + i);
      }
      used_ -= e.blocks;
    }
  }

  uint64_t used() const { return used_; }
  std::map<uint64_t, RefFile>& files() { return files_; }

 private:
  uint64_t capacity_blocks_;
  uint64_t used_ = 0;
  uint64_t frontier_ = 0;
  std::vector<uint64_t> free_;
  std::map<uint64_t, RefFile> files_;
};

constexpr uint32_t kBlockSize = 512;
constexpr uint64_t kCapacityBlocks = 6000;

const char* const kPathParts[] = {"dcim", "camera", "data", "cache", "app", "media", "tmp", "db"};

FileMeta RandomMeta(Rng& rng) {
  FileMeta meta;
  const uint64_t depth = 1 + rng.NextBounded(4);
  for (uint64_t d = 0; d < depth; ++d) {
    meta.path += kPathParts[rng.NextBounded(8)];
    meta.path += '/';
  }
  meta.path += "f" + std::to_string(rng.NextBounded(100000));
  meta.type = static_cast<FileType>(rng.NextBounded(kNumFileTypes));
  meta.size_bytes = 1 + rng.NextBounded(6 * kBlockSize);
  return meta;
}

// Full agreement check between the table and the model.
void CheckAgainstModel(const ExtentFileSystem& fs, RefModel& ref, const MemoryDevice& device) {
  std::vector<uint64_t> walked;
  auto it = ref.files().begin();
  fs.ForEachFile([&](const FileView& file) {
    walked.push_back(file.id);
    ASSERT_NE(it, ref.files().end()) << "walk yielded extra id " << file.id;
    ASSERT_EQ(file.id, it->first);
    const RefFile& want = it->second;
    EXPECT_EQ(file.meta.file_id, file.id);
    EXPECT_EQ(file.meta.path, want.path);
    EXPECT_EQ(file.meta.size_bytes, want.size_bytes);
    EXPECT_EQ(file.meta.read_count, want.read_count);
    EXPECT_EQ(file.meta.write_count, want.write_count);
    EXPECT_EQ(file.meta.last_accessed_us, want.last_accessed_us);
    EXPECT_EQ(file.meta.last_modified_us, want.last_modified_us);
    EXPECT_EQ(file.placement, want.placement);
    ASSERT_EQ(file.extents.size(), want.extents.size()) << "id " << file.id;
    for (size_t e = 0; e < want.extents.size(); ++e) {
      EXPECT_EQ(file.extents[e].lba, want.extents[e].lba);
      EXPECT_EQ(file.extents[e].blocks, want.extents[e].blocks);
      for (uint32_t b = 0; b < want.extents[e].blocks; ++b) {
        EXPECT_EQ(device.HandleAt(want.extents[e].lba + b), want.placement);
      }
    }
    const StaticFeatures fresh = ExtractStaticFeatures(file.meta);
    EXPECT_EQ(std::memcmp(&file.static_features, &fresh, sizeof(fresh)), 0) << "id " << file.id;
    ++it;
  });
  EXPECT_EQ(it, ref.files().end()) << "walk missed live files";
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));

  const std::vector<const FileMeta*> metas = fs.ScanFiles();
  ASSERT_EQ(metas.size(), walked.size());
  for (size_t i = 0; i < metas.size(); ++i) {
    EXPECT_EQ(metas[i]->file_id, walked[i]);
    EXPECT_EQ(metas[i], fs.Lookup(walked[i]));
  }
  const FsStats stats = fs.Stats();
  EXPECT_EQ(stats.files, ref.files().size());
  EXPECT_EQ(stats.used_blocks, ref.used());
}

TEST(FileTableTest, FlatTableMatchesReferenceModelOnRandomOpSequences) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(DeriveSeed({seed, 0x66746162ull /* "ftab" */}));
    SimClock clock;
    MemoryDevice device(kBlockSize, kCapacityBlocks);
    ExtentFileSystem fs(&device, &clock);
    RefModel ref(kCapacityBlocks);
    const PlacementHandle critical = device.OpenPlacement({Durability::kCritical}).value();
    const PlacementHandle degradable = device.OpenPlacement({Durability::kDegradable}).value();

    std::set<uint64_t> issued;   // every id the table ever returned
    std::vector<uint64_t> dead;  // deleted ids, for negative lookups
    uint64_t compactions = 0;
    // Live-population target drifts so the table both grows and shrinks.
    uint64_t target = 200;
    for (uint64_t op = 0; op < 40000; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      clock.Advance(1000);
      if (op % 5000 == 0) {
        target = 50 + rng.NextBounded(700);
      }
      auto& live = ref.files();
      const uint64_t action = rng.NextBounded(100);
      auto pick_live = [&]() {
        auto pick = live.lower_bound(1 + rng.NextBounded(*issued.rbegin()));
        return pick == live.end() ? live.begin() : pick;
      };
      if (live.empty() || (action < 45 && live.size() < target) || action < 15) {
        // Create, synthetic (empty content) or content-bearing.
        FileMeta meta = RandomMeta(rng);
        std::vector<uint8_t> content;
        if (rng.NextBounded(4) == 0) {
          content.assign(meta.size_bytes, static_cast<uint8_t>(op));
        }
        const PlacementHandle handle = rng.NextBounded(2) == 0 ? critical : degradable;
        const uint64_t blocks =
            std::max<uint64_t>(1, (meta.size_bytes + kBlockSize - 1) / kBlockSize);
        RefFile want;
        want.path = meta.path;
        want.size_bytes = meta.size_bytes;
        want.placement = handle;
        const bool fits = ref.Allocate(blocks, &want.extents);
        auto created = fs.CreateFile(meta, content, handle);
        ASSERT_EQ(created.ok(), fits);
        if (!fits) {
          EXPECT_EQ(created.status().code(), StatusCode::kOutOfSpace);
          continue;
        }
        const uint64_t id = created.value();
        ASSERT_TRUE(issued.empty() || id > *issued.rbegin()) << "id " << id << " reused";
        issued.insert(id);
        live.emplace(id, std::move(want));
      } else if (action < 75) {
        // Delete; watch a later live file's address to observe compaction
        // (a delete never grows the table, so a moved entry was compacted).
        auto victim = pick_live();
        const uint64_t id = victim->first;
        const auto witness = std::next(victim);
        const uint64_t witness_id = witness == live.end() ? 0 : witness->first;
        const FileMeta* before = witness_id == 0 ? nullptr : fs.Lookup(witness_id);
        ASSERT_TRUE(fs.DeleteFile(id).ok());
        ref.Release(victim->second.extents);
        live.erase(victim);
        dead.push_back(id);
        if (before != nullptr && fs.Lookup(witness_id) != before) {
          ++compactions;
        }
        EXPECT_EQ(fs.Lookup(id), nullptr);
        EXPECT_EQ(fs.DeleteFile(id).code(), StatusCode::kNotFound);
      } else if (action < 83) {
        auto target_file = pick_live();
        RefFile& want = target_file->second;
        std::vector<uint8_t> content;
        if (rng.NextBounded(2) == 0) {
          content.assign(std::min<uint64_t>(want.size_bytes, kBlockSize), 0x5a);
        }
        ASSERT_TRUE(fs.OverwriteFile(target_file->first, content).ok());
        ++want.write_count;
        want.last_modified_us = clock.now();
      } else if (action < 91) {
        auto target_file = pick_live();
        RefFile& want = target_file->second;
        const PlacementHandle handle = want.placement == critical ? degradable : critical;
        ASSERT_TRUE(fs.ReclassifyFile(target_file->first, handle).ok());
        want.placement = handle;
      } else if (action < 96) {
        auto target_file = pick_live();
        ASSERT_TRUE(fs.ReadFile(target_file->first).ok());
        ++target_file->second.read_count;
        target_file->second.last_accessed_us = clock.now();
      } else {
        // Negative lookups: a deleted id and one never issued.
        if (!dead.empty()) {
          const uint64_t id = dead[rng.NextBounded(dead.size())];
          EXPECT_EQ(fs.Lookup(id), nullptr);
          EXPECT_EQ(fs.ReadFile(id).status().code(), StatusCode::kNotFound);
          EXPECT_EQ(fs.ReclassifyFile(id, critical).code(), StatusCode::kNotFound);
          EXPECT_EQ(fs.OverwriteFile(id, {}).code(), StatusCode::kNotFound);
          EXPECT_EQ(fs.PlacementSpecOf(id).status().code(), StatusCode::kNotFound);
        }
        EXPECT_EQ(fs.Lookup(0), nullptr);
        EXPECT_EQ(fs.Lookup(*issued.rbegin() + 1 + rng.NextBounded(1000)), nullptr);
      }
      if (op % 97 == 0) {
        CheckAgainstModel(fs, ref, device);
        if (HasFailure()) {
          return;
        }
      }
    }
    CheckAgainstModel(fs, ref, device);
    EXPECT_GT(compactions, 100u) << "sequence rarely exercised compaction";
    EXPECT_GT(dead.size(), 10000u);
  }
}

// Deleting every file empties the table; later creates keep counting up.
TEST(FileTableTest, DrainedTableKeepsIssuingFreshIds) {
  SimClock clock;
  MemoryDevice device(kBlockSize, kCapacityBlocks);
  ExtentFileSystem fs(&device, &clock);
  const PlacementHandle handle = device.OpenPlacement({Durability::kCritical}).value();
  FileMeta meta;
  meta.path = "data/app/state.db";
  meta.size_bytes = kBlockSize;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(fs.CreateFile(meta, {}, handle).value());
  }
  for (uint64_t id : ids) {
    ASSERT_TRUE(fs.DeleteFile(id).ok());
  }
  EXPECT_EQ(fs.Stats().files, 0u);
  EXPECT_TRUE(fs.ScanFiles().empty());
  const uint64_t next = fs.CreateFile(meta, {}, handle).value();
  EXPECT_EQ(next, ids.back() + 1);
  for (uint64_t id : ids) {
    EXPECT_EQ(fs.Lookup(id), nullptr);
  }
  uint64_t walked = 0;
  fs.ForEachFile([&](const FileView& file) {
    EXPECT_EQ(file.id, next);
    ++walked;
  });
  EXPECT_EQ(walked, 1u);
}

}  // namespace
}  // namespace sos
