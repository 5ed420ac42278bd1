// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/host/file_system.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/ecc/parity.h"

namespace sos {
namespace {

// Tombstones are compacted away once they exceed live files / this divisor,
// bounding a scan's wasted slot visits at a fifth of the table.
constexpr size_t kDeadSlotDivisor = 4;

}  // namespace

ExtentFileSystem::ExtentFileSystem(BlockDevice* device, SimClock* clock)
    : device_(device), clock_(clock) {
  assert(device_ != nullptr && clock_ != nullptr);
  capacity_blocks_ = device_->capacity_blocks();
  device_->SetCapacityListener(
      [this](uint64_t new_capacity) { OnCapacityChange(new_capacity); });
}

void ExtentFileSystem::OnCapacityChange(uint64_t new_capacity_blocks) {
  capacity_blocks_ = std::min(capacity_blocks_, new_capacity_blocks);
}

Result<std::vector<Extent>> ExtentFileSystem::Allocate(uint64_t blocks_needed) {
  if (used_blocks_ + blocks_needed > capacity_blocks_) {
    return Status(StatusCode::kOutOfSpace, "file system full");
  }
  std::vector<Extent> extents;
  uint64_t remaining = blocks_needed;
  // Reuse trimmed LBAs first, then extend the frontier.
  while (remaining > 0 && !free_lbas_.empty()) {
    const uint64_t lba = free_lbas_.back();
    free_lbas_.pop_back();
    if (!extents.empty() && extents.back().lba + extents.back().blocks == lba) {
      ++extents.back().blocks;  // merge contiguous
    } else {
      extents.push_back({lba, 1});
    }
    --remaining;
  }
  if (remaining > 0) {
    if (next_unused_lba_ + remaining > capacity_blocks_) {
      // Frontier exhausted even though the budget allowed it (can happen
      // after a shrink); roll back.
      for (const auto& e : extents) {
        for (uint32_t i = 0; i < e.blocks; ++i) {
          free_lbas_.push_back(e.lba + i);
        }
      }
      return Status(StatusCode::kOutOfSpace, "LBA frontier exhausted after capacity shrink");
    }
    extents.push_back({next_unused_lba_, static_cast<uint32_t>(remaining)});
    next_unused_lba_ += remaining;
  }
  used_blocks_ += blocks_needed;
  return extents;
}

void ExtentFileSystem::Release(const std::vector<Extent>& extents) {
  for (const auto& e : extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      free_lbas_.push_back(e.lba + i);
    }
    used_blocks_ -= e.blocks;
  }
}

Result<uint64_t> ExtentFileSystem::CreateFile(FileMeta meta, std::span<const uint8_t> content,
                                              PlacementHandle placement) {
  const uint32_t bs = device_->block_size();
  const uint64_t bytes = std::max<uint64_t>(meta.size_bytes, content.size());
  const uint64_t blocks_needed = std::max<uint64_t>(1, (bytes + bs - 1) / bs);

  auto alloc = Allocate(blocks_needed);
  if (!alloc.ok()) {
    return alloc.status();
  }

  FsFile file;
  file.meta = std::move(meta);
  file.meta.file_id = next_file_id_++;
  file.extents = alloc.value();
  file.placement = placement;
  file.content_crc = Crc32(content);
  file.content_bytes = content.size();
  file.synthetic = content.empty();

  // Write content block by block; blocks past the content are zero-filled.
  uint64_t offset = 0;
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      std::span<const uint8_t> chunk;
      if (offset < content.size()) {
        chunk = content.subspan(offset, std::min<uint64_t>(bs, content.size() - offset));
      }
      if (Status s = device_->Write(e.lba + i, chunk, placement); !s.ok()) {
        Release(file.extents);
        return s;
      }
      ++writes_issued_;
      offset += bs;
    }
  }

  const uint64_t id = file.meta.file_id;
  file.static_features = ExtractStaticFeatures(file.meta);
  // Ids only grow, so appending keeps the table in id order; ids a failed
  // create consumed stay unmapped.
  assert(files_.size() < kNoSlot);
  slot_of_.resize(id, kNoSlot);
  slot_of_[id - 1] = static_cast<uint32_t>(files_.size());
  files_.push_back(std::move(file));
  ++live_;
  return id;
}

Result<FileReadResult> ExtentFileSystem::ReadFile(uint64_t file_id) {
  FsFile* found = Find(file_id);
  if (found == nullptr) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = *found;
  FileReadResult result;
  result.data.reserve(file.content_bytes);
  const uint32_t bs = device_->block_size();
  // Synthetic files read their full allocation (the device traffic is what
  // the simulation models); content-bearing files read their content span.
  uint64_t remaining = file.content_bytes;
  if (file.synthetic) {
    remaining = 0;
    for (const auto& e : file.extents) {
      remaining += static_cast<uint64_t>(e.blocks) * bs;
    }
  }
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks && remaining > 0; ++i) {
      auto read = device_->Read(e.lba + i);
      if (!read.ok()) {
        return read.status();
      }
      ++reads_issued_;
      result.residual_bit_errors += read.value().residual_bit_errors;
      result.degraded = result.degraded || read.value().degraded;
      const uint64_t take = std::min<uint64_t>(remaining, bs);
      if (!file.synthetic) {
        const auto& data = read.value().data;
        if (!data.empty()) {
          result.data.insert(
              result.data.end(), data.begin(),
              data.begin() + static_cast<ptrdiff_t>(std::min<uint64_t>(take, data.size())));
        }
      }
      remaining -= take;
    }
  }
  result.crc_ok = file.synthetic
                      ? (!result.degraded && result.residual_bit_errors == 0)
                      : (result.data.size() == file.content_bytes &&
                         Crc32(result.data) == file.content_crc);
  file.meta.last_accessed_us = clock_->now();
  ++file.meta.read_count;
  return result;
}

Status ExtentFileSystem::OverwriteFile(uint64_t file_id, std::span<const uint8_t> content) {
  FsFile* found = Find(file_id);
  if (found == nullptr) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = *found;
  const uint32_t bs = device_->block_size();
  uint64_t allocated_bytes = 0;
  for (const auto& e : file.extents) {
    allocated_bytes += static_cast<uint64_t>(e.blocks) * bs;
  }
  if (content.size() > allocated_bytes) {
    return Status(StatusCode::kInvalidArgument, "overwrite larger than allocation");
  }
  // An empty overwrite of a synthetic file rewrites the full allocation.
  const uint64_t rewrite_bytes =
      content.empty() && file.synthetic ? allocated_bytes : content.size();
  uint64_t offset = 0;
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks && offset < rewrite_bytes; ++i) {
      std::span<const uint8_t> chunk;
      if (offset < content.size()) {
        chunk = content.subspan(offset, std::min<uint64_t>(bs, content.size() - offset));
      }
      if (Status s = device_->Write(e.lba + i, chunk, file.placement); !s.ok()) {
        return s;
      }
      ++writes_issued_;
      offset += bs;
    }
  }
  file.content_crc = Crc32(content);
  file.content_bytes = content.size();
  file.synthetic = content.empty() && file.synthetic;
  file.meta.last_modified_us = clock_->now();
  ++file.meta.write_count;
  return Status::Ok();
}

Status ExtentFileSystem::DeleteFile(uint64_t file_id) {
  FsFile* file = Find(file_id);
  if (file == nullptr) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  for (const auto& e : file->extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      IgnoreResult(device_->Trim(e.lba + i));  // trim failures are advisory
    }
  }
  Release(file->extents);
  // Tombstone the slot; the exchanged-out entry takes the path and extent
  // storage with it.
  (void)std::exchange(*file, FsFile{});
  slot_of_[file_id - 1] = kNoSlot;
  --live_;
  if (files_.size() - live_ > live_ / kDeadSlotDivisor) {
    Compact();
  }
  return Status::Ok();
}

void ExtentFileSystem::Compact() {
  size_t out = 0;
  for (size_t slot = 0; slot < files_.size(); ++slot) {
    if (files_[slot].meta.file_id == kTombstone) {
      continue;
    }
    if (out != slot) {
      files_[out] = std::move(files_[slot]);
    }
    slot_of_[files_[out].meta.file_id - 1] = static_cast<uint32_t>(out);
    ++out;
  }
  files_.resize(out);
  assert(out == live_);
}

Status ExtentFileSystem::ReclassifyFile(uint64_t file_id, PlacementHandle placement) {
  FsFile* found = Find(file_id);
  if (found == nullptr) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = *found;
  if (file.placement == placement) {
    return Status::Ok();
  }
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      if (Status s = device_->Reclassify(e.lba + i, placement); !s.ok()) {
        return s;
      }
    }
  }
  file.placement = placement;
  return Status::Ok();
}

uint32_t ExtentFileSystem::SlotOf(uint64_t file_id) const {
  // Id 0 wraps to an index past the end.
  return file_id - 1 < slot_of_.size() ? slot_of_[file_id - 1] : kNoSlot;
}

ExtentFileSystem::FsFile* ExtentFileSystem::Find(uint64_t file_id) {
  const uint32_t slot = SlotOf(file_id);
  return slot == kNoSlot ? nullptr : &files_[slot];
}

const ExtentFileSystem::FsFile* ExtentFileSystem::Find(uint64_t file_id) const {
  const uint32_t slot = SlotOf(file_id);
  return slot == kNoSlot ? nullptr : &files_[slot];
}

const FileMeta* ExtentFileSystem::Lookup(uint64_t file_id) const {
  const FsFile* file = Find(file_id);
  return file == nullptr ? nullptr : &file->meta;
}

Result<PlacementSpec> ExtentFileSystem::PlacementSpecOf(uint64_t file_id) const {
  const FsFile* file = Find(file_id);
  if (file == nullptr) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  return DescribePlacement(file->placement);
}

Result<PlacementSpec> ExtentFileSystem::DescribePlacement(PlacementHandle handle) const {
  return device_->DescribePlacement(handle);
}

std::vector<const FileMeta*> ExtentFileSystem::ScanFiles() const {
  std::vector<const FileMeta*> metas;
  metas.reserve(live_);
  ForEachFile([&metas](const FileView& file) { metas.push_back(&file.meta); });
  return metas;
}

FsStats ExtentFileSystem::Stats() const {
  FsStats stats;
  stats.files = live_;
  stats.used_blocks = used_blocks_;
  stats.capacity_blocks = capacity_blocks_;
  stats.writes_issued = writes_issued_;
  stats.reads_issued = reads_issued_;
  stats.overcommitted = used_blocks_ > capacity_blocks_;
  return stats;
}

}  // namespace sos
