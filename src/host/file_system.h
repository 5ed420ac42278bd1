// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Extent-based file system over a BlockDevice.
//
// A deliberately small FS -- flat namespace keyed by file id, block-granular
// extents, no journaling -- because what SOS needs from the host FS is
// exactly three things (paper §4.2-4.3):
//   1. per-file placement: every write carries the file's PlacementHandle,
//   2. re-classification: re-declare a whole file's placement (demotion to
//      approximate storage, promotion back),
//   3. capacity variance: tolerate the device shrinking underneath it.
// File content integrity is tracked with a CRC32 of the written content, so
// reads can report whether degradation touched the file.
//
// The file table is flat: live files sit in ascending id order in one
// vector, found through a dense id -> slot index. A delete tombstones its
// slot; tombstones are compacted away in place once they outnumber a fixed
// fraction of the live files. Ids are never reused. Each file also carries
// its static classifier features, computed once at creation, so the SOS
// daemons' periodic scans (ForEachFile) score it without re-hashing its path.
//
// Pointer stability: the FileMeta pointers from Lookup and ScanFiles, and
// the references a ForEachFile callback receives, are invalidated by
// CreateFile (the table may grow) and DeleteFile (it may compact), but not
// by ReadFile, OverwriteFile or ReclassifyFile.

#ifndef SOS_SRC_HOST_FILE_SYSTEM_H_
#define SOS_SRC_HOST_FILE_SYSTEM_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "src/classify/features.h"
#include "src/classify/file_meta.h"
#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/host/block_device.h"

namespace sos {

struct Extent {
  uint64_t lba = 0;
  uint32_t blocks = 0;
};

struct FileReadResult {
  std::vector<uint8_t> data;          // possibly degraded content
  uint64_t residual_bit_errors = 0;   // total across the file's blocks
  bool degraded = false;              // any block returned degraded
  bool crc_ok = true;                 // matches the CRC at write time
};

// One live file as ForEachFile presents it. The references are valid for
// the duration of the callback.
struct FileView {
  uint64_t id;
  const FileMeta& meta;
  const StaticFeatures& static_features;
  PlacementHandle placement;
  std::span<const Extent> extents;
};

struct FsStats {
  uint64_t files = 0;
  uint64_t used_blocks = 0;
  uint64_t capacity_blocks = 0;   // current device capacity
  uint64_t writes_issued = 0;
  uint64_t reads_issued = 0;
  // True when a capacity shrink left the FS overcommitted (used > capacity);
  // the host must delete data to recover (SOS auto-delete hooks in here).
  bool overcommitted = false;
};

class ExtentFileSystem {
 public:
  // `device` and `clock` must outlive the file system.
  ExtentFileSystem(BlockDevice* device, SimClock* clock);

  // Creates a file and writes `content` under the open placement handle
  // `placement` (the caller keeps it open for the file's lifetime --
  // PlacementDirectory memoizes this). Empty content marks the file
  // *synthetic*: it occupies meta.size_bytes of logical space and all device
  // traffic (writes, reads, rewrites) touches every allocated block, but no
  // bytes are retained -- the mode used by large metadata-only simulations.
  // Fails with kOutOfSpace when full. Returns the file id.
  [[nodiscard]] Result<uint64_t> CreateFile(FileMeta meta, std::span<const uint8_t> content,
                              PlacementHandle placement);

  // Reads the whole file, updating access statistics.
  [[nodiscard]] Result<FileReadResult> ReadFile(uint64_t file_id);

  // Overwrites content in place (same extents, same placement). Content must
  // not exceed the original allocation. Empty content on a synthetic file
  // rewrites every allocated block (an in-place update at full size).
  [[nodiscard]] Status OverwriteFile(uint64_t file_id, std::span<const uint8_t> content);

  // Deletes the file and trims its blocks.
  [[nodiscard]] Status DeleteFile(uint64_t file_id);

  // Re-declares the file's placement; the device migrates each of its
  // blocks. A no-op when the file already holds this handle.
  [[nodiscard]] Status ReclassifyFile(uint64_t file_id, PlacementHandle placement);

  // --- Introspection -------------------------------------------------------

  // Null for unknown (never created or deleted) ids.
  const FileMeta* Lookup(uint64_t file_id) const;
  // The spec behind the file's handle (device lookup); errors if the handle
  // was closed out from under the file.
  [[nodiscard]] Result<PlacementSpec> PlacementSpecOf(uint64_t file_id) const;
  // The spec behind an open handle, e.g. FileView::placement; errors if the
  // handle was closed.
  [[nodiscard]] Result<PlacementSpec> DescribePlacement(PlacementHandle handle) const;
  FsStats Stats() const;

  // All file metadata in ascending id order (e.g. for retraining on the
  // live population).
  std::vector<const FileMeta*> ScanFiles() const;

  // Calls fn(const FileView&) once per live file, in ascending id order: the
  // daemons' one-pass scan. `fn` may read, overwrite or reclassify files but
  // must not create or delete any.
  template <typename Fn>
  void ForEachFile(Fn&& fn) const {
    const size_t slots = files_.size();
    [[maybe_unused]] const size_t live = live_;
    for (size_t slot = 0; slot < slots; ++slot) {
      const FsFile& file = files_[slot];
      if (file.meta.file_id == kTombstone) {
        continue;
      }
      fn(FileView{file.meta.file_id, file.meta, file.static_features, file.placement,
                  file.extents});
      assert(files_.size() == slots && live_ == live &&
             "ForEachFile callbacks must not create or delete files");
    }
  }

 private:
  struct FsFile {
    FileMeta meta;  // meta.file_id == kTombstone marks a deleted slot
    StaticFeatures static_features;
    std::vector<Extent> extents;
    PlacementHandle placement;  // open handle the file was last written under
    uint32_t content_crc = 0;
    uint64_t content_bytes = 0;  // bytes actually written (for CRC check)
    bool synthetic = false;      // sized-but-empty content (metadata-only sims)
  };

  // Ids start at 1, so id 0 marks a tombstoned slot.
  static constexpr uint64_t kTombstone = 0;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  uint32_t SlotOf(uint64_t file_id) const;  // kNoSlot for unknown ids
  FsFile* Find(uint64_t file_id);
  const FsFile* Find(uint64_t file_id) const;
  // Drops tombstoned slots, keeping live files in id order.
  void Compact();
  [[nodiscard]] Result<std::vector<Extent>> Allocate(uint64_t blocks_needed);
  void Release(const std::vector<Extent>& extents);
  void OnCapacityChange(uint64_t new_capacity_blocks);

  BlockDevice* device_;
  SimClock* clock_;
  std::vector<FsFile> files_;        // ascending id order, tombstones included
  std::vector<uint32_t> slot_of_;    // file id - 1 -> slot in files_, or kNoSlot
  size_t live_ = 0;                  // non-tombstoned slots
  std::vector<uint64_t> free_lbas_;  // LIFO free list
  uint64_t next_unused_lba_ = 0;     // bump allocator frontier
  uint64_t capacity_blocks_ = 0;     // tracks device shrink
  uint64_t used_blocks_ = 0;
  uint64_t next_file_id_ = 1;
  uint64_t writes_issued_ = 0;
  uint64_t reads_issued_ = 0;
};

}  // namespace sos

#endif  // SOS_SRC_HOST_FILE_SYSTEM_H_
