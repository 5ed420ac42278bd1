// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Host-visible block device interface.
//
// The SOS co-design keeps the host/device split of Figure 2, but the
// classification channel is a placement-directive API (src/host/placement.h)
// rather than a per-write enum: the host opens a PlacementHandle declaring
// durability / expected lifetime / update frequency (paper §4.3:
// "classification information is sent to the storage device for each stored
// data block", via multi-stream/zoned/FDP-style interfaces [77][78]), and
// every write and reclassification carries a handle. The device decides
// physical placement, ECC strength, and migration from the handle's
// declared attributes.
//
// Capacity variance (paper §4.3, [74]): the device may retire worn blocks
// and *shrink*; hosts poll capacity_blocks() and must tolerate it going
// down. A CapacityListener receives shrink notifications.

#ifndef SOS_SRC_HOST_BLOCK_DEVICE_H_
#define SOS_SRC_HOST_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/host/placement.h"

namespace sos {

// Result of a logical block read.
struct BlockReadResult {
  std::vector<uint8_t> data;
  // Residual (post-ECC) bit errors present in `data`. Zero on the reliable
  // path; possibly nonzero for approximately stored blocks.
  uint64_t residual_bit_errors = 0;
  // True when the device had to return degraded data (ECC failed and no
  // redundancy could repair it).
  bool degraded = false;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Logical block size in bytes (constant for the device's lifetime).
  virtual uint32_t block_size() const = 0;

  // Currently usable logical capacity in blocks. May decrease over time as
  // the device retires worn flash (never increases).
  virtual uint64_t capacity_blocks() const = 0;

  // --- Placement directives (see src/host/placement.h) ---------------------

  // Opens a placement handle with the declared attributes. The table is
  // bounded: kResourceExhausted once kMaxPlacementHandles are open.
  [[nodiscard]] virtual Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) = 0;

  // Closes an open handle; its slot id becomes reusable. Data written under
  // the handle is unaffected. kInvalidArgument for malformed handles,
  // kFailedPrecondition if the slot is not open (double close included).
  [[nodiscard]] virtual Status ClosePlacement(PlacementHandle handle) = 0;

  // The spec an open handle was declared with.
  [[nodiscard]] virtual Result<PlacementSpec> DescribePlacement(PlacementHandle handle) const = 0;

  // --- Data path -----------------------------------------------------------

  // Writes one logical block under an open placement handle. `data` must be
  // at most block_size; shorter payloads are padded.
  [[nodiscard]] virtual Status Write(uint64_t lba, std::span<const uint8_t> data,
                                     PlacementHandle handle) = 0;

  // Reads one logical block.
  [[nodiscard]] virtual Result<BlockReadResult> Read(uint64_t lba) = 0;

  // Invalidates a logical block (TRIM).
  [[nodiscard]] virtual Status Trim(uint64_t lba) = 0;

  // Re-declares placement of an already-written block; the device migrates
  // physical placement accordingly (SOS's daemon uses this to demote data to
  // approximate storage). Contract:
  //   - unmapped/trimmed LBA: kNotFound, no device state changes;
  //   - the block already resides in the handle's primary target placement:
  //     Ok, a no-op (no flash operations are issued);
  //   - handle lifecycle errors as for Write.
  [[nodiscard]] virtual Status Reclassify(uint64_t lba, PlacementHandle handle) = 0;

  // Registers a callback fired when usable capacity shrinks (new capacity in
  // blocks). Default implementation ignores it (fixed-capacity devices).
  using CapacityListener = std::function<void(uint64_t new_capacity_blocks)>;
  virtual void SetCapacityListener(CapacityListener listener) { (void)listener; }
};

// ---------------------------------------------------------------------------
// PlacementDirectory: host-side handle memoization.
// ---------------------------------------------------------------------------

// Most hosts want one handle per distinct attribute combination, not one per
// file. The directory memoizes OpenPlacement by (durability, lifetime,
// update frequency) and closes everything it opened on destruction, so
// callers can ask For(spec) on every write path without leaking slots.
// Specs that differ only in label share a handle (the first label wins).
class PlacementDirectory {
 public:
  explicit PlacementDirectory(BlockDevice* device) : device_(device) {}

  PlacementDirectory(const PlacementDirectory&) = delete;
  PlacementDirectory& operator=(const PlacementDirectory&) = delete;

  ~PlacementDirectory() { CloseAll(); }

  [[nodiscard]] Result<PlacementHandle> For(const PlacementSpec& spec) {
    const uint32_t key = (static_cast<uint32_t>(spec.durability) << 16) |
                         (static_cast<uint32_t>(spec.lifetime) << 8) |
                         static_cast<uint32_t>(spec.update_frequency);
    if (auto it = open_.find(key); it != open_.end()) {
      return it->second;
    }
    auto opened = device_->OpenPlacement(spec);
    if (!opened.ok()) {
      return opened.status();
    }
    open_.emplace(key, opened.value());
    return opened.value();
  }

  void CloseAll() {
    for (const auto& [key, handle] : open_) {
      // Destruction-path cleanup: the device outlives us and a double close
      // of an already-invalidated handle is not actionable here.
      IgnoreResult(device_->ClosePlacement(handle));
    }
    open_.clear();
  }

  BlockDevice* device() const { return device_; }

 private:
  BlockDevice* device_;
  std::map<uint32_t, PlacementHandle> open_;  // ordered: deterministic CloseAll
};

}  // namespace sos

#endif  // SOS_SRC_HOST_BLOCK_DEVICE_H_
