// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Flat logical-to-physical mapping table.
//
// The FTL's forward map is the hottest structure in the simulator: every
// host read/write, every GC relocation and every recovery replay goes
// through it. Host LBAs are dense (the file system hands them out from a
// bump allocator plus a LIFO free list, src/host/file_system.h), so a flat
// vector indexed by LBA beats a hash map on both lookup latency and cache
// footprint -- see DESIGN.md §11 for the layout rationale.
//
// Each entry packs one PhysLoc into a single uint64_t:
//
//     bit 63      valid     (0 = unmapped; an all-zero word is "absent")
//     bit 62      tainted   (sticky corruption marker, travels with the map)
//     bits 52-61  unused    (always 0)
//     bits 20-51  block     (32 bits)
//     bits 0-19   page      (20 bits, up to 1M pages per block)
//
// An entry holds no pool: a page's pool is its block's, which the die's
// durable block label records (NandDevice::block_label).
//
// The table grows on demand (amortized doubling) so arbitrary test LBAs
// still work; Clear() keeps capacity so recovery does not reallocate.
//
// Tests hold it equal to ReferenceL2pMap (tests/oracle/l2p_map.h), a
// hash-map oracle with the same interface.

#ifndef SOS_SRC_FTL_L2P_H_
#define SOS_SRC_FTL_L2P_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace sos {

// Physical location of one logical page.
struct PhysLoc {
  uint32_t block = 0;
  uint32_t page = 0;
  // Sticky corruption marker; travels with the mapping through relocations,
  // cleared by a fresh host write.
  bool tainted = false;

  bool operator==(const PhysLoc&) const = default;
};

class L2pTable {
 public:
  static constexpr uint64_t kValidBit = 1ull << 63;
  static constexpr uint64_t kTaintedBit = 1ull << 62;
  static constexpr uint32_t kPageBits = 20;

  static uint64_t Pack(const PhysLoc& loc) {
    assert(loc.page < (1u << kPageBits));
    return kValidBit | (loc.tainted ? kTaintedBit : 0) |
           (static_cast<uint64_t>(loc.block) << kPageBits) |
           static_cast<uint64_t>(loc.page);
  }

  static PhysLoc Unpack(uint64_t entry) {
    PhysLoc loc;
    loc.block = static_cast<uint32_t>((entry >> kPageBits) & 0xFFFFFFFFull);
    loc.page = static_cast<uint32_t>(entry & ((1u << kPageBits) - 1));
    loc.tainted = (entry & kTaintedBit) != 0;
    return loc;
  }

  // Pre-sizes the dense prefix (e.g. to the device's exported capacity) so
  // the steady-state write path never reallocates.
  void Reserve(uint64_t lbas) {
    if (lbas > entries_.size()) {
      entries_.resize(lbas, 0);
    }
  }

  bool Contains(uint64_t lba) const {
    return lba < entries_.size() && entries_[lba] != 0;
  }

  std::optional<PhysLoc> Find(uint64_t lba) const {
    if (!Contains(lba)) {
      return std::nullopt;
    }
    return Unpack(entries_[lba]);
  }

  void Set(uint64_t lba, const PhysLoc& loc) {
    if (lba >= entries_.size()) {
      // Amortized doubling keeps a stray large LBA from forcing per-insert
      // reallocation while staying dense for bump-allocated hosts.
      uint64_t grown = entries_.empty() ? 64 : entries_.size() * 2;
      entries_.resize(std::max<uint64_t>(lba + 1, grown), 0);
    }
    mapped_ += entries_[lba] == 0 ? 1u : 0u;
    entries_[lba] = Pack(loc);
  }

  // Returns false when the LBA was not mapped.
  bool Erase(uint64_t lba) {
    if (!Contains(lba)) {
      return false;
    }
    entries_[lba] = 0;
    --mapped_;
    return true;
  }

  uint64_t mapped() const { return mapped_; }

  // Drops every mapping but keeps capacity (recovery wipes and refills).
  void Clear() {
    std::fill(entries_.begin(), entries_.end(), 0);
    mapped_ = 0;
  }

  // Visits mapped entries in ascending LBA order -- the same order the old
  // hash-map implementation produced via SortedKeys(), so audit/export walks
  // stay byte-identical.
  template <typename Fn>
  void ForEachMapped(Fn&& fn) const {
    for (uint64_t lba = 0; lba < entries_.size(); ++lba) {
      if (entries_[lba] != 0) {
        fn(lba, Unpack(entries_[lba]));
      }
    }
  }

 private:
  std::vector<uint64_t> entries_;  // 0 = unmapped (valid bit clear)
  uint64_t mapped_ = 0;
};

}  // namespace sos

#endif  // SOS_SRC_FTL_L2P_H_
