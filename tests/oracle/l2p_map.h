// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The hash-map L2P shadow model: the same interface as L2pTable
// (src/ftl/l2p.h), kept deliberately boring. A test oracle only -- the FTL
// uses the flat table, and tests/l2p_equivalence_test.cc plus the l2p_map
// workload checksum (tests/workload_checksum_test.cc) hold the two equal.

#ifndef SOS_TESTS_ORACLE_L2P_MAP_H_
#define SOS_TESTS_ORACLE_L2P_MAP_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "src/common/container_util.h"
#include "src/ftl/l2p.h"

namespace sos {

class ReferenceL2pMap {
 public:
  void Reserve(uint64_t lbas) { map_.reserve(lbas); }

  bool Contains(uint64_t lba) const { return map_.contains(lba); }

  std::optional<PhysLoc> Find(uint64_t lba) const {
    auto it = map_.find(lba);
    if (it == map_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  void Set(uint64_t lba, const PhysLoc& loc) { map_[lba] = loc; }

  bool Erase(uint64_t lba) { return map_.erase(lba) > 0; }

  uint64_t mapped() const { return map_.size(); }

  void Clear() { map_.clear(); }

  // Ascending LBA order, as L2pTable::ForEachMapped visits.
  template <typename Fn>
  void ForEachMapped(Fn&& fn) const {
    for (const uint64_t lba : SortedKeys(map_)) {
      fn(lba, map_.at(lba));
    }
  }

 private:
  std::unordered_map<uint64_t, PhysLoc> map_;
};

}  // namespace sos

#endif  // SOS_TESTS_ORACLE_L2P_MAP_H_
