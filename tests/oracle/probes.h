// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Read-only probes of FTL and file-system state, built on the walks the
// system itself runs: the scrubber's Ftl::LbasInPool and the daemons'
// ExtentFileSystem::ForEachFile. Tests observe placement through these
// instead of through lookups the system never calls.

#ifndef SOS_TESTS_ORACLE_PROBES_H_
#define SOS_TESTS_ORACLE_PROBES_H_

#include <cstdint>
#include <map>
#include <optional>

#include "src/ftl/ftl.h"
#include "src/host/file_system.h"

namespace sos {

// The owning pool of every mapped LBA.
inline std::map<uint64_t, uint32_t> PoolsByLba(const Ftl& ftl) {
  std::map<uint64_t, uint32_t> pools;
  for (uint32_t pool = 0; pool < ftl.num_pools(); ++pool) {
    for (uint64_t lba : ftl.LbasInPool(pool)) {
      pools.emplace(lba, pool);
    }
  }
  return pools;
}

// The handle a live file holds; nullopt for an unknown id.
inline std::optional<PlacementHandle> PlacementOf(const ExtentFileSystem& fs, uint64_t file_id) {
  std::optional<PlacementHandle> placement;
  fs.ForEachFile([&](const FileView& file) {
    if (file.id == file_id) {
      placement = file.placement;
    }
  });
  return placement;
}

}  // namespace sos

#endif  // SOS_TESTS_ORACLE_PROBES_H_
