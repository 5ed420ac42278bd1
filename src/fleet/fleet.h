// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Fleet runner: population simulation over the experiment driver
// (DESIGN.md §13).
//
// RunFleet() simulates every device of the population that lands on this
// process's shard (index % shard_count == shard_index) and folds the
// outcomes into one FleetLedger. Parallelism is the PR-1 share-nothing
// pattern: each device is an independent LifetimeSim, fanned out over the
// ExperimentDriver in fixed-size waves (bounding peak memory to one wave of
// outcomes, not the whole fleet) and folded in index order. Because the
// ledger algebra is order-insensitive (ledger.h) AND the fold order is
// fixed anyway, the aggregate is byte-identical for any --jobs value.

#ifndef SOS_SRC_FLEET_FLEET_H_
#define SOS_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/common/status.h"
#include "src/fleet/archetype.h"
#include "src/fleet/ledger.h"
#include "src/fleet/partial.h"

namespace sos::fleet {

struct FleetConfig {
  uint64_t devices = 10000;
  uint64_t seed = 1;
  MixSpec mix;
  // Process-level shard coordinates: this run covers device indices with
  // index % shard_count == shard_index. 0/1 = the whole fleet.
  uint64_t shard_index = 0;
  uint64_t shard_count = 1;
  // Worker threads for the intra-process fan-out (1 = inline; pass through
  // bench_util's ResolveJobs for --jobs=0 auto semantics).
  size_t jobs = 1;
};

// Validates shard coordinates and device count. kInvalidArgument on
// shard_index >= shard_count or zero devices/shard_count.
[[nodiscard]] Status ValidateFleetConfig(const FleetConfig& config);

// Parses "i/N" (e.g. "0/4") into (shard_index, shard_count). Both numbers
// must be exact decimals that fit in 64 bits.
Result<std::pair<uint64_t, uint64_t>> ParseShardSpec(const std::string& spec);

// Runs this shard of the population and returns its partial (ledger +
// population echo). The devices simulated and their configurations depend
// only on (seed, mix, devices) -- never on the shard split or jobs.
Result<FleetPartial> RunFleet(const FleetConfig& config);

}  // namespace sos::fleet

#endif  // SOS_SRC_FLEET_FLEET_H_
