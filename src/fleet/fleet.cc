// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fleet/fleet.h"

#include <algorithm>
#include <vector>

#include "src/common/flag_set.h"
#include "src/sos/experiment.h"

namespace sos::fleet {

namespace {

// Devices simulated per driver wave. Large enough to keep every worker of a
// wide pool busy, small enough that peak memory is one wave of outcomes --
// a million-device fleet never holds a million results.
constexpr uint64_t kWaveSize = 4096;

}  // namespace

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.devices == 0) {
    return Status(StatusCode::kInvalidArgument, "fleet: devices must be > 0");
  }
  if (config.shard_count == 0) {
    return Status(StatusCode::kInvalidArgument, "fleet: shard count must be > 0");
  }
  if (config.shard_index >= config.shard_count) {
    return Status(StatusCode::kInvalidArgument, "fleet: shard index out of range");
  }
  if (config.mix.TotalWeight() <= 0.0) {
    return Status(StatusCode::kInvalidArgument, "fleet: mix has zero total weight");
  }
  return Status::Ok();
}

Result<std::pair<uint64_t, uint64_t>> ParseShardSpec(const std::string& spec) {
  const size_t slash = spec.find('/');
  if (slash == std::string::npos) {
    return Status(StatusCode::kInvalidArgument, "shard spec must be i/N, got '" + spec + "'");
  }
  const std::string what = "shard spec '" + spec + "'";
  uint64_t index = 0;
  uint64_t count = 0;
  if (Status s = ParseDecimalU64(what, spec.substr(0, slash), &index); !s.ok()) {
    return s;
  }
  if (Status s = ParseDecimalU64(what, spec.substr(slash + 1), &count); !s.ok()) {
    return s;
  }
  if (count == 0 || index >= count) {
    return Status(StatusCode::kInvalidArgument,
                  "shard spec needs 0 <= i < N, got '" + spec + "'");
  }
  return std::make_pair(index, count);
}

Result<FleetPartial> RunFleet(const FleetConfig& config) {
  Status status = ValidateFleetConfig(config);
  if (!status.ok()) {
    return status;
  }

  // Strided shard assignment: device i belongs to shard i % N. Like the
  // per-device seeding, this is a pure function of the index, so any N
  // partitions the same population.
  std::vector<uint64_t> indices;
  indices.reserve(config.devices / config.shard_count + 1);
  for (uint64_t i = config.shard_index; i < config.devices; i += config.shard_count) {
    indices.push_back(i);
  }

  FleetPartial partial;
  partial.fleet_seed = config.seed;
  partial.fleet_devices = config.devices;
  partial.mix = MixSpecToString(config.mix);
  partial.shard_index = config.shard_index;
  partial.shard_count = config.shard_count;
  partial.shard_devices = indices.size();

  ExperimentDriver driver(config.jobs);
  for (uint64_t wave_start = 0; wave_start < indices.size(); wave_start += kWaveSize) {
    const uint64_t wave_end = std::min<uint64_t>(wave_start + kWaveSize, indices.size());
    std::vector<DeviceOutcome> outcomes =
        driver.Map(wave_end - wave_start, [&](size_t offset) {
          const uint64_t index = indices[wave_start + offset];
          const DeviceDraw draw = DrawDevice(config.mix, config.seed, index);
          LifetimeSim sim(draw.config);
          return MakeOutcome(draw, sim.Run());
        });
    for (const DeviceOutcome& outcome : outcomes) {
      partial.ledger.Fold(outcome);
    }
  }
  return partial;
}

}  // namespace sos::fleet
