// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Shard partial files: the process-level half of fleet sharding
// (DESIGN.md §13).
//
// A shard run (`bench_fleet --shard=i/N --partial-out=...`) simulates every
// device whose index i satisfies index % N == i and writes its FleetLedger
// as a JSON partial. The merge step (`bench_fleet --merge`) reads any
// complete set of partials and reconstructs the exact ledger a
// single-process run would have produced.
//
// Everything a partial carries is an integer (counts, gigabytes and
// micro-unit fixed point) or an echo string -- no doubles -- so serialization is trivially
// exact and the merged ledger is bit-identical to the unsharded one. The
// header echoes the population identity (seed, device count, mix, schema
// version) and the shard coordinates; MergePartials() refuses mismatched
// populations, duplicate shards, and incomplete covers.

#ifndef SOS_SRC_FLEET_PARTIAL_H_
#define SOS_SRC_FLEET_PARTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/ledger.h"

namespace sos::fleet {

// Version of the partial schema; bumped whenever the ledger layout changes
// so a merge never silently combines incompatible files. Version 3 is the
// flat layout of FleetLedger::ForEachCell (one key per cell) with devices
// and gigabytes per (archetype, kind) and no carbon cells.
inline constexpr uint64_t kPartialSchemaVersion = 3;

// One shard's ledger plus the population identity it was computed from.
struct FleetPartial {
  uint64_t schema_version = kPartialSchemaVersion;
  uint64_t fleet_seed = 0;
  uint64_t fleet_devices = 0;  // whole population, not this shard's slice
  std::string mix;             // MixSpecToString echo
  uint64_t shard_index = 0;
  uint64_t shard_count = 1;
  uint64_t shard_devices = 0;  // devices this shard actually simulated
  FleetLedger ledger;
};

// Deterministic JSON rendering: schema_version, the header fields, then
// every ledger cell, each under its own key in FleetLedger::ForEachCell
// order. Integer values only, apart from the mix echo.
std::string PartialToJson(const FleetPartial& partial);

// Reads exactly what PartialToJson writes, in the same order.
// kInvalidArgument on any other token, an integer outside its cell's type,
// a schema version other than kPartialSchemaVersion, or a broken count
// identity (shard_devices == devices == every histogram's count == the sum
// of its buckets).
Result<FleetPartial> ParsePartialJson(const std::string& json);

// Reads and parses a partial file. kUnavailable on I/O failure.
Result<FleetPartial> ReadPartialFile(const std::string& path);

// Merges a complete shard set into one partial (shard 0/1 of the whole
// population). Validation: all partials must agree on schema, seed, device
// count, mix, and shard_count; every shard 0..N-1 must appear exactly once.
// Merge order is canonicalized by shard index -- and the ledger algebra is
// order-insensitive anyway (see ledger.h).
Result<FleetPartial> MergePartials(std::vector<FleetPartial> partials);

}  // namespace sos::fleet

#endif  // SOS_SRC_FLEET_PARTIAL_H_
