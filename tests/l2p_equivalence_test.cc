// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Property-based equivalence suite for the flat L2P refactor (src/ftl/l2p.h).
//
// Two layers:
//   1. Container level: randomized op sequences through L2pTable and the
//      map-based ReferenceL2pMap (tests/oracle/l2p_map.h) must produce
//      identical results at every step -- lookups, erase returns, mapped
//      counts and full ascending iteration order.
//   2. FTL level: randomized host op sequences (write / trim / read /
//      migrate / refresh / background GC) against a payload-storing Ftl,
//      shadowed by an ordered-map model of the expected mapping state.
//      Mapping membership, owning pool, Status codes, payload bytes and
//      stats stay in lockstep across seeds and geometries, and a power cut +
//      RecoverFromFlash at the end must rebuild exactly the acked state
//      (modulo the documented trim-resurrection semantics, DESIGN.md §10).

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/ftl/ftl.h"
#include "src/ftl/l2p.h"
#include "tests/oracle/l2p_map.h"
#include "tests/oracle/probes.h"

namespace sos {
namespace {

// --- Container level ---------------------------------------------------------

PhysLoc RandomLoc(Rng& rng) {
  PhysLoc loc;
  loc.block = static_cast<uint32_t>(rng.NextBounded(1u << 20));
  loc.page = static_cast<uint32_t>(rng.NextBounded(1u << 20));
  loc.tainted = rng.NextBounded(8) == 0;
  return loc;
}

TEST(L2pEquivalenceTest, FlatTableMatchesReferenceMapOnRandomOpSequences) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(DeriveSeed({seed, 0x4c3250ull}));
    L2pTable flat;
    ReferenceL2pMap ref;
    // soslint:allow(R10) L2P slot counts, not byte sizes
    flat.Reserve(1024);
    ref.Reserve(1024);  // soslint:allow(R10) same slot count as above
    for (uint64_t i = 0; i < 30000; ++i) {
      // Mostly-dense LBAs (the host allocator is a bump allocator) plus an
      // occasional sparse outlier to exercise flat-table growth.
      const uint64_t lba = rng.NextBounded(16) == 0 ? 100000 + rng.NextBounded(4096)
                                                    : rng.NextBounded(8192);
      switch (rng.NextBounded(6)) {
        case 0:
        case 1: {
          const PhysLoc loc = RandomLoc(rng);
          flat.Set(lba, loc);
          ref.Set(lba, loc);
          break;
        }
        case 2:
          ASSERT_EQ(flat.Erase(lba), ref.Erase(lba)) << "op " << i << " lba " << lba;
          break;
        default: {
          const std::optional<PhysLoc> a = flat.Find(lba);
          const std::optional<PhysLoc> b = ref.Find(lba);
          ASSERT_EQ(a.has_value(), b.has_value()) << "op " << i << " lba " << lba;
          if (a.has_value()) {
            ASSERT_EQ(*a, *b) << "op " << i << " lba " << lba;
          }
          ASSERT_EQ(flat.Contains(lba), ref.Contains(lba));
          break;
        }
      }
      ASSERT_EQ(flat.mapped(), ref.mapped()) << "op " << i;
    }
    // Full iteration must agree in order and content (both ascending).
    std::vector<std::pair<uint64_t, PhysLoc>> a;
    std::vector<std::pair<uint64_t, PhysLoc>> b;
    flat.ForEachMapped([&a](uint64_t l, const PhysLoc& loc) { a.emplace_back(l, loc); });
    ref.ForEachMapped([&b](uint64_t l, const PhysLoc& loc) { b.emplace_back(l, loc); });
    ASSERT_EQ(a, b);
    flat.Clear();
    ref.Clear();
    EXPECT_EQ(flat.mapped(), 0u);
    EXPECT_EQ(ref.mapped(), 0u);
    EXPECT_FALSE(flat.Contains(5));
  }
}

// --- FTL level ---------------------------------------------------------------

struct ShadowEntry {
  uint32_t pool = 0;
  std::vector<uint8_t> payload;  // full page, what an intact read must return
};

std::vector<uint8_t> PagePayload(uint64_t lba, uint64_t version, uint32_t page_size) {
  std::vector<uint8_t> data(page_size);
  for (uint32_t i = 0; i < page_size; ++i) {
    data[i] = static_cast<uint8_t>((lba * 131 + version * 17 + i * 31) & 0xFF);
  }
  return data;
}

FtlConfig ShadowConfig(uint64_t seed, int geometry) {
  FtlConfig config;
  config.nand.store_payloads = true;
  config.nand.seed = seed;
  FtlPoolConfig a;
  a.name = "A";
  a.ecc = EccScheme::FromPreset(EccPreset::kBch);
  a.share = 0.5;
  a.read_retries = 1;
  FtlPoolConfig b;
  b.name = "B";
  b.ecc = EccScheme::FromPreset(EccPreset::kBch);
  b.share = 0.5;
  b.wear_leveling = false;
  if (geometry == 0) {
    config.nand.num_blocks = 24;
    config.nand.wordlines_per_block = 8;
    config.nand.page_size_bytes = 256;
    config.nand.tech = CellTech::kQlc;
    a.mode = CellTech::kTlc;
    a.parity_stripe = 4;
    b.mode = CellTech::kQlc;
  } else {
    config.nand.num_blocks = 20;
    config.nand.wordlines_per_block = 4;
    config.nand.page_size_bytes = 512;
    config.nand.tech = CellTech::kPlc;
    a.mode = CellTech::kQlc;
    a.hot_cold_separation = false;
    b.mode = CellTech::kPlc;
  }
  config.pools = {a, b};
  return config;
}

void RunShadowProperty(uint64_t seed, int geometry) {
  SimClock clock;
  const FtlConfig config = ShadowConfig(seed, geometry);
  Ftl ftl(config, &clock);
  const uint32_t page = config.nand.page_size_bytes;
  const uint64_t kLbas = ftl.ExportedPages() / 3;
  ASSERT_GT(kLbas, 8u);

  std::map<uint64_t, ShadowEntry> shadow;
  std::set<uint64_t> ever_trimmed;  // trim keeps no journal: resurrection ok
  uint64_t ok_writes = 0;
  Rng rng(DeriveSeed({seed, 0x73686164ull, static_cast<uint64_t>(geometry)}));

  for (uint64_t op = 0; op < 1500; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const uint64_t lba = rng.NextBounded(kLbas);
    const uint64_t action = rng.NextBounded(10);
    if (action < 5) {  // write / overwrite
      const uint32_t pool = static_cast<uint32_t>(rng.NextBounded(2));
      std::vector<uint8_t> payload = PagePayload(lba, op, page);
      const Status s = ftl.Write(lba, payload, pool);
      ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOutOfSpace) << s.ToString();
      if (s.ok()) {
        shadow[lba] = ShadowEntry{pool, std::move(payload)};
        ever_trimmed.erase(lba);
        ++ok_writes;
      }
    } else if (action < 7) {  // read
      const Result<FtlReadResult> read = ftl.Read(lba);
      const auto it = shadow.find(lba);
      if (it == shadow.end()) {
        ASSERT_FALSE(read.ok());
        EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(read.ok()) << read.status().ToString();
        EXPECT_EQ(PoolsByLba(ftl).at(lba), it->second.pool);
        if (!read.value().degraded && !read.value().tainted &&
            read.value().residual_bit_errors == 0) {
          EXPECT_EQ(read.value().data, it->second.payload);
        }
      }
    } else if (action == 7) {  // trim
      const Status s = ftl.Trim(lba);
      if (shadow.erase(lba) > 0) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        ever_trimmed.insert(lba);
      } else {
        EXPECT_EQ(s.code(), StatusCode::kNotFound);
      }
    } else if (action == 8) {  // migrate
      const uint32_t target = static_cast<uint32_t>(rng.NextBounded(2));
      const Status s = ftl.Migrate(lba, target);
      const auto it = shadow.find(lba);
      if (it == shadow.end()) {
        EXPECT_EQ(s.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOutOfSpace) << s.ToString();
        if (s.ok()) {
          it->second.pool = target;
        }
      }
    } else {  // refresh (mapping and bytes unchanged)
      const Status s = ftl.Refresh(lba);
      if (shadow.count(lba) == 0) {
        EXPECT_EQ(s.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOutOfSpace) << s.ToString();
      }
    }
    if (op % 97 == 0) {
      ftl.BackgroundCollect();
    }
    if (op % 250 == 249) {
      ASSERT_TRUE(ftl.CheckInvariants().ok());
      const std::map<uint64_t, uint32_t> pools = PoolsByLba(ftl);
      for (uint64_t l = 0; l < kLbas; ++l) {
        ASSERT_EQ(ftl.IsMapped(l), shadow.count(l) > 0) << "lba " << l;
        if (shadow.count(l) > 0) {
          ASSERT_EQ(pools.at(l), shadow.at(l).pool) << "lba " << l;
        }
      }
    }
  }
  EXPECT_EQ(ftl.stats().host_writes(), ok_writes);

  // Power cut + mount: the rebuilt L2P must contain exactly the acked state;
  // only previously trimmed LBAs may resurrect (no trim journal).
  ftl.nand().PowerCut();
  ASSERT_TRUE(ftl.RecoverFromFlash().ok());
  ASSERT_TRUE(ftl.CheckInvariants().ok());
  const std::map<uint64_t, uint32_t> recovered_pools = PoolsByLba(ftl);
  for (const auto& [lba, entry] : shadow) {
    SCOPED_TRACE("recovered lba " + std::to_string(lba));
    ASSERT_TRUE(ftl.IsMapped(lba));
    EXPECT_EQ(recovered_pools.at(lba), entry.pool);
    const Result<FtlReadResult> read = ftl.Read(lba);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    if (!read.value().degraded && !read.value().tainted &&
        read.value().residual_bit_errors == 0) {
      EXPECT_EQ(read.value().data, entry.payload);
    }
  }
  for (uint64_t l = 0; l < kLbas; ++l) {
    if (ftl.IsMapped(l) && shadow.count(l) == 0) {
      EXPECT_TRUE(ever_trimmed.count(l) > 0)
          << "lba " << l << " resurrected without ever being trimmed";
    }
  }
}

TEST(L2pEquivalenceTest, FtlMappingTracksShadowModelGeometry0) {
  for (uint64_t seed : {3u, 11u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunShadowProperty(seed, 0);
  }
}

TEST(L2pEquivalenceTest, FtlMappingTracksShadowModelGeometry1) {
  for (uint64_t seed : {5u, 23u, 77u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunShadowProperty(seed, 1);
  }
}

}  // namespace
}  // namespace sos
