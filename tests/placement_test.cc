// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Placement-directive API tests: handle lifecycle (open/describe/close,
// slot recycling, exhaustion), the host-side PlacementDirectory memoization,
// the Reclassify edge-case contract (unmapped/trimmed LBAs, same-class
// no-op) on both SosDevice and BaselineDevice, and the per-handle write
// accounting a lifetime run exports.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/sos/lifetime_sim.h"
#include "src/sos/sos_device.h"
#include "tests/oracle/probes.h"

namespace sos {
namespace {

SosDeviceConfig SmallSos() {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.tech = CellTech::kPlc;
  config.nand.seed = 21;
  return config;
}

std::vector<uint8_t> Block(uint8_t fill) { return std::vector<uint8_t>(512, fill); }

PlacementSpec Spec(Durability durability, LifetimeHint lifetime = LifetimeHint::kUnknown) {
  PlacementSpec spec;
  spec.durability = durability;
  spec.lifetime = lifetime;
  return spec;
}

// --- Handle table lifecycle --------------------------------------------------

TEST(PlacementHandleTest, OpenDescribeClose) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);

  auto opened = device.OpenPlacement(Spec(Durability::kDegradable, LifetimeHint::kShort));
  ASSERT_TRUE(opened.ok());
  const PlacementHandle handle = opened.value();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.id(), 0u);  // lowest free slot first

  auto described = device.DescribePlacement(handle);
  ASSERT_TRUE(described.ok());
  EXPECT_EQ(described.value().durability, Durability::kDegradable);
  EXPECT_EQ(described.value().lifetime, LifetimeHint::kShort);

  EXPECT_TRUE(device.ClosePlacement(handle).ok());
  // Closed slot: describe and writes now fail the lifecycle check.
  EXPECT_EQ(device.DescribePlacement(handle).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(device.Write(1, Block(1), handle).code(), StatusCode::kFailedPrecondition);
}

TEST(PlacementHandleTest, DoubleCloseFailsPrecondition) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  auto opened = device.OpenPlacement(Spec(Durability::kCritical));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(device.ClosePlacement(opened.value()).ok());
  EXPECT_EQ(device.ClosePlacement(opened.value()).code(), StatusCode::kFailedPrecondition);
}

TEST(PlacementHandleTest, MalformedHandlesAreInvalidArgument) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  // Default-constructed (invalid sentinel) and beyond-the-table ids are
  // malformed, not merely unopened.
  EXPECT_EQ(device.Write(1, Block(1), PlacementHandle()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(device.ClosePlacement(PlacementHandle(kMaxPlacementHandles)).code(),
            StatusCode::kInvalidArgument);
  // A well-formed id that was simply never opened is a precondition failure.
  EXPECT_EQ(device.ClosePlacement(PlacementHandle(3)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlacementHandleTest, ExhaustionAndSlotRecycling) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  std::vector<PlacementHandle> handles;
  for (uint32_t i = 0; i < kMaxPlacementHandles; ++i) {
    auto opened = device.OpenPlacement(Spec(Durability::kCritical));
    ASSERT_TRUE(opened.ok()) << "open " << i;
    EXPECT_EQ(opened.value().id(), i);
    handles.push_back(opened.value());
  }
  // Table full: the 17th open is resource exhaustion, not a crash or alias.
  EXPECT_EQ(device.OpenPlacement(Spec(Durability::kCritical)).status().code(),
            StatusCode::kResourceExhausted);

  // Closing any slot makes exactly that id available again (lowest-free-slot
  // allocation recycles ids -- the documented FDP aliasing caveat).
  ASSERT_TRUE(device.ClosePlacement(handles[5]).ok());
  auto reopened = device.OpenPlacement(Spec(Durability::kDegradable));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().id(), 5u);
}

TEST(PlacementHandleTest, LabelIsDeterministic) {
  PlacementSpec spec = Spec(Durability::kDegradable, LifetimeHint::kShort);
  EXPECT_EQ(PlacementLabel(PlacementHandle(1), spec), "h1_degradable_short");
  spec.label = "cache_objects";
  EXPECT_EQ(PlacementLabel(PlacementHandle(1), spec), "cache_objects");
}

// --- PlacementDirectory ------------------------------------------------------

TEST(PlacementDirectoryTest, MemoizesOneHandlePerSpec) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  PlacementDirectory placements(&device);

  auto a = placements.For(Spec(Durability::kDegradable, LifetimeHint::kShort));
  auto b = placements.For(Spec(Durability::kDegradable, LifetimeHint::kShort));
  auto c = placements.For(Spec(Durability::kCritical, LifetimeHint::kLong));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.value(), b.value());  // same attributes -> same slot
  EXPECT_NE(a.value(), c.value());

  // Labels are not part of the memoization key: first label wins.
  PlacementSpec labeled = Spec(Durability::kDegradable, LifetimeHint::kShort);
  labeled.label = "other";
  auto d = placements.For(labeled);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), a.value());

  placements.CloseAll();
  EXPECT_EQ(device.DescribePlacement(a.value()).status().code(),
            StatusCode::kFailedPrecondition);
}

// --- Reclassify edge cases ---------------------------------------------------

TEST(ReclassifyTest, UnmappedLbaIsNotFound) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical =
      device.OpenPlacement(Spec(Durability::kCritical)).value();
  EXPECT_EQ(device.Reclassify(7, critical).code(), StatusCode::kNotFound);
}

TEST(ReclassifyTest, TrimmedLbaIsNotFound) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical =
      device.OpenPlacement(Spec(Durability::kCritical)).value();
  ASSERT_TRUE(device.Write(7, Block(9), critical).ok());
  ASSERT_TRUE(device.Trim(7).ok());
  EXPECT_EQ(device.Reclassify(7, critical).code(), StatusCode::kNotFound);
}

TEST(ReclassifyTest, SameClassIsNoOpWithoutFlashOps) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical =
      device.OpenPlacement(Spec(Durability::kCritical)).value();
  ASSERT_TRUE(device.Write(7, Block(9), critical).ok());
  ASSERT_EQ(PoolsByLba(device.ftl()).at(7), device.sys_pool());

  const uint64_t nand_writes_before = device.ftl().stats().nand_writes();
  const uint64_t migrations_before = device.ftl().stats().migrations();
  ASSERT_TRUE(device.Reclassify(7, critical).ok());  // already resident in SYS
  EXPECT_EQ(device.ftl().stats().nand_writes(), nand_writes_before);
  EXPECT_EQ(device.ftl().stats().migrations(), migrations_before);
  EXPECT_EQ(PoolsByLba(device.ftl()).at(7), device.sys_pool());
}

TEST(ReclassifyTest, LifecycleErrorsMatchWritePath) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical =
      device.OpenPlacement(Spec(Durability::kCritical)).value();
  ASSERT_TRUE(device.Write(7, Block(9), critical).ok());
  EXPECT_EQ(device.Reclassify(7, PlacementHandle()).code(), StatusCode::kInvalidArgument);
  const PlacementHandle degradable =
      device.OpenPlacement(Spec(Durability::kDegradable)).value();
  ASSERT_TRUE(device.ClosePlacement(degradable).ok());
  EXPECT_EQ(device.Reclassify(7, degradable).code(), StatusCode::kFailedPrecondition);
}

TEST(ReclassifyTest, BaselineDeviceHonorsSameContract) {
  SimClock clock;
  NandConfig nand = SmallSos().nand;
  nand.tech = CellTech::kTlc;
  BaselineDevice device(nand, &clock, EccPreset::kBch, GcPolicy::kGreedy);
  const PlacementHandle handle =
      device.OpenPlacement(Spec(Durability::kCritical)).value();
  // Unmapped and trimmed LBAs are kNotFound even though the baseline has a
  // single reliability domain and nothing would move.
  EXPECT_EQ(device.Reclassify(3, handle).code(), StatusCode::kNotFound);
  ASSERT_TRUE(device.Write(3, Block(1), handle).ok());
  EXPECT_TRUE(device.Reclassify(3, handle).ok());
  ASSERT_TRUE(device.Trim(3).ok());
  EXPECT_EQ(device.Reclassify(3, handle).code(), StatusCode::kNotFound);
  // Lifecycle errors still apply.
  EXPECT_EQ(device.Reclassify(3, PlacementHandle()).code(), StatusCode::kInvalidArgument);
}

// --- Per-handle export -------------------------------------------------------

// Oracle for the ftl.handle.<label>.* rows of a short SOS lifetime run, under
// the legacy schedule and under per-handle append points. Every SosDevice
// host write carries its handle's nonzero stream tag, so the handles' host
// writes add up to the device's; parity pages and stage flushes carry stream
// 0, so the handles' NAND writes are bounded by the device's.
TEST(PerHandleExportTest, HandleRowsAddUpToDeviceWrites) {
  for (PlacementPolicy policy : {PlacementPolicy::kLegacy, PlacementPolicy::kStatic}) {
    SCOPED_TRACE(PlacementPolicyName(policy));
    LifetimeSimConfig config;
    config.seed = 13;
    config.days = 40;
    config.nand.num_blocks = 128;
    config.training_files = 2000;
    config.workload.photos_per_day = 3.0;
    config.workload.reads_per_day = 40.0;
    config.workload.cache_files_per_day = 8.0;
    config.workload.app_updates_per_day = 80.0;
    config.file_size_cap = 32 * kKiB;
    config.sos.placement_policy = policy;
    LifetimeSim sim(config);
    const LifetimeResult result = sim.Run();

    struct HandleWrites {
      uint64_t host = 0;
      uint64_t nand = 0;
    };
    std::map<std::string, HandleWrites> handles;
    const std::string prefix = "ftl.handle.";
    for (const obs::MetricRow& row : result.device_metrics()) {
      if (row.name.rfind(prefix, 0) != 0) {
        continue;
      }
      const std::string rest = row.name.substr(prefix.size());
      const std::string field = rest.substr(rest.rfind('.') + 1);
      const std::string label = rest.substr(0, rest.rfind('.'));
      if (field == "host_writes") {
        handles[label].host = row.counter;
      } else if (field == "nand_writes") {
        handles[label].nand = row.counter;
      }
    }
    ASSERT_FALSE(handles.empty());

    uint64_t host_sum = 0;
    uint64_t nand_sum = 0;
    for (const auto& [label, writes] : handles) {
      SCOPED_TRACE(label);
      EXPECT_GE(writes.nand, writes.host);
      host_sum += writes.host;
      nand_sum += writes.nand;
    }
    EXPECT_GT(host_sum, 0u);
    EXPECT_EQ(host_sum, result.ftl().host_writes());
    EXPECT_LE(nand_sum, result.ftl().nand_writes());
  }
}

}  // namespace
}  // namespace sos
