// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the fleet subsystem (DESIGN.md §13): archetype sampling,
// the integer merge algebra of the ledger, and the shard partial codec.
// The end-to-end byte-identity of bench_fleet artifacts across --jobs and
// shard splits is enforced by the fleet_shard_merge ctest; this file proves
// the underlying properties at the unit level, including the algebraic ones
// (associativity, commutativity) the artifact test only samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/fleet/archetype.h"
#include "src/fleet/fleet.h"
#include "src/fleet/ledger.h"
#include "src/fleet/partial.h"
#include "src/obs/metrics.h"

namespace sos::fleet {
namespace {

// A synthetic outcome stream: plausible magnitudes, deterministic, and
// varied enough to populate every histogram bucket including overflow.
DeviceOutcome RandomOutcome(Rng& rng) {
  DeviceOutcome outcome;
  outcome.archetype = static_cast<Archetype>(rng.NextBounded(kNumArchetypes));
  outcome.kind = rng.NextBool(0.5) ? DeviceKind::kSos : DeviceKind::kTlcBaseline;
  outcome.full_size_gb = 64u << rng.NextBounded(4);
  outcome.projected_lifetime_years = 120.0 * rng.NextDouble();
  outcome.initial_exported_pages = 10000 + rng.NextBounded(1000);
  outcome.final_exported_pages = outcome.initial_exported_pages - rng.NextBounded(5000);
  outcome.pec_variance = 6000.0 * rng.NextDouble();
  outcome.autodelete_files = rng.NextBounded(8000);
  outcome.autodelete_bytes = outcome.autodelete_files * 4096;
  outcome.create_failures = rng.NextBounded(10);
  outcome.host_bytes_written = rng.NextBounded(1u << 30);
  outcome.daemon_activations = rng.NextBounded(500);
  outcome.trace_dropped = rng.NextBounded(100);
  return outcome;
}

std::vector<DeviceOutcome> RandomOutcomes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<DeviceOutcome> outcomes;
  outcomes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    outcomes.push_back(RandomOutcome(rng));
  }
  return outcomes;
}

FleetLedger FoldAll(const std::vector<DeviceOutcome>& outcomes) {
  FleetLedger ledger;
  for (const DeviceOutcome& outcome : outcomes) {
    ledger.Fold(outcome);
  }
  return ledger;
}

// Calls fn(name, value) for every integer a ledger holds: each count and
// micro-unit cell, and each part of each histogram cell (count, micro_sum,
// every bucket). Driven by the ledger's own field walk, so the field-list
// tests below cover a new cell without a new case.
template <typename Ledger, typename Fn>
void ForEachLeaf(Ledger& ledger, Fn&& fn) {
  FleetLedger::ForEachCell(
      [&](const std::string& key, auto& cell) {
        if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(cell)>>) {
          fn(key, cell);
        } else {
          FleetHistogram::ForEachPart(
              [&](const std::string& part, auto& value) {
                if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(value)>>) {
                  fn(key + "." + part, value);
                } else {
                  for (size_t i = 0; i < value.size(); ++i) {
                    fn(key + "." + part + "[" + std::to_string(i) + "]", value[i]);
                  }
                }
              },
              cell);
        }
      },
      ledger);
}

// Every leaf as (name, two's-complement bits), in walk order.
std::vector<std::pair<std::string, uint64_t>> Leaves(const FleetLedger& ledger) {
  std::vector<std::pair<std::string, uint64_t>> leaves;
  ForEachLeaf(ledger, [&](const std::string& name, auto value) {
    leaves.emplace_back(name, static_cast<uint64_t>(value));
  });
  return leaves;
}

// Adds one to the leaf called `name`; false if there is none.
bool BumpLeaf(FleetLedger& ledger, const std::string& name) {
  bool found = false;
  ForEachLeaf(ledger, [&](const std::string& leaf, auto& value) {
    if (leaf == name) {
      ++value;
      found = true;
    }
  });
  return found;
}

// A one-shard partial around `ledger` that satisfies every count identity.
FleetPartial WholePartial(const FleetLedger& ledger) {
  FleetPartial partial;
  partial.fleet_seed = 1;
  partial.fleet_devices = ledger.devices();
  partial.mix = "test";
  partial.shard_devices = ledger.devices();
  partial.ledger = ledger;
  return partial;
}

// --- Archetype sampling ----------------------------------------------------

TEST(ArchetypeTest, NamesRoundTrip) {
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    const auto archetype = static_cast<Archetype>(i);
    const Result<Archetype> parsed = ParseArchetype(ArchetypeName(archetype));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), archetype);
  }
  EXPECT_FALSE(ParseArchetype("gamer").ok());
}

TEST(ArchetypeTest, DrawIsDeterministicPerIndex) {
  const MixSpec mix;
  const DeviceDraw a = DrawDevice(mix, 42, 7);
  const DeviceDraw b = DrawDevice(mix, 42, 7);
  EXPECT_EQ(a.archetype, b.archetype);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.kind, b.config.kind);
  EXPECT_EQ(a.config.days, b.config.days);
  EXPECT_EQ(a.config.nand.num_blocks, b.config.nand.num_blocks);
  EXPECT_EQ(a.config.nand.initial_pec, b.config.nand.initial_pec);
  EXPECT_DOUBLE_EQ(a.config.workload.photos_per_day, b.config.workload.photos_per_day);
  EXPECT_DOUBLE_EQ(a.config.workload.cache_files_per_day, b.config.workload.cache_files_per_day);
  EXPECT_EQ(a.full_size_gb, b.full_size_gb);
}

TEST(ArchetypeTest, DrawOrderIndependent) {
  // Device i's draw must not depend on which devices were drawn before it --
  // that is what makes any shard partition see the same population.
  const MixSpec mix;
  const DeviceDraw direct = DrawDevice(mix, 9, 100);
  for (uint64_t i = 0; i < 100; ++i) {
    (void)DrawDevice(mix, 9, i);
  }
  const DeviceDraw after = DrawDevice(mix, 9, 100);
  EXPECT_EQ(direct.config.seed, after.config.seed);
  EXPECT_EQ(direct.archetype, after.archetype);
  EXPECT_DOUBLE_EQ(direct.config.workload.intensity, after.config.workload.intensity);
}

TEST(ArchetypeTest, SeedsAreUniquePerDevice) {
  const MixSpec mix;
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 200; ++i) {
    seeds.push_back(DrawDevice(mix, 5, i).config.seed);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ArchetypeTest, MixWeightsDrivePopulationShares) {
  Result<MixSpec> mix = ParseMixSpec("light:80,app_churner:20");
  ASSERT_TRUE(mix.ok());
  std::array<uint64_t, kNumArchetypes> counts = {};
  const uint64_t n = 4000;
  for (uint64_t i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(DrawDevice(mix.value(), 3, i).archetype)];
  }
  EXPECT_EQ(counts[static_cast<size_t>(Archetype::kMediaHoarder)], 0u);
  const double light_share =
      static_cast<double>(counts[static_cast<size_t>(Archetype::kLight)]) / static_cast<double>(n);
  EXPECT_NEAR(light_share, 0.8, 0.03);
}

TEST(ArchetypeTest, MixSpecParsing) {
  Result<MixSpec> mix = ParseMixSpec("light:60,media_hoarder:25,app_churner:15");
  ASSERT_TRUE(mix.ok());
  EXPECT_DOUBLE_EQ(mix.value().TotalWeight(), 100.0);
  EXPECT_DOUBLE_EQ(mix.value().weights[static_cast<size_t>(Archetype::kMediaHoarder)], 25.0);

  // Unlisted archetypes get weight zero.
  Result<MixSpec> partial = ParseMixSpec("light:1");
  ASSERT_TRUE(partial.ok());
  EXPECT_DOUBLE_EQ(partial.value().weights[static_cast<size_t>(Archetype::kAppChurner)], 0.0);

  EXPECT_FALSE(ParseMixSpec("").ok());                  // zero total weight
  EXPECT_FALSE(ParseMixSpec("light").ok());             // no colon
  EXPECT_FALSE(ParseMixSpec("light:").ok());            // empty weight
  EXPECT_FALSE(ParseMixSpec("gamer:10").ok());          // unknown archetype
  EXPECT_FALSE(ParseMixSpec("light:-3").ok());          // negative weight
  EXPECT_FALSE(ParseMixSpec("light:abc").ok());         // non-numeric weight
  EXPECT_FALSE(ParseMixSpec("light:1,light:2").ok());   // duplicate entry
  EXPECT_FALSE(ParseMixSpec("light:0").ok());           // zero total weight
}

TEST(ArchetypeTest, MixSpecRoundTripsThroughString) {
  Result<MixSpec> mix = ParseMixSpec("light:3,media_hoarder:1.5,app_churner:0.25");
  ASSERT_TRUE(mix.ok());
  Result<MixSpec> again = ParseMixSpec(MixSpecToString(mix.value()));
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    EXPECT_DOUBLE_EQ(mix.value().weights[i], again.value().weights[i]);
  }
}

// --- Shard specs and config validation -------------------------------------

TEST(FleetConfigTest, ShardSpecParsing) {
  Result<std::pair<uint64_t, uint64_t>> spec = ParseShardSpec("3/8");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().first, 3u);
  EXPECT_EQ(spec.value().second, 8u);

  EXPECT_FALSE(ParseShardSpec("").ok());
  EXPECT_FALSE(ParseShardSpec("3").ok());
  EXPECT_FALSE(ParseShardSpec("/8").ok());
  EXPECT_FALSE(ParseShardSpec("3/").ok());
  EXPECT_FALSE(ParseShardSpec("a/b").ok());
  EXPECT_FALSE(ParseShardSpec("1/0").ok());
  EXPECT_FALSE(ParseShardSpec("8/8").ok());  // index must be < count
  EXPECT_FALSE(ParseShardSpec("1/2/3").ok());
  EXPECT_FALSE(ParseShardSpec("0/18446744073709551616").ok());  // 2^64 does not fit
}

TEST(FleetConfigTest, Validation) {
  FleetConfig config;
  EXPECT_TRUE(ValidateFleetConfig(config).ok());
  config.devices = 0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config.devices = 10;
  config.shard_index = 2;
  config.shard_count = 2;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config.shard_index = 1;
  EXPECT_TRUE(ValidateFleetConfig(config).ok());
  config.mix.weights.fill(0.0);
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
}

// --- Fixed point and histograms --------------------------------------------

TEST(FleetLedgerTest, MicroFixedPointRoundTrip) {
  EXPECT_EQ(ToMicro(1.5), 1500000);
  EXPECT_EQ(ToMicro(-2.25), -2250000);
  EXPECT_DOUBLE_EQ(FromMicro(ToMicro(3.141592)), 3.141592);
  // Rounding, not truncation.
  EXPECT_EQ(ToMicro(0.0000015), 2);
}

TEST(FleetLedgerTest, HistogramBucketsAndOverflow) {
  FleetHistogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (inclusive upper bound)
  h.Observe(3.0);   // bucket 2
  h.Observe(100.0); // overflow
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 0u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.micro_sum(), ToMicro(104.5));
}

TEST(FleetLedgerTest, HistogramMergeAddsAndChecksShape) {
  FleetHistogram a({1.0, 2.0});
  FleetHistogram b({1.0, 2.0});
  a.Observe(0.5);
  b.Observe(1.5);
  b.Observe(9.0);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);

  FleetHistogram mismatched({1.0, 3.0});
  EXPECT_FALSE(a.Merge(mismatched).ok());
}

// --- Merge algebra ---------------------------------------------------------

TEST(FleetLedgerTest, FoldCountsArchetypesAndKinds) {
  const std::vector<DeviceOutcome> outcomes = RandomOutcomes(11, 300);
  const FleetLedger ledger = FoldAll(outcomes);
  EXPECT_EQ(ledger.devices(), 300u);
  uint64_t archetype_sum = 0;
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    archetype_sum += ledger.archetype_devices(i);
  }
  EXPECT_EQ(archetype_sum, 300u);
  EXPECT_EQ(ledger.sos_devices() + ledger.baseline_devices(), 300u);
  EXPECT_EQ(ledger.lifetime_years().count(), 300u);
  // SOS devices cost less carbon than the TLC counterfactual, never more.
  const EmbodiedCarbon carbon = ledger.Carbon();
  EXPECT_GT(carbon.tlc_counterfactual_micro_kg, carbon.actual_micro_kg);
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    EXPECT_GE(ledger.ArchetypeCarbon(i).savings_micro_kg(), 0) << i;
  }
  EXPECT_LT(EmbodiedMicroKg(64, FleetKind::kSos), EmbodiedMicroKg(64, FleetKind::kBaseline));
}

// --- Carbon pricing ----------------------------------------------------------

void ExpectSameCarbon(const EmbodiedCarbon& a, const EmbodiedCarbon& b, const std::string& what) {
  EXPECT_EQ(a.capacity_gb, b.capacity_gb) << what;
  EXPECT_EQ(a.actual_micro_kg, b.actual_micro_kg) << what;
  EXPECT_EQ(a.tlc_counterfactual_micro_kg, b.tlc_counterfactual_micro_kg) << what;
}

EmbodiedCarbon Plus(EmbodiedCarbon a, const EmbodiedCarbon& b) {
  a.capacity_gb += b.capacity_gb;
  a.actual_micro_kg += b.actual_micro_kg;
  a.tlc_counterfactual_micro_kg += b.tlc_counterfactual_micro_kg;
  return a;
}

TEST(FleetCarbonTest, PricingAMergedLedgerSumsThePricesOfItsParts) {
  Rng rng(83);
  for (uint64_t trial = 0; trial < 20; ++trial) {
    const std::vector<DeviceOutcome> outcomes = RandomOutcomes(100 + trial, 150);
    std::vector<FleetLedger> parts(2 + rng.NextBounded(4));
    for (const DeviceOutcome& outcome : outcomes) {
      parts[rng.NextBounded(parts.size())].Fold(outcome);
    }
    FleetLedger merged;
    EmbodiedCarbon summed;
    std::array<EmbodiedCarbon, kNumArchetypes> archetype_summed = {};
    for (const FleetLedger& part : parts) {
      ASSERT_TRUE(merged.Merge(part).ok());
      summed = Plus(summed, part.Carbon());
      for (size_t i = 0; i < kNumArchetypes; ++i) {
        archetype_summed[i] = Plus(archetype_summed[i], part.ArchetypeCarbon(i));
      }
    }
    const std::string what = "trial " + std::to_string(trial);
    ExpectSameCarbon(merged.Carbon(), summed, what);
    for (size_t i = 0; i < kNumArchetypes; ++i) {
      ExpectSameCarbon(merged.ArchetypeCarbon(i), archetype_summed[i],
                       what + " archetype " + std::to_string(i));
    }
  }
}

// The gauge called `name` in `registry`; fails the test if there is none.
double GaugeValue(const obs::MetricRegistry& registry, const std::string& name) {
  for (const obs::MetricRow& row : registry.Snapshot()) {
    if (row.name == name && row.kind == obs::MetricKind::kGauge) {
      return row.gauge;
    }
  }
  ADD_FAILURE() << "no gauge " << name;
  return 0.0;
}

TEST(FleetCarbonTest, HandBuiltLedgerExportsExactCarbon) {
  // 128 GB of SOS at 0.108 kg/GB (the 50/50 pseudo-QLC / PLC split) and
  // 64 GB of TLC at 0.16 kg/GB.
  FleetLedger ledger;
  DeviceOutcome sos;
  sos.archetype = Archetype::kLight;
  sos.kind = DeviceKind::kSos;
  sos.full_size_gb = 128;
  ledger.Fold(sos);
  DeviceOutcome tlc;
  tlc.archetype = Archetype::kAppChurner;
  tlc.kind = DeviceKind::kTlcBaseline;
  tlc.full_size_gb = 64;
  ledger.Fold(tlc);

  obs::MetricRegistry registry;
  ledger.ToMetrics(registry);
  EXPECT_EQ(GaugeValue(registry, "fleet.carbon.actual_kg"), 13.824 + 10.24);
  EXPECT_EQ(GaugeValue(registry, "fleet.carbon.tlc_counterfactual_kg"), 20.48 + 10.24);
  EXPECT_EQ(GaugeValue(registry, "fleet.carbon.capacity_gb"), 192.0);
  EXPECT_EQ(GaugeValue(registry, "fleet.archetype.light.carbon.actual_kg"), 13.824);
  EXPECT_EQ(GaugeValue(registry, "fleet.archetype.app_churner.carbon.savings_kg"), 0.0);
}

TEST(FleetLedgerTest, MergeEqualsUnpartitionedFold) {
  const std::vector<DeviceOutcome> outcomes = RandomOutcomes(17, 257);
  const FleetLedger whole = FoldAll(outcomes);

  // Strided 3-way partition, merged in order.
  std::array<FleetLedger, 3> parts;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    parts[i % 3].Fold(outcomes[i]);
  }
  FleetLedger merged = parts[0];
  ASSERT_TRUE(merged.Merge(parts[1]).ok());
  ASSERT_TRUE(merged.Merge(parts[2]).ok());
  EXPECT_EQ(merged, whole);
}

TEST(FleetLedgerTest, MergeIsCommutative) {
  const std::vector<DeviceOutcome> outcomes = RandomOutcomes(23, 100);
  FleetLedger a, b;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    (i < 40 ? a : b).Fold(outcomes[i]);
  }
  FleetLedger ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  FleetLedger ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  EXPECT_EQ(ab, ba);
}

TEST(FleetLedgerTest, MergeIsAssociative) {
  const std::vector<DeviceOutcome> outcomes = RandomOutcomes(29, 120);
  std::array<FleetLedger, 3> parts;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    parts[i % 3].Fold(outcomes[i]);
  }
  // (a + b) + c
  FleetLedger left = parts[0];
  ASSERT_TRUE(left.Merge(parts[1]).ok());
  ASSERT_TRUE(left.Merge(parts[2]).ok());
  // a + (b + c)
  FleetLedger bc = parts[1];
  ASSERT_TRUE(bc.Merge(parts[2]).ok());
  FleetLedger right = parts[0];
  ASSERT_TRUE(right.Merge(bc).ok());
  EXPECT_EQ(left, right);
}

// --- Field-list completeness ----------------------------------------------
//
// These walk FleetLedger::ForEachCell, so a cell the codec or Merge misses
// fails here without a hand-written case.

TEST(FleetFieldListTest, FixtureLeavesNoCellAtZero) {
  const FleetLedger ledger = FoldAll(RandomOutcomes(59, 200));
  size_t cells = 0;
  FleetLedger::ForEachCell(
      [&](const std::string& key, const auto& cell) {
        ++cells;
        if constexpr (std::is_same_v<decltype(cell), const FleetHistogram&>) {
          EXPECT_NE(cell, FleetHistogram(cell.bounds())) << key;
          EXPECT_NE(cell.micro_sum(), 0) << key;
        } else {
          EXPECT_TRUE(cell != 0) << key;
        }
      },
      ledger);
  EXPECT_GT(cells, 0u);
}

TEST(FleetFieldListTest, JsonRoundTripRestoresEveryCell) {
  const FleetLedger ledger = FoldAll(RandomOutcomes(61, 150));
  Result<FleetPartial> parsed = ParsePartialJson(PartialToJson(WholePartial(ledger)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ledger, ledger);
  EXPECT_EQ(Leaves(parsed.value().ledger), Leaves(ledger));
}

TEST(FleetFieldListTest, SelfMergeDoublesEveryCell) {
  const FleetLedger ledger = FoldAll(RandomOutcomes(67, 120));
  FleetLedger doubled = ledger;
  ASSERT_TRUE(doubled.Merge(ledger).ok());
  const auto once = Leaves(ledger);
  const auto twice = Leaves(doubled);
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(twice[i].second, 2 * once[i].second) << once[i].first;
  }
}

TEST(FleetFieldListTest, EveryLeafReachesEqualityAndJson) {
  const FleetLedger ledger = FoldAll(RandomOutcomes(71, 80));
  const std::string json = PartialToJson(WholePartial(ledger));
  for (const auto& [name, value] : Leaves(ledger)) {
    FleetLedger bumped = ledger;
    ASSERT_TRUE(BumpLeaf(bumped, name));
    EXPECT_FALSE(bumped == ledger) << name;
    EXPECT_NE(PartialToJson(WholePartial(bumped)), json) << name;
  }
}

TEST(FleetLedgerTest, MergeRefusesMismatchedShapesUnchanged) {
  FleetLedger ledger = FoldAll(RandomOutcomes(73, 20));
  const FleetLedger before = ledger;
  FleetLedger other = ledger;
  FleetLedger::ForEachCell(
      [](const std::string& key, auto& cell) {
        if constexpr (std::is_same_v<decltype(cell), FleetHistogram&>) {
          if (key == "pec_variance") {
            cell = FleetHistogram({1.0});
          }
        }
      },
      other);
  EXPECT_EQ(ledger.Merge(other).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger, before);
}

TEST(FleetLedgerTest, MetricsExportIsByteStableAcrossGroupings) {
  const std::vector<DeviceOutcome> outcomes = RandomOutcomes(31, 90);
  const FleetLedger whole = FoldAll(outcomes);
  FleetLedger halves_front, halves_back;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    (i % 2 == 0 ? halves_front : halves_back).Fold(outcomes[i]);
  }
  FleetLedger merged = halves_back;  // deliberately merge "backwards"
  ASSERT_TRUE(merged.Merge(halves_front).ok());

  obs::MetricRegistry reg_whole, reg_merged;
  whole.ToMetrics(reg_whole);
  merged.ToMetrics(reg_merged);
  EXPECT_EQ(reg_whole.ToJson(), reg_merged.ToJson());
}

// --- Partial codec ---------------------------------------------------------

FleetPartial MakePartial(uint64_t outcome_seed, uint64_t shard_index, uint64_t shard_count) {
  FleetPartial partial;
  partial.fleet_seed = 77;
  partial.fleet_devices = 200;
  partial.mix = "light:60,media_hoarder:25,app_churner:15";
  partial.shard_index = shard_index;
  partial.shard_count = shard_count;
  partial.shard_devices = 100;
  partial.ledger = FoldAll(RandomOutcomes(outcome_seed, 100));
  return partial;
}

TEST(FleetPartialTest, JsonRoundTripIsExact) {
  const FleetPartial partial = MakePartial(37, 1, 2);
  const std::string json = PartialToJson(partial);
  Result<FleetPartial> parsed = ParsePartialJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(PartialToJson(parsed.value()), json);
  EXPECT_EQ(parsed.value().shard_index, 1u);
  EXPECT_EQ(parsed.value().ledger.devices(), 100u);
  EXPECT_EQ(parsed.value().ledger.Carbon().actual_micro_kg,
            partial.ledger.Carbon().actual_micro_kg);
}

// Replaces the value after the first `"key": ` in `json` (up to the next
// ',' or '\n') with `value`.
std::string WithValue(std::string json, const std::string& key, const std::string& value) {
  const std::string needle = "\"" + key + "\": ";
  const size_t start = json.find(needle);
  EXPECT_NE(start, std::string::npos) << key;
  const size_t first = start + needle.size();
  const size_t last = json.find_first_of(",\n", first);
  return json.replace(first, last - first, value);
}

TEST(FleetPartialTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParsePartialJson("").ok());
  EXPECT_FALSE(ParsePartialJson("not json").ok());
  EXPECT_FALSE(ParsePartialJson("{}").ok());
  EXPECT_FALSE(ParsePartialJson("{\"fleet_partial\": {}}").ok());
  // Wrong schema version must be refused, not guessed at.
  const std::string json = PartialToJson(MakePartial(41, 0, 1));
  const std::string version = "\"schema_version\": " + std::to_string(kPartialSchemaVersion);
  const size_t pos = json.find(version);
  ASSERT_NE(pos, std::string::npos);
  std::string bad_version = json;
  bad_version.replace(pos, version.size(), "\"schema_version\": 999");
  EXPECT_FALSE(ParsePartialJson(bad_version).ok());
  // Trailing bytes, a truncated file, and a missing cell.
  EXPECT_FALSE(ParsePartialJson(json + "x").ok());
  EXPECT_FALSE(ParsePartialJson(json.substr(0, json.size() / 2)).ok());
  const size_t cell = json.find("    \"archetype.light.devices.sos\"");
  ASSERT_NE(cell, std::string::npos);
  std::string missing = json;
  missing.erase(cell, json.find('\n', cell) + 1 - cell);
  EXPECT_FALSE(ParsePartialJson(missing).ok());
}

TEST(FleetPartialTest, ParseNamesARefusedSchemaVersion) {
  // Version 2, the layout with carbon cells, is the one a stale partial has.
  const std::string json = WithValue(PartialToJson(MakePartial(41, 0, 1)), "schema_version", "2");
  Result<FleetPartial> parsed = ParsePartialJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("schema version 2 is not supported"), std::string::npos)
      << parsed.status().ToString();
}

TEST(FleetPartialTest, ParseAllowsOnlyWhitespaceBetweenTokens) {
  const FleetPartial partial = MakePartial(43, 1, 2);
  std::string compact;
  for (char c : PartialToJson(partial)) {
    if (c != ' ' && c != '\n') {
      compact += c;
    }
  }
  Result<FleetPartial> parsed = ParsePartialJson(compact);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ledger, partial.ledger);
}

TEST(FleetPartialTest, ParseRejectsIntegersOutsideTheCellType) {
  const std::string json = PartialToJson(MakePartial(47, 0, 2));
  // u64 cells: the old reader saturated these to 2^64 - 1.
  for (const char* value : {"99999999999999999999999", "18446744073709551616", "-1"}) {
    Result<FleetPartial> parsed = ParsePartialJson(WithValue(json, "shard_devices", value));
    ASSERT_FALSE(parsed.ok()) << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // i64 micro-unit cells.
  for (const char* value : {"9223372036854775808", "-9223372036854775809"}) {
    Result<FleetPartial> parsed = ParsePartialJson(WithValue(json, "micro_sum", value));
    ASSERT_FALSE(parsed.ok()) << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // The extremes of each type are in range.
  Result<FleetPartial> max_u64 =
      ParsePartialJson(WithValue(json, "autodelete.bytes", "18446744073709551615"));
  ASSERT_TRUE(max_u64.ok()) << max_u64.status().ToString();
  EXPECT_EQ(max_u64.value().ledger.autodelete_bytes_total(), UINT64_MAX);
  Result<FleetPartial> min_i64 =
      ParsePartialJson(WithValue(json, "micro_sum", "-9223372036854775808"));
  ASSERT_TRUE(min_i64.ok()) << min_i64.status().ToString();
  EXPECT_EQ(min_i64.value().ledger.lifetime_years().micro_sum(), INT64_MIN);
}

TEST(FleetPartialTest, ParseChecksCountIdentities) {
  const FleetPartial valid = MakePartial(53, 0, 2);
  ASSERT_TRUE(ParsePartialJson(PartialToJson(valid)).ok());

  // Each entry breaks one identity: the leaves it bumps by one. One more
  // device in any (archetype, kind) cell breaks shard_devices == devices.
  std::vector<std::vector<std::string>> breaks;
  FleetLedger::ForEachCell(
      [&](const std::string& key, const auto& cell) {
        if (key.find(".devices.") != std::string::npos) {
          breaks.push_back({key});
        }
        if constexpr (std::is_same_v<decltype(cell), const FleetHistogram&>) {
          breaks.push_back({key + ".buckets[0]"});                     // count == sum of buckets
          breaks.push_back({key + ".count", key + ".buckets[0]"});     // count == devices
        }
      },
      valid.ledger);
  ASSERT_EQ(breaks.size(), kNumArchetypes * kNumFleetKinds + 2 * 4);  // 4 histograms
  for (const std::vector<std::string>& leaves : breaks) {
    FleetPartial broken = valid;
    for (const std::string& leaf : leaves) {
      ASSERT_TRUE(BumpLeaf(broken.ledger, leaf)) << leaf;
    }
    Result<FleetPartial> parsed = ParsePartialJson(PartialToJson(broken));
    ASSERT_FALSE(parsed.ok()) << leaves.front();
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << leaves.front();
  }

  // shard_devices == devices (the header's count of the ledger's).
  FleetPartial shard = valid;
  ++shard.shard_devices;
  EXPECT_EQ(ParsePartialJson(PartialToJson(shard)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetPartialTest, MergeReconstructsWholeFleet) {
  const std::vector<DeviceOutcome> outcomes = RandomOutcomes(43, 200);

  FleetPartial whole;
  whole.fleet_seed = 77;
  whole.fleet_devices = 200;
  whole.mix = "m";
  whole.shard_devices = 200;
  whole.ledger = FoldAll(outcomes);

  std::vector<FleetPartial> shards(2);
  for (uint64_t s = 0; s < 2; ++s) {
    shards[s].fleet_seed = 77;
    shards[s].fleet_devices = 200;
    shards[s].mix = "m";
    shards[s].shard_index = s;
    shards[s].shard_count = 2;
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    shards[i % 2].ledger.Fold(outcomes[i]);
    ++shards[i % 2].shard_devices;
  }
  std::swap(shards[0], shards[1]);  // merge must canonicalize order itself
  Result<FleetPartial> merged = MergePartials(std::move(shards));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().shard_index, 0u);
  EXPECT_EQ(merged.value().shard_count, 1u);
  EXPECT_EQ(PartialToJson(merged.value()), PartialToJson(whole));
}

TEST(FleetPartialTest, MergeRejectsBadShardSets) {
  // Empty set.
  EXPECT_FALSE(MergePartials({}).ok());

  // Mismatched population seed.
  {
    std::vector<FleetPartial> shards = {MakePartial(47, 0, 2), MakePartial(53, 1, 2)};
    shards[1].fleet_seed = 78;
    EXPECT_FALSE(MergePartials(std::move(shards)).ok());
  }
  // Mismatched mix.
  {
    std::vector<FleetPartial> shards = {MakePartial(47, 0, 2), MakePartial(53, 1, 2)};
    shards[1].mix = "light:100";
    EXPECT_FALSE(MergePartials(std::move(shards)).ok());
  }
  // Mismatched shard_count.
  {
    std::vector<FleetPartial> shards = {MakePartial(47, 0, 2), MakePartial(53, 1, 3)};
    EXPECT_FALSE(MergePartials(std::move(shards)).ok());
  }
  // Duplicate shard.
  {
    std::vector<FleetPartial> shards = {MakePartial(47, 0, 2), MakePartial(53, 0, 2)};
    EXPECT_FALSE(MergePartials(std::move(shards)).ok());
  }
  // Incomplete cover (1 of 2 shards).
  {
    std::vector<FleetPartial> shards = {MakePartial(47, 0, 2)};
    EXPECT_FALSE(MergePartials(std::move(shards)).ok());
  }
  // Shard device totals must add up to the population.
  {
    std::vector<FleetPartial> shards = {MakePartial(47, 0, 2), MakePartial(53, 1, 2)};
    shards[0].shard_devices = 99;
    EXPECT_FALSE(MergePartials(std::move(shards)).ok());
  }
}

// --- End-to-end (small fleets) ---------------------------------------------

TEST(FleetRunTest, ShardedRunsMergeToTheUnshardedLedger) {
  FleetConfig config;
  config.devices = 10;
  config.seed = 6;

  Result<FleetPartial> whole = RunFleet(config);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole.value().ledger.devices(), 10u);

  std::vector<FleetPartial> shards;
  for (uint64_t s = 0; s < 2; ++s) {
    config.shard_index = s;
    config.shard_count = 2;
    Result<FleetPartial> shard = RunFleet(config);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards.push_back(std::move(shard.value()));
  }
  Result<FleetPartial> merged = MergePartials(std::move(shards));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(PartialToJson(merged.value()), PartialToJson(whole.value()));
}

TEST(FleetRunTest, JobsDoNotChangeTheLedger) {
  FleetConfig config;
  config.devices = 8;
  config.seed = 14;
  config.jobs = 1;
  Result<FleetPartial> serial = RunFleet(config);
  ASSERT_TRUE(serial.ok());
  config.jobs = 4;
  Result<FleetPartial> parallel = RunFleet(config);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(PartialToJson(serial.value()), PartialToJson(parallel.value()));
}

}  // namespace
}  // namespace sos::fleet
