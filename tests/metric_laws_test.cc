// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Conservation laws over the committed device-metric goldens. Each device
// run in a bench's --metrics-out export (one `<run prefix>ftl.*` and
// `<run prefix>flash.die.*` block per device) must account for every page it
// programmed:
//
//   flash.die.programs == ftl.nand_writes
//   flash.die.erases   == ftl.gc_erases
//   sum over pools of ftl.pool.<p>.nand_writes == ftl.nand_writes
//   per pool and per device:
//     nand_writes == host_writes + gc_relocations + wl_relocations +
//                    migrations + refreshes + parity_writes
//   where handle rows exist (SOS runs; baselines write stream 0 only):
//     sum of ftl.handle.<h>.nand_writes + ftl.parity_writes == ftl.nand_writes
//     sum of ftl.handle.<h>.host_writes == ftl.host_writes
//
// The determinism ctests pin each golden to its bench byte for byte, so
// checking the goldens checks the benches without simulating anything here.
// These laws are what make a counter row's reader a fact the tree checks.

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

// Counter rows of a registry JSON export, by name. The renderer writes one
// row per line: {"name": "<name>", "kind": "counter", "value": <n>}.
std::map<std::string, uint64_t> ReadCounters(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, uint64_t> counters;
  const std::string name_key = "{\"name\": \"";
  const std::string counter_key = "\", \"kind\": \"counter\", \"value\": ";
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_at = line.find(name_key);
    const size_t kind_at = line.find(counter_key);
    if (name_at == std::string::npos || kind_at == std::string::npos) {
      continue;
    }
    const size_t name_begin = name_at + name_key.size();
    counters[line.substr(name_begin, kind_at - name_begin)] =
        std::stoull(line.substr(kind_at + counter_key.size()));
  }
  return counters;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The prefixes P (ending in '.') for which `P + suffix` is a row whose P
// starts with `head`.
std::vector<std::string> Prefixes(const std::map<std::string, uint64_t>& counters,
                                  const std::string& head, const std::string& suffix) {
  std::vector<std::string> out;
  for (auto it = counters.lower_bound(head); it != counters.end(); ++it) {
    if (it->first.compare(0, head.size(), head) != 0) {
      break;
    }
    if (EndsWith(it->first, suffix)) {
      out.push_back(it->first.substr(0, it->first.size() - suffix.size()));
    }
  }
  return out;
}

// nand_writes == every cause of a program, for one ftl counter block.
void ExpectProgramsAccounted(const std::map<std::string, uint64_t>& c, const std::string& p) {
  SCOPED_TRACE(p);
  EXPECT_EQ(c.at(p + "nand_writes"), c.at(p + "host_writes") + c.at(p + "gc_relocations") +
                                         c.at(p + "wl_relocations") + c.at(p + "migrations") +
                                         c.at(p + "refreshes") + c.at(p + "parity_writes"));
}

struct Golden {
  const char* file;
  size_t devices;           // device runs in the export
  size_t devices_with_handles;
};

class MetricLawsTest : public ::testing::TestWithParam<Golden> {};

TEST_P(MetricLawsTest, EveryDeviceAccountsForItsPrograms) {
  SCOPED_TRACE(GetParam().file);
  const std::map<std::string, uint64_t> c =
      ReadCounters(std::string(SOS_GOLDEN_DIR) + "/" + GetParam().file);
  const std::vector<std::string> devices = Prefixes(c, "", "ftl.nand_writes");
  EXPECT_EQ(devices.size(), GetParam().devices);
  size_t with_handles = 0;
  for (const std::string& dev : devices) {
    SCOPED_TRACE(dev);
    const std::string ftl = dev + "ftl.";
    EXPECT_EQ(c.at(dev + "flash.die.programs"), c.at(ftl + "nand_writes"));
    EXPECT_EQ(c.at(dev + "flash.die.erases"), c.at(ftl + "gc_erases"));
    ExpectProgramsAccounted(c, ftl);

    const std::vector<std::string> pools = Prefixes(c, ftl + "pool.", "nand_writes");
    EXPECT_FALSE(pools.empty());
    uint64_t pool_nand = 0;
    for (const std::string& pool : pools) {
      ExpectProgramsAccounted(c, pool);
      pool_nand += c.at(pool + "nand_writes");
    }
    EXPECT_EQ(pool_nand, c.at(ftl + "nand_writes"));

    const std::vector<std::string> handles = Prefixes(c, ftl + "handle.", "nand_writes");
    if (handles.empty()) {
      continue;
    }
    ++with_handles;
    uint64_t handle_nand = 0;
    uint64_t handle_host = 0;
    for (const std::string& handle : handles) {
      handle_nand += c.at(handle + "nand_writes");
      handle_host += c.at(handle + "host_writes");
    }
    EXPECT_EQ(handle_nand + c.at(ftl + "parity_writes"), c.at(ftl + "nand_writes"));
    EXPECT_EQ(handle_host, c.at(ftl + "host_writes"));
  }
  EXPECT_EQ(with_handles, GetParam().devices_with_handles);
}

INSTANTIATE_TEST_SUITE_P(Goldens, MetricLawsTest,
                         ::testing::Values(Golden{"bench_lifetime_gap_metrics.json", 7, 4},
                                           Golden{"bench_flash_cache_metrics.json", 3, 3}));

}  // namespace
