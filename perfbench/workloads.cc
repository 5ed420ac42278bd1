// Copyright (c) 2026 The SOS Authors. MIT License.

#include "perfbench/workloads.h"

#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>

#include "perfbench/layers.h"
#include "perfbench/mirror.h"
#include "src/common/rng.h"
#include "src/fleet/fleet.h"
#include "src/fleet/partial.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace sos::perfbench {
namespace {

constexpr uint64_t kLifetimeDomain = 0x6c696665ull;  // "life"
constexpr uint64_t kOrderDomain = 0x6f726472ull;     // "ordr"
constexpr uint64_t kServeDomain = 0x73727665ull;     // "srve"

// lifetime_mobile: a fixed list of simulation seeds derived from
// bench_lifetime_gap's seed.
constexpr uint64_t kLifetimeListSeed = 7;
constexpr uint64_t kLifetimeSeeds = 6;

// fleet_mix: the first kFleetDevices devices of one fixed population (fleet
// seed 1, default mix). The population is far larger than the set, so every
// device RunFleet simulates is drawn exactly as in a full-size fleet run.
constexpr uint64_t kFleetSeed = 1;
constexpr uint64_t kFleetPopulation = uint64_t{1} << 20;
constexpr uint64_t kFleetDevices = 128;
// Devices whose construction is timed for fleet_mix's setup_s.
constexpr uint64_t kFleetSetupProbes = 16;

class Budget {
 public:
  explicit Budget(double seconds)
      : deadline_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)) {}
  bool Expired() const { return NowNs() >= deadline_ns_; }

 private:
  int64_t deadline_ns_;
};

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Accumulated per-layer numbers of a traced run. Every traced workload fills
// the part it exercises; SetLayerMetrics reports all of it, with zeros for
// the layers a workload bypasses.
struct LayerAccum {
  LayerProfile profile;
  int64_t traced_ns = 0;
  int64_t untraced_ns = 0;
  bool mirror_ok = true;
  uint64_t events = 0;
  uint64_t host_writes = 0;
  uint64_t nand_writes = 0;
  uint64_t gc_relocations = 0;
  uint64_t gc_erases = 0;
  uint64_t ecc_failures = 0;
  uint64_t retry_recoveries = 0;
  uint64_t flash_reads = 0;
  uint64_t flash_programs = 0;
  uint64_t flash_erases = 0;
  uint64_t flash_busy_sim_us = 0;
  uint64_t migration_scanned = 0;
  uint64_t migration_moved = 0;
  uint64_t monitor_scanned = 0;
  uint64_t monitor_refreshed = 0;
  // serve_socket only.
  uint64_t serve_batches = 0;
  uint64_t serve_completed = 0;
  uint64_t serve_rejected = 0;
  double serve_sim_read_p99_us = 0.0;
  double serve_socket_p50_us = 0.0;
  double serve_inproc_p50_us = 0.0;

  void AddDevice(const FtlStats& ftl, const NandStats& nand) {
    host_writes += ftl.host_writes();
    nand_writes += ftl.nand_writes();
    gc_relocations += ftl.gc_relocations();
    gc_erases += ftl.gc_erases();
    ecc_failures += ftl.ecc_failures();
    retry_recoveries += ftl.retry_recoveries();
    flash_reads += nand.reads;
    flash_programs += nand.programs;
    flash_erases += nand.erases;
    flash_busy_sim_us += nand.busy_us;
  }

  void AddMirror(const MirrorRun& run) {
    AddDevice(run.ftl, run.nand);
    events += run.events;
    migration_scanned += run.migration.scanned;
    migration_moved += run.migration.demoted + run.migration.promoted;
    monitor_scanned += run.monitor.pages_scanned;
    monitor_refreshed += run.monitor.pages_refreshed;
  }
};

void SetLayerMetrics(Report& report, const LayerAccum& acc) {
  const double wall_ns = static_cast<double>(acc.traced_ns);
  auto total_s = [&](Layer layer) { return NsToS(acc.profile.of(layer).total_ns); };
  auto share = [&](Layer layer) {
    return Ratio(static_cast<double>(acc.profile.of(layer).self_ns), wall_ns);
  };
  auto calls = [&](Layer layer) { return static_cast<double>(acc.profile.of(layer).calls); };

  report.Set("host.workload.day_s", total_s(Layer::kWorkload), "s");
  report.Set("host.workload.events", static_cast<double>(acc.events), "count");
  report.Set("host.fs.self_s", NsToS(acc.profile.of(Layer::kFs).self_ns), "s");
  report.Set("host.fs.calls", calls(Layer::kFs), "count");
  report.Set("classify.score.calls", calls(Layer::kScore), "count");
  report.Set("classify.score_s", total_s(Layer::kScore), "s");
  report.Set("classify.train_s", total_s(Layer::kTrain), "s");
  report.Set("sos.migration.run_s", total_s(Layer::kMigration), "s");
  report.Set("sos.migration.scanned", static_cast<double>(acc.migration_scanned), "count");
  report.Set("sos.migration.moved_ratio",
             Ratio(static_cast<double>(acc.migration_moved),
                   static_cast<double>(acc.migration_scanned)),
             "ratio");
  report.Set("sos.monitor.run_s", total_s(Layer::kMonitor), "s");
  report.Set("sos.monitor.refresh_ratio",
             Ratio(static_cast<double>(acc.monitor_refreshed),
                   static_cast<double>(acc.monitor_scanned)),
             "ratio");
  report.Set("sos.autodelete.run_s", total_s(Layer::kAutodelete), "s");
  report.Set("sos.sample_s", total_s(Layer::kSample), "s");
  report.Set("sos.device.calls", calls(Layer::kDevice), "count");
  report.Set("sos.device.busy_s", total_s(Layer::kDevice), "s");
  report.Set("sos.device.ns_per_call",
             Ratio(static_cast<double>(acc.profile.of(Layer::kDevice).total_ns),
                   calls(Layer::kDevice)),
             "ns");
  report.Set("ftl.background_collect_s", total_s(Layer::kBackgroundCollect), "s");
  report.Set("ftl.waf",
             Ratio(static_cast<double>(acc.nand_writes), static_cast<double>(acc.host_writes)),
             "ratio");
  report.Set("ftl.gc_relocations_per_host_write",
             Ratio(static_cast<double>(acc.gc_relocations), static_cast<double>(acc.host_writes)),
             "ratio");
  report.Set("ftl.gc_erases", static_cast<double>(acc.gc_erases), "count");
  report.Set("flash.reads", static_cast<double>(acc.flash_reads), "count");
  report.Set("flash.programs", static_cast<double>(acc.flash_programs), "count");
  report.Set("flash.erases", static_cast<double>(acc.flash_erases), "count");
  report.Set("flash.busy_sim_us", static_cast<double>(acc.flash_busy_sim_us), "sim_us");
  report.Set("ecc.failures", static_cast<double>(acc.ecc_failures), "count");
  report.Set("ecc.retry_recoveries", static_cast<double>(acc.retry_recoveries), "count");
  const double construct_s = total_s(Layer::kConstruct);
  const double run_s = total_s(Layer::kRun);
  report.Set("fleet.construct_s", construct_s, "s");
  report.Set("fleet.run_s", run_s, "s");
  report.Set("fleet.construct_share", Ratio(construct_s, construct_s + run_s), "ratio");
  for (size_t i = 0; i < kNumLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    report.Set(std::string(LayerName(layer)) + ".share", share(layer), "ratio");
  }

  report.Set("serve.batches", static_cast<double>(acc.serve_batches), "count");
  report.Set("serve.coalesce_ratio",
             Ratio(static_cast<double>(acc.serve_completed),
                   static_cast<double>(acc.serve_batches)),
             "ratio");
  report.Set("serve.rejected", static_cast<double>(acc.serve_rejected), "count");
  report.Set("serve.sim_read_p99_us", acc.serve_sim_read_p99_us, "sim_us");
  report.Set("serve.socket_rtt_p50_us", acc.serve_socket_p50_us, "us");
  report.Set("serve.inproc_rtt_p50_us", acc.serve_inproc_p50_us, "us");
  const double wire_us = acc.serve_socket_p50_us - acc.serve_inproc_p50_us;
  report.Set("serve.wire_us", wire_us, "us");
  report.Set("serve.wire_share", Ratio(wire_us, acc.serve_socket_p50_us), "ratio");

  report.Set("trace.wall_s", NsToS(acc.traced_ns), "s");
  report.Set("trace.overhead",
             Ratio(static_cast<double>(acc.traced_ns), static_cast<double>(acc.untraced_ns)),
             "ratio");
  report.Set("trace.mirror_ok", acc.mirror_ok ? 1.0 : 0.0, "count");
}

// End-to-end metrics of a lifetime-style workload. Throughput is the median
// of `rates` (one per sim or pass) and each item's latency the median of its
// passes, so a short stall of a shared host moves one sample, not the run's
// figures; the percentiles are taken over items.
void SetUnitMetrics(Report& report, const std::vector<double>& rates,
                    const std::vector<std::vector<double>>& item_us,
                    const std::vector<double>& setup_s) {
  std::vector<double> unit_us;
  for (const std::vector<double>& samples : item_us) {
    unit_us.push_back(Median(samples));
  }
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("work_per_s", Median(rates), "1/s");
  report.Set("unit_p50_us", Percentile(unit_us, 50.0), "us");
  report.Set("unit_p99_us", Percentile(unit_us, 99.0), "us");
}

// Passes over a fixed set of `items`, each pass in a seed-dependent order.
// With `whole_passes` the run stops only at the end of a pass, once the
// budget expired and at least two passes ran: every run then covers each
// item equally often whatever the time cut, so its rates do not depend on
// which items a cut included, and pass 0 is there to check later passes
// against. Otherwise it stops at the first item past the budget.
template <typename Fn>
void RunPasses(uint64_t seed, uint64_t items, double seconds, bool whole_passes, Fn fn) {
  Rng rng(DeriveSeed({seed, kOrderDomain}));
  std::vector<uint64_t> order(items);
  std::iota(order.begin(), order.end(), 0);
  const Budget budget(seconds);
  for (uint64_t pass = 0;; ++pass) {
    for (uint64_t k = items; k > 1; --k) {
      std::swap(order[k - 1], order[rng.NextBounded(k)]);
    }
    for (uint64_t index : order) {
      if (!whole_passes && (pass > 0 || index != order.front()) && budget.Expired()) {
        return;
      }
      fn(pass, index);
    }
    if (whole_passes && pass >= 1 && budget.Expired()) {
      return;
    }
  }
}

// Traced lifetime-style run: for each config, the untraced LifetimeSim and
// the traced mirror, compared outcome for outcome.
template <typename ConfigFn>
void TraceLifetimes(Report& report, const RunOptions& options, uint64_t items,
                    ConfigFn config_for) {
  LayerAccum acc;
  std::vector<uint64_t> digests(items);
  auto trace_one = [&](uint64_t, uint64_t i) {
    const LifetimeSimConfig config = config_for(i);
    const int64_t t0 = NowNs();
    LifetimeSim sim(config);
    const LifetimeResult result = sim.Run();
    const int64_t t1 = NowNs();
    const MirrorRun mirror = RunMirror(config, &acc.profile);
    const int64_t t2 = NowNs();
    acc.untraced_ns += t1 - t0;
    acc.traced_ns += t2 - t1;
    const SimOutcome outcome = OutcomeOf(result);
    if (!(outcome == mirror.outcome)) {
      acc.mirror_ok = false;
      report.notes.push_back("trace: mirror outcome differs from LifetimeSim on item " +
                             std::to_string(i) + "; per-layer numbers are invalid");
    }
    digests[i] = outcome.Digest();
    acc.AddMirror(mirror);
    ++report.attempted;
  };
  RunPasses(options.seed, items, options.seconds, /*whole_passes=*/false, trace_one);
  Digest digest;
  for (uint64_t d : digests) {
    digest.Add(d);
  }
  report.sim_digest = digest.value();
  SetLayerMetrics(report, acc);
}

// ---------------------------------------------------------------------------
// lifetime_mobile
// ---------------------------------------------------------------------------

// The fixed seed list: bench_lifetime_gap's seed 7 expanded into
// kLifetimeSeeds simulation seeds.
uint64_t LifetimeListSize(bool short_run) { return short_run ? 2 : kLifetimeSeeds; }

LifetimeSimConfig LifetimeListConfig(uint64_t index, bool short_run) {
  return LifetimeGapConfig(DeriveSeed({kLifetimeListSeed, kLifetimeDomain, index}), short_run);
}

// Outcome checks every lifetime simulation must pass.
bool LifetimeChecksPass(const LifetimeResult& result, std::string* why) {
  if (result.ftl().host_writes() == 0) {
    *why = "no host writes reached the FTL";
  } else if (result.create_failures() != 0) {
    *why = std::to_string(result.create_failures()) + " file creates failed";
  } else if (result.final_exported_pages() == 0) {
    *why = "device exported no capacity at end of life";
  } else {
    return true;
  }
  return false;
}

Report RunLifetimeMobile(const RunOptions& options) {
  Report report;
  const uint64_t items = LifetimeListSize(options.short_run);
  if (options.trace) {
    TraceLifetimes(report, options, items,
                   [&](uint64_t i) { return LifetimeListConfig(i, options.short_run); });
    return report;
  }

  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<std::vector<double>> item_us(items);
  std::vector<SimOutcome> outcomes(items);
  auto run_one = [&](uint64_t pass, uint64_t i) {
    const LifetimeSimConfig config = LifetimeListConfig(i, options.short_run);
    const int64_t t0 = NowNs();
    LifetimeSim sim(config);
    const int64_t t1 = NowNs();
    const LifetimeResult result = sim.Run();
    const int64_t t2 = NowNs();
    setup_s.push_back(NsToS(t1 - t0));
    rates.push_back(config.days / NsToS(t2 - t1));
    item_us[i].push_back(static_cast<double>(t2 - t1) * 1e-3 / config.days);
    ++report.attempted;
    std::string why;
    if (!LifetimeChecksPass(result, &why)) {
      ++report.failed;
      report.Fail("lifetime seed " + std::to_string(i) + ": " + why);
    }
    // Determinism: every later pass must reproduce pass 0's outcome.
    const SimOutcome outcome = OutcomeOf(result);
    if (pass == 0) {
      outcomes[i] = outcome;
    } else if (!(outcome == outcomes[i])) {
      ++report.failed;
      report.Fail("lifetime seed " + std::to_string(i) + ": pass " + std::to_string(pass) +
                  " gave a different simulated outcome than pass 0");
    }
  };
  RunPasses(options.seed, items, options.seconds, /*whole_passes=*/true, run_one);
  Digest digest;
  for (const SimOutcome& outcome : outcomes) {
    digest.Add(outcome.Digest());
  }
  report.sim_digest = digest.value();

  SetUnitMetrics(report, rates, item_us, setup_s);
  report.Set("sim_days_per_s", Median(rates), "sim-days/s");
  report.notes.push_back("lifetime: " + std::to_string(report.attempted) + " sims (" +
                         std::to_string(items) + " fixed seeds x " +
                         std::to_string(report.attempted / items) + " passes) of " +
                         std::to_string(LifetimeListConfig(0, options.short_run).days) +
                         " days; unit = one simulated day");
  return report;
}

// ---------------------------------------------------------------------------
// fleet_mix
// ---------------------------------------------------------------------------

uint64_t FleetSetSize(bool short_run) { return short_run ? 8 : kFleetDevices; }

fleet::FleetConfig FleetDeviceConfig(uint64_t index) {
  fleet::FleetConfig config;
  config.devices = kFleetPopulation;
  config.seed = kFleetSeed;
  config.shard_index = index;
  config.shard_count = kFleetPopulation;  // shard `index` holds exactly device `index`
  config.jobs = 1;
  return config;
}

// The sim config RunFleet builds for device `index` (default archetype mix).
LifetimeSimConfig FleetSimConfig(uint64_t index) {
  return fleet::DrawDevice(fleet::MixSpec{}, kFleetSeed, index).config;
}

Report RunFleetMix(const RunOptions& options) {
  Report report;
  const uint64_t items = FleetSetSize(options.short_run);
  if (options.trace) {
    TraceLifetimes(report, options, items, [](uint64_t i) { return FleetSimConfig(i); });
    return report;
  }

  // Setup: building one device's simulator (corpus, training, die) is the
  // per-device cost RunFleet pays before simulating; time it on the first
  // devices of the set.
  std::vector<double> setup_s;
  for (uint64_t i = 0; i < std::min(kFleetSetupProbes, items); ++i) {
    const LifetimeSimConfig config = FleetSimConfig(i);
    const int64_t t0 = NowNs();
    const LifetimeSim sim(config);
    setup_s.push_back(NsToS(NowNs() - t0));
  }

  std::vector<int64_t> pass_ns;  // RunFleet time per pass
  std::vector<std::vector<double>> item_us(items);
  std::vector<std::string> partials(items);
  fleet::FleetLedger ledger;
  auto run_one = [&](uint64_t pass, uint64_t i) {
    const int64_t t0 = NowNs();
    const Result<fleet::FleetPartial> partial = fleet::RunFleet(FleetDeviceConfig(i));
    const int64_t t1 = NowNs();
    pass_ns.resize(std::max<size_t>(pass_ns.size(), pass + 1));
    pass_ns[pass] += t1 - t0;
    item_us[i].push_back(static_cast<double>(t1 - t0) * 1e-3);
    ++report.attempted;
    if (!partial.ok() || partial.value().ledger.devices() != 1) {
      ++report.failed;
      report.Fail("fleet device " + std::to_string(i) + ": " +
                  (partial.ok() ? "ledger did not fold exactly one device"
                                : partial.status().ToString()));
      return;
    }
    // Determinism: every later pass must reproduce pass 0's partial ledger.
    const std::string json = fleet::PartialToJson(partial.value());
    if (pass == 0) {
      partials[i] = json;
      if (Status s = ledger.Merge(partial.value().ledger); !s.ok()) {
        report.Fail("fleet: ledger merge failed: " + s.ToString());
      }
    } else if (json != partials[i]) {
      ++report.failed;
      report.Fail("fleet device " + std::to_string(i) + ": pass " + std::to_string(pass) +
                  " gave a different partial ledger than pass 0");
    }
  };
  RunPasses(options.seed, items, options.seconds, /*whole_passes=*/true, run_one);

  obs::MetricRegistry registry;
  ledger.ToMetrics(registry);
  Digest digest;
  for (char c : registry.ToJson()) {
    digest.Add(static_cast<uint8_t>(c));
  }
  report.sim_digest = digest.value();

  std::vector<double> rates;
  for (int64_t ns : pass_ns) {
    rates.push_back(static_cast<double>(items) / NsToS(ns));
  }
  SetUnitMetrics(report, rates, item_us, setup_s);
  report.Set("devices_per_s", Median(rates), "devices/s");
  report.notes.push_back("fleet: " + std::to_string(report.attempted) + " device sims (" +
                         std::to_string(items) + " fixed devices x " +
                         std::to_string(report.attempted / items) +
                         " passes), jobs=1; unit = one simulated device");
  return report;
}

// ---------------------------------------------------------------------------
// serve_socket
// ---------------------------------------------------------------------------

using serve::AsyncBlockService;
using serve::BlockServiceClient;

constexpr size_t kServeClients = 2;
constexpr size_t kServeWorkers = 2;
constexpr uint32_t kServePageBytes = 4096;
constexpr double kServeFill = 0.7;           // share of each pool's pages the clients use
constexpr uint64_t kSpareRun = 8;            // sequential SPARE writes per bulk action
constexpr uint64_t kFlushEveryActions = 128;  // per client
constexpr size_t kServeSetupProbes = 2;
// A serving run is cut into this many equal windows (1 s each in a 25 s run).
constexpr int64_t kServeWindows = 25;

struct ServeShape {
  size_t clients = kServeClients;
  size_t workers = kServeWorkers;
  SosDeviceConfig device;
};

ServeShape MakeServeShape(uint64_t seed, bool short_run) {
  ServeShape shape;
  shape.device.nand.num_blocks = short_run ? 32 : 64;
  shape.device.nand.wordlines_per_block = 16;
  shape.device.nand.page_size_bytes = kServePageBytes;
  shape.device.nand.store_payloads = true;
  shape.device.nand.seed = DeriveSeed({seed, kServeDomain});
  return shape;
}

// Confines the calling thread, and every thread it starts afterwards, to the
// first CPU the process may use; returns that CPU, or -1 if it could not.
// On a VM, a hand-off to a thread on another vCPU waits for the hypervisor
// to wake that vCPU, and the wait follows the host's load, not the program:
// unpinned, ten runs of one build served 9k-28k requests/s on a 4-vCPU
// VM; pinned, about 30k every time.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? static_cast<int>(cpu) : -1;
    }
  }
  return -1;
}

// Page content is a function of (lba, version): a stale or misdirected page
// never matches.
void FillPage(uint64_t lba, uint64_t version, std::vector<uint8_t>* page) {
  page->resize(kServePageBytes);
  uint64_t x = (lba + 1) * 0x9e3779b97f4a7c15ull ^ (version + 1) * 0xc2b2ae3d27d4eb4full;
  for (size_t i = 0; i < page->size(); i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(page->data() + i, &x, 8);
  }
}

struct ClientLayout {
  uint64_t sys_base = 0;
  uint64_t sys_lbas = 0;
  uint64_t spare_base = 0;
  uint64_t spare_lbas = 0;
};

// Requests one client completed in one time window of a run.
struct WindowStats {
  uint64_t ops = 0;
  LatencyHistogram data_us;  // reads and writes
};

struct ClientResult {
  uint64_t actions = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;      // non-ok replies
  uint64_t mismatches = 0;  // read-your-writes violations
  uint64_t lost = 0;        // acked SYS writes missing at the final audit
  LatencyHistogram read_us;
  LatencyHistogram write_us;
  std::vector<WindowStats> windows;  // by completion time
  Digest digest;                     // final SYS versions
};

// One closed-loop client: the next request goes out only after the previous
// reply. Its op stream is a function of (seed, client index) alone, so a
// replay with the same action count issues the same requests.
class LoopClient {
 public:
  LoopClient(BlockServiceClient* client, const ClientLayout& layout, uint64_t seed,
               size_t index, PlacementHandle sys, PlacementHandle spare)
      : client_(client),
        layout_(layout),
        rng_(DeriveSeed({seed, kServeDomain, index})),
        sys_(sys),
        spare_(spare),
        sys_version_(layout.sys_lbas, 0) {}

  void Prefill() {
    for (uint64_t i = 0; i < layout_.sys_lbas; ++i) {
      WriteSys(i, /*timed=*/false);
    }
    for (uint64_t i = 0; i < layout_.spare_lbas; ++i) {
      WriteSpare(layout_.spare_base + i, /*timed=*/false);
    }
  }

  // Runs actions until the deadline passes (deadline_ns > 0) or
  // `max_actions` have run, binning completions into `window_ns` windows
  // from `start_ns`.
  void Run(int64_t start_ns, int64_t window_ns, int64_t deadline_ns, uint64_t max_actions) {
    start_ns_ = start_ns;
    window_ns_ = window_ns;
    while (result_.actions < max_actions && (deadline_ns == 0 || NowNs() < deadline_ns)) {
      ++result_.actions;
      // Per action: 12/17 a SYS read, 4/17 a SYS overwrite, 1/17 a run of
      // kSpareRun SPARE writes -- so reads are half of all requests, SYS
      // overwrites a sixth and SPARE writes a third.
      const uint64_t pick = rng_.NextBounded(17);
      if (pick < 12) {
        ReadSys(rng_.NextBounded(layout_.sys_lbas), /*timed=*/true);
      } else if (pick < 16) {
        WriteSys(rng_.NextBounded(layout_.sys_lbas), /*timed=*/true);
      } else {
        const uint64_t start = rng_.NextBounded(layout_.spare_lbas - kSpareRun + 1);
        for (uint64_t k = 0; k < kSpareRun; ++k) {
          WriteSpare(layout_.spare_base + start + k, /*timed=*/true);
        }
      }
      if (result_.actions % kFlushEveryActions == 0) {
        const int64_t t0 = NowNs();
        const Status status = client_->Flush();
        Record(/*timed=*/true, t0, nullptr);
        if (!status.ok()) {
          ++result_.errors;
        }
      }
    }
  }

  // Zero acked-SYS loss: every SYS LBA reads back its last acked version.
  void Audit() {
    for (uint64_t i = 0; i < layout_.sys_lbas; ++i) {
      const uint64_t errors = result_.errors + result_.mismatches;
      ReadSys(i, /*timed=*/false);
      if (result_.errors + result_.mismatches != errors) {
        ++result_.lost;
      }
      result_.digest.Add(sys_version_[i]);
    }
  }

  const ClientResult& result() const { return result_; }

 private:
  void WriteSys(uint64_t offset, bool timed) {
    const uint64_t lba = layout_.sys_base + offset;
    const uint64_t version = sys_version_[offset] + 1;
    FillPage(lba, version, &page_);
    const int64_t t0 = NowNs();
    const Status status = client_->Write(lba, page_, sys_);
    Record(timed, t0, &result_.write_us);
    if (status.ok()) {
      sys_version_[offset] = version;
    } else {
      ++result_.errors;
    }
  }

  void WriteSpare(uint64_t lba, bool timed) {
    FillPage(lba, ++spare_writes_, &page_);
    const int64_t t0 = NowNs();
    const Status status = client_->Write(lba, page_, spare_);
    Record(timed, t0, &result_.write_us);
    if (!status.ok()) {
      ++result_.errors;
    }
  }

  void ReadSys(uint64_t offset, bool timed) {
    const uint64_t lba = layout_.sys_base + offset;
    const int64_t t0 = NowNs();
    const Result<BlockReadResult> read = client_->Read(lba, sys_);
    Record(timed, t0, &result_.read_us);
    if (!read.ok()) {
      ++result_.errors;
      return;
    }
    FillPage(lba, sys_version_[offset], &page_);
    if (read.value().degraded || read.value().data != page_) {
      ++result_.mismatches;
    }
  }

  // Counts a timed request in its completion window; reads and writes also
  // record their latency (`latency` null for flushes).
  void Record(bool timed, int64_t t0, LatencyHistogram* latency) {
    if (!timed) {
      return;
    }
    const int64_t t1 = NowNs();
    const auto window = static_cast<size_t>(std::max<int64_t>(0, t1 - start_ns_) / window_ns_);
    if (window >= result_.windows.size()) {
      result_.windows.resize(window + 1);
    }
    ++result_.ops;
    ++result_.windows[window].ops;
    if (latency != nullptr) {
      const double us = static_cast<double>(t1 - t0) * 1e-3;
      latency->Add(us);
      result_.windows[window].data_us.Add(us);
    }
  }

  BlockServiceClient* client_;
  ClientLayout layout_;
  Rng rng_;
  PlacementHandle sys_;
  PlacementHandle spare_;
  std::vector<uint64_t> sys_version_;
  uint64_t spare_writes_ = 0;
  std::vector<uint8_t> page_;
  int64_t start_ns_ = 0;
  int64_t window_ns_ = 1;
  ClientResult result_;
};

// Device + async service + (for sockets) one in-process SosdServer
// connection thread per client over a socketpair.
class ServeStack {
 public:
  ServeStack(const ServeShape& shape, bool socket)
      : device_(shape.device, &clock_),
        service_(&device_, &clock_, MakeServeConfig(shape)),
        server_(&service_) {
    const uint64_t clients = shape.clients;
    const uint64_t sys_per = static_cast<uint64_t>(
        kServeFill * static_cast<double>(device_.SysSnapshot().exported_pages)) / clients;
    const uint64_t spare_per = static_cast<uint64_t>(
        kServeFill * static_cast<double>(device_.SpareSnapshot().exported_pages)) / clients;
    for (uint64_t c = 0; c < clients; ++c) {
      layouts_.push_back(ClientLayout{c * sys_per, sys_per, clients * sys_per + c * spare_per,
                                      spare_per});
      if (socket) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
          break;  // caught by ok()
        }
        connections_.emplace_back([this, fd = fds[0]] {
          server_.ServeConnection(fd);
          ::close(fd);
        });
        clients_.push_back(std::make_unique<serve::SocketClient>(fds[1]));
      } else {
        clients_.push_back(std::make_unique<serve::InProcessClient>(&service_));
      }
    }
    auto sys = service_.OpenPlacement({Durability::kCritical, LifetimeHint::kLong});
    auto spare = service_.OpenPlacement({Durability::kDegradable, LifetimeHint::kShort});
    handles_ok_ = sys.ok() && spare.ok() && spare_per >= kSpareRun && sys_per > 0;
    if (handles_ok_) {
      sys_ = sys.value();
      spare_ = spare.value();
    }
  }

  ~ServeStack() {
    clients_.clear();  // closes the client ends; each connection loop sees EOF
    for (std::thread& t : connections_) {
      t.join();
    }
    service_.Shutdown();
  }

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  bool ok() const { return handles_ok_ && clients_.size() == layouts_.size(); }
  size_t clients() const { return clients_.size(); }
  LoopClient Client(size_t c, uint64_t seed) {
    return LoopClient(clients_[c].get(), layouts_[c], seed, c, sys_, spare_);
  }
  AsyncBlockService& service() { return service_; }
  const SosDevice& device() const { return device_; }

 private:
  static serve::ServeConfig MakeServeConfig(const ServeShape& shape) {
    serve::ServeConfig config;
    config.workers = shape.workers;
    config.qos = true;
    return config;
  }

  SimClock clock_;
  SosDevice device_;
  AsyncBlockService service_;
  serve::SosdServer server_;
  std::vector<ClientLayout> layouts_;
  std::vector<std::thread> connections_;
  std::vector<std::unique_ptr<BlockServiceClient>> clients_;
  PlacementHandle sys_;
  PlacementHandle spare_;
  bool handles_ok_ = false;
};

// Runs `fn(c)` on one thread per client and waits for all of them.
template <typename Fn>
void OnClientThreads(size_t clients, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&fn, c] { fn(c); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

struct SegmentResult {
  bool ok = false;
  double setup_s = 0.0;
  double window_s = 0.0;  // the closed loop's wall time
  std::vector<ClientResult> clients;
  // Across clients: latency by op kind, and completions per time window.
  LatencyHistogram read_us;
  LatencyHistogram write_us;
  std::vector<WindowStats> windows;
  serve::ServeStats stats;
  double sim_read_p99_us = 0.0;
  FtlStats ftl;
  NandStats nand;
};

// One serving segment on a fresh stack: set up (device, service,
// connections, prefill), run the closed loop, then audit. `max_actions`
// empty = run until the deadline; otherwise replay that many actions per
// client.
SegmentResult RunSegment(const ServeShape& shape, uint64_t seed, bool socket, double seconds,
                         const std::vector<uint64_t>& max_actions) {
  SegmentResult out;
  const int64_t t0 = NowNs();
  ServeStack stack(shape, socket);
  if (!stack.ok()) {
    return out;
  }
  std::vector<LoopClient> loops;
  for (size_t c = 0; c < stack.clients(); ++c) {
    loops.push_back(stack.Client(c, seed));
  }
  OnClientThreads(loops.size(), [&](size_t c) { loops[c].Prefill(); });
  const int64_t t1 = NowNs();
  out.setup_s = NsToS(t1 - t0);

  const auto window_ns = std::max<int64_t>(1, static_cast<int64_t>(seconds * 1e9) / kServeWindows);
  const int64_t deadline = max_actions.empty() ? t1 + window_ns * kServeWindows : 0;
  OnClientThreads(loops.size(), [&](size_t c) {
    loops[c].Run(t1, window_ns, deadline, max_actions.empty() ? UINT64_MAX : max_actions[c]);
  });
  out.window_s = NsToS(NowNs() - t1);

  OnClientThreads(loops.size(), [&](size_t c) { loops[c].Audit(); });
  stack.service().Drain();
  out.stats = stack.service().Stats();
  out.sim_read_p99_us = stack.service().Latency(serve::QosClass::kSysRead).p99;
  out.ftl = stack.device().ftl().stats();
  out.nand = stack.device().ftl().nand().stats();
  for (const LoopClient& d : loops) {
    const ClientResult& c = d.result();
    out.read_us.Merge(c.read_us);
    out.write_us.Merge(c.write_us);
    if (out.windows.size() < c.windows.size()) {
      out.windows.resize(c.windows.size());
    }
    for (size_t w = 0; w < c.windows.size(); ++w) {
      out.windows[w].ops += c.windows[w].ops;
      out.windows[w].data_us.Merge(c.windows[w].data_us);
    }
    out.clients.push_back(c);
  }
  out.ok = true;
  return out;
}

// Folds a segment's client outcomes into the report's attempted/failed and
// checks, and its final SYS state into `digest`.
void CheckSegment(Report& report, const SegmentResult& seg, const char* label, Digest* digest) {
  if (!seg.ok) {
    ++report.failed;
    report.Fail(std::string(label) + ": could not build the serving stack");
    return;
  }
  for (const ClientResult& c : seg.clients) {
    report.attempted += c.ops;
    report.failed += c.errors + c.mismatches;
    if (c.errors > 0) {
      report.Fail(std::string(label) + ": " + std::to_string(c.errors) + " non-ok replies");
    }
    if (c.mismatches > 0) {
      report.Fail(std::string(label) + ": " + std::to_string(c.mismatches) +
                  " read-your-writes mismatches");
    }
    if (c.lost > 0) {
      report.Fail(std::string(label) + ": " + std::to_string(c.lost) + " acked SYS writes lost");
    }
    digest->Add(c.digest.value());
  }
}

// Latency over reads and writes together.
LatencyHistogram DataLatency(const SegmentResult& seg) {
  LatencyHistogram data = seg.read_us;
  data.Merge(seg.write_us);
  return data;
}

Report RunServeSocket(const RunOptions& options) {
  Report report;
  const ServeShape shape = MakeServeShape(options.seed, options.short_run);
  const uint64_t seed = DeriveSeed({options.seed, kServeDomain});
  const int cpu = PinToOneCpu();
  report.notes.push_back(cpu >= 0 ? "serve: all threads on cpu " + std::to_string(cpu)
                                  : "serve: could not pin to one cpu; figures will be noisier");
  Digest digest;

  if (options.trace) {
    // Socket segment, then the identical request stream in-process.
    const SegmentResult socket = RunSegment(shape, seed, true, options.seconds / 2, {});
    CheckSegment(report, socket, "serve socket", &digest);
    std::vector<uint64_t> actions;
    for (const ClientResult& c : socket.clients) {
      actions.push_back(c.actions);
    }
    Digest inproc_digest;
    const SegmentResult inproc = RunSegment(shape, seed, false, options.seconds / 2, actions);
    CheckSegment(report, inproc, "serve in-process replay", &inproc_digest);
    if (inproc_digest.value() != digest.value()) {
      report.Fail("serve: in-process replay ended in a different SYS state than the socket run");
    }

    LayerAccum acc;
    acc.AddDevice(socket.ftl, socket.nand);
    acc.serve_batches = socket.stats.batches;
    acc.serve_completed = socket.stats.completed;
    acc.serve_rejected = socket.stats.rejected;
    acc.serve_sim_read_p99_us = socket.sim_read_p99_us;
    acc.serve_socket_p50_us = DataLatency(socket).Percentile(50.0);
    acc.serve_inproc_p50_us = DataLatency(inproc).Percentile(50.0);
    // No spans run inside the serving path, so traced == untraced.
    acc.traced_ns = static_cast<int64_t>((socket.window_s + inproc.window_s) * 1e9);
    acc.untraced_ns = acc.traced_ns;
    acc.mirror_ok = report.correct();
    SetLayerMetrics(report, acc);
    report.sim_digest = digest.value();
    return report;
  }

  // Set-up is timed on every stack built: kServeSetupProbes stacks are set
  // up, audited and torn down without serving, then the last one serves for
  // the whole run, writing many device capacities.
  std::vector<double> setup_s;
  SegmentResult served;
  for (size_t s = 0; s <= kServeSetupProbes; ++s) {
    const bool serving = s == kServeSetupProbes;
    SegmentResult seg =
        RunSegment(shape, DeriveSeed({seed, s}), true, serving ? options.seconds : 0.0, {});
    CheckSegment(report, seg, "serve", &digest);
    setup_s.push_back(seg.setup_s);
    if (serving) {
      served = std::move(seg);
    }
  }
  report.sim_digest = digest.value();

  // Throughput and latency are medians over the run's windows, so a short
  // stall of a shared host moves one window, not the run's figures.
  const double window_s = options.seconds / kServeWindows;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t w = 0; w < std::min<size_t>(served.windows.size(), kServeWindows); ++w) {
    rates.push_back(static_cast<double>(served.windows[w].ops) / window_s);
    p50s.push_back(served.windows[w].data_us.Percentile(50.0));
    p99s.push_back(served.windows[w].data_us.Percentile(99.0));
  }
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("work_per_s", Median(rates), "1/s");
  report.Set("unit_p50_us", Median(p50s), "us");
  report.Set("unit_p99_us", Median(p99s), "us");
  report.Set("ops_per_s", Ratio(static_cast<double>(report.attempted), served.window_s), "req/s");
  report.Set("read_p50_us", served.read_us.Percentile(50.0), "us");
  report.Set("read_p99_us", served.read_us.Percentile(99.0), "us");
  report.Set("read_samples", static_cast<double>(served.read_us.count()), "count");
  report.Set("write_p50_us", served.write_us.Percentile(50.0), "us");
  report.Set("write_p99_us", served.write_us.Percentile(99.0), "us");
  report.Set("write_samples", static_cast<double>(served.write_us.count()), "count");
  report.Set("ftl.waf",
             Ratio(static_cast<double>(served.ftl.nand_writes()),
                   static_cast<double>(served.ftl.host_writes())),
             "ratio");
  report.Set("ftl.gc_erases", static_cast<double>(served.ftl.gc_erases()), "count");
  report.notes.push_back("serve: closed loop, " + std::to_string(shape.clients) +
                         " socket clients, " + std::to_string(shape.workers) +
                         " workers, one serving stack after " +
                         std::to_string(kServeSetupProbes) + " set-up probes; " +
                         std::to_string(kServeWindows) +
                         " windows; unit = one read or write");
  return report;
}

}  // namespace

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"lifetime_mobile", "fleet_mix",
                                                  "serve_socket"};
  return kNames;
}

LifetimeSimConfig LifetimeGapConfig(uint64_t sim_seed, bool short_run) {
  LifetimeSimConfig config;
  config.kind = DeviceKind::kSos;
  config.days = short_run ? 60 : 365 * 3;
  config.seed = sim_seed;
  config.nand.num_blocks = 256;
  config.training_files = short_run ? 300 : 3000;
  config.workload.photos_per_day = 1.0;
  config.workload.cache_files_per_day = 6.0;
  config.workload.deletes_per_day = 5.0;
  config.workload.app_updates_per_day = 50.0;
  config.workload.reads_per_day = 60.0;
  config.workload.intensity = 1.0;
  config.file_size_cap = 32 * kKiB;
  config.sample_period_days = 365;
  return config;
}

Report RunWorkload(const RunOptions& options) {
  Report report;
  if (options.workload == "lifetime_mobile") {
    report = RunLifetimeMobile(options);
  } else if (options.workload == "fleet_mix") {
    report = RunFleetMix(options);
  } else if (options.workload == "serve_socket") {
    report = RunServeSocket(options);
  } else {
    report.Fail("unknown workload '" + options.workload + "'");
    return report;
  }
  if (!options.trace) {
    report.Set("error_rate",
               Ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted)),
               "ratio");
  }
  return report;
}

}  // namespace sos::perfbench
