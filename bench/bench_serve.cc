// Copyright (c) 2026 The SOS Authors. MIT License.
//
// E21 -- Per-pool QoS in the sosd request core. The serve layer's claim is
// that weighted per-class scheduling keeps SYS requests from queueing behind
// SPARE bulk/maintenance traffic even though every op ultimately serializes
// through one simulated device. This bench replays the same seeded
// mixed-class workload through AsyncBlockService twice -- QoS on and QoS
// off (global FIFO) -- in deterministic pump mode, and reports per-class
// sim-time latency percentiles plus batching/coalescing counters.
//
// Latency here is sim time end to end (Submit stamp -> completion stamp), so
// the percentile rows are byte-stable goldens; wall-clock throughput goes to
// stderr only, per the determinism contract.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/serve/service.h"
#include "src/sos/sos_device.h"

namespace sos {
namespace {

using serve::AsyncBlockService;
using serve::QosClass;
using serve::ServeConfig;
using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeStats;
using serve::kNumQosClasses;

constexpr uint64_t kSysLbas = 32;    // SYS pool working set
constexpr uint64_t kBulkBase = 64;   // bulk pool starts past the SYS range
constexpr uint64_t kBulkLbas = 64;
constexpr size_t kSeqRun = 8;        // sequential bulk stretch per round (coalescing fodder)

SosDeviceConfig ServeBenchConfig(uint64_t seed) {
  SosDeviceConfig config;
  config.nand.num_blocks = 96;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.nand.seed = seed;
  config.nand.store_payloads = true;
  config.spare_ecc = EccPreset::kWeakBch;
  return config;
}

std::vector<uint8_t> FillPage(uint64_t lba, uint32_t version) {
  std::vector<uint8_t> page(512);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(lba * 37 + version * 101 + i * 13 + 1);
  }
  return page;
}

struct ArmResult {
  std::string name;
  ServeStats stats;
  serve::LatencySummary latency[kNumQosClasses];
  uint64_t ops = 0;
  double wall_seconds = 0.0;
};

// One arm: the full seeded workload through a fresh device + service. Every
// round submits a mixed-class burst (bulk writes incl. one sequential run,
// SYS reads, SYS writes, one maintenance flush), then pumps it dry. Within a
// burst all ops share a submit stamp, so per-class latency is exactly "how
// long did this class wait for the device" under the arm's scheduler.
ArmResult RunArm(bool qos, size_t rounds, uint64_t seed) {
  ArmResult arm;
  arm.name = qos ? "qos-on" : "qos-off";

  SimClock clock;
  SosDevice device(ServeBenchConfig(seed), &clock);
  ServeConfig config;
  config.workers = 0;  // pump mode: deterministic dispatch, exact goldens
  config.qos = qos;
  AsyncBlockService service(&device, &clock, config);

  auto sys_handle = service.OpenPlacement({Durability::kCritical, LifetimeHint::kLong});
  auto bulk_handle = service.OpenPlacement({Durability::kDegradable, LifetimeHint::kShort});
  if (!sys_handle.ok() || !bulk_handle.ok()) {
    std::fprintf(stderr, "[bench] OpenPlacement failed\n");
    std::exit(1);
  }

  WallTimer timer;
  Rng rng(DeriveSeed({seed, 0x71735276ull /* "qsrv" */}));
  std::vector<std::future<ServeResponse>> futures;

  // Prefill both pools so every read hits a mapped LBA.
  for (uint64_t lba = 0; lba < kSysLbas; ++lba) {
    ServeRequest req;
    req.op = ServeOp::kWrite;
    req.lba = lba;
    req.data = FillPage(lba, 1);
    req.handle = sys_handle.value();
    futures.push_back(service.Submit(std::move(req)));
    ++arm.ops;
  }
  for (uint64_t lba = kBulkBase; lba < kBulkBase + kBulkLbas; ++lba) {
    ServeRequest req;
    req.op = ServeOp::kWrite;
    req.lba = lba;
    req.data = FillPage(lba, 1);
    req.handle = bulk_handle.value();
    futures.push_back(service.Submit(std::move(req)));
    ++arm.ops;
  }
  service.RunPending();

  for (size_t round = 0; round < rounds; ++round) {
    const uint32_t version = static_cast<uint32_t>(round) + 2;
    // Bulk pressure first in FIFO order: 24 random-LBA writes plus one
    // sequential 8-LBA stretch (which the service coalesces into one dispatch).
    for (int w = 0; w < 24; ++w) {
      ServeRequest req;
      req.op = ServeOp::kWrite;
      req.lba = kBulkBase + rng.NextBounded(kBulkLbas);
      req.data = FillPage(req.lba, version);
      req.handle = bulk_handle.value();
      futures.push_back(service.Submit(std::move(req)));
      ++arm.ops;
    }
    const uint64_t seq_base = kBulkBase + (round * kSeqRun) % (kBulkLbas - kSeqRun);
    for (size_t s = 0; s < kSeqRun; ++s) {
      ServeRequest req;
      req.op = ServeOp::kWrite;
      req.lba = seq_base + s;
      req.data = FillPage(req.lba, version);
      req.handle = bulk_handle.value();
      futures.push_back(service.Submit(std::move(req)));
      ++arm.ops;
    }
    // SYS traffic submitted *behind* the bulk burst: under FIFO it eats the
    // whole bulk queue's device time; under QoS it is dispatched first.
    for (int r = 0; r < 8; ++r) {
      ServeRequest req;
      req.op = ServeOp::kRead;
      req.lba = rng.NextBounded(kSysLbas);
      req.handle = sys_handle.value();
      futures.push_back(service.Submit(std::move(req)));
      ++arm.ops;
    }
    for (int w = 0; w < 4; ++w) {
      ServeRequest req;
      req.op = ServeOp::kWrite;
      req.lba = rng.NextBounded(kSysLbas);
      req.data = FillPage(req.lba, version);
      req.handle = sys_handle.value();
      futures.push_back(service.Submit(std::move(req)));
      ++arm.ops;
    }
    {
      ServeRequest req;
      req.op = ServeOp::kFlush;
      futures.push_back(service.Submit(std::move(req)));
      ++arm.ops;
    }
    service.RunPending();
  }
  service.Drain();

  for (std::future<ServeResponse>& f : futures) {
    f.get();  // all resolved after Drain; surface any broken promise loudly
  }
  arm.wall_seconds = timer.Seconds();
  arm.stats = service.Stats();
  for (uint32_t c = 0; c < kNumQosClasses; ++c) {
    arm.latency[c] = service.Latency(static_cast<QosClass>(c));
  }
  service.Shutdown();
  return arm;
}

std::string MetricsJson(const std::vector<ArmResult>& arms) {
  std::string out = "{\n  \"bench\": \"bench_serve\",\n  \"arms\": [\n";
  for (size_t a = 0; a < arms.size(); ++a) {
    const ArmResult& arm = arms[a];
    char buf[256];
    out += "    {\n      \"arm\": \"" + arm.name + "\",\n";
    std::snprintf(buf, sizeof(buf),
                  "      \"submitted\": %" PRIu64 ",\n      \"completed\": %" PRIu64
                  ",\n      \"batches\": %" PRIu64 ",\n      \"coalesced\": %" PRIu64
                  ",\n      \"classes\": [\n",
                  arm.stats.submitted, arm.stats.completed, arm.stats.batches,
                  arm.stats.coalesced);
    out += buf;
    for (uint32_t c = 0; c < kNumQosClasses; ++c) {
      const serve::LatencySummary& l = arm.latency[c];
      std::snprintf(buf, sizeof(buf),
                    "        {\"class\": \"%s\", \"count\": %" PRIu64
                    ", \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}%s\n",
                    serve::QosClassName(static_cast<QosClass>(c)), l.count, l.p50, l.p99,
                    l.p999, c + 1 < kNumQosClasses ? "," : "");
      out += buf;
    }
    out += "      ]\n    }";
    out += a + 1 < arms.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

// Per-class latency histogram rows (one JSONL line per arm x class) -- the
// CI artifact; same bytes for any --jobs.
std::string TraceJsonl(const std::vector<ArmResult>& arms) {
  std::string out;
  char buf[256];
  for (const ArmResult& arm : arms) {
    for (uint32_t c = 0; c < kNumQosClasses; ++c) {
      const serve::LatencySummary& l = arm.latency[c];
      std::snprintf(buf, sizeof(buf),
                    "{\"arm\": \"%s\", \"class\": \"%s\", \"count\": %" PRIu64
                    ", \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}\n",
                    arm.name.c_str(), serve::QosClassName(static_cast<QosClass>(c)), l.count,
                    l.p50, l.p99, l.p999);
      out += buf;
    }
  }
  return out;
}

void Run(const BenchOptions& options, size_t rounds) {
  PrintBanner("E21", "Per-pool QoS in the sosd request core", "DESIGN.md §14 (serve layer)");

  std::vector<ArmResult> arms;
  arms.push_back(RunArm(/*qos=*/false, rounds, /*seed=*/23));
  arms.push_back(RunArm(/*qos=*/true, rounds, /*seed=*/23));

  PrintSection("Sim-time request latency by QoS class (identical seeded workload)");
  TextTable table({"arm", "class", "requests", "p50 (sim us)", "p99 (sim us)", "p999 (sim us)"});
  for (const ArmResult& arm : arms) {
    for (uint32_t c = 0; c < kNumQosClasses; ++c) {
      const serve::LatencySummary& l = arm.latency[c];
      table.AddRow({arm.name, serve::QosClassName(static_cast<QosClass>(c)),
                    std::to_string(l.count), FormatDouble(l.p50, 1), FormatDouble(l.p99, 1),
                    FormatDouble(l.p999, 1)});
    }
  }
  PrintTable(table);

  PrintSection("Submission batching");
  TextTable batching({"arm", "submitted", "completed", "device batches", "coalesced away"});
  for (const ArmResult& arm : arms) {
    batching.AddRow({arm.name, std::to_string(arm.stats.submitted),
                     std::to_string(arm.stats.completed), std::to_string(arm.stats.batches),
                     std::to_string(arm.stats.coalesced)});
  }
  PrintTable(batching);

  const serve::LatencySummary& off = arms[0].latency[static_cast<uint32_t>(QosClass::kSysRead)];
  const serve::LatencySummary& on = arms[1].latency[static_cast<uint32_t>(QosClass::kSysRead)];
  PrintSection("Summary: QoS on vs off");
  PrintClaim("SYS reads never queue behind SPARE bulk writes",
             "sys_read p99 " + FormatDouble(off.p99, 1) + " -> " + FormatDouble(on.p99, 1) +
                 " sim us");
  PrintClaim("adjacent-LBA coalescing batches device work",
             std::to_string(arms[1].stats.submitted) + " submissions -> " +
                 std::to_string(arms[1].stats.batches) + " device batches");

  if (!options.metrics_out.empty()) {
    if (Status s = obs::WriteFile(options.metrics_out, MetricsJson(arms)); !s.ok()) {
      std::fprintf(stderr, "[bench] --metrics-out: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  if (!options.trace_out.empty()) {
    if (Status s = obs::WriteFile(options.trace_out, TraceJsonl(arms)); !s.ok()) {
      std::fprintf(stderr, "[bench] --trace-out: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  // Wall-clock throughput: machine-dependent, stderr only.
  uint64_t total_ops = 0;
  double total_wall = 0.0;
  for (const ArmResult& arm : arms) {
    total_ops += arm.ops;
    total_wall += arm.wall_seconds;
  }
  std::fprintf(stderr, "[bench] %" PRIu64 " ops, wall %.3fs (%.0f ops/s, pump mode)\n",
               total_ops, total_wall,
               total_wall > 0.0 ? static_cast<double>(total_ops) / total_wall : 0.0);
  PrintJobsSummary(options.jobs, arms.size(), total_wall);
}

}  // namespace
}  // namespace sos

int main(int argc, char** argv) {
  sos::FlagSet flags("bench_serve",
                     "E21: per-pool QoS and coalescing in the sosd async request core");
  size_t* rounds = flags.Size("rounds", 48, "mixed-class submission bursts per arm");
  const sos::BenchOptions options = sos::ParseSweepArgs(flags, argc, argv);
  sos::Run(options, *rounds);
  return 0;
}
