// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Concurrent-client stress harness for AsyncBlockService (the sosd
// verification co-headline): N >= 8 client threads drive seeded op streams
// against one service in async mode (4 workers, QoS on), each over a
// disjoint LBA range, with a per-thread oracle of acked writes. A second arm
// mixes InProcessClient threads, which dispatch their own requests through
// Call(), with Submit-only threads that the 2 workers serve.
//
// Checked properties:
//   - per-LBA read-your-writes: after a write's future resolves ok, every
//     later read of that LBA by its owner returns exactly the acked bytes
//     (payloads encode lba+version, so a stale or cross-wired page is
//     detected, not just a torn one);
//   - acked-write durability: after the final Drain(), every acked critical
//     write in every thread's oracle reads back byte-exact;
//   - trim semantics: an acked trim makes the LBA kNotFound until rewritten;
//   - accounting: completed == submitted, responses never vanish, and a
//     Shutdown() racing in-flight submissions resolves every future.
//
// The suite is run under TSan in CI (serve-smoke): the assertions prove
// linearizable per-LBA behavior, TSan proves the implementation gets there
// without data races.

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/client.h"
#include "src/serve/service.h"
#include "src/sos/sos_device.h"

namespace sos::serve {
namespace {

SosDeviceConfig StressDeviceConfig(uint64_t seed) {
  SosDeviceConfig config;
  config.nand.num_blocks = 96;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.nand.seed = seed;
  config.nand.store_payloads = true;
  config.spare_ecc = EccPreset::kWeakBch;
  return config;
}

// Payload fingerprint: every byte derives from (lba, version), so reading a
// different LBA's page or an older version is visible in the first byte.
std::vector<uint8_t> FillPage(uint64_t lba, uint32_t version) {
  std::vector<uint8_t> page(512);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(lba * 37 + version * 101 + i * 13 + 1);
  }
  return page;
}

struct ClientOutcome {
  // lba -> last acked version (erased on acked trim).
  std::map<uint64_t, uint32_t> oracle;
  // LBAs whose last write failed: content is unspecified until re-acked.
  std::set<uint64_t> uncertain;
  uint64_t ops = 0;
  uint64_t failed_writes = 0;
};

// How a client thread issues requests: returns one response per request, in
// order, once all of them completed.
using Transport = std::function<std::vector<ServeResponse>(std::vector<ServeRequest>)>;

// Submit-only: every request is Submit()ted, then all futures are awaited.
Transport SubmitOnly(AsyncBlockService* service) {
  return [service](std::vector<ServeRequest> reqs) {
    std::vector<std::future<ServeResponse>> futures;
    for (ServeRequest& req : reqs) {
      futures.push_back(service->Submit(std::move(req)));
    }
    std::vector<ServeResponse> resps;
    for (std::future<ServeResponse>& f : futures) {
      resps.push_back(f.get());
    }
    return resps;
  };
}

// Synchronous client: one InProcessClient call (one Call()) per request.
Transport ThroughClient(InProcessClient* client) {
  return [client](std::vector<ServeRequest> reqs) {
    std::vector<ServeResponse> resps(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      const ServeRequest& req = reqs[i];
      switch (req.op) {
        case ServeOp::kWrite:
          resps[i].status = client->Write(req.lba, req.data, req.handle);
          break;
        case ServeOp::kTrim:
          resps[i].status = client->Trim(req.lba);
          break;
        case ServeOp::kRead: {
          auto read = client->Read(req.lba, req.handle);
          if (read.ok()) {
            resps[i].data = std::move(read.value().data);
            resps[i].degraded = read.value().degraded;
          } else {
            resps[i].status = read.status();
          }
          break;
        }
        default:
          ADD_FAILURE() << "op the stress stream never issues";
      }
    }
    return resps;
  };
}

// One client thread's seeded op stream. Thread t owns LBAs
// [t*range, (t+1)*range); critical threads exercise SYS, bulk threads the
// degradable path, creating cross-class QoS pressure.
ClientOutcome RunClient(const Transport& issue, PlacementHandle handle, bool critical,
                        uint64_t lba_base, uint64_t range, uint64_t seed) {
  Rng rng(DeriveSeed({seed, lba_base, 0x73727673ull /* "srvs" */}));
  ClientOutcome out;
  std::map<uint64_t, uint32_t> version;

  for (int round = 0; round < 12; ++round) {
    // Burst of async writes to distinct LBAs, then wait for all acks. The
    // future-wait establishes the happens-before edge read-your-writes is
    // then checked against.
    std::vector<std::pair<uint64_t, uint32_t>> issued;
    std::vector<ServeRequest> burst;
    std::set<uint64_t> used;
    for (int w = 0; w < 6; ++w) {
      const uint64_t lba = lba_base + rng.NextBounded(range);
      if (!used.insert(lba).second) {
        continue;  // one in-flight write per LBA, else ack order is ambiguous
      }
      const uint32_t v = ++version[lba];
      ServeRequest req;
      req.op = ServeOp::kWrite;
      req.lba = lba;
      req.data = FillPage(lba, v);
      req.handle = handle;
      issued.emplace_back(lba, v);
      burst.push_back(std::move(req));
      ++out.ops;
    }
    const std::vector<ServeResponse> acks = issue(std::move(burst));
    for (size_t i = 0; i < acks.size(); ++i) {
      const ServeResponse& resp = acks[i];
      const uint64_t lba = issued[i].first;
      if (resp.status.ok()) {
        out.oracle[lba] = issued[i].second;
        out.uncertain.erase(lba);
      } else {
        ++out.failed_writes;
        out.oracle.erase(lba);
        out.uncertain.insert(lba);
      }
    }

    // Occasional trim of an acked LBA.
    if (round % 4 == 3 && !out.oracle.empty()) {
      const uint64_t lba = out.oracle.begin()->first;
      ServeRequest req;
      req.op = ServeOp::kTrim;
      req.lba = lba;
      const ServeResponse resp = issue({req}).front();
      ++out.ops;
      if (resp.status.ok()) {
        out.oracle.erase(lba);
        version.erase(lba);  // next write restarts the version chain
      }
    }

    // Reads verify read-your-writes against the oracle.
    for (int r = 0; r < 6; ++r) {
      const uint64_t lba = lba_base + rng.NextBounded(range);
      ServeRequest req;
      req.op = ServeOp::kRead;
      req.lba = lba;
      req.handle = handle;
      const ServeResponse resp = issue({req}).front();
      ++out.ops;
      if (out.uncertain.contains(lba)) {
        continue;  // last write failed; content unspecified
      }
      auto expected = out.oracle.find(lba);
      if (expected == out.oracle.end()) {
        EXPECT_EQ(resp.status.code(), StatusCode::kNotFound) << "lba " << lba;
        continue;
      }
      EXPECT_TRUE(resp.status.ok()) << "lba " << lba << ": " << resp.status.ToString();
      if (resp.status.ok() && (critical || !resp.degraded)) {
        EXPECT_EQ(resp.data, FillPage(lba, expected->second))
            << "lba " << lba << " version " << expected->second;
      }
      if (critical && resp.status.ok()) {
        EXPECT_FALSE(resp.degraded) << "critical read degraded at lba " << lba;
      }
    }
  }
  return out;
}

// Runs eight seeded client threads against `service`, thread t issuing
// through transport_for(t), then audits every oracle and the accounting.
void RunAndAudit(AsyncBlockService& service,
                 const std::function<Transport(size_t)>& transport_for, uint64_t seed) {
  constexpr size_t kClients = 8;
  constexpr uint64_t kRange = 20;

  // Six critical (SYS) clients + two bulk (degradable) clients for QoS
  // pressure; each owns a disjoint LBA range.
  std::vector<PlacementHandle> handles;
  std::vector<bool> critical;
  for (size_t t = 0; t < kClients; ++t) {
    const bool is_critical = t < 6;
    auto opened = service.OpenPlacement(
        {is_critical ? Durability::kCritical : Durability::kDegradable});
    ASSERT_TRUE(opened.ok());
    handles.push_back(opened.value());
    critical.push_back(is_critical);
  }

  std::vector<ClientOutcome> outcomes(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t, issue = transport_for(t)] {
      outcomes[t] = RunClient(issue, handles[t], critical[t], t * kRange, kRange, seed);
    });
  }
  for (std::thread& c : clients) {
    c.join();
  }
  service.Drain();

  // Global audit: every acked write in every oracle reads back byte-exact
  // (for critical clients; bulk content is checked when undegraded).
  uint64_t audited = 0;
  for (size_t t = 0; t < kClients; ++t) {
    for (const auto& [lba, version] : outcomes[t].oracle) {
      ServeRequest req;
      req.op = ServeOp::kRead;
      req.lba = lba;
      req.handle = handles[t];
      const ServeResponse resp = service.Submit(std::move(req)).get();
      ASSERT_TRUE(resp.status.ok())
          << "acked write lost: client " << t << " lba " << lba << ": "
          << resp.status.ToString();
      if (critical[t]) {
        ASSERT_FALSE(resp.degraded) << "acked SYS write degraded: lba " << lba;
        ASSERT_EQ(resp.data, FillPage(lba, version))
            << "acked SYS write corrupted: client " << t << " lba " << lba;
      } else if (!resp.degraded) {
        EXPECT_EQ(resp.data, FillPage(lba, version)) << "bulk lba " << lba;
      }
      ++audited;
    }
  }
  EXPECT_GT(audited, 0u);

  const ServeStats stats = service.Stats();
  uint64_t client_ops = audited;  // the audit reads above
  for (const ClientOutcome& out : outcomes) {
    client_ops += out.ops;
  }
  EXPECT_EQ(stats.submitted, client_ops);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.per_class[static_cast<int>(QosClass::kSysRead)].completed, 0u);
  EXPECT_GT(stats.per_class[static_cast<int>(QosClass::kBulk)].completed, 0u);
}

TEST(ServeStressTest, ConcurrentClientsKeepReadYourWrites) {
  SimClock clock;
  SosDevice device(StressDeviceConfig(31), &clock);
  ServeConfig config;
  config.workers = 4;
  config.qos = true;
  AsyncBlockService service(&device, &clock, config);
  RunAndAudit(service, [&](size_t) { return SubmitOnly(&service); }, /*seed=*/31);
}

TEST(ServeStressTest, SyncClientsAndSubmittersShareTheWorkers) {
  // Even threads go through an InProcessClient and dispatch their own
  // requests; odd threads only Submit and rely on the two workers.
  SimClock clock;
  SosDevice device(StressDeviceConfig(33), &clock);
  ServeConfig config;
  config.workers = 2;
  config.qos = true;
  AsyncBlockService service(&device, &clock, config);
  InProcessClient client(&service);
  RunAndAudit(
      service,
      [&](size_t t) { return t % 2 == 0 ? ThroughClient(&client) : SubmitOnly(&service); },
      /*seed=*/33);
}

TEST(ServeStressTest, ShutdownRacingSubmissionsResolvesEveryFuture) {
  SimClock clock;
  SosDevice device(StressDeviceConfig(32), &clock);
  ServeConfig config;
  config.workers = 2;
  AsyncBlockService service(&device, &clock, config);
  auto handle = service.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<ServeResponse>>> futures(4);
  for (size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ServeRequest req;
        req.op = i % 2 == 0 ? ServeOp::kWrite : ServeOp::kRead;
        req.lba = static_cast<uint64_t>(t) * 64 + static_cast<uint64_t>(i % 32);
        if (req.op == ServeOp::kWrite) {
          req.data = FillPage(req.lba, 1);
        }
        req.handle = handle.value();
        futures[t].push_back(service.Submit(std::move(req)));
      }
    });
  }
  service.Shutdown();  // races the submitters on purpose
  for (std::thread& s : submitters) {
    s.join();
  }
  // Every future resolves -- either a real response or a clean rejection.
  for (auto& thread_futures : futures) {
    for (auto& f : thread_futures) {
      const ServeResponse resp = f.get();
      EXPECT_TRUE(resp.status.ok() || resp.status.code() == StatusCode::kUnavailable ||
                  resp.status.code() == StatusCode::kNotFound)
          << resp.status.ToString();
    }
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

}  // namespace
}  // namespace sos::serve
