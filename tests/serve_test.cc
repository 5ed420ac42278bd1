// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit and conformance tests for the serve layer (DESIGN.md §14): the
// weighted QoS scheduler, the sosd wire protocol (round-trip,
// malformed-input and fuzz conformance), and the AsyncBlockService in
// deterministic pump mode -- including the batch-vs-serial equivalence the
// coalescer must preserve -- plus its async-mode accounting. The concurrent
// harness lives in serve_stress_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/rng.h"
#include "src/flash/fault_hook.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/qos.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/serve/wire.h"
#include "src/sos/sos_device.h"
#include "tests/oracle/percentile.h"

#include <sys/socket.h>
#include <unistd.h>

namespace sos::serve {
namespace {

// --- QosScheduler -----------------------------------------------------------

Pending MakePending(QosClass cls, uint64_t seq, ServeOp op = ServeOp::kRead, uint64_t lba = 0) {
  Pending p;
  p.cls = cls;
  p.seq = seq;
  p.req.op = op;
  p.req.lba = lba;
  return p;
}

TEST(QosSchedulerTest, QosOffIsGlobalFifo) {
  QosScheduler sched(/*qos_enabled=*/false, QosWeights{});
  sched.Enqueue(MakePending(QosClass::kMaintenance, 0));
  sched.Enqueue(MakePending(QosClass::kSysRead, 1));
  sched.Enqueue(MakePending(QosClass::kBulk, 2));
  for (uint64_t want = 0; want < 3; ++want) {
    auto next = sched.Next();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->seq, want);
  }
  EXPECT_FALSE(sched.Next().has_value());
}

TEST(QosSchedulerTest, WeightedDispatchFollowsPriorityAndCredits) {
  // Weights 2/1/1/1 and a full backlog: one cycle must serve sys_read twice
  // and each other class once, in priority order.
  QosWeights weights;
  weights.weights[0] = 2;
  weights.weights[1] = 1;
  weights.weights[2] = 1;
  weights.weights[3] = 1;
  QosScheduler sched(/*qos_enabled=*/true, weights);
  uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) {
    for (uint32_t c = 0; c < kNumQosClasses; ++c) {
      sched.Enqueue(MakePending(static_cast<QosClass>(c), seq++));
    }
  }
  std::vector<QosClass> order;
  for (int i = 0; i < 5; ++i) {
    order.push_back(sched.Next()->cls);
  }
  const std::vector<QosClass> want = {QosClass::kSysRead, QosClass::kSysRead, QosClass::kSysWrite,
                                      QosClass::kBulk, QosClass::kMaintenance};
  EXPECT_EQ(order, want);
}

TEST(QosSchedulerTest, SysReadWaitIsBoundedBehindBulkBacklog) {
  // 64 bulk requests queued first; a late sys read must still dispatch
  // within one weight cycle (here: at most weights.bulk + weights.maint
  // dispatches after it arrives), not after the whole bulk run.
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  for (uint64_t i = 0; i < 64; ++i) {
    sched.Enqueue(MakePending(QosClass::kBulk, i));
  }
  sched.Enqueue(MakePending(QosClass::kSysRead, 1000));
  size_t position = 0;
  for (;; ++position) {
    auto next = sched.Next();
    ASSERT_TRUE(next.has_value());
    if (next->cls == QosClass::kSysRead) {
      break;
    }
  }
  const QosWeights defaults;
  EXPECT_LE(position, static_cast<size_t>(defaults.weights[2] + defaults.weights[3]));
}

TEST(QosSchedulerTest, LowPriorityIsNeverStarved) {
  // Keep sys traffic backlogged; maintenance must still get its weight share.
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    sched.Enqueue(MakePending(QosClass::kSysRead, seq++));
  }
  sched.Enqueue(MakePending(QosClass::kMaintenance, seq++));
  bool maintenance_served = false;
  for (int i = 0; i < 30 && !maintenance_served; ++i) {
    maintenance_served = sched.Next()->cls == QosClass::kMaintenance;
  }
  EXPECT_TRUE(maintenance_served);
}

TEST(QosSchedulerTest, AdmissionCapsBulkAtHalfDepth) {
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  const size_t depth = 8;
  size_t admitted = 0;
  while (sched.HasRoom(QosClass::kBulk, depth)) {
    sched.Enqueue(MakePending(QosClass::kBulk, admitted++));
  }
  EXPECT_EQ(admitted, depth / 2);
  EXPECT_TRUE(sched.HasRoom(QosClass::kSysRead, depth));  // sys unaffected
}

TEST(QosSchedulerTest, TakeAdjacentMatchesClassOpLbaHandle) {
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  sched.Enqueue(MakePending(QosClass::kBulk, 0, ServeOp::kRead, 10));
  sched.Enqueue(MakePending(QosClass::kBulk, 1, ServeOp::kWrite, 11));  // wrong op
  sched.Enqueue(MakePending(QosClass::kBulk, 2, ServeOp::kRead, 11));   // match
  auto taken = sched.TakeAdjacent(QosClass::kBulk, ServeOp::kRead, 11, PlacementHandle(), 32);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->seq, 2u);
  EXPECT_EQ(sched.size(), 2u);
  // No further adjacent read at 11.
  EXPECT_FALSE(
      sched.TakeAdjacent(QosClass::kBulk, ServeOp::kRead, 11, PlacementHandle(), 32).has_value());
}

// --- Wire protocol ----------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  Frame frame;
  frame.type = FrameType::kWrite;
  frame.lba = 0x0123456789abcdefull;
  frame.count = 3;
  frame.handle_slot = 5;
  frame.payload = {1, 2, 3, 4, 5, 6};
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, frame);
  ASSERT_EQ(bytes.size(), kWireHeaderSize + 6);

  size_t consumed = 0;
  auto parsed = ParseFrame(bytes, &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(parsed.value().type, FrameType::kWrite);
  EXPECT_FALSE(parsed.value().reply);
  EXPECT_EQ(parsed.value().lba, frame.lba);
  EXPECT_EQ(parsed.value().count, 3u);
  EXPECT_EQ(parsed.value().handle_slot, 5u);
  EXPECT_EQ(parsed.value().payload, frame.payload);
}

TEST(WireTest, ReplyRoundTripCarriesStatusAndDegraded) {
  Frame frame;
  frame.type = FrameType::kRead;
  frame.reply = true;
  frame.status = StatusCode::kDataLoss;
  frame.degraded = true;
  frame.payload = {9, 9};
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, frame);
  size_t consumed = 0;
  auto parsed = ParseFrame(bytes, &consumed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().reply);
  EXPECT_EQ(parsed.value().status, StatusCode::kDataLoss);
  EXPECT_TRUE(parsed.value().degraded);
}

TEST(WireTest, IncompleteBytesAreRetryableNotMalformed) {
  Frame frame;
  frame.type = FrameType::kTrim;
  frame.lba = 42;
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, frame);
  for (size_t len = 0; len < bytes.size(); ++len) {
    size_t consumed = 0;
    auto parsed = ParseFrame(std::span<const uint8_t>(bytes.data(), len), &consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kUnavailable) << "prefix length " << len;
  }
}

TEST(WireTest, MalformedHeadersAreRejected) {
  Frame frame;
  frame.type = FrameType::kRead;
  std::vector<uint8_t> good;
  AppendFrame(good, frame);

  auto expect_invalid = [](std::vector<uint8_t> bytes, const char* what) {
    size_t consumed = 0;
    auto parsed = ParseFrame(bytes, &consumed);
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << what;
  };

  std::vector<uint8_t> bad = good;
  bad[0] = 'X';
  expect_invalid(bad, "bad magic");

  bad = good;
  bad[2] = 99;
  expect_invalid(bad, "bad version");

  bad = good;
  bad[3] = 0x7f;  // not a FrameType
  expect_invalid(bad, "unknown type");

  bad = good;
  bad[4] = 200;  // not a StatusCode
  expect_invalid(bad, "unknown status");

  bad = good;
  bad[5] |= 0x02;  // reserved flag bit
  expect_invalid(bad, "reserved flag bits");

  bad = good;
  bad[6] = 1;  // reserved header byte
  expect_invalid(bad, "reserved bytes");

  bad = good;
  bad[18] = 0xff;  // payload_len ~16MiB > kMaxFramePayload
  expect_invalid(bad, "oversized payload");

  bad = good;
  bad[22] = 0xff;  // count > kMaxFrameCount
  expect_invalid(bad, "oversized count");

  bad = good;
  bad[5] |= 0x01;  // degraded flag on a request
  expect_invalid(bad, "degraded request");
}

TEST(WireTest, FrameReaderTakesQueuedFramesInOneRead) {
  // An 8-page write request of 4 KiB pages and a one-page read reply, both
  // already queued on the socket: one Fill reads them together, and Next
  // hands them out in order by advancing an offset.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame write;
  write.type = FrameType::kWrite;
  write.count = 8;
  for (uint32_t i = 0; i < write.count; ++i) {
    write.payload.resize(write.payload.size() + 4096, static_cast<uint8_t>(i + 1));
  }
  Frame reply;
  reply.reply = true;
  reply.payload.assign(4096, 0x7e);
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, write);
  AppendFrame(bytes, reply);
  ASSERT_LT(bytes.size(), FrameReader::kStreamReadSize);
  ASSERT_TRUE(SendAll(fds[0], bytes));

  FrameReader reader;
  ASSERT_TRUE(reader.Fill(fds[1]).ok());
  auto first = reader.Next();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().count, 8u);
  EXPECT_EQ(first.value().payload, write.payload);
  auto second = reader.Next();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().reply);
  EXPECT_EQ(second.value().payload, reply.payload);
  EXPECT_EQ(reader.Next().status().code(), StatusCode::kUnavailable);
  ::close(fds[0]);
  EXPECT_EQ(reader.Fill(fds[1]).code(), StatusCode::kUnavailable);  // peer closed
  ::close(fds[1]);
}

TEST(WireTest, SpecCodecRoundTrip) {
  PlacementSpec spec(Durability::kDegradable, LifetimeHint::kShort, UpdateFrequency::kFrequent,
                     "thumbs");
  auto decoded = DecodeSpec(EncodeSpec(spec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().durability, Durability::kDegradable);
  EXPECT_EQ(decoded.value().lifetime, LifetimeHint::kShort);
  EXPECT_EQ(decoded.value().update_frequency, UpdateFrequency::kFrequent);
  EXPECT_EQ(decoded.value().label, "thumbs");

  EXPECT_EQ(DecodeSpec(std::vector<uint8_t>{0, 1}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeSpec(std::vector<uint8_t>{9, 0, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, FuzzedBytesNeverParseOutOfBounds) {
  // Seeded adversarial streams: random bytes, and random corruptions of a
  // valid frame. The parser must always answer Ok / kUnavailable /
  // kInvalidArgument without reading past the buffer (ASan/UBSan enforce
  // the memory-safety half in CI).
  Rng rng(DeriveSeed({0x66757a7aull /* "fuzz" */}));
  Frame valid;
  valid.type = FrameType::kWrite;
  valid.payload.assign(32, 0xab);
  std::vector<uint8_t> seedbytes;
  AppendFrame(seedbytes, valid);

  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes;
    if (iter % 2 == 0) {
      bytes.resize(rng.NextBounded(96));
      for (auto& b : bytes) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
    } else {
      bytes = seedbytes;
      const size_t flips = 1 + rng.NextBounded(4);
      for (size_t f = 0; f < flips; ++f) {
        bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextU64() % 255);
      }
    }
    size_t consumed = 0;
    auto parsed = ParseFrame(bytes, &consumed);
    if (parsed.ok()) {
      EXPECT_LE(consumed, bytes.size());
    } else {
      EXPECT_TRUE(parsed.status().code() == StatusCode::kUnavailable ||
                  parsed.status().code() == StatusCode::kInvalidArgument)
          << parsed.status().ToString();
    }
  }
}

// --- AsyncBlockService (pump mode) ------------------------------------------

SosDeviceConfig SmallDeviceConfig(uint64_t seed, uint32_t page_bytes = 512) {
  SosDeviceConfig config;
  config.nand.num_blocks = 48;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = page_bytes;
  config.nand.seed = seed;
  config.nand.store_payloads = true;
  config.spare_ecc = EccPreset::kWeakBch;  // checkable degradable reads
  return config;
}

std::vector<uint8_t> FillPage(uint64_t lba, uint32_t version, size_t page_bytes = 512) {
  return std::vector<uint8_t>(page_bytes, static_cast<uint8_t>(lba * 37 + version * 101 + 1));
}

TEST(ServeServiceTest, PumpModeReadYourWrites) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(3), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);

  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());

  for (uint64_t lba = 0; lba < 16; ++lba) {
    ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
  }
  for (uint64_t lba = 0; lba < 16; ++lba) {
    auto read = client.Read(lba, handle.value());
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, FillPage(lba, 1)) << "lba " << lba;
  }
  // Overwrite, then re-read: latest version wins.
  ASSERT_TRUE(client.Write(5, FillPage(5, 2), handle.value()).ok());
  EXPECT_EQ(client.Read(5, handle.value()).value().data, FillPage(5, 2));

  EXPECT_EQ(client.Read(4000, PlacementHandle()).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Trim(5).ok());
  EXPECT_EQ(client.Read(5, PlacementHandle()).status().code(), StatusCode::kNotFound);

  auto described = client.DescribePlacement(handle.value());
  ASSERT_TRUE(described.ok());
  EXPECT_EQ(described.value().durability, Durability::kCritical);
  EXPECT_TRUE(client.Flush().ok());
  EXPECT_TRUE(client.ClosePlacement(handle.value()).ok());

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.per_class[0].completed, 0u);  // sys reads
  EXPECT_GT(stats.per_class[1].completed, 0u);  // sys writes
}

TEST(ServeServiceTest, ClassificationFollowsHandleDurability) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(4), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);

  auto critical = client.OpenPlacement({Durability::kCritical});
  auto degradable = client.OpenPlacement({Durability::kDegradable});
  ASSERT_TRUE(critical.ok());
  ASSERT_TRUE(degradable.ok());
  ASSERT_TRUE(client.Write(1, FillPage(1, 1), critical.value()).ok());
  ASSERT_TRUE(client.Write(2, FillPage(2, 1), degradable.value()).ok());
  ASSERT_TRUE(client.Read(1, critical.value()).ok());
  ASSERT_TRUE(client.Read(2, degradable.value()).ok());

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.per_class[static_cast<int>(QosClass::kSysWrite)].completed, 1u);
  EXPECT_EQ(stats.per_class[static_cast<int>(QosClass::kSysRead)].completed, 1u);
  EXPECT_EQ(stats.per_class[static_cast<int>(QosClass::kBulk)].completed, 2u);
}

TEST(ServeServiceTest, AdjacentReadsCoalesceIntoOneBatch) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(5), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);
  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
  }
  const uint64_t batches_before = service.Stats().batches;

  auto batch = client.ReadBatch(0, 8, handle.value());
  ASSERT_TRUE(batch.ok());
  for (uint64_t lba = 0; lba < 8; ++lba) {
    EXPECT_EQ(batch.value()[lba].data, FillPage(lba, 1)) << "lba " << lba;
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.batches, batches_before + 1);  // one coalesced dispatch
  EXPECT_GE(stats.coalesced, 7u);
}

TEST(ServeServiceTest, BatchAndSerialPathsReturnIdenticalData) {
  // Same seed, two devices: one read through coalesced batches, one through
  // the serial device API. Every logical block, the FTL and NAND counters
  // and the sim clock must match -- the coalescer may change op grouping
  // but never what the device does.
  //
  // The second input makes SYS reads need parity rescue: a worn die, weak
  // BCH, 4-page stripes, and per-handle append points whose stripes' first
  // page was written ten years before the rest. (SYS's two read retries
  // recover 90% of retention drift, so uniformly aged stripes never reach
  // rescue.) A rescue re-reads the young stripe members right after the
  // failed page; a batch that sensed the whole stretch before decoding any
  // page would draw their error samples in a different order.
  struct Step {
    uint64_t lba;
    size_t handle;
    double wait_years;  // both clocks advance this much before the write
  };
  struct Input {
    SosDeviceConfig config;
    size_t handles;
    std::vector<Step> writes;
    double age_years;  // after the last write
    uint64_t lbas;     // read back [0, lbas)
  };
  Input fresh{SmallDeviceConfig(6), 1, {}, 0.0, 24};
  for (uint64_t lba = 0; lba < 24; ++lba) {
    fresh.writes.push_back({lba, 0, 0.0});
  }
  constexpr size_t kStripes = 8;  // one per handle; LBAs 3k..3k+2, then 3*kStripes+k
  Input aged{SmallDeviceConfig(6), kStripes, {}, 0.3, 4 * kStripes};
  aged.config.sys_ecc = EccPreset::kWeakBch;
  aged.config.sys_parity_stripe = 4;
  aged.config.placement_policy = PlacementPolicy::kStatic;
  aged.config.nand.initial_pec = 5000;
  for (size_t k = 0; k < kStripes; ++k) {
    aged.writes.push_back({3 * k, k, 0.0});
  }
  for (size_t k = 0; k < kStripes; ++k) {
    aged.writes.push_back({3 * k + 1, k, k == 0 ? 10.0 : 0.0});
    aged.writes.push_back({3 * k + 2, k, 0.0});
    aged.writes.push_back({3 * kStripes + k, k, 0.0});  // flushes the stripe's parity
  }

  for (const Input* input : {&fresh, &aged}) {
    SCOPED_TRACE(input == &fresh ? "fresh" : "aged");
    SimClock clock_a;
    SosDevice device_a(input->config, &clock_a);
    AsyncBlockService service(&device_a, &clock_a, ServeConfig{});
    InProcessClient client(&service);
    SimClock clock_b;
    SosDevice device_b(input->config, &clock_b);
    std::vector<PlacementHandle> handles_a;
    std::vector<PlacementHandle> handles_b;
    for (size_t h = 0; h < input->handles; ++h) {
      auto a = client.OpenPlacement({Durability::kCritical});
      auto b = device_b.OpenPlacement({Durability::kCritical});
      ASSERT_TRUE(a.ok() && b.ok());
      handles_a.push_back(a.value());
      handles_b.push_back(b.value());
    }
    for (const Step& step : input->writes) {
      clock_a.Advance(YearsToUs(step.wait_years));
      clock_b.Advance(YearsToUs(step.wait_years));
      const auto page = FillPage(step.lba, 7);
      ASSERT_TRUE(client.Write(step.lba, page, handles_a[step.handle]).ok());
      ASSERT_TRUE(device_b.Write(step.lba, page, handles_b[step.handle]).ok());
    }
    clock_a.Advance(YearsToUs(input->age_years));
    clock_b.Advance(YearsToUs(input->age_years));

    auto batched = client.ReadBatch(0, static_cast<uint32_t>(input->lbas), handles_a[0]);
    EXPECT_TRUE(batched.ok()) << batched.status().ToString();
    for (uint64_t lba = 0; lba < input->lbas; ++lba) {
      auto serial = device_b.Read(lba);
      ASSERT_TRUE(serial.ok()) << "lba " << lba << ": " << serial.status().ToString();
      if (batched.ok()) {
        EXPECT_EQ(batched.value()[lba].data, serial.value().data) << "lba " << lba;
        EXPECT_EQ(batched.value()[lba].degraded, serial.value().degraded) << "lba " << lba;
      }
    }
    EXPECT_GT(service.Stats().coalesced, 0u);
    EXPECT_EQ(device_a.ftl().stats(), device_b.ftl().stats());
    EXPECT_EQ(device_a.ftl().nand().stats().reads, device_b.ftl().nand().stats().reads);
    EXPECT_EQ(device_a.ftl().nand().stats().bit_errors_injected,
              device_b.ftl().nand().stats().bit_errors_injected);
    EXPECT_EQ(clock_a.now(), clock_b.now());
    if (input == &aged) {
      EXPECT_GT(device_b.ftl().stats().parity_rescues(), 0u) << "no parity rescues; retune";
    }
  }
}

// Cuts power right after the `cut_at`-th program op (1-based) lands.
class PowerCutAtProgram : public NandFaultHook {
 public:
  explicit PowerCutAtProgram(uint64_t cut_at) : cut_at_(cut_at) {}

  NandFaultAction OnNandOp(NandOpKind op, uint32_t /*block*/, uint32_t /*page*/) override {
    if (op == NandOpKind::kProgram && ++programs_ == cut_at_) {
      return NandFaultAction::PowerCut(/*after_op=*/true, "power cut");
    }
    return NandFaultAction::None();
  }

 private:
  uint64_t cut_at_;
  uint64_t programs_ = 0;
};

// Host writes the FTL has seen (its write-latency histogram count).
uint64_t FtlWriteCalls(const SosDevice& device) {
  obs::MetricRegistry registry;
  device.ftl().ToMetrics(registry);
  for (const obs::MetricRow& row : registry.Snapshot()) {
    if (row.name == "ftl.write.latency_us") {
      return row.count;
    }
  }
  return 0;
}

TEST(ServeServiceTest, PowerCutMidBatchFailsTheRestOfTheBatch) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(10), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);
  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());
  constexpr uint64_t kLbas = 8;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
  }

  // SYS stripes are 16 pages, so the prefill leaves the cursor mid-stripe:
  // the batch's first four programs are its first four data pages, and the
  // fourth lands as power dies (acknowledged to nobody).
  constexpr uint64_t kCut = 4;
  PowerCutAtProgram cut(kCut);
  const uint64_t programs_before = device.ftl().nand().stats().programs;
  const uint64_t writes_before = FtlWriteCalls(device);
  const uint64_t batches_before = service.Stats().batches;
  device.ftl().nand().SetFaultHook(&cut);
  std::vector<std::future<ServeResponse>> futures;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ServeRequest req;
    req.op = ServeOp::kWrite;
    req.lba = lba;
    req.data = FillPage(lba, 2);
    req.handle = handle.value();
    futures.push_back(service.Submit(std::move(req)));
  }
  service.RunPending();
  device.ftl().nand().SetFaultHook(nullptr);
  EXPECT_EQ(service.Stats().batches, batches_before + 1);  // one coalesced dispatch

  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    const StatusCode want = lba + 1 < kCut ? StatusCode::kOk : StatusCode::kPowerLost;
    EXPECT_EQ(futures[lba].get().status.code(), want) << "lba " << lba;
  }
  EXPECT_EQ(device.ftl().nand().stats().programs, programs_before + kCut);
  // The requests after the cut never reached the dark device.
  EXPECT_EQ(FtlWriteCalls(device), writes_before + kCut);

  ASSERT_TRUE(device.RecoverFromPowerLoss().ok());
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    auto read = device.Read(lba);
    ASSERT_TRUE(read.ok()) << "lba " << lba;
    if (lba + 1 < kCut) {
      EXPECT_EQ(read.value().data, FillPage(lba, 2)) << "acknowledged lba " << lba;
    } else if (lba + 1 == kCut) {
      EXPECT_TRUE(read.value().data == FillPage(lba, 1) || read.value().data == FillPage(lba, 2))
          << "torn lba " << lba;
    } else {
      EXPECT_EQ(read.value().data, FillPage(lba, 1)) << "unwritten lba " << lba;
    }
  }
}

TEST(ServeServiceTest, ErrorsPropagateThroughFutures) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(7), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);

  // Write without an open handle.
  EXPECT_EQ(client.Write(0, FillPage(0, 1), PlacementHandle()).code(),
            StatusCode::kInvalidArgument);
  // Describe of a never-opened slot.
  EXPECT_EQ(client.DescribePlacement(PlacementHandle(3)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stats().per_class[static_cast<int>(QosClass::kBulk)].errors, 1u);
}

TEST(ServeServiceTest, SubmitAfterShutdownResolvesUnavailable) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(8), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  service.Shutdown();
  ServeRequest req;
  req.op = ServeOp::kRead;
  auto response = service.Submit(std::move(req)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Stats().rejected, 1u);
}

TEST(ServeServiceTest, CallAfterShutdownResolvesUnavailable) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(8), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  service.Shutdown();
  const std::vector<ServeResponse> resps = service.Call(std::vector<ServeRequest>(2));
  ASSERT_EQ(resps.size(), 2u);
  for (const ServeResponse& resp : resps) {
    EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(service.Stats().rejected, 2u);
}

// A seeded stream of synchronous calls of 1-10 requests each: runs of
// adjacent SYS or SPARE reads/writes (so the coalescer merges them) mixed
// with trims, flushes and describes.
std::vector<std::vector<ServeRequest>> SeededCalls(PlacementHandle sys, PlacementHandle spare) {
  Rng rng(DeriveSeed({0x63616c6cull /* "call" */}));
  std::vector<std::vector<ServeRequest>> calls(120);
  for (size_t c = 0; c < calls.size(); ++c) {
    const uint64_t pick = rng.NextBounded(10);
    const uint64_t start = rng.NextBounded(40);
    const size_t n = 1 + rng.NextBounded(10);
    for (size_t i = 0; i < n; ++i) {
      ServeRequest req;
      req.lba = start + i;
      req.handle = pick % 2 == 0 ? sys : spare;
      if (pick < 4) {
        req.op = ServeOp::kWrite;
        req.data = FillPage(req.lba, static_cast<uint32_t>(c));
      } else if (pick < 8) {
        req.op = ServeOp::kRead;
      } else {
        // Ops that never coalesce, mixed within the call.
        const ServeOp ops[] = {ServeOp::kTrim, ServeOp::kFlush, ServeOp::kDescribePlacement};
        req.op = ops[rng.NextBounded(3)];
      }
      calls[c].push_back(std::move(req));
    }
  }
  return calls;
}

TEST(ServeServiceTest, CallMatchesSubmitRunPendingInPumpMode) {
  // Same seed, two services in pump mode: one takes each call through
  // Call(), the other through Submit x N, RunPending, get x N. Responses,
  // sim-time stamps and the dispatch accounting must match.
  struct Run {
    SimClock clock;
    SosDevice device{SmallDeviceConfig(11), &clock};
    AsyncBlockService service{&device, &clock, ServeConfig{}};
  };
  Run by_call;
  Run by_submit;
  auto sys = by_call.service.OpenPlacement({Durability::kCritical});
  auto spare = by_call.service.OpenPlacement({Durability::kDegradable});
  ASSERT_TRUE(sys.ok() && spare.ok());
  ASSERT_EQ(by_submit.service.OpenPlacement({Durability::kCritical}).value(), sys.value());
  ASSERT_EQ(by_submit.service.OpenPlacement({Durability::kDegradable}).value(), spare.value());

  for (const std::vector<ServeRequest>& call : SeededCalls(sys.value(), spare.value())) {
    const std::vector<ServeResponse> got = by_call.service.Call(call);
    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& req : call) {
      futures.push_back(by_submit.service.Submit(req));
    }
    by_submit.service.RunPending();
    ASSERT_EQ(got.size(), futures.size());
    for (size_t i = 0; i < got.size(); ++i) {
      const ServeResponse want = futures[i].get();
      EXPECT_EQ(got[i].status.code(), want.status.code());
      EXPECT_EQ(got[i].data, want.data);
      EXPECT_EQ(got[i].degraded, want.degraded);
      EXPECT_EQ(got[i].spec.durability, want.spec.durability);
      EXPECT_EQ(got[i].cls, want.cls);
      EXPECT_EQ(got[i].submit_sim_us, want.submit_sim_us);
      EXPECT_EQ(got[i].complete_sim_us, want.complete_sim_us);
    }
  }
  const ServeStats a = by_call.service.Stats();
  const ServeStats b = by_submit.service.Stats();
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_GT(a.coalesced, 0u);
  for (uint32_t c = 0; c < kNumQosClasses; ++c) {
    EXPECT_EQ(a.per_class[c].completed, b.per_class[c].completed) << "class " << c;
    EXPECT_EQ(a.per_class[c].errors, b.per_class[c].errors) << "class " << c;
  }
  EXPECT_EQ(by_call.clock.now(), by_submit.clock.now());
}

TEST(ServeServiceTest, AsyncCallLargerThanTheBulkCapCompletes) {
  // 40 bulk writes in one Call against a bulk admission cap of 4: the call
  // makes room by dispatching its own earlier requests.
  SimClock clock;
  SosDevice device(SmallDeviceConfig(12), &clock);
  ServeConfig config;
  config.workers = 2;
  config.submission_depth = 8;
  AsyncBlockService service(&device, &clock, config);
  auto spare = service.OpenPlacement({Durability::kDegradable});
  ASSERT_TRUE(spare.ok());
  std::vector<ServeRequest> reqs(40);
  for (uint64_t lba = 0; lba < reqs.size(); ++lba) {
    reqs[lba].op = ServeOp::kWrite;
    reqs[lba].lba = lba;
    reqs[lba].data = FillPage(lba, 1);
    reqs[lba].handle = spare.value();
  }
  const std::vector<ServeResponse> resps = service.Call(std::move(reqs));
  ASSERT_EQ(resps.size(), 40u);
  for (const ServeResponse& resp : resps) {
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.cls, QosClass::kBulk);
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
}

TEST(ServeServiceTest, LatencyIsSimTimeNotWallTime) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(9), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);
  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(client.Write(0, FillPage(0, 1), handle.value()).ok());
  ASSERT_TRUE(client.Read(0, handle.value()).ok());
  const LatencySummary reads = service.Latency(QosClass::kSysRead);
  EXPECT_EQ(reads.count, 1u);
  EXPECT_GT(reads.p50, 0.0);  // NAND read advanced the sim clock
  EXPECT_LE(reads.p50, reads.p999);
}

TEST(ServeServiceTest, AsyncAccountingIsCompleteAndExact) {
  // Two workers resolve completions while two threads submit a seeded mix
  // of every class. After Drain each request is counted exactly once, and
  // each class's percentiles equal a sort over the sim-time latencies the
  // submitters saw in their responses.
  SimClock clock;
  SosDevice device(SmallDeviceConfig(10), &clock);
  ServeConfig config;
  config.workers = 2;
  AsyncBlockService service(&device, &clock, config);
  auto sys = service.OpenPlacement({Durability::kCritical});
  auto spare = service.OpenPlacement({Durability::kDegradable});
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE(spare.ok());

  constexpr size_t kSubmitters = 2;
  constexpr int kRequestsEach = 300;
  std::vector<std::future<ServeResponse>> futures[kSubmitters];
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(DeriveSeed({0x61636374ull /* "acct" */, t}));
      for (int i = 0; i < kRequestsEach; ++i) {
        ServeRequest req;
        const uint64_t pick = rng.NextBounded(10);
        req.lba = rng.NextBounded(32);
        if (pick < 4) {
          req.op = ServeOp::kRead;
          req.handle = sys.value();
        } else if (pick < 7) {
          req.op = ServeOp::kWrite;
          req.handle = sys.value();
          req.data = FillPage(req.lba, static_cast<uint32_t>(i));
        } else if (pick < 9) {
          req.op = ServeOp::kWrite;
          req.lba += 32;
          req.handle = spare.value();
          req.data = FillPage(req.lba, static_cast<uint32_t>(i));
        } else {
          req.op = ServeOp::kFlush;
        }
        futures[t].push_back(service.Submit(std::move(req)));
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  service.Drain();

  std::vector<double> seen[kNumQosClasses];
  for (auto& per_thread : futures) {
    for (std::future<ServeResponse>& f : per_thread) {
      const ServeResponse resp = f.get();
      seen[static_cast<uint32_t>(resp.cls)].push_back(
          static_cast<double>(resp.complete_sim_us - resp.submit_sim_us));
    }
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, kSubmitters * kRequestsEach);
  EXPECT_EQ(stats.completed, stats.submitted);
  uint64_t counted = 0;
  for (uint32_t c = 0; c < kNumQosClasses; ++c) {
    const LatencySummary summary = service.Latency(static_cast<QosClass>(c));
    counted += summary.count;
    EXPECT_GT(summary.count, 0u) << "class " << c;
    EXPECT_EQ(summary.count, seen[c].size()) << "class " << c;
    EXPECT_EQ(summary.p50, SortedPercentile(seen[c], 50)) << "class " << c;
    EXPECT_EQ(summary.p99, SortedPercentile(seen[c], 99)) << "class " << c;
    EXPECT_EQ(summary.p999, SortedPercentile(seen[c], 99.9)) << "class " << c;
  }
  EXPECT_EQ(counted, stats.completed);
}

// --- Socket transport -------------------------------------------------------

struct SocketHarness {
  SimClock clock;
  std::unique_ptr<SosDevice> device;
  std::unique_ptr<AsyncBlockService> service;
  std::unique_ptr<SosdServer> server;
  std::thread server_thread;
  int client_fd = -1;

  explicit SocketHarness(uint64_t seed, size_t workers = 0, uint32_t page_bytes = 512) {
    device = std::make_unique<SosDevice>(SmallDeviceConfig(seed, page_bytes), &clock);
    ServeConfig config;
    config.workers = workers;
    service = std::make_unique<AsyncBlockService>(device.get(), &clock, config);
    server = std::make_unique<SosdServer>(service.get());
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd = fds[0];
    const int server_fd = fds[1];
    server_thread = std::thread([this, server_fd] {
      server->ServeConnection(server_fd);
      ::close(server_fd);
    });
  }

  ~SocketHarness() {
    server_thread.join();
    service->Shutdown();
  }
};

TEST(SosdServerTest, SocketClientRoundTrip) {
  SocketHarness harness(21);
  {
    SocketClient client(harness.client_fd);  // closes fd -> server exits
    auto handle = client.OpenPlacement({Durability::kCritical, LifetimeHint::kLong});
    ASSERT_TRUE(handle.ok());

    for (uint64_t lba = 0; lba < 8; ++lba) {
      ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
    }
    auto one = client.Read(3, handle.value());
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one.value().data, FillPage(3, 1));

    auto batch = client.ReadBatch(0, 8, handle.value());
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), 8u);
    for (uint64_t lba = 0; lba < 8; ++lba) {
      EXPECT_EQ(batch.value()[lba].data, FillPage(lba, 1));
    }

    auto described = client.DescribePlacement(handle.value());
    ASSERT_TRUE(described.ok());
    EXPECT_EQ(described.value().lifetime, LifetimeHint::kLong);

    EXPECT_EQ(client.Read(4000, PlacementHandle()).status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(client.Trim(3).ok());
    EXPECT_EQ(client.Read(3, PlacementHandle()).status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(client.Flush().ok());
    EXPECT_TRUE(client.ClosePlacement(handle.value()).ok());
  }
}

TEST(SosdServerTest, SocketClientAgainstAsyncWorkers) {
  SocketHarness harness(22, /*workers=*/2);
  {
    SocketClient client(harness.client_fd);
    auto handle = client.OpenPlacement({Durability::kCritical});
    ASSERT_TRUE(handle.ok());
    for (uint64_t lba = 0; lba < 12; ++lba) {
      ASSERT_TRUE(client.Write(lba, FillPage(lba, 2), handle.value()).ok());
    }
    auto batch = client.ReadBatch(0, 12, handle.value());
    ASSERT_TRUE(batch.ok());
    for (uint64_t lba = 0; lba < 12; ++lba) {
      EXPECT_EQ(batch.value()[lba].data, FillPage(lba, 2));
    }
  }
}

TEST(SosdServerTest, MultiPageFramesReassembleAcrossReads) {
  // 4 KiB pages. An 8-page write request and its batch-read reply each fit
  // one FrameReader read; a 32-page frame (128 KiB) is larger than
  // kStreamReadSize, so the server accumulates the write request and the
  // client the read reply across several reads.
  constexpr uint32_t kPage = 4096;
  static_assert(8 * kPage < FrameReader::kStreamReadSize);
  static_assert(32 * kPage > FrameReader::kStreamReadSize);
  SocketHarness harness(26, /*workers=*/0, kPage);
  {
    SocketClient client(harness.client_fd);
    auto handle = client.OpenPlacement({Durability::kCritical});
    ASSERT_TRUE(handle.ok());
    // SocketClient sends one page per write frame, so the multi-page write
    // frames go out raw on the same connection. The protocol has one request
    // in flight at a time, so this reader and the client's never split a
    // reply.
    FrameReader raw;
    uint64_t lba = 0;
    for (const uint32_t count : {8u, 32u}) {
      SCOPED_TRACE(count);
      Frame write;
      write.type = FrameType::kWrite;
      write.lba = lba;
      write.count = count;
      write.handle_slot = handle.value().id();
      for (uint32_t i = 0; i < count; ++i) {
        const std::vector<uint8_t> page = FillPage(lba + i, 3, kPage);
        write.payload.insert(write.payload.end(), page.begin(), page.end());
      }
      std::vector<uint8_t> bytes;
      AppendFrame(bytes, write);
      ASSERT_TRUE(SendAll(harness.client_fd, bytes));
      Result<Frame> reply = raw.Next();
      while (!reply.ok() && reply.status().code() == StatusCode::kUnavailable) {
        ASSERT_TRUE(raw.Fill(harness.client_fd).ok());
        reply = raw.Next();
      }
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply.value().type, FrameType::kWrite);
      EXPECT_EQ(reply.value().status, StatusCode::kOk);

      auto batch = client.ReadBatch(lba, count, handle.value());
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch.value().size(), count);
      for (uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(batch.value()[i].data, FillPage(lba + i, 3, kPage)) << "lba " << lba + i;
      }
      lba += count;
    }
  }
  EXPECT_EQ(harness.service->Stats().completed, 2u * (8 + 32));
}

TEST(SosdServerTest, OversizedReadIsRefusedAndTheConnectionSurvives) {
  // 257 written pages of 4 KiB make a read reply larger than
  // kMaxFramePayload. The server refuses the frame before touching the
  // device and keeps serving; 256 pages fit exactly.
  constexpr uint32_t kPage = 4096;
  constexpr uint32_t kPages = 257;
  static_assert((kPages - 1) * kPage == kMaxFramePayload);
  SocketHarness harness(27, /*workers=*/0, kPage);
  {
    SocketClient client(harness.client_fd);
    auto handle = client.OpenPlacement({Durability::kDegradable});
    ASSERT_TRUE(handle.ok());
    for (uint64_t lba = 0; lba < kPages; ++lba) {
      ASSERT_TRUE(client.Write(lba, FillPage(lba, 1, kPage), handle.value()).ok()) << lba;
    }
    const uint64_t submitted = harness.service->Stats().submitted;

    auto oversized = client.ReadBatch(0, kPages, handle.value());
    EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument)
        << oversized.status().ToString();
    EXPECT_EQ(harness.service->Stats().submitted, submitted);  // the device never saw it

    auto fits = client.ReadBatch(1, kPages - 1, handle.value());
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    ASSERT_EQ(fits.value().size(), kPages - 1);
    EXPECT_EQ(harness.service->Stats().submitted, submitted + kPages - 1);
  }
}

TEST(SosdServerTest, PeerGoneBeforeReplyEndsTheConnection) {
  // The client sends an 8-page read and hangs up before the reply. The
  // server's reply write fails with EPIPE and ServeConnection returns; a
  // plain write() would instead raise SIGPIPE and kill this process.
  SimClock clock;
  SosDevice device(SmallDeviceConfig(25), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  SosdServer server(&service);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame read;
  read.type = FrameType::kRead;
  read.count = 8;
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, read);
  ASSERT_EQ(::write(fds[0], bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  ::close(fds[0]);
  EXPECT_EQ(server.ServeConnection(fds[1]), 0u);  // the one frame got no reply out
  ::close(fds[1]);
  EXPECT_EQ(service.Stats().completed, 8u);
}

TEST(SosdServerTest, MalformedFrameGetsErrorReplyAndDisconnect) {
  SocketHarness harness(23);
  std::vector<uint8_t> garbage(64, 0x5a);  // wrong magic
  ASSERT_EQ(::write(harness.client_fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with one kInvalidArgument error reply, then closes.
  std::vector<uint8_t> buffer;
  uint8_t chunk[256];
  for (;;) {
    const ssize_t n = ::read(harness.client_fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
  size_t consumed = 0;
  auto reply = ParseFrame(buffer, &consumed);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().reply);
  EXPECT_EQ(reply.value().status, StatusCode::kInvalidArgument);
  ::close(harness.client_fd);
}

TEST(SosdServerTest, FuzzedStreamsNeverWedgeTheServer) {
  // Adversarial connection fuzz: each round opens a fresh socketpair, sends
  // a seeded mix of garbage and corrupted frames, and the server must
  // terminate the connection (never hang, never crash).
  Rng rng(DeriveSeed({0x736f636bull /* "sock" */}));
  SimClock clock;
  SosDevice device(SmallDeviceConfig(24), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  SosdServer server(&service);

  Frame valid;
  valid.type = FrameType::kWrite;
  valid.payload.assign(16, 1);
  std::vector<uint8_t> seedbytes;
  AppendFrame(seedbytes, valid);

  for (int round = 0; round < 40; ++round) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread server_thread([&server, fd = fds[1]] {
      server.ServeConnection(fd);
      ::close(fd);
    });
    std::vector<uint8_t> bytes = seedbytes;
    const size_t flips = 1 + rng.NextBounded(6);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextU64() % 255);
    }
    IgnoreResult(::write(fds[0], bytes.data(), bytes.size()));
    ::shutdown(fds[0], SHUT_WR);
    // Drain whatever the server replies until it closes its end.
    uint8_t sink[256];
    while (::read(fds[0], sink, sizeof(sink)) > 0) {
    }
    ::close(fds[0]);
    server_thread.join();
  }
}

}  // namespace
}  // namespace sos::serve
