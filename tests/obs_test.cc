// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit tests for the telemetry layer (src/obs): metric registration order,
// histogram bucket edges, snapshot replay, JSON stability, and the trace
// sink's keep-first overflow policy. The cross-thread determinism of the
// *exports* is determinism_test's job; this file pins the local semantics
// those guarantees are built from.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/fleet/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sos::obs {
namespace {

TEST(MetricRegistryTest, ExportOrderIsRegistrationOrder) {
  MetricRegistry registry;
  registry.SetCounter("z.last_alphabetically_first_registered", 1);
  registry.SetGauge("a.first_alphabetically_last_registered", 2.0);
  registry.SetCounter("m.middle", 3);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "z.last_alphabetically_first_registered");
  EXPECT_EQ(snapshot[1].name, "a.first_alphabetically_last_registered");
  EXPECT_EQ(snapshot[2].name, "m.middle");

  // Re-setting an existing name updates in place; it must not re-order.
  registry.SetCounter("z.last_alphabetically_first_registered", 10);
  const MetricsSnapshot again = registry.Snapshot();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0].name, "z.last_alphabetically_first_registered");
  EXPECT_EQ(again[0].counter, 10u);
}

TEST(MetricRegistryTest, CountersAndGaugesRoundTrip) {
  MetricRegistry registry;
  registry.SetCounter("c", 7);
  registry.SetGauge("g", 1.0);
  registry.SetCounter("c", 10);
  registry.SetGauge("g", 2.5);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot[0].counter, 10u);
  EXPECT_EQ(snapshot[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snapshot[1].gauge, 2.5);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  // A sample exactly on a bound lands in that bound's bucket, one below the
  // first bound in bucket 0, and one above the last in the overflow bucket.
  // (fleet_test covers count, sum and merge.)
  const std::vector<double> bounds = {-1.0, 0.0, 0.5, 2.0, 10.0};
  fleet::FleetHistogram h(bounds);
  for (double v : {-5.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.5000001, 2.0, 9.99, 10.0, 10.01, 1e9}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.buckets(), (std::vector<uint64_t>{2, 2, 2, 2, 2, 2}));
}

TEST(HistogramTest, SnapshotReplayPreservesBuckets) {
  fleet::FleetHistogram h({10.0, 100.0});
  h.Observe(5.0);
  h.Observe(75.0);
  h.Observe(1e9);  // overflow
  MetricRegistry source;
  h.ToMetrics(source, "lat");

  // Append copies rows under the prefix; the copy must be
  // indistinguishable from the original.
  MetricRegistry target;
  target.Append(source.Snapshot(), "copy.");
  const MetricsSnapshot snapshot = target.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "copy.lat");
  EXPECT_EQ(snapshot[0].kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot[0].count, 3u);
  EXPECT_EQ(snapshot[0].bounds, h.bounds());
  EXPECT_EQ(snapshot[0].buckets, h.buckets());
  EXPECT_EQ(snapshot[0].sum, fleet::FromMicro(h.micro_sum()));

  // Replayed without a prefix, the row renders to the same JSON bytes.
  MetricRegistry replay;
  replay.Append(source.Snapshot());
  EXPECT_EQ(replay.ToJson(), source.ToJson());
}

TEST(MetricsJsonTest, RenderingIsByteStableAcrossIdenticalRegistries) {
  auto build = [] {
    MetricRegistry registry;
    registry.SetCounter("sim.writes", 42);
    registry.SetGauge("sim.wear", 1.0 / 3.0);  // exercises %.17g
    registry.SetHistogram("sim.lat", {1.0, 2.0}, {0, 1, 0}, 1, 1.5);
    return registry.ToJson();
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"sim.writes\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"histogram\""), std::string::npos);
  // The overflow bucket renders with an "inf" bound.
  EXPECT_NE(a.find("\"le\": \"inf\""), std::string::npos);
}

TEST(TraceSinkTest, KeepsFirstEventsAndCountsDrops) {
  TraceSink sink(2);
  int built = 0;
  const auto emit = [&](SimTimeUs t, const char* type) {
    sink.Emit([&] {
      ++built;
      return TraceEvent{t, type};
    });
  };
  emit(1, "first");
  emit(2, "second");
  emit(3, "dropped");
  emit(4, "dropped");

  // A full sink counts the drop without building the event.
  EXPECT_EQ(built, 2);
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].type, "first");
  EXPECT_EQ(sink.events()[1].type, "second");
  EXPECT_EQ(sink.dropped(), 2u);

  const std::string jsonl = TraceToJsonl(sink.events(), sink.dropped());
  EXPECT_NE(jsonl.find("\"type\": \"trace.dropped\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\": 2"), std::string::npos);
}

// TakeEvents hands the recorded events over and closes the sink, so what
// was taken stays the first events of the sink's life.
TEST(TraceSinkTest, TakeEventsMovesTheEventsOutAndClosesTheSink) {
  TraceSink sink(4);
  sink.Emit([] { return TraceEvent{1, "a"}.WithU64("n", 1); });
  sink.Emit([] { return TraceEvent{2, "b"}; });
  const std::vector<TraceEvent> taken = sink.TakeEvents();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(TraceEventToJson(taken[0]), "{\"t_us\": 1, \"type\": \"a\", \"n\": 1}");
  EXPECT_EQ(taken[1].type, "b");
  EXPECT_TRUE(sink.events().empty());

  bool built = false;
  sink.Emit([&] {
    built = true;
    return TraceEvent{3, "late"};
  });
  EXPECT_FALSE(built);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceEventTest, FieldsRenderInInsertionOrder) {
  TraceEvent event{123, "ftl.gc.victim"};
  event.With("pool", "SYS").WithU64("block", 7).WithF64("score", 0.5);
  const std::string json = TraceEventToJson(event);
  EXPECT_EQ(json,
            "{\"t_us\": 123, \"type\": \"ftl.gc.victim\", \"pool\": \"SYS\", "
            "\"block\": 7, \"score\": 0.5}");
}

// Exact bytes of every field helper; the JSONL export is an artifact, so a
// change of representation must not move one of them.
TEST(TraceEventTest, HelpersRenderExactJson) {
  const auto line = [](const TraceEvent& event) { return TraceEventToJson(event); };
  EXPECT_EQ(line(TraceEvent{0, "t"}), "{\"t_us\": 0, \"type\": \"t\"}");
  EXPECT_EQ(line(TraceEvent{0, "t"}.With("k", "v")),
            "{\"t_us\": 0, \"type\": \"t\", \"k\": \"v\"}");
  EXPECT_EQ(line(TraceEvent{0, "t"}.With("k", "")), "{\"t_us\": 0, \"type\": \"t\", \"k\": \"\"}");
  EXPECT_EQ(line(TraceEvent{UINT64_MAX, "t"}.WithU64("u", 0).WithU64("max", UINT64_MAX)),
            "{\"t_us\": 18446744073709551615, \"type\": \"t\", \"u\": 0, "
            "\"max\": 18446744073709551615}");
  EXPECT_EQ(line(TraceEvent{2, "t"}
                     .WithF64("a", 0.1)
                     .WithF64("b", 1e-300)
                     .WithF64("c", -0.0)
                     .WithF64("d", 1.5e300)),
            "{\"t_us\": 2, \"type\": \"t\", \"a\": 0.10000000000000001, \"b\": 1e-300, "
            "\"c\": -0, \"d\": 1.5000000000000001e+300}");
  // Non-finite doubles are not JSON numbers: they render as strings.
  EXPECT_EQ(line(TraceEvent{3, "t"}
                     .WithF64("nan", std::numeric_limits<double>::quiet_NaN())
                     .WithF64("inf", std::numeric_limits<double>::infinity())
                     .WithF64("ninf", -std::numeric_limits<double>::infinity())),
            "{\"t_us\": 3, \"type\": \"t\", \"nan\": \"nan\", \"inf\": \"inf\", "
            "\"ninf\": \"-inf\"}");
  // Quotes, backslashes and control characters are escaped in the type, in
  // keys and in values.
  EXPECT_EQ(line(TraceEvent{4, "a\"b"}.With("k\"\\\n", "v\t\x01\"\\")),
            "{\"t_us\": 4, \"type\": \"a\\\"b\", \"k\\\"\\\\\\n\": \"v\\t\\u0001\\\"\\\\\"}");
}

// With() is the string helper: its value is quoted whatever its shape, so a
// date, a version or a stray sign can never come out as a bare (invalid)
// JSON token. Numbers go through WithU64/WithF64.
TEST(TraceEventTest, StringValuesAreAlwaysQuoted) {
  TraceEvent event{5, "t"};
  event.With("date", "2024-01-01")
      .With("version", "1.2.3")
      .With("signs", "--1")
      .With("exp", "1e")
      .With("number", "42");
  EXPECT_EQ(TraceEventToJson(event),
            "{\"t_us\": 5, \"type\": \"t\", \"date\": \"2024-01-01\", \"version\": \"1.2.3\", "
            "\"signs\": \"--1\", \"exp\": \"1e\", \"number\": \"42\"}");
}

TEST(TraceEventTest, EqualityComparesTypeTimeAndFields) {
  const auto make = [](SimTimeUs t) {
    TraceEvent event{t, "ftl.migrate"};
    event.WithU64("lba", 3).With("pool", "SPARE");
    return event;
  };
  TraceEvent extra = make(7);
  extra.WithU64("extra", 1);
  TraceEvent reordered{7, "ftl.migrate"};
  reordered.With("pool", "SPARE").WithU64("lba", 3);
  TraceEvent retyped{7, "ftl.refresh"};
  retyped.WithU64("lba", 3).With("pool", "SPARE");
  EXPECT_TRUE(make(7) == make(7));
  EXPECT_FALSE(make(7) == make(8));
  EXPECT_FALSE(make(7) == extra);
  EXPECT_FALSE(make(7) == reordered);
  EXPECT_FALSE(make(7) == retyped);
}

}  // namespace
}  // namespace sos::obs
