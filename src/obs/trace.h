// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Bounded, deterministic event trace (DESIGN.md §9).
//
// A TraceSink records discrete simulator events -- GC victim picks, pool
// migrations, block retirement/resuscitation, auto-delete trims -- as a
// bounded stream rendered to JSONL. Fields are *ordered* (insertion order =
// export order) so a trace line never depends on hash order, and each is
// rendered to its JSONL bytes when it is added: an event stores one string
// of fields, not a key/value list. Timestamps are simulated time only;
// components stamp events with SimClock::now() at the emit site.
//
// Overflow policy: keep-first / drop-newest. Once `capacity` events are
// buffered, further Emit() calls only bump the dropped counter, without
// building the event. The first N events of a run are therefore identical no
// matter how much pressure later phases generate -- the bounded trace itself
// stays deterministic.

#ifndef SOS_SRC_OBS_TRACE_H_
#define SOS_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace sos::obs {

// One discrete simulator event. `type` follows the metric naming scheme
// (`layer.component.event`, e.g. "ftl.gc.victim"); fields render in
// insertion order.
class TraceEvent {
 public:
  TraceEvent() = default;
  TraceEvent(SimTimeUs t, std::string event_type) : t_us(t), type(std::move(event_type)) {}

  SimTimeUs t_us = 0;
  std::string type;

  // Equal time, type, and fields in the same order with the same rendering.
  bool operator==(const TraceEvent& other) const = default;

  // Field helpers render deterministically and return *this for chaining at
  // the emit site. With() always quotes its (escaped) value; WithU64 renders
  // a bare decimal; WithF64 renders %.17g bare when finite and quoted
  // ("nan", "inf", "-inf") otherwise, since JSON has no such numbers.
  TraceEvent& With(const std::string& key, const std::string& value);
  TraceEvent& WithU64(const std::string& key, uint64_t value);
  TraceEvent& WithF64(const std::string& key, double value);

  // The fields exactly as TraceEventToJson writes them: `, "key": value`
  // per field, in insertion order ("" for an event without fields).
  const std::string& fields_json() const { return fields_; }

 private:
  // Appends `, "key": ` -- the field's bytes up to its value.
  void AppendKey(const std::string& key);

  std::string fields_;
};

// Bounded collector for TraceEvents. Not thread-safe by design: each worker
// owns its sink and results carry the recorded events across threads.
class TraceSink {
 public:
  // `capacity` bounds the number of retained events (see overflow policy
  // above). Defaults generously for a full LifetimeSim run.
  explicit TraceSink(size_t capacity = kDefaultCapacity);

  // Records the event `build()` returns if the sink has room, else counts it
  // as dropped without calling `build`: a full sink (fleet devices run with
  // capacity 0) costs an emit site no formatting or allocation.
  template <typename Build>
    requires std::is_invocable_r_v<TraceEvent, Build&>
  void Emit(Build&& build) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(build());
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  // Hands the recorded events to the caller without copying them, leaving
  // the sink empty and closed: later Emit() calls only count as dropped, so
  // the taken events stay the first ones of the sink's life. A run calls it
  // once, when its trace moves into its result.
  std::vector<TraceEvent> TakeEvents();
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }

  static constexpr size_t kDefaultCapacity = 65536;

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

// One JSONL line (no trailing newline): {"t_us": ..., "type": "...", k: v, ...}.
std::string TraceEventToJson(const TraceEvent& event);

// All events, one JSON object per line, newline-terminated. A final
// "trace.dropped" summary line records the overflow count when non-zero.
std::string TraceToJsonl(const std::vector<TraceEvent>& events, uint64_t dropped);

}  // namespace sos::obs

#endif  // SOS_SRC_OBS_TRACE_H_
