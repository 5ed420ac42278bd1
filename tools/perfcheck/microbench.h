// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Inner-loop microbenchmarks for the hot-path regression gate.
//
// Each MicroBench pairs a *timed* workload with a *checksum* of everything
// the workload simulates. The checksum is the gate: it folds every observable
// value the workload produces (statuses, error counts, RBER samples, clock
// readings, stats counters) through DeriveSeed, so any change to simulated
// behaviour -- a reordered NAND op, a different error sample, a stats drift
// -- changes the checksum. Checksums are compared against the committed
// golden (tests/golden/BENCH_micro_checksums.json); timing numbers are
// reported but never gated (they vary by machine).
//
// Pairs of benches that run the same simulated workload through two
// implementations (flat L2P vs. the reference map; single-pass vs.
// cached-feature scoring) must produce *equal* checksums -- that equality is
// asserted on every run, making perfcheck an equivalence check as well as a
// perf probe. See DESIGN.md §11 for how to read BENCH_micro.json.

#ifndef SOS_TOOLS_PERFCHECK_MICROBENCH_H_
#define SOS_TOOLS_PERFCHECK_MICROBENCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sos::perfcheck {

struct MicroBench {
  std::string name;
  // Runs the canonical workload once from fresh state and returns its fold
  // checksum. Deterministic and iteration-count independent: equal bytes on
  // every invocation, on every machine.
  std::function<uint64_t()> checksum;
  // Runs one timing repetition of the canonical workload from fresh state
  // and returns the number of operations performed, for ns/op math.
  std::function<uint64_t()> run;
};

// The full bench list, in canonical (golden-file) order.
std::vector<MicroBench> AllBenches();

// Bench pairs that push the same simulated workload through two
// implementations; their checksums must match exactly or perfcheck fails.
struct EqualPair {
  std::string a;
  std::string b;
};
std::vector<EqualPair> MustMatch();

// Speedup pairs reported in BENCH_micro.json: median ns/op(baseline) /
// median ns/op(fast).
struct SpeedupPair {
  std::string label;
  std::string baseline;
  std::string fast;
};
std::vector<SpeedupPair> Speedups();

}  // namespace sos::perfcheck

#endif  // SOS_TOOLS_PERFCHECK_MICROBENCH_H_
