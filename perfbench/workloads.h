// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The benchmark's three workloads (see perfbench/README.md):
//   lifetime_mobile -- E4 wear-gap LifetimeSims, one seed after another;
//   fleet_mix       -- RunFleet over one fixed population, one device per call;
//   serve_socket    -- closed-loop clients over AF_UNIX socketpairs into an
//                      in-process SosdServer on an async AsyncBlockService.
// Each run measures for a wall-clock budget, checks its outputs, and returns
// every metric it measured. With `trace` set it instead produces the
// per-layer numbers (mirror run for lifetime/fleet, socket + in-process
// replay for serve).

#ifndef SOS_PERFBENCH_WORKLOADS_H_
#define SOS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sos/lifetime_sim.h"

namespace sos::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny configurations for tests: every metric is still produced and every
  // check still runs, in about a second.
  bool short_run = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;        // human-readable context lines
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sim_digest = 0;  // digest of simulated outcomes (reported, not gated)

  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  void Fail(const std::string& why) { check_failures.push_back(why); }
  bool correct() const { return check_failures.empty(); }
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Unknown names produce a report with a check failure.
Report RunWorkload(const RunOptions& options);

// The E4 bench_lifetime_gap configuration (SOS device, intensity 1.0) for one
// simulation seed; `short_run` shortens it for tests.
LifetimeSimConfig LifetimeGapConfig(uint64_t sim_seed, bool short_run);

}  // namespace sos::perfbench

#endif  // SOS_PERFBENCH_WORKLOADS_H_
