// Copyright (c) 2026 The SOS Authors. MIT License.
//
// A traced mirror of LifetimeSim, built only from public pieces of src/.
//
// RunMirror() constructs the same stack LifetimeSim does (device, placement
// directory, extent file system, workload generator, corpus + logistic
// training, the three daemons) and replays LifetimeSim::Run's day loop, but
// with the device behind a TimedBlockDevice, the classifiers behind
// TimedClassifiers, and a span around every other layer call. The traced run
// trusts its per-layer numbers only when the mirror's SimOutcome equals the
// untraced LifetimeSim's exactly; SameOutcome() is that check.
//
// One LifetimeSim detail is not mirrored: the coarse health-state tracker,
// which only emits trace events and never feeds back into the simulation.

#ifndef SOS_PERFBENCH_MIRROR_H_
#define SOS_PERFBENCH_MIRROR_H_

#include <cstdint>
#include <vector>

#include "perfbench/layers.h"
#include "src/flash/nand_device.h"
#include "src/sos/lifetime_sim.h"

namespace sos::perfbench {

// The simulated outcome of one lifetime run, flattened to 64-bit words
// (doubles by bit pattern) so two runs compare exactly and digest cheaply.
// Covers the FTL counters, final wear and capacity, file-system outcomes,
// daemon counters and every periodic DaySample.
struct SimOutcome {
  std::vector<uint64_t> words;

  uint64_t Digest() const;
  bool operator==(const SimOutcome&) const = default;
};

SimOutcome OutcomeOf(const LifetimeResult& result);

struct MirrorRun {
  SimOutcome outcome;
  FtlStats ftl;
  NandStats nand;
  MigrationDaemon::RunStats migration;
  DegradationMonitor::RunStats monitor;
  uint64_t events = 0;  // WorkloadEvents generated
};

// Runs `config` through the mirror, recording spans into `profile` (null
// records nothing). Construction is one kConstruct span, the day loop one
// kRun span.
MirrorRun RunMirror(const LifetimeSimConfig& config, LayerProfile* profile);

}  // namespace sos::perfbench

#endif  // SOS_PERFBENCH_MIRROR_H_
