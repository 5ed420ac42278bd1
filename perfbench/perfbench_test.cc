// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The benchmark's own tests (no framework: the benchmark builds with the
// compiler alone).
//   - Decorators: a mirror run with the timing decorators is outcome-identical
//     to the untraced LifetimeSim, for an SOS seed, a TLC seed, and a fleet
//     draw (memoized RBER, batched relocation).
//   - Short runs: every workload, untraced and traced, passes its checks and
//     reports the full metric set; traced runs report the same names on every
//     workload.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>

#include "perfbench/mirror.h"
#include "perfbench/workloads.h"
#include "src/fleet/archetype.h"

namespace sos::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void MirrorMatches(const std::string& label, const LifetimeSimConfig& config, bool sos) {
  LifetimeSim sim(config);
  const SimOutcome untraced = OutcomeOf(sim.Run());
  LayerProfile profile;
  const int64_t start_ns = NowNs();
  const MirrorRun traced = RunMirror(config, &profile);
  const int64_t wall_ns = NowNs() - start_ns;
  Check(traced.outcome == untraced, label + ": traced mirror outcome equals LifetimeSim");
  Check(RunMirror(config, nullptr).outcome == untraced,
        label + ": untraced mirror outcome equals LifetimeSim");
  Check(profile.of(Layer::kDevice).calls > 0, label + ": device decorator saw calls");
  Check(profile.of(Layer::kWorkload).calls == config.days, label + ": one Day() span per day");
  Check(!sos || profile.of(Layer::kScore).calls > 0,
        label + ": classifier decorator sees the migration daemon's scores");
  // Self times partition the spanned time: together they cover the traced
  // wall time except the untimed teardown.
  Check(profile.SelfSum() <= wall_ns && profile.SelfSum() >= wall_ns * 9 / 10,
        label + ": layer self times cover the traced wall time");
}

void TestDecorators() {
  LifetimeSimConfig sos = LifetimeGapConfig(11, /*short_run=*/false);
  sos.days = 365;
  MirrorMatches("sos seed 11", sos, /*sos=*/true);

  LifetimeSimConfig tlc = LifetimeGapConfig(12, /*short_run=*/false);
  tlc.days = 365;
  tlc.kind = DeviceKind::kTlcBaseline;
  MirrorMatches("tlc seed 12", tlc, /*sos=*/false);

  for (uint64_t index = 0; index < 8; ++index) {
    const LifetimeSimConfig draw = fleet::DrawDevice(fleet::MixSpec{}, 5, index).config;
    MirrorMatches("fleet draw " + std::to_string(index), draw, draw.kind == DeviceKind::kSos);
  }
}

std::set<std::string> Names(const Report& report) {
  std::set<std::string> names;
  for (const Metric& m : report.metrics) {
    names.insert(m.name);
  }
  return names;
}

// The metric names BENCHMARK.json lists under `section` ("end_to_end" or
// "per_layer"), read with a pattern match: the file's layout is fixed by
// the benchmark contract, with per_layer last.
std::set<std::string> SpecNames(const std::string& section) {
  std::ifstream in(SOS_PB_SPEC);
  const std::string spec((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t begin = spec.find("\"" + section + "\"");
  const size_t end = section == "end_to_end" ? spec.find("\"per_layer\"") : spec.size();
  std::set<std::string> names;
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return names;
  }
  const std::string body = spec.substr(begin, end - begin);
  const std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

bool Reports(const Report& report, const std::set<std::string>& wanted,
             const std::string& label) {
  bool all = !wanted.empty();
  for (const std::string& name : wanted) {
    if (report.Find(name) == nullptr) {
      std::printf("%s: missing metric %s\n", label.c_str(), name.c_str());
      all = false;
    }
  }
  return all;
}

void TestShortRuns() {
  const std::set<std::string> end_to_end = SpecNames("end_to_end");
  const std::set<std::string> per_layer = SpecNames("per_layer");
  std::set<std::string> traced_names;
  for (const std::string& workload : WorkloadNames()) {
    RunOptions options;
    options.workload = workload;
    options.seed = 3;
    options.seconds = 0.3;
    options.short_run = true;
    const Report report = RunWorkload(options);
    Check(report.correct(), workload + ": short run passes its checks");
    Check(report.attempted > 0 && report.failed == 0, workload + ": attempted > 0, failed == 0");
    for (const char* name : {"setup_s", "work_per_s", "unit_p50_us", "unit_p99_us"}) {
      const Metric* m = report.Find(name);
      Check(m != nullptr && m->value > 0.0, workload + ": reports nonzero " + name);
    }
    const Metric* errors = report.Find("error_rate");
    Check(errors != nullptr && errors->value == 0.0, workload + ": error_rate is 0");
    // peak_rss_mib is added by sosbench's main, which ctest runs too.
    std::set<std::string> wanted = end_to_end;
    wanted.erase("peak_rss_mib");
    Check(Reports(report, wanted, workload),
          workload + ": reports every end-to-end metric in BENCHMARK.json");

    options.trace = true;
    const Report traced = RunWorkload(options);
    Check(traced.correct(), workload + ": traced short run passes its checks");
    const Metric* mirror_ok = traced.Find("trace.mirror_ok");
    Check(mirror_ok != nullptr && mirror_ok->value == 1.0, workload + ": trace.mirror_ok");
    const Metric* wall = traced.Find("trace.wall_s");
    Check(wall != nullptr && wall->value > 0.0, workload + ": trace.wall_s > 0");
    Check(Reports(traced, per_layer, workload + " traced"),
          workload + ": reports every per-layer metric in BENCHMARK.json");
    if (traced_names.empty()) {
      traced_names = Names(traced);
    }
    Check(Names(traced) == traced_names, workload + ": traced metric names match other workloads");
  }
}

}  // namespace
}  // namespace sos::perfbench

int main() {
  sos::perfbench::TestDecorators();
  sos::perfbench::TestShortRuns();
  if (sos::perfbench::failures > 0) {
    std::printf("%d check(s) failed\n", sos::perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
