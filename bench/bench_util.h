// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Shared helpers for the experiment benches. Every bench binary regenerates
// one paper artifact (figure / table / quantitative claim) and prints it as
// an ASCII report; EXPERIMENTS.md records paper-vs-measured for each.
//
// Command lines go through FlagSet (src/common/flag_set.h): unknown flags
// and malformed values are hard errors, so `--jbos=4` cannot silently run a
// bench serially.

#ifndef SOS_BENCH_BENCH_UTIL_H_
#define SOS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/flag_set.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/obs/metrics.h"
#include "src/sos/experiment.h"

namespace sos {

// The standard sweep-bench trio. Declared together so every driver bench
// spells its CLI identically.
struct BenchOptions {
  size_t jobs = 1;          // --jobs=N fans independent sims over N workers
  std::string metrics_out;  // --metrics-out=<file>: batch metrics JSON
  std::string trace_out;    // --trace-out=<file>: batch trace JSONL
};

// Canonical meaning of --jobs=0: "auto", i.e. one worker per hardware
// thread. Resolved at parse time so every consumer (ExperimentDriver, the
// fleet runner, ad-hoc pools) sees the same concrete worker count; negative
// and garbage values never reach here (FlagSet hard-errors on them).
inline size_t ResolveJobs(size_t jobs) { return jobs == 0 ? ThreadPool::DefaultThreads() : jobs; }

// The usage text every bench shows for --jobs; one spelling, one meaning.
inline const char* JobsFlagHelp() {
  return "parallel simulations (0 = auto: one per hardware thread)";
}

// Declares --jobs / --metrics-out / --trace-out on `flags`, parses, and
// returns the values. Exits with usage on any unknown or malformed flag.
// --jobs=0 is resolved to the hardware concurrency (see ResolveJobs).
inline BenchOptions ParseSweepArgs(FlagSet& flags, int argc, char** argv) {
  size_t* jobs = flags.Size("jobs", 1, JobsFlagHelp());
  std::string* metrics_out =
      flags.Path("metrics-out", "write the batch's metrics as JSON to this file");
  std::string* trace_out =
      flags.Path("trace-out", "write the batch's event trace as JSONL to this file");
  flags.ParseOrDie(argc, argv);
  BenchOptions options;
  options.jobs = ResolveJobs(*jobs);
  options.metrics_out = *metrics_out;
  options.trace_out = *trace_out;
  return options;
}

// Writes the batch telemetry exports named by `options`; empty paths are
// features turned off. The bytes depend only on `results` (job order), so
// re-running with any --jobs value reproduces the files exactly. A failed
// write is fatal: a bench asked for an artifact must not exit 0 without it.
inline void ExportBatchTelemetry(const std::vector<LifetimeResult>& results,
                                 const BenchOptions& options) {
  if (!options.metrics_out.empty()) {
    if (Status s = obs::WriteFile(options.metrics_out, BatchMetricsJson(results)); !s.ok()) {
      std::fprintf(stderr, "[bench] --metrics-out: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  if (!options.trace_out.empty()) {
    if (Status s = obs::WriteFile(options.trace_out, BatchTraceJsonl(results)); !s.ok()) {
      std::fprintf(stderr, "[bench] --trace-out: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
}

// Wall-clock timer for speedup reporting.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Prints the parallel-run summary to *stderr*: timing is machine-dependent,
// and keeping it off stdout is what lets `bench --jobs=4 > a` and
// `bench --jobs=1 > b` diff clean (the determinism contract).
inline void PrintJobsSummary(size_t jobs, size_t sims, double wall_seconds) {
  std::fprintf(stderr, "[bench] %zu simulation(s), --jobs=%zu, wall %.2fs (%.2f sims/s)\n",
               sims, jobs, wall_seconds,
               wall_seconds > 0.0 ? static_cast<double>(sims) / wall_seconds : 0.0);
}

// Prints the standard experiment banner.
inline void PrintBanner(const char* experiment_id, const char* title, const char* paper_ref) {
  std::printf("================================================================================\n");
  std::printf("%s: %s\n", experiment_id, title);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("================================================================================\n");
}

inline void PrintSection(const char* name) { std::printf("\n--- %s ---\n", name); }

inline void PrintTable(const TextTable& table) { std::printf("%s", table.Render().c_str()); }

inline void PrintClaim(const char* claim, const std::string& measured) {
  std::printf("  paper: %-58s measured: %s\n", claim, measured.c_str());
}

}  // namespace sos

#endif  // SOS_BENCH_BENCH_UTIL_H_
