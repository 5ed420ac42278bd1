// Copyright (c) 2026 The SOS Authors. MIT License.
//
// sosbench: runs one benchmark workload and reports it.
//
//   sosbench --workload <lifetime_mobile|fleet_mix|serve_socket>
//            [--seed N] [--seconds S] [--trace 0|1] [--short]
//
// Prints human-readable lines (provenance, notes, one `metric` line per
// measured value), then one JSON object as the last line. Exits 1 when any
// output check failed. perfbench/run.py builds this binary and turns its
// report into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

namespace sos::perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "sosbench: %s\nusage: sosbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--short]\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--short") {
      options.short_run = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) {
    Usage("--workload is required");
  }
  if (options.short_run) {
    options.seconds = std::min(options.seconds, 0.3);
  }
  return options;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  Report report = RunWorkload(options);
  if (!options.trace) {
    report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# sosbench workload=%s seed=%" PRIu64 " seconds=%s trace=%d short=%d\n",
              options.workload.c_str(), options.seed, Number(options.seconds).c_str(),
              options.trace ? 1 : 0, options.short_run ? 1 : 0);
  std::printf("# build type=%s compiler=%s flags=\"%s\" asserts=%s nproc=%u\n", SOS_PB_BUILD_TYPE,
              SOS_PB_COMPILER, SOS_PB_CXX_FLAGS,
#ifdef NDEBUG
              "off",
#else
              "on",
#endif
              nproc);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-36s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("sim_digest %016" PRIx64 "\n", report.sim_digest);
  for (const std::string& failure : report.check_failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": " + std::string(report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"sim_digest\": \"";
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, report.sim_digest);
  json += std::string(digest) + "\", \"build\": {\"type\": " + JsonString(SOS_PB_BUILD_TYPE) +
          ", \"compiler\": " + JsonString(SOS_PB_COMPILER) +
          ", \"flags\": " + JsonString(SOS_PB_CXX_FLAGS) + ", \"nproc\": " +
          std::to_string(nproc) + "}, \"checks\": [";
  for (size_t i = 0; i < report.check_failures.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(report.check_failures[i]);
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i > 0 ? ", " : "") + JsonString(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace sos::perfbench

int main(int argc, char** argv) { return sos::perfbench::Main(argc, argv); }
