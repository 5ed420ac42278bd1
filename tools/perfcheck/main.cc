// Copyright (c) 2026 The SOS Authors. MIT License.
//
// perfcheck: the hot-path performance and behaviour regression gate.
//
//   perfcheck [--time-reps=N] [--out=BENCH_micro.json]
//             [--golden=tests/golden/BENCH_micro_checksums.json]
//             [--update-golden=1]
//
// Runs every inner-loop microbench (tools/perfcheck/microbench.h): L2P
// lookup/update, phenomenological and voltage-model RBER evaluation, ECC
// decode, bit-flip application, NAND reads, GC churn through the FTL's one
// relocation loop, end-to-end lifetime ops, and classifier scoring. Each
// of the --time-reps repetitions is timed on its own; BENCH_micro.json
// carries per bench {ops per rep, min / median / MAD of ns/op over the reps,
// ops/s at the median, workload checksum} plus the flat-vs-map L2P speedup
// ratio, and perfcheck exits non-zero when
//   - any workload checksum differs from the committed golden (simulated
//     behaviour drifted), or
//   - an implementation pair (flat L2P vs reference map, single-pass vs
//     cached-feature scoring) stops producing identical checksums.
// Timing numbers are reported, never gated. CI runs this as a ctest and
// uploads BENCH_micro.json as an artifact; see DESIGN.md §11.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "tools/perfcheck/microbench.h"

namespace sos::perfcheck {
namespace {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

struct BenchRow {
  std::string name;
  uint64_t checksum = 0;
  uint64_t ops = 0;                // operations in one repetition
  std::vector<double> ns_per_op;  // one entry per timed repetition

  double MinNsPerOp() const {
    return ns_per_op.empty() ? 0.0 : *std::min_element(ns_per_op.begin(), ns_per_op.end());
  }
  double MedianNsPerOp() const { return Median(ns_per_op); }
  // Median absolute deviation from the median: the spread of the reps.
  double MadNsPerOp() const {
    const double median = MedianNsPerOp();
    std::vector<double> deviations;
    deviations.reserve(ns_per_op.size());
    for (double v : ns_per_op) {
      deviations.push_back(std::abs(v - median));
    }
    return Median(std::move(deviations));
  }
  double OpsPerS() const {
    const double median = MedianNsPerOp();
    return median > 0.0 ? 1e9 / median : 0.0;
  }
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

const BenchRow* FindRow(const std::vector<BenchRow>& rows, const std::string& name) {
  for (const BenchRow& row : rows) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

// Canonical golden-file content: checksums only, in bench order. Golden
// comparison is a byte compare against this exact rendering.
std::string GoldenJson(const std::vector<BenchRow>& rows) {
  std::string out = "{\n  \"schema\": 1,\n  \"checksums\": {\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out += "    \"" + rows[i].name + "\": \"" + Hex(rows[i].checksum) + "\"";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

std::string ReportJson(const std::vector<BenchRow>& rows, size_t time_reps) {
  std::string out = "{\n  \"schema\": 1,\n";
  out += "  \"time_reps\": " + std::to_string(time_reps) + ",\n";
  out += "  \"benches\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    out += "    {\"name\": \"" + row.name + "\", \"ops\": " + std::to_string(row.ops) +
           ", \"ns_per_op\": " + FormatDouble(row.MedianNsPerOp(), 2) +
           ", \"ns_per_op_min\": " + FormatDouble(row.MinNsPerOp(), 2) +
           ", \"ns_per_op_mad\": " + FormatDouble(row.MadNsPerOp(), 2) +
           ", \"ops_per_s\": " + FormatDouble(row.OpsPerS(), 0) + ", \"checksum\": \"" +
           Hex(row.checksum) + "\"}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"speedups\": {\n";
  const std::vector<SpeedupPair> pairs = Speedups();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const BenchRow* base = FindRow(rows, pairs[i].baseline);
    const BenchRow* fast = FindRow(rows, pairs[i].fast);
    const double ratio =
        (base != nullptr && fast != nullptr && fast->MedianNsPerOp() > 0.0)
            ? base->MedianNsPerOp() / fast->MedianNsPerOp()
            : 0.0;
    out += "    \"" + pairs[i].label + "\": " + FormatDouble(ratio, 2);
    out += i + 1 < pairs.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int Run(int argc, char** argv) {
  FlagSet flags("perfcheck",
                "Inner-loop microbenches with golden workload checksums (DESIGN.md §11)");
  std::string* out_path = flags.Path("out", "write BENCH_micro.json here (default BENCH_micro.json)");
  std::string* golden_path = flags.Path("golden", "golden checksum file to compare against");
  size_t* update_golden = flags.Size("update-golden", 0, "1 = rewrite --golden from this run");
  size_t* time_reps = flags.Size("time-reps", 3, "timed repetitions per bench (each timed alone)");
  flags.ParseOrDie(argc, argv);

  std::vector<MicroBench> benches = AllBenches();
  std::vector<BenchRow> rows;
  rows.reserve(benches.size());
  std::printf("perfcheck: %zu benches, %zu timing rep(s)\n\n", benches.size(), *time_reps);
  std::printf("%-20s %12s %10s %10s %10s %14s  %s\n", "bench", "ops/rep", "min ns/op",
              "med ns/op", "mad ns/op", "ops/s", "checksum");
  for (MicroBench& bench : benches) {
    BenchRow row;
    row.name = bench.name;
    row.checksum = bench.checksum();
    for (size_t rep = 0; rep < *time_reps; ++rep) {
      WallTimer timer;
      row.ops = bench.run();
      const double seconds = timer.Seconds();
      row.ns_per_op.push_back(row.ops > 0 ? seconds * 1e9 / static_cast<double>(row.ops) : 0.0);
    }
    std::printf("%-20s %12llu %10.2f %10.2f %10.2f %14.0f  %s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.ops), row.MinNsPerOp(), row.MedianNsPerOp(),
                row.MadNsPerOp(), row.OpsPerS(), Hex(row.checksum).c_str());
    rows.push_back(std::move(row));
  }

  int failures = 0;
  for (const EqualPair& pair : MustMatch()) {
    const BenchRow* a = FindRow(rows, pair.a);
    const BenchRow* b = FindRow(rows, pair.b);
    if (a == nullptr || b == nullptr || a->checksum != b->checksum) {
      std::fprintf(stderr,
                   "FAIL: %s and %s ran the same simulated workload but their checksums "
                   "differ (%s vs %s) -- the implementations are no longer equivalent\n",
                   pair.a.c_str(), pair.b.c_str(), a != nullptr ? Hex(a->checksum).c_str() : "?",
                   b != nullptr ? Hex(b->checksum).c_str() : "?");
      ++failures;
    }
  }

  std::printf("\nspeedups (baseline median ns/op / optimized median ns/op):\n");
  for (const SpeedupPair& pair : Speedups()) {
    const BenchRow* base = FindRow(rows, pair.baseline);
    const BenchRow* fast = FindRow(rows, pair.fast);
    if (base != nullptr && fast != nullptr && fast->MedianNsPerOp() > 0.0) {
      std::printf("  %-14s %6.2fx  (%s %.2f ns/op -> %s %.2f ns/op)\n", pair.label.c_str(),
                  base->MedianNsPerOp() / fast->MedianNsPerOp(), pair.baseline.c_str(),
                  base->MedianNsPerOp(), pair.fast.c_str(), fast->MedianNsPerOp());
    }
  }

  const std::string report_path = out_path->empty() ? "BENCH_micro.json" : *out_path;
  if (Status s = obs::WriteFile(report_path, ReportJson(rows, *time_reps)); !s.ok()) {
    std::fprintf(stderr, "FAIL: writing %s: %s\n", report_path.c_str(), s.ToString().c_str());
    ++failures;
  } else {
    std::printf("\nwrote %s\n", report_path.c_str());
  }

  const std::string golden = GoldenJson(rows);
  if (*update_golden != 0) {
    if (golden_path->empty()) {
      std::fprintf(stderr, "FAIL: --update-golden requires --golden=<path>\n");
      ++failures;
    } else if (Status s = obs::WriteFile(*golden_path, golden); !s.ok()) {
      std::fprintf(stderr, "FAIL: writing %s: %s\n", golden_path->c_str(), s.ToString().c_str());
      ++failures;
    } else {
      std::printf("updated golden %s\n", golden_path->c_str());
    }
  } else if (!golden_path->empty()) {
    const std::optional<std::string> committed = ReadFileToString(*golden_path);
    if (!committed.has_value()) {
      std::fprintf(stderr, "FAIL: cannot read golden %s\n", golden_path->c_str());
      ++failures;
    } else if (*committed != golden) {
      std::fprintf(stderr,
                   "FAIL: workload checksums drifted from %s -- simulated behaviour changed.\n"
                   "If the change is intentional and understood, regenerate with "
                   "--update-golden=1 and explain the drift in the commit.\n--- committed "
                   "---\n%s--- this run ---\n%s",
                   golden_path->c_str(), committed->c_str(), golden.c_str());
      ++failures;
    } else {
      std::printf("golden checksums match %s\n", golden_path->c_str());
    }
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sos::perfcheck

int main(int argc, char** argv) { return sos::perfcheck::Run(argc, argv); }
