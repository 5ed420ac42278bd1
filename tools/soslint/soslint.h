// Copyright (c) 2026 The SOS Authors. MIT License.
//
// soslint: project-specific static analysis for the SOS tree.
//
// The repo's value is bit-exact reproduction of the paper's numbers, so the
// lint rules target the ways past PRs nearly lost that property:
// nondeterminism sneaking into output paths, and silently dropped Status
// values (the exact accounting failure SOS itself models). v2 adds a
// project-wide symbol index so both failure modes are caught even when they
// span translation units: a fallible call laundered through a wrapper
// declared in another file, a thread-pool lambda mutating shared state, a
// bare `operator<<(double)` feeding a golden file.
//
// Rules (see DESIGN.md §8 for the full rationale table):
//   R1  No iteration over std::unordered_map/std::unordered_set. Hash-order
//       iteration feeding stdout (printf/Table/stream) or accumulating into
//       ordered output is nondeterministic across standard libraries; even
//       order-insensitive uses must carry a justification so refactors that
//       add a sink to the loop body get re-reviewed.
//   R2  No ambient randomness or wall-clock time (std::rand, srand, ::time,
//       std::random_device, std::chrono::system_clock, gettimeofday, ...)
//       outside src/common/rng.* and src/common/sim_clock.h. All entropy
//       must flow from explicit seeds; all time from SimClock.
//   R3  Project includes use full repository paths (#include "src/...") and
//       header guards follow SOS_<PATH>_H_.
//   R4  No assert() whose argument contains a side effect (++/--/assignment):
//       the tree keeps assertions on in optimized builds today, but a future
//       NDEBUG build must not change simulation results.
//   R5  Escape-hatch hygiene: a comment `soslint:allow(R1) keys sorted below`
//       on the violating line or the line above suppresses the named rule
//       there. The reason text is mandatory, and naming an unknown rule is
//       itself a violation.
//   R6  On recovery/fault paths (src/fault, src/ftl, src/sos) the Status of
//       Recover*/DropBadBlock/GateOp must not be swallowed: no bare calls
//       and no (void)-casts. [[nodiscard]] catches the former at compile
//       time; the lint also catches the (void) laundering and survives a
//       dropped attribute. IgnoreResult(...) is the sanctioned waiver.
//   R7  Cross-TU Status propagation. Pass 1 indexes every function in the
//       tree whose return type is Status or Result<T>; pass 2 requires the
//       result of each call to an indexed function to reach a sink: return,
//       an argument position, a condition, a checked variable (one that is
//       read again before its scope closes), or IgnoreResult(...). Catches
//       bare calls and (void)-casts even when the callee lives in another
//       file and has lost its [[nodiscard]], and catches `Status s = F();`
//       where `s` is never looked at again.
//   R8  Shared-mutable-capture race heuristic. A lambda handed to
//       ThreadPool::Submit / ParallelFor / ParallelMap that writes through a
//       by-reference capture must either write a per-index slot (an element
//       indexed by a lambda parameter, the ParallelMap contract), hold a
//       lock / use atomics in the body, or carry soslint:allow(R8). This
//       covers the bench drivers and one-shot tools TSan never runs.
//       Exemption: mutating calls through an identifier declared (anywhere
//       in the tree) with an internally synchronized type -- a class whose
//       body holds a std::mutex / condition_variable / atomic member, e.g.
//       serve::AsyncBlockService, whose Submit any thread may call -- are
//       the sanctioned cross-thread hand-off idiom and are not flagged.
//   R9  Golden-output float stability. Doubles reaching textual output must
//       go through fixed-precision formatting (snprintf/%.*f or the project
//       formatters FormatDouble/FormatPercent/FormatBytes/FormatJsonDouble)
//       -- never bare `operator<<(double)` or std::to_string(double), whose
//       locale and shortest-round-trip behavior can move golden bytes
//       between toolchains. Pass 1 indexes double-typed names tree-wide so
//       `os << stats.mean_us` is caught without local type information.
//       tests/ is out of scope (gtest failure messages are not golden
//       bytes).
//   R10 Unit hygiene. No raw power-of-two / power-of-ten unit literals
//       (1024, 1048576, 1000000, ...) outside src/common/units.h; no mixing
//       of binary kGiB-family and decimal kGB-family size constants, or
//       *_us and *_days quantities, inside one statement without an explicit
//       units.h conversion helper (BytesTo*, UsToDays, kUsPerDay, ...).
//
// The linter is a token-level analysis (comments/strings stripped, operators
// lexed as single tokens) plus a project-wide two-pass symbol index and a
// lightweight intra-procedural flow pass -- not a full parser: cheap enough
// to run as a ctest test on every build (whole tree in well under a second),
// strict enough that violations need a human-visible annotation rather than
// luck to pass.
//
// Suppression. The inline allow comment described under R5 is the one way
// to accept a diagnostic: the justification sits next to the code it
// excuses, and every other diagnostic fails the build.

#ifndef SOS_TOOLS_SOSLINT_SOSLINT_H_
#define SOS_TOOLS_SOSLINT_SOSLINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace sos::lint {

struct SourceFile {
  std::string path;  // repo-relative, '/'-separated (e.g. "src/ftl/ftl.cc")
  std::string content;
};

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;  // "R1".."R10"
  std::string message;

  bool operator==(const Diagnostic& other) const = default;
};

// ---------------------------------------------------------------------------
// Pass 1: the project-wide symbol index. Built once over every file so pass 2
// can reason about declarations it cannot see: a fallible function declared
// in a header, an unordered member iterated in another TU, a double-typed
// struct field streamed three directories away.
// ---------------------------------------------------------------------------

struct FallibleFn {
  std::string file;         // where the signature was first seen
  int line = 0;
  std::string return_type;  // "Status" or "Result"
};

struct SymbolIndex {
  // Names of variables/members declared anywhere with an unordered container
  // type (R1).
  std::set<std::string> unordered_names;
  // Function name -> first-seen signature, for every function returning
  // Status or Result<T> (R7). Keyed by unqualified name: the lint has no
  // overload resolution, which is exactly what makes it cross-TU.
  std::map<std::string, FallibleFn> fallible_fns;
  // Names (variables, members, and functions) declared anywhere with type
  // double/float (R9). Single-character names are skipped as noise.
  std::set<std::string> double_idents;
  // Class/struct names whose body declares a std::mutex /
  // condition_variable / atomic member -- internally synchronized types
  // (R8). Built in a first sub-pass so the second can resolve variables.
  std::set<std::string> synchronized_types;
  // Names of variables/members declared anywhere with a synchronized type.
  // R8 exempts mutating calls through these: the hand-off idiom of client
  // threads calling `AsyncBlockService::Submit` is safe exactly because the
  // service locks internally -- the synchronization the rule wants is
  // inside the callee, not at the call site.
  std::set<std::string> sync_idents;
};

SymbolIndex BuildIndex(const std::vector<SourceFile>& files);

// Pass 2: lints one file against all rules, consulting the tree-wide index.
std::vector<Diagnostic> LintFile(const SourceFile& file, const SymbolIndex& index);

// Convenience: both passes over a whole tree; diagnostics sorted by
// (file, line, rule) for deterministic output.
std::vector<Diagnostic> LintTree(const std::vector<SourceFile>& files);

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

// "src/ftl/ftl.cc:479: [R1] ..." -- the format editors and CI understand.
std::string FormatDiagnostic(const Diagnostic& diag);

// Machine-readable report: {"schema":1,"files_scanned":N,"diagnostics":[...]}
// with diagnostics in the same (file, line, rule) order as the text output.
std::string FormatReportJson(const std::vector<Diagnostic>& diags, size_t files_scanned);

}  // namespace sos::lint

#endif  // SOS_TOOLS_SOSLINT_SOSLINT_H_
