// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit tests for tools/soslint: every rule R1..R10 is exercised with a
// fixture that must fire and a near-identical fixture that must pass, so a
// lexer or matcher regression shows up as a test diff, not as lint noise on
// the real tree. Fixtures are raw strings; soslint's own lexer drops raw
// string bodies, so linting this file stays clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/soslint/soslint.h"

namespace sos {
namespace {

using lint::Diagnostic;
using lint::SourceFile;

std::vector<Diagnostic> Lint(const std::string& path, const std::string& content) {
  return lint::LintTree({{path, content}});
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&rule](const Diagnostic& d) { return d.rule == rule; }));
}

// First diagnostic of the named rule (fixtures can also trip unrelated rules,
// e.g. a header fixture with no include guard).
const Diagnostic& FirstOf(const std::vector<Diagnostic>& diags, const std::string& rule) {
  const auto it = std::find_if(diags.begin(), diags.end(),
                               [&rule](const Diagnostic& d) { return d.rule == rule; });
  EXPECT_NE(it, diags.end()) << "no " << rule << " diagnostic";
  return *it;
}

// --- R1: unordered-container iteration -------------------------------------

TEST(SoslintR1Test, FlagsRangeForOverUnorderedMapWithSink) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_map<int, int> counters;
    void Dump() {
      for (const auto& [k, v] : counters) {
        printf("%d %d\n", k, v);
      }
    }
  )cc");
  ASSERT_EQ(CountRule(diags, "R1"), 1);
  EXPECT_EQ(diags[0].line, 4);
  // The sink in the loop body is named in the message.
  EXPECT_NE(diags[0].message.find("printf"), std::string::npos);
}

TEST(SoslintR1Test, FlagsIterationEvenWithoutSink) {
  // Order-insensitive-looking loops are still flagged: a later refactor can
  // add a sink without re-reviewing the loop, so the annotation is mandatory.
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_set<uint64_t> live;
    uint64_t Sum() {
      uint64_t total = 0;
      for (uint64_t v : live) total += v;
      return total;
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 1);
}

TEST(SoslintR1Test, MemberDeclaredInHeaderCaughtInOtherFile) {
  // Two-pass: the container name is collected from the header, the iteration
  // is flagged in the .cc that never spells the type.
  const std::vector<SourceFile> files = {
      {"src/m.h",
       R"cc(
         #ifndef SOS_SRC_M_H_
         #define SOS_SRC_M_H_
         #include "src/common/status.h"
         class M { std::unordered_map<uint64_t, int> table_; };
         #endif  // SOS_SRC_M_H_
       )cc"},
      {"src/m.cc",
       R"cc(
         #include "src/m.h"
         void M::Walk() {
           for (const auto& [k, v] : table_) { Use(k); }
         }
       )cc"},
  };
  const auto diags = lint::LintTree(files);
  ASSERT_EQ(CountRule(diags, "R1"), 1);
  EXPECT_EQ(diags[0].file, "src/m.cc");
}

TEST(SoslintR1Test, IgnoresOrderedContainersAndClassicLoops) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_map<int, int> m;
    std::vector<int> v;
    void F() {
      for (int x : v) Use(x);
      for (size_t i = 0; i < v.size(); ++i) Use(v[i]);
      auto it = m.find(3);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 0);
}

TEST(SoslintR1Test, BracedInitListRangeIsDeterministic) {
  // Iterating a braced list that merely *mentions* an indexed name keeps
  // written order; only the container itself is hash-ordered.
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_set<int> special;
    void F() {
      for (int v : {1, 2, 3}) Use(v, special.count(v));
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 0);
}

TEST(SoslintR1Test, SortedKeysWrapperIsSafeByConstruction) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_map<int, int> m;
    void F() {
      for (const int k : SortedKeys(m)) {
        printf("%d\n", k);
      }
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 0);
}

TEST(SoslintR1Test, AllowDirectiveSuppresses) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_map<int, int> m;
    int F() {
      int sum = 0;
      // soslint:allow(R1) integer sum is commutative
      for (const auto& [k, v] : m) sum += v;
      return sum;
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 0);
  EXPECT_EQ(CountRule(diags, "R5"), 0);
}

// --- R2: ambient entropy / wall-clock time ----------------------------------

TEST(SoslintR2Test, FlagsBannedEntropySources) {
  const auto diags = Lint("src/x.cc", R"cc(
    void F() {
      int a = std::rand();
      std::random_device rd;
      auto t = std::chrono::system_clock::now();
      uint64_t now = ::time(nullptr);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R2"), 4);
}

TEST(SoslintR2Test, BareTimeIdentifierIsNotFlagged) {
  // `time` is only banned as an explicit ::time / std::time call; plain
  // variables named time are everywhere in a simulator.
  const auto diags = Lint("src/x.cc", R"cc(
    void F(uint64_t time) {
      uint64_t arrival_time = time + 5;
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R2"), 0);
}

TEST(SoslintR2Test, RngImplementationIsExempt) {
  const std::string src = R"cc(
    void Seed() { std::random_device rd; }
  )cc";
  EXPECT_EQ(CountRule(Lint("src/common/rng.cc", src), "R2"), 0);
  EXPECT_EQ(CountRule(Lint("src/flash/nand.cc", src), "R2"), 1);
}

TEST(SoslintR2Test, MentionsInCommentsAndStringsAreNotFlagged) {
  const auto diags = Lint("src/x.cc", R"cc(
    // std::rand is banned here; see R2.
    const char* kMsg = "do not call rand()";
  )cc");
  EXPECT_EQ(CountRule(diags, "R2"), 0);
}

// --- R3: include style + header guards ---------------------------------------

TEST(SoslintR3Test, FlagsRelativeQuoteInclude) {
  const auto diags = Lint("src/ftl/ftl.cc", R"cc(
    #include "ftl.h"
    #include "src/common/status.h"
    #include <vector>
  )cc");
  ASSERT_EQ(CountRule(diags, "R3"), 1);
  EXPECT_NE(diags[0].message.find("ftl.h"), std::string::npos);
}

TEST(SoslintR3Test, EnforcesGuardNaming) {
  const std::string good = R"cc(
    #ifndef SOS_SRC_FTL_FTL_H_
    #define SOS_SRC_FTL_FTL_H_
    #endif  // SOS_SRC_FTL_FTL_H_
  )cc";
  EXPECT_EQ(CountRule(Lint("src/ftl/ftl.h", good), "R3"), 0);

  const std::string wrong = R"cc(
    #ifndef FTL_H
    #define FTL_H
    #endif
  )cc";
  const auto diags = Lint("src/ftl/ftl.h", wrong);
  ASSERT_EQ(CountRule(diags, "R3"), 1);
  EXPECT_NE(diags[0].message.find("SOS_SRC_FTL_FTL_H_"), std::string::npos);
}

TEST(SoslintR3Test, FlagsPragmaOnceAndMissingGuard) {
  EXPECT_EQ(CountRule(Lint("src/a.h", "#pragma once\n"), "R3"), 1);
  EXPECT_EQ(CountRule(Lint("src/a.h", "int x;\n"), "R3"), 1);
  // .cc files need no guard.
  EXPECT_EQ(CountRule(Lint("src/a.cc", "int x;\n"), "R3"), 0);
}

// --- R4: assert with side effects --------------------------------------------

TEST(SoslintR4Test, FlagsMutationInsideAssert) {
  const auto diags = Lint("src/x.cc", R"cc(
    void F(int x, int i) {
      assert(x = 1);
      assert(++i < 10);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R4"), 2);
}

TEST(SoslintR4Test, ComparisonsAndCallsAreFine) {
  const auto diags = Lint("src/x.cc", R"cc(
    void F(int a, int b) {
      assert(a == b);
      assert(a != b && a <= b);
      assert(Check(a));
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R4"), 0);
}

// --- R5: the escape hatch itself ---------------------------------------------

TEST(SoslintR5Test, UnknownRuleIsAViolation) {
  const auto diags = Lint("src/x.cc", "// soslint:allow(R42) no such rule\n");
  ASSERT_EQ(CountRule(diags, "R5"), 1);
  EXPECT_NE(diags[0].message.find("R42"), std::string::npos);
}

TEST(SoslintR5Test, MissingReasonIsAViolation) {
  const auto diags = Lint("src/x.cc", "// soslint:allow(R1)\n");
  ASSERT_EQ(CountRule(diags, "R5"), 1);
  EXPECT_NE(diags[0].message.find("reason"), std::string::npos);
}

TEST(SoslintR5Test, AllowOnlySuppressesTheNamedRule) {
  // An R2 allow must not quietly waive the R1 violation on the same line.
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_map<int, int> m;
    void F() {
      // soslint:allow(R2) wrong rule for this loop
      for (const auto& [k, v] : m) Use(k);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 1);
}

TEST(SoslintR5Test, SameLineAllowWorks) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::unordered_set<int> s;
    void F() {
      for (int v : s) Use(v);  // soslint:allow(R1) order-free side effects
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R1"), 0);
}

// --- R6: swallowed recovery Status ------------------------------------------

TEST(SoslintR6Test, FlagsBareRecoverCallOnFaultPath) {
  const auto diags = Lint("src/ftl/x.cc", R"cc(
    void Mount(Ftl& ftl) {
      ftl.RecoverFromFlash();
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R6"), 1);
}

TEST(SoslintR6Test, FlagsVoidCastThroughPointerReceiver) {
  const auto diags = Lint("src/sos/x.cc", R"cc(
    void Mount(SosDevice* dev) {
      (void)dev->RecoverFromPowerLoss();
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R6"), 1);
}

TEST(SoslintR6Test, FlagsBareDropBadBlockAndGateOp) {
  const auto diags = Lint("src/fault/x.cc", R"cc(
    void Handle(Ftl& ftl, FaultInjector& inj) {
      ftl.DropBadBlock(3);
      inj.GateOp(NandOpKind::kProgram, 0, 0);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R6"), 2);
}

TEST(SoslintR6Test, PassesWhenStatusIsBoundOrPropagated) {
  const auto diags = Lint("src/ftl/x.cc", R"cc(
    Status Mount(Ftl& ftl) {
      if (Status s = ftl.RecoverFromFlash(); !s.ok()) {
        return s;
      }
      return ftl.DropBadBlock(3);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R6"), 0);
}

TEST(SoslintR6Test, PassesIgnoreResultWaiverAndDeclaration) {
  const auto diags = Lint("src/ftl/x.cc", R"cc(
    Status Ftl::RecoverFromFlash() { return OkStatus(); }
    void BestEffort(Ftl& ftl) {
      IgnoreResult(ftl.RecoverFromFlash());
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R6"), 0);
}

TEST(SoslintR6Test, AppliesToBenchAndTestCodeToo) {
  // v2 widened the scan scope: a bench driver swallowing a recovery Status
  // is no more acceptable than the FTL doing it.
  const std::string src = R"cc(
    void Check(Ftl& ftl) {
      ftl.RecoverFromFlash();
    }
  )cc";
  EXPECT_EQ(CountRule(Lint("tests/x.cc", src), "R6"), 1);
  EXPECT_EQ(CountRule(Lint("bench/x.cc", src), "R6"), 1);
}

TEST(SoslintR6Test, AllowCommentSuppresses) {
  const auto diags = Lint("src/ftl/x.cc", R"cc(
    void Mount(Ftl& ftl) {
      ftl.RecoverFromFlash();  // soslint:allow(R6) failure re-audited below
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R6"), 0);
}

// --- R7: cross-TU Status propagation -----------------------------------------

// The canonical catch: the fallible signature lives in a header with no
// [[nodiscard]], the laundering call site lives in another file.
TEST(SoslintR7Test, CatchesVoidCastOfWrapperDeclaredInOtherFile) {
  const std::vector<SourceFile> files = {
      {"src/dev.h",
       R"cc(
         Status Flush();
         Result<uint64_t> Drain();
       )cc"},
      {"src/use.cc",
       R"cc(
         void Idle(Dev& dev) {
           (void)dev.Flush();
           dev.Drain();
         }
       )cc"},
  };
  const auto diags = lint::LintTree(files);
  ASSERT_EQ(CountRule(diags, "R7"), 2);
  // The message points back at the cross-file declaration.
  EXPECT_NE(FirstOf(diags, "R7").message.find("src/dev.h"), std::string::npos);
}

TEST(SoslintR7Test, SunkResultsPass) {
  const std::vector<SourceFile> files = {
      {"src/dev.h", "Status Flush();\n"},
      {"src/use.cc",
       R"cc(
         Status Propagate(Dev& dev) { return dev.Flush(); }
         void Check(Dev& dev) {
           if (!dev.Flush().ok()) {
             Abort();
           }
           EXPECT_TRUE(dev.Flush().ok());
           IgnoreResult(dev.Flush());
         }
       )cc"},
  };
  EXPECT_EQ(CountRule(lint::LintTree(files), "R7"), 0);
}

TEST(SoslintR7Test, AssignedButNeverReadIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/dev.h", "Status Flush();\n"},
      {"src/use.cc",
       R"cc(
         void Dropped(Dev& dev) {
           Status s = dev.Flush();
           DoOtherWork();
         }
       )cc"},
  };
  const auto diags = lint::LintTree(files);
  ASSERT_EQ(CountRule(diags, "R7"), 1);
  EXPECT_NE(FirstOf(diags, "R7").message.find("never read"), std::string::npos);
}

TEST(SoslintR7Test, AssignedAndCheckedPasses) {
  const std::vector<SourceFile> files = {
      {"src/dev.h", "Status Flush();\n"},
      {"src/use.cc",
       R"cc(
         void Checked(Dev& dev) {
           Status s = dev.Flush();
           if (!s.ok()) {
             Abort();
           }
         }
       )cc"},
  };
  EXPECT_EQ(CountRule(lint::LintTree(files), "R7"), 0);
}

TEST(SoslintR7Test, RetryReassignmentIsNotAFalsePositive) {
  // `s = F();` (no declaration) writes a variable from an enclosing scope
  // the flow pass cannot see; the retry idiom must stay clean.
  const std::vector<SourceFile> files = {
      {"src/dev.h", "Status Flush();\n"},
      {"src/use.cc",
       R"cc(
         void Retry(Dev& dev) {
           Status s = dev.Flush();
           if (!s.ok()) {
             s = dev.Flush();
           }
           Log(s);
         }
       )cc"},
  };
  EXPECT_EQ(CountRule(lint::LintTree(files), "R7"), 0);
}

TEST(SoslintR7Test, SnakeCaseVariablesAreNotIndexedAsFunctions) {
  // `Status result = ...` is a declaration, not a fallible-function
  // signature; calls to something named `result` elsewhere must not fire.
  const std::vector<SourceFile> files = {
      {"src/a.cc", "Status result = MakeStatus();\n"},
      {"src/b.cc", "void F() { result(); }\n"},
  };
  EXPECT_EQ(CountRule(lint::LintTree(files), "R7"), 0);
}

TEST(SoslintR7Test, AllowCommentSuppresses) {
  const std::vector<SourceFile> files = {
      {"src/dev.h", "Status Flush();\n"},
      {"src/use.cc",
       R"cc(
         void Idle(Dev& dev) {
           (void)dev.Flush();  // soslint:allow(R7) demo of the legacy idiom
         }
       )cc"},
  };
  EXPECT_EQ(CountRule(lint::LintTree(files), "R7"), 0);
}

// --- R8: shared-mutable captures in thread-pool lambdas ----------------------

TEST(SoslintR8Test, FlagsSharedAccumulatorByRefCapture) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void Sum(ThreadPool& pool) {
      double total = 0.0;
      ParallelFor(pool, 0, 8, [&total](size_t i) { total += Work(i); });
      Report(total);
    }
  )cc");
  ASSERT_EQ(CountRule(diags, "R8"), 1);
  EXPECT_NE(diags[0].message.find("total"), std::string::npos);
}

TEST(SoslintR8Test, PerIndexSlotWriteIsTheSanctionedPattern) {
  // The ParallelMap contract: each task writes only its own slot.
  const auto diags = Lint("src/common/thread_pool.cc", R"cc(
    void Map(ThreadPool& pool, std::vector<double>& out) {
      ParallelFor(pool, 0, out.size(), [&out](size_t i) { out[i] = Work(i); });
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R8"), 0);
}

TEST(SoslintR8Test, MutexGuardedWriteIsFine) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void Sum(ThreadPool& pool, std::mutex& mu) {
      double total = 0.0;
      ParallelFor(pool, 0, 8, [&total, &mu](size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        total += Work(i);
      });
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R8"), 0);
}

TEST(SoslintR8Test, ByValueCaptureCannotRace) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void F(ThreadPool& pool, uint64_t seed) {
      pool.Submit([seed] { Use(seed); });
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R8"), 0);
}

TEST(SoslintR8Test, DefaultRefCaptureWritingOutsideNameIsFlagged) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void F(ThreadPool& pool) {
      uint64_t count = 0;
      pool.Submit([&] { count++; });
      Report(count);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R8"), 1);
}

TEST(SoslintR8Test, BareQueuePushFromPoolLambdaIsFlagged) {
  // Positive seed for the queue verbs: Push on a plain struct (no mutex
  // member anywhere in the tree) from a Submit lambda is a data race.
  const auto diags = Lint("bench/x.cc", R"cc(
    struct PlainQueue {
      std::deque<int> items;
      void Push(int v);
    };
    void F(ThreadPool& pool, PlainQueue& results) {
      pool.Submit([&results] { results.Push(1); });
    }
  )cc");
  ASSERT_EQ(CountRule(diags, "R8"), 1);
  EXPECT_NE(FirstOf(diags, "R8").message.find("results"), std::string::npos);
}

TEST(SoslintR8Test, SynchronizedQueueHandoffIsExempt) {
  // Negative seed: the completion-queue hand-off idiom. BoundedQueue carries
  // its own mutex, so a Push through it from a pool lambda is the sanctioned
  // cross-thread channel -- no diagnostic, even though the lambda body holds
  // no lock of its own.
  const auto diags = Lint("src/serve/x.cc", R"cc(
    class BoundedQueue {
     public:
      void Push(int v);
     private:
      std::mutex mu_;
      std::condition_variable cv_;
    };
    void F(ThreadPool& pool, BoundedQueue& completions) {
      pool.Submit([&completions] { completions.Push(1); });
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R8"), 0);
}

TEST(SoslintR8Test, SynchronizedTypeResolvesAcrossTranslationUnits) {
  // The class and its instance live in different files: the exemption rides
  // on the cross-TU symbol index, not on same-file text.
  const std::vector<lint::SourceFile> files = {
      {"src/serve/bounded_queue.h", R"cc(
        class CompletionQueue {
         public:
          void Push(int v);
         private:
          std::mutex mu_;
        };
      )cc"},
      {"src/serve/service.cc", R"cc(
        void Pump(ThreadPool& pool, CompletionQueue& done) {
          pool.Submit([&done] { done.Push(2); });
        }
      )cc"},
  };
  const auto diags = lint::LintTree(files);
  EXPECT_EQ(CountRule(diags, "R8"), 0);
}

TEST(SoslintR8Test, AllowCommentSuppresses) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void Sum(ThreadPool& pool) {
      double total = 0.0;
      // soslint:allow(R8) single worker pool in this configuration
      ParallelFor(pool, 0, 8, [&total](size_t i) { total += Work(i); });
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R8"), 0);
}

// --- R9: golden-output float stability ---------------------------------------

TEST(SoslintR9Test, FlagsStreamedDoubleVariable) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void Print(std::ostream& os, double ratio) {
      os << ratio << "\n";
    }
  )cc");
  ASSERT_EQ(CountRule(diags, "R9"), 1);
  EXPECT_NE(diags[0].message.find("ratio"), std::string::npos);
}

TEST(SoslintR9Test, DoubleFieldIndexedCrossFile) {
  // The struct lives in a header; the stream insertion in another file never
  // spells the type. Only the tree-wide index can catch it.
  const std::vector<SourceFile> files = {
      {"src/stats.h", "struct Stats { double mean_latency; };\n"},
      {"bench/report.cc",
       R"cc(
         void Report(std::ostream& os, const Stats& stats) {
           os << stats.mean_latency;
         }
       )cc"},
  };
  const auto diags = lint::LintTree(files);
  ASSERT_EQ(CountRule(diags, "R9"), 1);
  EXPECT_EQ(diags[0].file, "bench/report.cc");
}

TEST(SoslintR9Test, SanctionedFormattersPass) {
  const auto diags = Lint("bench/x.cc", R"cc(
    void Print(std::ostream& os, double ratio) {
      os << FormatDouble(ratio, 3);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", ratio);
      std::printf("%.17g\n", ratio);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R9"), 0);
}

TEST(SoslintR9Test, FlagsToStringOnDouble) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::string Render(double score) {
      return std::to_string(score);
    }
  )cc");
  ASSERT_EQ(CountRule(diags, "R9"), 1);
  EXPECT_NE(diags[0].message.find("to_string"), std::string::npos);
}

TEST(SoslintR9Test, ToStringOnIntegerPasses) {
  const auto diags = Lint("src/x.cc", R"cc(
    std::string Render(uint64_t count) {
      return std::to_string(count);
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R9"), 0);
}

TEST(SoslintR9Test, TestsAreOutOfScope) {
  // gtest failure messages are not golden bytes.
  const auto diags = Lint("tests/x.cc", R"cc(
    void Check(double got) {
      std::cerr << got;
    }
  )cc");
  EXPECT_EQ(CountRule(diags, "R9"), 0);
}

TEST(SoslintR9Test, FloatLiteralThroughStreamIsFlagged) {
  const auto diags = Lint("src/x.cc", R"cc(
    void Banner(std::ostream& os) { os << 3.14; }
  )cc");
  EXPECT_EQ(CountRule(diags, "R9"), 1);
}

// --- R10: unit hygiene -------------------------------------------------------

TEST(SoslintR10Test, FlagsRawUnitLiterals) {
  const auto diags = Lint("src/x.cc", R"cc(
    uint64_t CacheBytes() { return 4 * 1024; }
    uint64_t Micros() { return 3 * 1000000; }
  )cc");
  EXPECT_EQ(CountRule(diags, "R10"), 2);
}

TEST(SoslintR10Test, NamedConstantsPass) {
  const auto diags = Lint("src/x.cc", R"cc(
    uint64_t CacheBytes() { return 4 * kKiB; }
    uint64_t Micros() { return 3 * kUsPerSecond; }
  )cc");
  EXPECT_EQ(CountRule(diags, "R10"), 0);
}

TEST(SoslintR10Test, UnitsHeaderItselfIsExempt) {
  const auto diags = Lint("src/common/units.h", R"cc(
    #ifndef SOS_SRC_COMMON_UNITS_H_
    #define SOS_SRC_COMMON_UNITS_H_
    inline constexpr uint64_t kKiB = 1024ull;
    #endif  // SOS_SRC_COMMON_UNITS_H_
  )cc");
  EXPECT_EQ(CountRule(diags, "R10"), 0);
}

TEST(SoslintR10Test, MixedBinaryAndDecimalFamiliesFlagged) {
  const auto diags = Lint("src/x.cc", R"cc(
    double Shady(uint64_t n) { return n * kGiB / kGB; }
  )cc");
  ASSERT_EQ(CountRule(diags, "R10"), 1);
  EXPECT_NE(diags[0].message.find("kGiB"), std::string::npos);
  EXPECT_NE(diags[0].message.find("kGB"), std::string::npos);
}

TEST(SoslintR10Test, ConversionHelperExemptsTheMix) {
  const auto diags = Lint("src/x.cc", R"cc(
    double Honest(uint64_t n) { return BytesToGB(n * kGiB); }
  )cc");
  EXPECT_EQ(CountRule(diags, "R10"), 0);
}

TEST(SoslintR10Test, MicrosecondsTimesDaysFlagged) {
  const auto diags = Lint("src/x.cc", R"cc(
    double Rate(double age_us, double life_days) {
      return age_us / life_days;
    }
  )cc");
  ASSERT_EQ(CountRule(diags, "R10"), 1);

  const auto fixed = Lint("src/x.cc", R"cc(
    double Rate(double age_us, double life_days) {
      return UsToDays(age_us) / life_days;
    }
  )cc");
  EXPECT_EQ(CountRule(fixed, "R10"), 0);
}

TEST(SoslintR10Test, AllowCommentSuppresses) {
  const auto diags = Lint("src/x.cc", R"cc(
    // soslint:allow(R10) grid density, not a size
    constexpr uint32_t kGridPoints = 1024;
  )cc");
  EXPECT_EQ(CountRule(diags, "R10"), 0);
}

// --- Symbol index ------------------------------------------------------------

TEST(SoslintIndexTest, CollectsFalliblesUnorderedAndDoubles) {
  const auto index = lint::BuildIndex({
      {"src/a.h",
       R"cc(
         Status Flush();
         Result<int> Count() const;
         std::unordered_map<int, int> table_;
         double mean_us = 0.0;
       )cc"},
  });
  ASSERT_EQ(index.fallible_fns.count("Flush"), 1u);
  EXPECT_EQ(index.fallible_fns.at("Flush").return_type, "Status");
  ASSERT_EQ(index.fallible_fns.count("Count"), 1u);
  EXPECT_EQ(index.fallible_fns.at("Count").return_type, "Result");
  EXPECT_EQ(index.unordered_names.count("table_"), 1u);
  EXPECT_EQ(index.double_idents.count("mean_us"), 1u);
}

TEST(SoslintIndexTest, LintFileConsultsAnExternalIndex) {
  const std::vector<SourceFile> header = {{"src/dev.h", "Status Flush();\n"}};
  const auto index = lint::BuildIndex(header);
  const SourceFile use{"src/use.cc", "void F(Dev& dev) { dev.Flush(); }\n"};
  EXPECT_EQ(CountRule(lint::LintFile(use, index), "R7"), 1);
}

// --- Output format & determinism ---------------------------------------------

TEST(SoslintOutputTest, FormatDiagnosticIsEditorParseable) {
  const Diagnostic d{"src/ftl/ftl.cc", 42, "R1", "msg"};
  EXPECT_EQ(lint::FormatDiagnostic(d), "src/ftl/ftl.cc:42: [R1] msg");
}

TEST(SoslintOutputTest, LintTreeSortsDiagnosticsByFileAndLine) {
  // Files presented in reverse order; diagnostics must come out sorted so CI
  // diffs are stable run to run.
  const std::vector<SourceFile> files = {
      {"src/zzz.cc", "#include \"b.h\"\n"},
      {"src/aaa.cc", "#include \"a.h\"\n"},
  };
  const auto diags = lint::LintTree(files);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].file, "src/aaa.cc");
  EXPECT_EQ(diags[1].file, "src/zzz.cc");
}

TEST(SoslintOutputTest, JsonReportEscapesAndCounts) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cc", 3, "R2", "uses \"rand\" badly"},
  };
  const std::string json = lint::FormatReportJson(diags, 17);
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 17"), std::string::npos);
  EXPECT_NE(json.find("\\\"rand\\\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"R2\""), std::string::npos);
}

}  // namespace
}  // namespace sos
