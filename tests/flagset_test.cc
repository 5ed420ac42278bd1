// Copyright (c) 2026 The SOS Authors. MIT License.
//
// FlagSet parsing tests, focused on the enum-valued flags benches use for
// mode selection (--placement=legacy|static|lifetime). The contract is
// strict: a value outside the declared choice set is a hard parse error that
// names the accepted spellings -- never a silent fallback to the default.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/flag_set.h"

namespace sos {
namespace {

// Parse() wants char** argv; build one from string literals (argv[0] is the
// program name and ignored).
Status ParseArgs(FlagSet& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "test_prog");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetEnumTest, DefaultsWhenAbsent) {
  FlagSet flags("t", "");
  std::string* placement =
      flags.Enum("placement", "lifetime", {"legacy", "static", "lifetime"}, "arm");
  EXPECT_TRUE(ParseArgs(flags, {}).ok());
  EXPECT_EQ(*placement, "lifetime");
}

TEST(FlagSetEnumTest, AcceptsDeclaredChoicesBothSyntaxes) {
  FlagSet flags("t", "");
  std::string* placement =
      flags.Enum("placement", "lifetime", {"legacy", "static", "lifetime"}, "arm");
  EXPECT_TRUE(ParseArgs(flags, {"--placement=static"}).ok());
  EXPECT_EQ(*placement, "static");
  EXPECT_TRUE(ParseArgs(flags, {"--placement", "legacy"}).ok());
  EXPECT_EQ(*placement, "legacy");
}

TEST(FlagSetEnumTest, RejectsValuesOutsideChoiceSet) {
  FlagSet flags("t", "");
  std::string* placement =
      flags.Enum("placement", "lifetime", {"legacy", "static", "lifetime"}, "arm");
  (void)placement;
  const Status s = ParseArgs(flags, {"--placement=adaptive"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The error names the flag, the bad value, and every accepted spelling.
  EXPECT_NE(s.message().find("--placement"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("adaptive"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("legacy"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("static"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("lifetime"), std::string::npos) << s.ToString();
}

TEST(FlagSetEnumTest, RejectsCaseVariantsAndPrefixes) {
  FlagSet flags("t", "");
  (void)flags.Enum("placement", "legacy", {"legacy", "static", "lifetime"}, "arm");
  // Exact spellings only: no case folding, no abbreviation.
  EXPECT_EQ(ParseArgs(flags, {"--placement=Legacy"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseArgs(flags, {"--placement=life"}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseArgs(flags, {"--placement="}).code(), StatusCode::kInvalidArgument);
}

TEST(FlagSetEnumTest, MissingValueIsAnError) {
  FlagSet flags("t", "");
  (void)flags.Enum("placement", "legacy", {"legacy", "static"}, "arm");
  EXPECT_EQ(ParseArgs(flags, {"--placement"}).code(), StatusCode::kInvalidArgument);
}

TEST(FlagSetEnumTest, UsageListsChoices) {
  FlagSet flags("t", "");
  (void)flags.Enum("placement", "legacy", {"legacy", "static", "lifetime"}, "arm");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--placement=<legacy|static|lifetime>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("default: legacy"), std::string::npos) << usage;
}

TEST(FlagSetEnumTest, ComposesWithOtherFlagKinds) {
  FlagSet flags("t", "");
  size_t* jobs = flags.Size("jobs", 1, "workers");
  std::string* placement = flags.Enum("placement", "legacy", {"legacy", "lifetime"}, "arm");
  EXPECT_TRUE(ParseArgs(flags, {"--jobs=4", "--placement=lifetime"}).ok());
  EXPECT_EQ(*jobs, 4u);
  EXPECT_EQ(*placement, "lifetime");
  // An enum error surfaces even when other flags parsed fine.
  EXPECT_EQ(ParseArgs(flags, {"--jobs=2", "--placement=bogus"}).code(),
            StatusCode::kInvalidArgument);
}

// --- Declaration-time misuse (bench bugs, not user errors) ------------------
//
// FlagSet's contract is that a malformed *declaration* aborts the process at
// startup: a bench that registers the same flag twice, or an enum whose
// default cannot be a member of its choice set, should never get as far as
// parsing user input. These are death tests so the abort path itself stays
// covered.

using FlagSetDeathTest = ::testing::Test;

TEST(FlagSetDeathTest, DuplicateDeclarationAborts) {
  EXPECT_DEATH(
      {
        FlagSet flags("t", "");
        (void)flags.Size("jobs", 1, "workers");
        (void)flags.U64("jobs", 2, "same name, different kind");
      },
      "duplicate flag --jobs");
}

TEST(FlagSetDeathTest, EnumWithEmptyChoiceSetAborts) {
  // An empty choice set can never contain the default, so the declaration is
  // unsatisfiable -- caught before any argv is looked at.
  EXPECT_DEATH(
      {
        FlagSet flags("t", "");
        (void)flags.Enum("placement", "legacy", {}, "arm");
      },
      "default 'legacy' for --placement is not one of its choices");
}

TEST(FlagSetDeathTest, EnumDefaultOutsideChoicesAborts) {
  EXPECT_DEATH(
      {
        FlagSet flags("t", "");
        (void)flags.Enum("placement", "adaptive", {"legacy", "static"}, "arm");
      },
      "default 'adaptive' for --placement is not one of its choices");
}

// --- StringList negative paths ----------------------------------------------

TEST(FlagSetListTest, EmptyElementsAreRejectedInBothSyntaxes) {
  FlagSet flags("t", "");
  std::vector<std::string>* faults = flags.StringList("fault", "fault spec");
  EXPECT_EQ(ParseArgs(flags, {"--fault="}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseArgs(flags, {"--fault", ""}).code(), StatusCode::kInvalidArgument);
  // A good element before the bad one does not make the parse succeed, and
  // the error names the flag.
  const Status s = ParseArgs(flags, {"--fault=power_cut@100", "--fault="});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--fault"), std::string::npos) << s.ToString();
  (void)faults;
}

TEST(FlagSetListTest, RepeatedOccurrencesAppendInOrder) {
  FlagSet flags("t", "");
  std::vector<std::string>* faults = flags.StringList("fault", "fault spec");
  ASSERT_TRUE(ParseArgs(flags, {"--fault=power_cut@100", "--fault", "die_fail@2,d3"}).ok());
  ASSERT_EQ(faults->size(), 2u);
  EXPECT_EQ((*faults)[0], "power_cut@100");
  EXPECT_EQ((*faults)[1], "die_fail@2,d3");
}

}  // namespace
}  // namespace sos
