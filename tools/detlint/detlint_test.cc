// detlint's own regression suite: every rule exercised both ways against
// the fixtures in testdata/ (a rule that silently stops firing would
// otherwise pass CI forever), plus targeted lexer/scoping cases inline.
#include "tools/detlint/detlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fsbench::detlint {
namespace {

#ifndef DETLINT_TESTDATA_DIR
#error "build must define DETLINT_TESTDATA_DIR"
#endif

std::string ReadTestdata(const std::string& name) {
  const std::string path = std::string(DETLINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fixtures are scanned as if they lived in result-affecting code.
std::vector<Finding> LintFixture(const std::string& name) {
  return Lint({{"src/sim/" + name, ReadTestdata(name)}});
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// --- R1: unordered iteration ---

TEST(DetlintR1, FlagsUnorderedIterationFixtures) {
  const auto findings = LintFixture("r1_bad.cc");
  EXPECT_EQ(CountRule(findings, "R1"), 3) << "range-for x2 + begin() walk";
}

TEST(DetlintR1, AcceptsAnnotatedAndLookupOnlyUse) {
  const auto findings = LintFixture("r1_good.cc");
  EXPECT_EQ(findings.size(), 0u) << FormatFinding(findings.empty() ? Finding{} : findings[0]);
}

TEST(DetlintR1, FlagsFlatIndexIteration) {
  const auto findings = LintFixture("r1_flat_index_bad.cc");
  EXPECT_EQ(CountRule(findings, "R1"), 2) << "range-for over a member + begin() on a reference";
}

TEST(DetlintR1, AcceptsFlatIndexProbesAndAnnotatedWalks) {
  const auto findings = LintFixture("r1_flat_index_good.cc");
  EXPECT_EQ(findings.size(), 0u) << FormatFinding(findings.empty() ? Finding{} : findings[0]);
}

TEST(DetlintR1, PairsHeaderDeclarationWithSourceIteration) {
  // The member is declared in the header; the hazardous loop lives in the
  // same-stem .cc — the shape of the flash tier's old hash-order
  // whole-file walk.
  const std::string header =
      "#include <unordered_map>\n"
      "struct T { std::unordered_map<unsigned long, int> entries_; void F(); };\n";
  const std::string source =
      "#include \"t.h\"\n"
      "void T::F() {\n"
      "  for (const auto& [k, v] : entries_) { (void)k; (void)v; }\n"
      "}\n";
  const auto findings =
      Lint({{"src/sim/t.h", header}, {"src/sim/t.cc", source}});
  EXPECT_EQ(CountRule(findings, "R1"), 1);
  EXPECT_EQ(findings[0].file, "src/sim/t.cc");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(DetlintR1, FollowsUnorderedUsingAliases) {
  const std::string src =
      "#include <unordered_map>\n"
      "using PageMap = std::unordered_map<unsigned long, int>;\n"
      "struct T { PageMap pages_; };\n"
      "unsigned long F(T& t) {\n"
      "  unsigned long n = 0;\n"
      "  for (const auto& [k, v] : t.pages_) { n += v; }\n"
      "  return n;\n"
      "}\n";
  const auto findings = Lint({{"src/sim/alias.cc", src}});
  EXPECT_EQ(CountRule(findings, "R1"), 1);
}

// --- R2: ambient entropy ---

TEST(DetlintR2, FlagsEntropyFixtures) {
  const auto findings = LintFixture("r2_bad.cc");
  // system_clock, steady_clock, time(, rand(, std::rand(, random_device,
  // getenv.
  EXPECT_GE(CountRule(findings, "R2"), 7);
}

TEST(DetlintR2, AcceptsVirtualTimeAndLookalikes) {
  const auto findings = LintFixture("r2_good.cc");
  EXPECT_EQ(findings.size(), 0u) << FormatFinding(findings.empty() ? Finding{} : findings[0]);
}

TEST(DetlintR2, DoesNotApplyOutsideResultAffectingCode) {
  // The same text under src/survey (reporting layer) is out of R2 scope.
  const auto findings =
      Lint({{"src/survey/r2_bad.cc", ReadTestdata("r2_bad.cc")}});
  EXPECT_EQ(CountRule(findings, "R2"), 0);
}

TEST(DetlintR2, IgnoresStringsAndComments) {
  const std::string src =
      "// rand() and system_clock in a comment are fine\n"
      "/* so is time(nullptr) here */\n"
      "const char* kMsg = \"time(s) since rand()\";\n";
  const auto findings = Lint({{"src/core/strings.cc", src}});
  EXPECT_EQ(findings.size(), 0u);
}

// --- R3: clock discipline ---

TEST(DetlintR3, FlagsBaseClockFixtures) {
  const auto findings = LintFixture("r3_bad.cc");
  EXPECT_EQ(CountRule(findings, "R3"), 3) << "two in ChargeOp, one in ReadOrigin";
}

TEST(DetlintR3, AcceptsBindingSitesAndAnnotations) {
  const auto findings = LintFixture("r3_good.cc");
  EXPECT_EQ(findings.size(), 0u) << FormatFinding(findings.empty() ? Finding{} : findings[0]);
}

// --- R4: default member initializers ---

TEST(DetlintR4, FlagsUninitializedScalarMembers) {
  const auto findings = LintFixture("r4_bad.h");
  // hits, misses, ratio, warmed, mode (enum), label (pointer); std::string
  // name is a class type and must NOT be flagged.
  EXPECT_EQ(CountRule(findings, "R4"), 6);
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.message.find("'name'") == std::string::npos) << FormatFinding(f);
  }
}

TEST(DetlintR4, AcceptsInitializedStruct) {
  const auto findings = LintFixture("r4_good.h");
  EXPECT_EQ(findings.size(), 0u) << FormatFinding(findings.empty() ? Finding{} : findings[0]);
}

TEST(DetlintR4, AppliesToHeadersOnly) {
  const auto findings =
      Lint({{"src/sim/r4_bad_in_source.cc", ReadTestdata("r4_bad.h")}});
  EXPECT_EQ(CountRule(findings, "R4"), 0);
}

TEST(DetlintR4, HandlesMemberFunctionsAndNestedTypes) {
  const std::string src =
      "#include <cstdint>\n"
      "struct Outer {\n"
      "  struct Inner { uint64_t bad; };\n"
      "  enum class E { kA, kB };\n"
      "  uint64_t ok = 0;\n"
      "  bool Flag() const { return ok != 0; }\n"
      "  static Outer Zero() { return Outer{}; }\n"
      "  uint64_t also_bad;\n"
      "};\n";
  const auto findings = Lint({{"src/sim/nested.h", src}});
  EXPECT_EQ(CountRule(findings, "R4"), 2);
  EXPECT_NE(findings[0].message.find("'bad'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("'also_bad'"), std::string::npos);
}

TEST(DetlintR4, ResolvesScalarAliasesAcrossFiles) {
  const std::string units = "using Nanos = long long;\n";
  const std::string header = "struct S { Nanos t; };\n";
  const auto findings =
      Lint({{"src/util/units.h", units}, {"src/sim/s.h", header}});
  EXPECT_EQ(CountRule(findings, "R4"), 1);
}

// --- R5: pointer ordering ---

TEST(DetlintR5, FlagsPointerKeysAndPointerSorts) {
  const auto findings = LintFixture("r5_bad.cc");
  EXPECT_EQ(CountRule(findings, "R5"), 3) << "set key, map key, sort comparator";
}

TEST(DetlintR5, AcceptsStableKeysAndFieldSorts) {
  const auto findings = LintFixture("r5_good.cc");
  EXPECT_EQ(findings.size(), 0u) << FormatFinding(findings.empty() ? Finding{} : findings[0]);
}

// --- Annotations ---

TEST(DetlintAnnotations, UnknownTagIsAFinding) {
  const std::string src =
      "// detlint: order-insensative\n"
      "int x = 0;\n";
  const auto findings = Lint({{"src/sim/typo.cc", src}});
  EXPECT_EQ(CountRule(findings, "R0"), 1);
}

TEST(DetlintAnnotations, AnnotationOnPrecedingLineApplies) {
  const std::string src =
      "#include <unordered_set>\n"
      "struct T { std::unordered_set<int> s_; };\n"
      "int F(T& t) {\n"
      "  int n = 0;\n"
      "  // detlint: order-insensitive\n"
      "  for (int v : t.s_) { n += v; }\n"
      "  return n;\n"
      "}\n";
  const auto findings = Lint({{"src/sim/annot.cc", src}});
  EXPECT_EQ(findings.size(), 0u);
}

TEST(DetlintAnnotations, AnnotationDoesNotLeakPastNextCodeLine) {
  const std::string src =
      "#include <unordered_set>\n"
      "struct T { std::unordered_set<int> s_; };\n"
      "int F(T& t) {\n"
      "  // detlint: order-insensitive\n"
      "  int n = 0;\n"
      "  for (int v : t.s_) { n += v; }\n"
      "  return n;\n"
      "}\n";
  const auto findings = Lint({{"src/sim/leak.cc", src}});
  EXPECT_EQ(CountRule(findings, "R1"), 1) << "tag bound to `int n`, not the loop";
}

}  // namespace
}  // namespace fsbench::detlint
