// Tests for rbcast_analyze's determinism rules (the third pass of
// tools/analyze/analyze_engine.cpp): each rule must fire on a seeded bad
// snippet and stay quiet on clean code.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analyze/analyze_engine.h"
#include "analyze/source_scanner.h"

namespace rbcast::analyze {
namespace {

// Analyzes one file and keeps only the determinism rules' findings: the
// other passes also see these snippets (a namespace-scope `int x =
// rand();` is a mutable-global too) and are covered by
// analyze_engine_test.
std::vector<Finding> lint(std::string_view path, std::string_view source) {
  static const std::set<std::string> kDeterminismRules = {
      "raw-random",    "unordered-container", "unordered-range-for",
      "direct-output", "raw-assert",          "pragma-once"};
  std::vector<Finding> findings =
      analyze({FileInput{std::string(path), std::string(source)}},
              default_layer_spec())
          .findings;
  std::erase_if(findings, [](const Finding& f) {
    return !kDeterminismRules.contains(f.rule);
  });
  return findings;
}

bool fires(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --- raw-random -------------------------------------------------------

TEST(RawRandomRule, FlagsRandSrandAndRandomDevice) {
  const auto f = lint("src/core/bad.cpp",
                      "int draw() {\n"
                      "  srand(42);\n"
                      "  std::random_device rd;\n"
                      "  return rand() % 6;\n"
                      "}\n");
  ASSERT_TRUE(fires(f, "raw-random"));
  EXPECT_EQ(3u, std::count_if(f.begin(), f.end(), [](const Finding& x) {
              return x.rule == "raw-random";
            }));
  EXPECT_EQ(2, f[0].line);
}

TEST(RawRandomRule, FlagsWallClockReads) {
  EXPECT_TRUE(fires(lint("src/sim/bad.cpp", "auto t = time(NULL);\n"),
                    "raw-random"));
  EXPECT_TRUE(fires(lint("src/sim/bad.cpp",
                         "auto t = std::chrono::steady_clock::now();\n"),
                    "raw-random"));
}

TEST(RawRandomRule, AllowsSeededRngAndSimilarNames) {
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "double x = rng_.uniform();\n"
                          "auto t = spec.transmission_time(bytes);\n"
                          "auto n = next_time();\n"),
                     "raw-random"));
  // The stream factory itself is the one sanctioned home of <random>.
  EXPECT_TRUE(lint("src/util/rng.cpp", "std::random_device rd;\n").empty());
}

TEST(RawRandomRule, IgnoresCommentsAndStrings) {
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "// rand() would break determinism\n"
                          "log(\"rand() banned\");\n"),
                     "raw-random"));
}

// --- unordered-container ------------------------------------------------

TEST(UnorderedContainerRule, FlagsProtocolLayerDeclarations) {
  const auto f = lint("src/core/bad.h",
                      "#pragma once\n"
                      "#include <unordered_map>\n"
                      "std::unordered_map<int, int> table_;\n");
  EXPECT_EQ(2u, std::count_if(f.begin(), f.end(), [](const Finding& x) {
              return x.rule == "unordered-container";
            }));
}

TEST(UnorderedContainerRule, AllowsOrderedContainersAndOtherLayers) {
  EXPECT_FALSE(fires(lint("src/core/good.h",
                          "#pragma once\n"
                          "#include <map>\n"
                          "std::map<int, int> table_;\n"),
                     "unordered-container"));
  // src/model is outside the protocol layers: membership-only hash sets
  // are fine there (the BFS visited set).
  EXPECT_FALSE(fires(lint("src/model/ok.cpp",
                          "std::unordered_set<std::string> visited;\n"),
                     "unordered-container"));
}

// --- unordered-range-for ------------------------------------------------

TEST(UnorderedRangeForRule, FlagsIterationOverUnorderedMember) {
  const auto f = lint("src/model/bad.cpp",
                      "std::unordered_map<int, int> seen_;\n"
                      "void dump() {\n"
                      "  for (const auto& [k, v] : seen_) use(k, v);\n"
                      "}\n");
  ASSERT_TRUE(fires(f, "unordered-range-for"));
}

TEST(UnorderedRangeForRule, AllowsIterationOverOrderedMember) {
  EXPECT_FALSE(fires(lint("src/model/good.cpp",
                          "std::map<int, int> seen_;\n"
                          "void dump() {\n"
                          "  for (const auto& [k, v] : seen_) use(k, v);\n"
                          "}\n"),
                     "unordered-range-for"));
}

TEST(UnorderedRangeForRule, MembershipOnlyUseIsFine) {
  EXPECT_FALSE(fires(lint("src/model/good.cpp",
                          "std::unordered_set<std::string> visited;\n"
                          "bool seen(const std::string& s) {\n"
                          "  return visited.contains(s);\n"
                          "}\n"),
                     "unordered-range-for"));
}

// --- direct-output --------------------------------------------------------

TEST(DirectOutputRule, FlagsCoutAndPrintfInProtocolLayers) {
  EXPECT_TRUE(fires(lint("src/core/bad.cpp",
                         "void f() { std::cout << \"attached\\n\"; }\n"),
                    "direct-output"));
  EXPECT_TRUE(fires(lint("src/net/bad.cpp",
                         "void f() { printf(\"%d\\n\", 1); }\n"),
                    "direct-output"));
}

TEST(DirectOutputRule, AllowsLoggerAndNonProtocolLayers) {
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "RBCAST_INFO(self() << \" attached\");\n"),
                     "direct-output"));
  // util implements the logger; trace dumps timelines on purpose.
  EXPECT_FALSE(fires(lint("src/util/logging.cpp",
                          "std::fprintf(stderr, \"%s\", msg.c_str());\n"),
                     "direct-output"));
}

// --- raw-assert ---------------------------------------------------------

TEST(RawAssertRule, FlagsAssertCallAndInclude) {
  const auto f = lint("src/core/bad.cpp",
                      "#include <cassert>\n"
                      "void f(int n) { assert(n > 0); }\n");
  EXPECT_EQ(2u, std::count_if(f.begin(), f.end(), [](const Finding& x) {
              return x.rule == "raw-assert";
            }));
}

TEST(RawAssertRule, AllowsRbcastAssertFamily) {
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "RBCAST_ASSERT(n > 0);\n"
                          "RBCAST_ASSERT_MSG(n > 0, \"positive\");\n"
                          "static_assert(sizeof(int) == 4);\n"),
                     "raw-assert"));
}

// --- pragma-once ----------------------------------------------------------

TEST(PragmaOnceRule, FlagsHeaderWithoutGuard) {
  EXPECT_TRUE(fires(lint("src/core/bad.h", "struct S {};\n"), "pragma-once"));
}

TEST(PragmaOnceRule, CommentedOutGuardDoesNotCount) {
  EXPECT_TRUE(fires(lint("src/core/bad.h", "// #pragma once\nstruct S {};\n"),
                    "pragma-once"));
  EXPECT_TRUE(fires(
      lint("src/core/bad.h", "/* #pragma once */\nstruct S {};\n"),
      "pragma-once"));
}

TEST(PragmaOnceRule, SatisfiedHeaderAndSourcesExempt) {
  EXPECT_FALSE(fires(lint("src/core/good.h", "#pragma once\nstruct S {};\n"),
                     "pragma-once"));
  EXPECT_FALSE(fires(lint("src/core/good.cpp", "struct S {};\n"),
                     "pragma-once"));
}

// --- cross-cutting --------------------------------------------------------

TEST(Engine, SuppressionCommentWaivesExactlyThatRule) {
  const std::string bad =
      "int x = rand();  // analyze:allow(raw-random) seeding the lint test\n";
  EXPECT_FALSE(fires(lint("src/core/ok.cpp", bad), "raw-random"));
  // The waiver names a specific rule; others still fire.
  const std::string wrong =
      "int x = rand();  // analyze:allow(direct-output)\n";
  EXPECT_TRUE(fires(lint("src/core/bad.cpp", wrong), "raw-random"));
}

TEST(Engine, OnlySrcTreeIsLinted) {
  EXPECT_TRUE(lint("tools/whatever.cpp", "int x = rand();\n").empty());
  EXPECT_TRUE(lint("tests/whatever.cpp", "int x = rand();\n").empty());
}

TEST(Engine, FindingsCarryFileAndLine) {
  const auto f = lint("src/core/bad.cpp", "void f() {\n  srand(1);\n}\n");
  ASSERT_EQ(1u, f.size());
  EXPECT_EQ("src/core/bad.cpp", f[0].file);
  EXPECT_EQ(2, f[0].line);
  EXPECT_EQ("raw-random", f[0].rule);
}

TEST(Engine, RawStringContentsAreNotCode) {
  // rand() inside a raw string literal is data, not a call — including
  // when the raw string carries a delimiter or an encoding prefix.
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "auto s = R\"(call rand() here)\";\n"),
                     "raw-random"));
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "auto s = R\"x(rand() and )\" srand(1) )x\";\n"),
                     "raw-random"));
  EXPECT_FALSE(fires(lint("src/core/good.cpp",
                          "auto s = u8R\"(std::random_device)\";\n"),
                     "raw-random"));
}

TEST(Engine, RawStringTerminatorRespectsDelimiter) {
  // The payload contains ')"' but the delimiter is 'x', so the literal
  // ends only at ')x"' — the srand() after it is real code and must fire.
  const auto f = lint("src/core/bad.cpp",
                      "auto s = R\"x(not the end: )\" still string)x\";\n"
                      "srand(7);\n");
  ASSERT_TRUE(fires(f, "raw-random"));
  EXPECT_EQ(2, f[0].line);
}

TEST(Engine, UnterminatedRawStringBlanksToEofWithoutFindings) {
  EXPECT_TRUE(lint("src/core/odd.cpp",
                   "auto s = R\"(rand() never closed\n"
                   "srand(1);\n")
                  .empty());
}

TEST(Engine, IdentifierEndingInRIsNotARawStringPrefix) {
  // "FOOR" ends in R but is an identifier; the following quote opens an
  // ordinary string. The rand() outside it must still fire.
  const auto f = lint("src/core/bad.cpp",
                      "auto s = FOOR\"(text)\";\n"
                      "int x = rand();\n");
  ASSERT_TRUE(fires(f, "raw-random"));
  EXPECT_EQ(2, f[0].line);
}

TEST(Engine, LineContinuationExtendsLineComment) {
  // The backslash splices line 2 into the comment on line 1, so that
  // srand() is commentary; the one on line 3 is code.
  const auto f = lint("src/core/bad.cpp",
                      "// spliced comment \\\n"
                      "srand(1);\n"
                      "srand(2);\n");
  ASSERT_EQ(1u, std::count_if(f.begin(), f.end(), [](const Finding& x) {
              return x.rule == "raw-random";
            }));
  EXPECT_EQ(3, f[0].line);
}

TEST(Engine, DigitSeparatorIsNotACharLiteral) {
  // 1'000'000 must not open a character literal that would swallow the
  // rest of the line (and the srand call with it).
  const auto f = lint("src/core/bad.cpp",
                      "int big = 1'000'000; srand(big);\n");
  EXPECT_TRUE(fires(f, "raw-random"));
}

TEST(Engine, UnorderedIdentifierHarvesting) {
  const auto ids = unordered_identifiers(
      "std::unordered_map<std::uint64_t, Action> actions_;\n"
      "std::unordered_set<std::string> visited;\n"
      "std::unordered_map<K, std::vector<V>>& by_ref\n"
      "std::unordered_map<int, int>::iterator it;\n");
  EXPECT_EQ(3u, ids.size());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "actions_"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "visited"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "by_ref"), ids.end());
}

}  // namespace
}  // namespace rbcast::analyze
