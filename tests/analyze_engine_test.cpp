// Tests for the rbcast_analyze rule engine (tools/analyze/*): the layer
// and census passes must fire on a seeded bad snippet, stay quiet on clean
// code, and the ratchet comparator must gate exactly the regressions. The
// determinism pass has its own cases in lint_rules_test.cpp.
#include "analyze/analyze_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analyze/source_scanner.h"

namespace rbcast::analyze {
namespace {

AnalysisResult run(std::vector<FileInput> files) {
  return analyze(files, default_layer_spec());
}

bool fires(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --- layer pass ---------------------------------------------------------

TEST(LayerPass, ForbiddenEdgeCoreToSim) {
  const auto r = run({
      {"src/core/host.h", "#pragma once\n#include \"sim/simulator.h\"\n"},
      {"src/sim/simulator.h", "#pragma once\n"},
  });
  ASSERT_TRUE(fires(r.findings, "layer-violation"));
  EXPECT_EQ("src/core/host.h", r.findings[0].file);
  EXPECT_EQ(2, r.findings[0].line);
}

TEST(LayerPass, ForbiddenEdgeCoreToHarness) {
  const auto r = run({
      {"src/core/host.h", "#pragma once\n#include \"harness/experiment.h\"\n"},
      {"src/harness/experiment.h", "#pragma once\n"},
  });
  EXPECT_TRUE(fires(r.findings, "layer-violation"));
}

TEST(LayerPass, RankClimbFlagged) {
  // sim (rank 1) including core (rank 4) climbs the DAG.
  const auto r = run({
      {"src/sim/event_queue.h", "#pragma once\n#include \"core/config.h\"\n"},
      {"src/core/config.h", "#pragma once\n"},
  });
  ASSERT_TRUE(fires(r.findings, "layer-violation"));
  EXPECT_NE(r.findings[0].message.find("climbs"), std::string::npos);
}

TEST(LayerPass, DownwardAndSameRankEdgesAllowed) {
  const auto r = run({
      {"src/core/host.h",
       "#pragma once\n#include \"util/rng.h\"\n#include \"net/message.h\"\n"},
      {"src/net/message.h", "#pragma once\n#include \"sim/time.h\"\n"},
      {"src/trace/sink.h", "#pragma once\n#include \"model/graph.h\"\n"},
      {"src/model/graph.h", "#pragma once\n"},
      {"src/util/rng.h", "#pragma once\n"},
      {"src/sim/time.h", "#pragma once\n"},
  });
  EXPECT_FALSE(fires(r.findings, "layer-violation"));
  EXPECT_FALSE(fires(r.findings, "layer-unknown"));
}

TEST(LayerPass, InterfaceOnlyEdgeAllowsTheAbstractHeader) {
  const auto r = run({
      {"src/core/host.h",
       "#pragma once\n#include \"transport/transport.h\"\n"
       "#include \"net/message.h\"\n"},
      {"src/transport/transport.h", "#pragma once\n"},
      {"src/net/message.h", "#pragma once\n"},
  });
  EXPECT_FALSE(fires(r.findings, "layer-violation"));
}

TEST(LayerPass, InterfaceOnlyEdgeRejectsConcreteBackends) {
  // core -> transport is rank-legal but restricted to the abstract
  // interface header; a backend include must fire even though transport
  // sits below core in the DAG.
  const auto r = run({
      {"src/core/host.cpp",
       "#include \"transport/udp_transport.h\"\n"},
      {"src/transport/udp_transport.h", "#pragma once\n"},
  });
  ASSERT_TRUE(fires(r.findings, "layer-violation"));
  EXPECT_NE(r.findings[0].message.find("interface-only"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("transport/transport.h"),
            std::string::npos);
}

TEST(LayerPass, InterfaceOnlyEdgeRejectsConcreteNetEndpoints) {
  const auto r = run({
      {"src/core/host.h", "#pragma once\n#include \"net/network.h\"\n"},
      {"src/net/network.h", "#pragma once\n"},
  });
  ASSERT_TRUE(fires(r.findings, "layer-violation"));
  EXPECT_NE(r.findings[0].message.find("interface-only"), std::string::npos);
}

TEST(LayerPass, InterfaceOnlyRestrictionDoesNotBindOtherLayers) {
  // Only the named from-layer is restricted: transport backends and the
  // harness may include concrete net headers freely.
  const auto r = run({
      {"src/transport/sim_transport.h",
       "#pragma once\n#include \"net/network.h\"\n"},
      {"src/harness/experiment.h",
       "#pragma once\n#include \"net/network.h\"\n"
       "#include \"transport/sim_transport.h\"\n"},
      {"src/net/network.h", "#pragma once\n"},
  });
  EXPECT_FALSE(fires(r.findings, "layer-violation"));
}

TEST(LayerPass, CoalescerSitsInsideTheTransportLayer) {
  // The coalescing data plane is transport-internal: transport/coalescer.h
  // reaches down to net and util, and both backends include it — all of
  // that is DAG-legal and must stay quiet.
  const auto r = run({
      {"src/transport/coalescer.h",
       "#pragma once\n#include \"net/message.h\"\n"
       "#include \"util/scheduler.h\"\n"},
      {"src/transport/udp_transport.h",
       "#pragma once\n#include \"transport/coalescer.h\"\n"},
      {"src/transport/sim_transport.h",
       "#pragma once\n#include \"transport/coalescer.h\"\n"},
      {"src/net/message.h", "#pragma once\n"},
      {"src/util/scheduler.h", "#pragma once\n"},
  });
  EXPECT_FALSE(fires(r.findings, "layer-violation"));
  EXPECT_FALSE(fires(r.findings, "layer-unknown"));
}

TEST(LayerPass, InterfaceOnlyEdgeRejectsCoalescerFromCore) {
  // Batching stays behind the Transport seam: the protocol automaton
  // configures it through core::Config knobs, never by including the
  // coalescer — core -> transport is restricted to transport/transport.h.
  const auto r = run({
      {"src/core/broadcast_host.h",
       "#pragma once\n#include \"transport/coalescer.h\"\n"},
      {"src/transport/coalescer.h", "#pragma once\n"},
  });
  ASSERT_TRUE(fires(r.findings, "layer-violation"));
  EXPECT_NE(r.findings[0].message.find("interface-only"), std::string::npos);
}

TEST(LayerPass, UnknownLayerFlagged) {
  const auto r = run({
      {"src/zebra/a.h", "#pragma once\n#include \"util/rng.h\"\n"},
      {"src/util/rng.h", "#pragma once\n"},
  });
  EXPECT_TRUE(fires(r.findings, "layer-unknown"));
}

TEST(LayerPass, CommentedOutIncludeIgnored) {
  const auto r = run({
      {"src/core/host.h", "#pragma once\n// #include \"sim/simulator.h\"\n"},
      {"src/sim/simulator.h", "#pragma once\n"},
  });
  EXPECT_FALSE(fires(r.findings, "layer-violation"));
  EXPECT_TRUE(r.include_graph.empty());
}

TEST(LayerPass, GraphRecordsResolvedEdges) {
  const auto r = run({
      {"src/core/a.h", "#pragma once\n#include \"util/b.h\"\n"},
      {"src/util/b.h", "#pragma once\n"},
  });
  ASSERT_EQ(1u, r.include_graph.size());
  EXPECT_TRUE(r.include_graph.at("src/core/a.h").contains("src/util/b.h"));
  const std::string dot = to_dot(r.include_graph);
  EXPECT_NE(dot.find("\"src/core/a.h\" -> \"src/util/b.h\""),
            std::string::npos);
}

// --- include cycles -----------------------------------------------------

TEST(IncludeCycle, TwoFileCycleDetected) {
  const auto r = run({
      {"src/util/a.h", "#pragma once\n#include \"util/b.h\"\n"},
      {"src/util/b.h", "#pragma once\n#include \"util/a.h\"\n"},
  });
  ASSERT_TRUE(fires(r.findings, "include-cycle"));
  const auto it = std::find_if(
      r.findings.begin(), r.findings.end(),
      [](const Finding& f) { return f.rule == "include-cycle"; });
  EXPECT_NE(it->message.find("src/util/a.h"), std::string::npos);
  EXPECT_NE(it->message.find("src/util/b.h"), std::string::npos);
}

TEST(IncludeCycle, AcyclicChainClean) {
  const auto r = run({
      {"src/util/a.h", "#pragma once\n#include \"util/b.h\"\n"},
      {"src/util/b.h", "#pragma once\n#include \"util/c.h\"\n"},
      {"src/util/c.h", "#pragma once\n"},
  });
  EXPECT_FALSE(fires(r.findings, "include-cycle"));
}

// --- shared-state census ------------------------------------------------

TEST(Census, MutableGlobalFlagged) {
  const auto r = run({{"src/util/bad.cpp",
                       "namespace rbcast {\n"
                       "int counter = 0;\n"
                       "}\n"}});
  ASSERT_TRUE(fires(r.findings, "mutable-global"));
  EXPECT_EQ(2, r.findings[0].line);
  EXPECT_NE(r.findings[0].message.find("'counter'"), std::string::npos);
}

TEST(Census, ConstAndConstexprGlobalsClean) {
  const auto r = run({{"src/util/good.cpp",
                       "namespace rbcast {\n"
                       "const int kA = 1;\n"
                       "constexpr int kB = 2;\n"
                       "inline constexpr char kName[] = \"x\";\n"
                       "}\n"}});
  EXPECT_FALSE(fires(r.findings, "mutable-global"));
}

TEST(Census, ForwardDeclarationsAndFunctionsClean) {
  const auto r = run({{"src/util/good.h",
                       "#pragma once\n"
                       "namespace rbcast {\n"
                       "struct Config;\n"
                       "class Simulator;\n"
                       "int parse(const char* s);\n"
                       "using Clock = int;\n"
                       "namespace inv = model::invariants;\n"
                       "}\n"}});
  EXPECT_FALSE(fires(r.findings, "mutable-global"));
}

TEST(Census, StaticDataMemberFlagged) {
  const auto r = run({{"src/util/bad.h",
                       "#pragma once\n"
                       "class Registry {\n"
                       "  static int live_count_;\n"
                       "};\n"}});
  ASSERT_TRUE(fires(r.findings, "mutable-global"));
  EXPECT_NE(r.findings[0].message.find("'live_count_'"), std::string::npos);
}

TEST(Census, LocalStaticFlagged) {
  const auto r = run({{"src/util/bad.cpp",
                       "int next_id() {\n"
                       "  static int id = 0;\n"
                       "  return ++id;\n"
                       "}\n"}});
  EXPECT_TRUE(fires(r.findings, "local-static"));
  EXPECT_FALSE(fires(r.findings, "singleton"));
}

TEST(Census, MeyersSingletonFlaggedAsSingleton) {
  const auto r = run({{"src/util/bad.cpp",
                       "Logger& logger() {\n"
                       "  static Logger instance;\n"
                       "  return instance;\n"
                       "}\n"}});
  EXPECT_TRUE(fires(r.findings, "singleton"));
  EXPECT_FALSE(fires(r.findings, "local-static"));
}

TEST(Census, ConstLocalStaticClean) {
  const auto r = run({{"src/util/good.cpp",
                       "int table(int i) {\n"
                       "  static const int t[3] = {1, 2, 3};\n"
                       "  return t[i];\n"
                       "}\n"}});
  EXPECT_FALSE(fires(r.findings, "local-static"));
  EXPECT_FALSE(fires(r.findings, "singleton"));
}

// --- waivers ------------------------------------------------------------

TEST(Waivers, SuppressExactlyTheNamedRuleAndAreCounted) {
  const auto r = run({{"src/util/registry.cpp",
                       "namespace rbcast {\n"
                       "int counter = 0;  // analyze:allow(mutable-global) "
                       "single-threaded tool state\n"
                       "}\n"}});
  EXPECT_FALSE(fires(r.findings, "mutable-global"));
  EXPECT_FALSE(fires(r.findings, "stale-waiver"));
  ASSERT_EQ(1u, r.waivers.size());
  EXPECT_EQ("mutable-global", r.waivers[0].rule);
  EXPECT_EQ(2, r.waivers[0].line);
  EXPECT_EQ("single-threaded tool state", r.waivers[0].reason);
}

TEST(Waivers, WrongRuleNameLeavesFindingAndGoesStale) {
  const auto r = run({{"src/util/registry.cpp",
                       "namespace rbcast {\n"
                       "int counter = 0;  // analyze:allow(singleton) "
                       "misfiled\n"
                       "}\n"}});
  EXPECT_TRUE(fires(r.findings, "mutable-global"));
  EXPECT_TRUE(fires(r.findings, "stale-waiver"));
  EXPECT_TRUE(r.waivers.empty());
}

TEST(Waivers, StaleWaiverOnCleanLineIsAFinding) {
  const auto r = run({{"src/util/clean.cpp",
                       "int add(int a, int b) {\n"
                       "  return a + b;  // analyze:allow(mutable-global) "
                       "nothing here\n"
                       "}\n"}});
  ASSERT_TRUE(fires(r.findings, "stale-waiver"));
  EXPECT_EQ(2, r.findings[0].line);
}

TEST(Waivers, LeftoverHotAllocWaiverIsStale) {
  // Allocation discipline is measured (hot_path_alloc_test), not scanned:
  // the retired allocation rule no longer exists, so a waiver naming it
  // matches nothing.
  const auto r = run({{"src/sim/event_queue.cpp",
                       "void EventQueue::schedule(Event e) {\n"
                       "  heap_.push_back(e);  // analyze:allow(hot-alloc) "
                       "amortized growth\n"
                       "}\n"}});
  ASSERT_EQ(1u, r.findings.size());
  EXPECT_EQ("stale-waiver", r.findings[0].rule);
  EXPECT_EQ(2, r.findings[0].line);
  EXPECT_TRUE(r.waivers.empty());
}

// --- ratchet ------------------------------------------------------------

TEST(Ratchet, CountsFindingsAndWaiversPerRule) {
  const auto r = run({{"src/util/registry.cpp",
                       "namespace rbcast {\n"
                       "int a = 0;\n"
                       "int b = 0;  // analyze:allow(mutable-global) ok\n"
                       "}\n"}});
  const Ratchet c = count(r);
  EXPECT_EQ(1, c.findings.at("mutable-global"));
  EXPECT_EQ(1, c.waivers.at("mutable-global"));
}

TEST(Ratchet, JsonRoundTrip) {
  Ratchet r;
  r.findings = {{"singleton", 3}, {"layer-violation", 1}};
  r.waivers = {{"singleton", 2}};
  const auto parsed = ratchet_from_json(ratchet_to_json(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(r, *parsed);
}

TEST(Ratchet, MalformedBaselineFailsClosed) {
  EXPECT_FALSE(ratchet_from_json("").has_value());
  EXPECT_FALSE(ratchet_from_json("not json at all").has_value());
  EXPECT_FALSE(ratchet_from_json("{\"findings\": [1, 2]}").has_value());
}

TEST(Ratchet, OutOfRangeOrMalformedCountsFailClosed) {
  // 4294967308 = 2^32 + 12: must not wrap to a count of 12.
  EXPECT_FALSE(ratchet_from_json(
                   R"({"findings": {"singleton": 4294967308}, "waivers": {}})")
                   .has_value());
  EXPECT_FALSE(
      ratchet_from_json(R"({"findings": {"singleton": -1}, "waivers": {}})")
          .has_value());
  EXPECT_FALSE(
      ratchet_from_json(R"({"findings": {"singleton": 1.5}, "waivers": {}})")
          .has_value());
  EXPECT_FALSE(
      ratchet_from_json(R"({"findings": {"bad\q": 1}, "waivers": {}})")
          .has_value());
  const auto max = ratchet_from_json(
      R"({"findings": {"singleton": 2147483647}, "waivers": {}})");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->findings.at("singleton"), 2147483647);
}

TEST(Ratchet, CompareFlagsRegression) {
  Ratchet base, cur;
  base.findings = {{"singleton", 1}};
  cur.findings = {{"singleton", 2}};
  const RatchetDiff d = compare_ratchet(base, cur);
  EXPECT_TRUE(d.regressed);
  EXPECT_FALSE(d.improved);
}

TEST(Ratchet, CompareFlagsImprovement) {
  Ratchet base, cur;
  base.findings = {{"singleton", 2}};
  cur.findings = {{"singleton", 1}};
  const RatchetDiff d = compare_ratchet(base, cur);
  EXPECT_FALSE(d.regressed);
  EXPECT_TRUE(d.improved);
}

TEST(Ratchet, DisjointRuleNamesUseImplicitZero) {
  // A rule only in the baseline has dropped to 0 (improvement); a rule
  // only in the current run rose from 0 (regression). Both at once.
  Ratchet base, cur;
  base.findings = {{"old-rule", 1}};
  cur.findings = {{"new-rule", 1}};
  const RatchetDiff d = compare_ratchet(base, cur);
  EXPECT_TRUE(d.regressed);
  EXPECT_TRUE(d.improved);
}

TEST(Ratchet, WaiverGrowthAloneRegresses) {
  // Waivers are tracked debt: converting a finding into a waiver still
  // raises the waiver count and must trip the gate.
  Ratchet base, cur;
  base.findings = {{"singleton", 1}};
  cur.waivers = {{"singleton", 2}};
  const RatchetDiff d = compare_ratchet(base, cur);
  EXPECT_TRUE(d.regressed);
}

TEST(Ratchet, EqualCountsAreClean) {
  Ratchet base, cur;
  base.findings = cur.findings = {{"singleton", 2}};
  base.waivers = cur.waivers = {{"singleton", 1}};
  const RatchetDiff d = compare_ratchet(base, cur);
  EXPECT_FALSE(d.regressed);
  EXPECT_FALSE(d.improved);
}

// --- scope scanner ------------------------------------------------------

TEST(ScopeScanner, ClassifiesHeads) {
  const std::vector<Scope> empty;
  EXPECT_EQ(ScopeKind::kNamespace, classify_head("namespace rbcast::sim", empty).kind);
  EXPECT_EQ(ScopeKind::kType, classify_head("class EventQueue final", empty).kind);
  EXPECT_EQ("EventQueue", classify_head("class EventQueue final", empty).name);
  EXPECT_EQ(ScopeKind::kBlock, classify_head("if (x > 0)", empty).kind);
  EXPECT_EQ(ScopeKind::kBlock, classify_head("for (int i = 0; i < n; ++i)", empty).kind);

  const Scope fn = classify_head("void EventQueue::pop()", empty);
  EXPECT_EQ(ScopeKind::kFunction, fn.kind);
  EXPECT_EQ("EventQueue::pop", fn.name);
}

TEST(ScopeScanner, QualifiesInClassMethodWithEnclosingType) {
  const std::vector<Scope> stack = {{ScopeKind::kNamespace, "rbcast"},
                                    {ScopeKind::kType, "SeqSet"}};
  const Scope fn = classify_head("bool contains(Seq s) const", stack);
  EXPECT_EQ(ScopeKind::kFunction, fn.kind);
  EXPECT_EQ("SeqSet::contains", fn.name);
}

TEST(ScopeScanner, MemberCallWithLambdaIsABlockNotAFunction) {
  // "queue_.schedule(t, [this]" precedes the lambda's '{' — classifying it
  // as function "schedule" would misattribute nested statements.
  const std::vector<Scope> empty;
  EXPECT_EQ(ScopeKind::kBlock,
            classify_head("queue_.schedule(t, [this]", empty).kind);
}

}  // namespace
}  // namespace rbcast::analyze
