// rbcast_analyze rule engine.
//
// Whole-repo analysis of the rules clang-tidy cannot express. Three
// passes over src/:
//
//   layer graph      extracts the quoted-include graph and enforces the
//                    declared layer DAG (util -> sim -> topo -> net ->
//                    core -> trace/model -> harness) plus explicit
//                    forbidden edges: src/core must not include sim/ or
//                    harness/ headers — the precondition for extracting
//                    BroadcastHost behind a Transport interface. Also
//                    detects include cycles and exports the graph as DOT.
//
//   state census     flags shared mutable state: non-const namespace-scope
//                    variables (mutable-global), non-const function-local
//                    statics (local-static), and Meyers singletons
//                    (singleton). This census is the worklist for the
//                    conservative-parallel-DES shard work: every hit must
//                    be fixed or carry a waiver explaining why it is safe.
//
//   determinism      per-line rules that keep every run replayable from
//                    its seed, on src/ paths only:
//     raw-random            rand()/srand()/time(NULL)/std::random_device/
//                           wall-clock reads outside the seeded stream
//                           factory src/util/rng.*
//     unordered-container   std::unordered_map / std::unordered_set in the
//                           protocol layers (src/core, src/sim, src/net):
//                           hash iteration order is not stable across
//                           libraries, ASLR or seeds
//     unordered-range-for   range-for over an identifier declared with an
//                           unordered container type anywhere in the input
//     direct-output         std::cout / printf in the protocol layers; all
//                           diagnostics go through src/util/logging.h so
//                           the virtual clock is attached and tests stay
//                           silent
//     raw-assert            assert() / <cassert>; invariants use
//                           RBCAST_ASSERT (src/util/assert.h) so they fire
//                           in release builds too
//     pragma-once           every header carries #pragma once (in code, not
//                           in a comment)
//
// Allocations are measured, not scanned: tests/hot_path_alloc_test.cpp and
// tests/info_alloc_test.cpp count them with a counting operator new.
//
// A line can waive one rule with a trailing comment:
//   // analyze:allow(rule-name) reason
// Waivers are themselves counted and ratcheted (a regression in waiver
// count fails CI too — annotations are a tracked debt, not an escape
// hatch).
//
// The engine is pure (paths + contents in, findings out) so
// tests/analyze_engine_test.cpp and tests/lint_rules_test.cpp can feed it
// synthetic file sets.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rbcast::analyze {

struct Finding {
  std::string file;
  int line{0};
  std::string rule;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

// A finding waived in source with "// analyze:allow(rule) reason".
struct Waiver {
  std::string file;
  int line{0};
  std::string rule;
  std::string reason;

  friend bool operator==(const Waiver&, const Waiver&) = default;
};

// One repo file handed to the engine. `path` is repo-relative with forward
// slashes ("src/core/broadcast_host.cpp").
struct FileInput {
  std::string path;
  std::string contents;
};

// --- layer model --------------------------------------------------------

// Declared layering of src/: a file in layer L may include headers only
// from layers with rank() <= rank(L), except that edges listed in
// `forbidden` are banned regardless of rank. Layer names are the first
// directory component under src/ ("core" for src/core/...).
struct LayerSpec {
  std::map<std::string, int> rank;
  // from-layer -> to-layer edges banned even when ranks would allow them.
  std::vector<std::pair<std::string, std::string>> forbidden;
  // from-layer -> to-layer edges allowed ONLY through the named headers
  // (resolved repo-relative paths), regardless of rank. This is how
  // "core may see the abstract Transport interface but never a backend"
  // is enforced by the gate instead of by convention.
  struct InterfaceEdge {
    std::string from;
    std::string to;
    std::set<std::string> headers;
  };
  std::vector<InterfaceEdge> interface_only;
};

// The repo's declared DAG (see DESIGN.md §11).
[[nodiscard]] LayerSpec default_layer_spec();

// --- analysis -----------------------------------------------------------

struct AnalysisResult {
  std::vector<Finding> findings;   // ordered by (file, line)
  std::vector<Waiver> waivers;     // ordered by (file, line)
  // Quoted-include edges between repo files (both endpoints in the input
  // set), for DOT export and the layer pass.
  std::map<std::string, std::set<std::string>> include_graph;
};

[[nodiscard]] AnalysisResult analyze(const std::vector<FileInput>& files,
                                     const LayerSpec& layers);

// Graphviz rendering of the include graph, one cluster per layer.
[[nodiscard]] std::string to_dot(
    const std::map<std::string, std::set<std::string>>& graph);

// Full machine-readable report (findings, waivers, per-rule counts).
[[nodiscard]] std::string to_json(const AnalysisResult& result);

// --- ratchet ------------------------------------------------------------

// Per-rule finding and waiver counts — the unit the CI gate compares.
struct Ratchet {
  std::map<std::string, int> findings;
  std::map<std::string, int> waivers;

  friend bool operator==(const Ratchet&, const Ratchet&) = default;
};

[[nodiscard]] Ratchet count(const AnalysisResult& result);

[[nodiscard]] std::string ratchet_to_json(const Ratchet& r);

// Parses a committed baseline; nullopt on malformed input (the gate then
// fails closed).
[[nodiscard]] std::optional<Ratchet> ratchet_from_json(std::string_view json);

// Baseline-vs-current comparison. A rule present on only one side is
// treated as count 0 on the other (so brand-new rules start ratcheted at
// zero and fully fixed rules may disappear from the baseline).
struct RatchetDiff {
  bool regressed{false};  // any count rose — the gate must fail
  bool improved{false};   // any count fell — the baseline can shrink
  std::vector<std::string> lines;  // human-readable per-rule deltas
};

[[nodiscard]] RatchetDiff compare_ratchet(const Ratchet& baseline,
                                          const Ratchet& current);

}  // namespace rbcast::analyze
