#include "analyze/analyze_engine.h"

#include <algorithm>
#include <functional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <variant>

#include "analyze/source_scanner.h"
#include "util/json.h"

namespace rbcast::analyze {

namespace {

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// Layer of a src/ file: the first directory component under src/, or ""
// for files directly under src/ (the umbrella header), which are exempt.
std::string layer_of(std::string_view path) {
  if (!path.starts_with("src/")) return "";
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(rest.substr(0, slash));
}

// Resolves a quoted include against the analyzed file set: `target`
// matches path P when P == target or P ends with "/target" (the repo
// compiles with -I src, so "core/foo.h" resolves to "src/core/foo.h").
std::string resolve_include(const std::string& target,
                            const std::set<std::string>& known) {
  if (known.contains(target)) return target;
  const std::string suffix = "/" + target;
  for (const std::string& p : known) {
    if (p.size() > suffix.size() &&
        p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return p;
    }
  }
  return "";
}

struct IncludeEdge {
  std::string to;  // resolved repo-relative path
  int line;
};

// The stripper blanks string-literal contents, so the directive shape is
// matched on the stripped line (which kills commented-out includes) while
// the path itself is captured from the original line.
std::vector<IncludeEdge> extract_includes(
    const std::vector<std::string>& code_lines,
    const std::vector<std::string>& orig_lines,
    const std::set<std::string>& known) {
  std::vector<IncludeEdge> edges;
  static const std::regex shape_re(R"(^\s*#\s*include\s*")");
  static const std::regex path_re(R"(#\s*include\s*"([^"]+)\")");
  for (std::size_t n = 0; n < code_lines.size() && n < orig_lines.size();
       ++n) {
    if (!std::regex_search(code_lines[n], shape_re)) continue;
    std::smatch m;
    if (std::regex_search(orig_lines[n], m, path_re)) {
      const std::string resolved = resolve_include(m.str(1), known);
      if (!resolved.empty()) {
        edges.push_back(IncludeEdge{resolved, static_cast<int>(n) + 1});
      }
    }
  }
  return edges;
}

// --- waivers ------------------------------------------------------------

struct WaiverSite {
  std::string rule;
  std::string reason;
  bool used{false};
};

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  const auto last = s.find_last_not_of(" \t\r");
  if (first == std::string::npos) return "";
  return s.substr(first, last - first + 1);
}

// Collects "// analyze:allow(rule) reason" comments, keyed by line.
std::map<int, WaiverSite> collect_waivers(
    const std::vector<std::string>& orig_lines) {
  std::map<int, WaiverSite> waivers;
  static const std::regex allow_re(
      R"(//\s*analyze:allow\(([A-Za-z0-9_-]+)\)\s*(.*))");
  for (std::size_t n = 0; n < orig_lines.size(); ++n) {
    std::smatch m;
    if (std::regex_search(orig_lines[n], m, allow_re)) {
      waivers[static_cast<int>(n) + 1] =
          WaiverSite{m.str(1), trim(m.str(2)), false};
    }
  }
  return waivers;
}

// --- per-file analysis context ------------------------------------------

struct FileAnalysis {
  std::string path;
  std::string code;                       // comment-stripped
  std::vector<std::string> orig_lines;
  std::vector<std::string> code_lines;
  std::map<int, WaiverSite> waivers;
  std::vector<Finding> raw;               // findings before waiver filter
};

void add(FileAnalysis& fa, int line, std::string rule, std::string message) {
  fa.raw.push_back(
      Finding{fa.path, line, std::move(rule), std::move(message)});
}

// --- state census -------------------------------------------------------

// Extracts the declared variable name from a collapsed declaration
// statement: the last identifier before '=' (or before the end when there
// is no initializer).
std::string declared_name(const std::string& stmt) {
  std::string decl = stmt.substr(0, stmt.find('='));
  static const std::regex id_re(R"(([A-Za-z_]\w*))");
  std::string last;
  for (std::sregex_iterator it(decl.begin(), decl.end(), id_re), end;
       it != end; ++it) {
    last = it->str(1);
  }
  return last;
}

bool is_immutable_decl(const std::string& stmt) {
  return contains_word(stmt, "const") || contains_word(stmt, "constexpr") ||
         contains_word(stmt, "constinit");
}

bool is_not_a_variable(const std::string& stmt) {
  return contains_word(stmt, "using") || contains_word(stmt, "typedef") ||
         contains_word(stmt, "friend") || contains_word(stmt, "template") ||
         contains_word(stmt, "static_assert") ||
         contains_word(stmt, "return") || contains_word(stmt, "extern") ||
         contains_word(stmt, "operator") || stmt.starts_with("#") ||
         // Forward declarations ("struct Config") and enum declarations.
         contains_word(stmt, "class") || contains_word(stmt, "struct") ||
         contains_word(stmt, "union") || contains_word(stmt, "enum") ||
         // Namespace aliases ("namespace inv = model::invariants").
         contains_word(stmt, "namespace");
}

// True when `stmt` declares a variable (rather than a function): either it
// has no parameter list at all, or an initializer '=' appears before the
// first '('.
bool looks_like_variable(const std::string& stmt) {
  const std::size_t paren = stmt.find('(');
  const std::size_t eq = stmt.find('=');
  if (paren != std::string::npos) {
    return eq != std::string::npos && eq < paren;
  }
  // "int x" / "std::vector<int> v" / "int x = 0" — look only at the
  // declarator before any initializer (the initializer may end in a
  // number) and require at least two identifiers (a type and a name).
  const std::string decl = stmt.substr(0, eq);
  static const std::regex two_ids(R"([A-Za-z_]\w*.*[\s>&*][A-Za-z_]\w*\s*$)");
  return std::regex_search(decl, two_ids);
}

struct LocalStatic {
  std::string function;
  std::string name;
  int line;
};

void census_pass(FileAnalysis& fa) {
  ScopeScanner scanner(fa.code);
  std::vector<LocalStatic> local_statics;
  std::set<std::string> returned;  // "function\0identifier" pairs

  scanner.run([&](const std::string& stmt, int line) {
    if (stmt.empty()) return;
    const bool in_function = !scanner.enclosing_function().empty();

    if (in_function) {
      if (contains_word(stmt, "static") && !is_immutable_decl(stmt) &&
          !contains_word(stmt, "static_assert")) {
        const std::string name = declared_name(stmt);
        if (!name.empty()) {
          local_statics.push_back(
              LocalStatic{scanner.enclosing_function(), name, line});
        }
      }
      static const std::regex ret_re(R"(^return\s+([A-Za-z_]\w*)$)");
      std::smatch m;
      if (std::regex_match(stmt, m, ret_re)) {
        returned.insert(scanner.enclosing_function() + '\0' + m.str(1));
      }
      return;
    }

    if (scanner.at_namespace_scope()) {
      if (is_not_a_variable(stmt) || is_immutable_decl(stmt)) return;
      if (!looks_like_variable(stmt)) return;
      add(fa, line, "mutable-global",
          "namespace-scope mutable variable '" + declared_name(stmt) +
              "': hidden shared state blocks sharded parallel simulation; "
              "make it const, pass it explicitly, or waive with a reason");
      return;
    }

    // Class scope: a non-const static data member is shared mutable state
    // too (one instance across every simulation in the process).
    if (!scanner.enclosing_type().empty() && contains_word(stmt, "static") &&
        !is_immutable_decl(stmt) && !contains_word(stmt, "static_assert") &&
        looks_like_variable(stmt)) {
      add(fa, line, "mutable-global",
          "non-const static data member '" + declared_name(stmt) +
              "' is process-wide shared state; make it per-instance or "
              "const");
    }
  });

  for (const LocalStatic& ls : local_statics) {
    if (returned.contains(ls.function + '\0' + ls.name)) {
      add(fa, ls.line, "singleton",
          "function-local static '" + ls.name + "' returned from '" +
              ls.function +
              "' is a singleton; shared across all simulations in the "
              "process — a shard-parallel run needs it per-instance");
    } else {
      add(fa, ls.line, "local-static",
          "function-local static '" + ls.name + "' in '" + ls.function +
              "' is hidden mutable state; hoist it into the owning object "
              "or make it constant");
    }
  }
}

// --- determinism rules --------------------------------------------------

// The protocol layers, where hash-order containers and direct output are
// banned outright.
bool in_protocol_layer(std::string_view path) {
  const std::string layer = layer_of(path);
  return layer == "core" || layer == "sim" || layer == "net";
}

// Extracts the range expression of a range-based for on `line`
// ("for (decl : expr)"), or "" when the line has none. Good enough for the
// single-line loops this codebase writes; a loop split across lines is the
// clang-tidy gate's problem, not ours.
std::string range_for_expr(const std::string& line) {
  static const std::regex head(R"(\bfor\s*\()");
  std::smatch m;
  if (!std::regex_search(line, m, head)) return {};
  const std::size_t open = static_cast<std::size_t>(m.position(0)) +
                           m.str(0).size() - 1;
  int paren = 0;
  int angle = 0;
  int bracket = 0;
  std::size_t colon = std::string::npos;
  std::size_t close = std::string::npos;
  for (std::size_t i = open; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(') ++paren;
    else if (c == ')') {
      --paren;
      if (paren == 0) {
        close = i;
        break;
      }
    } else if (c == '<') ++angle;
    else if (c == '>') angle = angle > 0 ? angle - 1 : 0;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
    else if (c == ':' && paren == 1 && angle == 0 && bracket == 0 &&
             colon == std::string::npos) {
      // Skip scope resolution '::'.
      const bool scope = (i + 1 < line.size() && line[i + 1] == ':') ||
                         (i > 0 && line[i - 1] == ':');
      if (!scope) colon = i;
    }
  }
  if (colon == std::string::npos || close == std::string::npos) return {};
  return trim(line.substr(colon + 1, close - colon - 1));
}

void determinism_pass(FileAnalysis& fa,
                      const std::set<std::string>& unordered_ids) {
  static const std::regex raw_random_re(
      R"(std::random_device)"
      R"(|\brand\s*\()"
      R"(|\bsrand\s*\()"
      R"(|\btime\s*\(\s*(NULL|nullptr|0)?\s*\))"
      R"(|\bclock\s*\(\s*\))"
      R"(|\bgettimeofday\s*\()"
      R"(|std::chrono::(system_clock|steady_clock|high_resolution_clock)::now)");
  static const std::regex unordered_container_re(
      R"(std::unordered_(map|set)\b|#\s*include\s*<unordered_(map|set)>)");
  static const std::regex direct_output_re(
      R"(std::cout\b|std::cerr\b|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\()");
  static const std::regex raw_assert_re(
      R"(\bassert\s*\(|#\s*include\s*<cassert>|#\s*include\s*<assert\.h>)");

  if (!fa.path.starts_with("src/")) return;
  const bool protocol = in_protocol_layer(fa.path);
  const bool rng_ok =
      fa.path == "src/util/rng.h" || fa.path == "src/util/rng.cpp";

  for (std::size_t n = 0; n < fa.code_lines.size(); ++n) {
    const std::string& line = fa.code_lines[n];
    const int lineno = static_cast<int>(n) + 1;

    if (!rng_ok && std::regex_search(line, raw_random_re)) {
      add(fa, lineno, "raw-random",
          "nondeterministic randomness/time source; draw from a named "
          "util::RngFactory stream (src/util/rng.h) so runs replay from "
          "their seed");
    }
    if (protocol && std::regex_search(line, unordered_container_re)) {
      add(fa, lineno, "unordered-container",
          "unordered containers iterate in hash order, which varies across "
          "standard libraries and runs; use std::map/std::set or keep a "
          "sorted snapshot");
    }
    if (!unordered_ids.empty()) {
      const std::string expr = range_for_expr(line);
      if (!expr.empty() && unordered_ids.contains(expr)) {
        add(fa, lineno, "unordered-range-for",
            "range-for over unordered container '" + expr +
                "' is seed-irreproducible; iterate a sorted snapshot");
      }
    }
    if (protocol && std::regex_search(line, direct_output_re)) {
      add(fa, lineno, "direct-output",
          "direct stdout/stderr output in protocol code; use "
          "RBCAST_LOG/RBCAST_INFO (src/util/logging.h) so records carry "
          "virtual time and tests stay silent");
    }
    if (std::regex_search(line, raw_assert_re)) {
      add(fa, lineno, "raw-assert",
          "raw assert() compiles out under NDEBUG; use RBCAST_ASSERT "
          "(src/util/assert.h) so invariants hold in release builds");
    }
  }

  // Searched in the stripped text, so a commented-out guard does not count.
  if (fa.path.ends_with(".h") &&
      fa.code.find("#pragma once") == std::string::npos) {
    add(fa, 1, "pragma-once", "header is missing #pragma once");
  }
}

// --- include cycles -----------------------------------------------------

void find_cycles(const std::map<std::string, std::set<std::string>>& graph,
                 std::vector<Finding>& out) {
  // Iterative DFS with colors; reports each back edge as one cycle,
  // reconstructing the path for the message. Deterministic: maps iterate
  // sorted.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;

  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        path.push_back(node);
        auto it = graph.find(node);
        if (it != graph.end()) {
          for (const std::string& next : it->second) {
            if (color[next] == 1) {
              std::string cycle;
              auto start = std::find(path.begin(), path.end(), next);
              for (auto p = start; p != path.end(); ++p) {
                cycle += *p + " -> ";
              }
              cycle += next;
              out.push_back(Finding{
                  node, 0, "include-cycle",
                  "include cycle: " + cycle +
                      "; break it with a forward declaration or by moving "
                      "the shared type down a layer"});
            } else if (color[next] == 0) {
              visit(next);
            }
          }
        }
        color[node] = 2;
        path.pop_back();
      };

  for (const auto& [node, _] : graph) {
    if (color[node] == 0) visit(node);
  }
}

}  // namespace

LayerSpec default_layer_spec() {
  LayerSpec spec;
  // util -> sim -> topo -> net -> transport -> core -> trace/model ->
  // harness. A file may include same-rank and lower-rank layers only.
  spec.rank = {
      {"util", 0},  {"sim", 1},   {"topo", 2},  {"net", 3}, {"transport", 4},
      {"core", 5},  {"trace", 6}, {"model", 6}, {"harness", 7},
  };
  // The Transport-extraction precondition: the protocol automaton must not
  // reach into the simulator or the experiment harness even though their
  // ranks would otherwise allow (sim) the edge.
  spec.forbidden = {{"core", "sim"}, {"core", "harness"}};
  // Backend blindness: core sees the network and the transport layer only
  // through their abstract interface headers. Concrete endpoints
  // (net/network.h) and backends (transport/udp_transport.h,
  // transport/sim_transport.h) are off limits even though the rank order
  // would permit them.
  spec.interface_only = {
      {"core", "transport", {"src/transport/transport.h"}},
      {"core", "net", {"src/net/message.h"}},
  };
  return spec;
}

AnalysisResult analyze(const std::vector<FileInput>& files,
                       const LayerSpec& layers) {
  AnalysisResult result;

  std::set<std::string> known;
  for (const FileInput& f : files) known.insert(f.path);

  std::vector<FileAnalysis> analyses;
  analyses.reserve(files.size());
  // Identifiers declared with an unordered container type anywhere in the
  // input, so the determinism pass can flag their iteration in any file.
  std::set<std::string> unordered_ids;
  for (const FileInput& f : files) {
    FileAnalysis fa;
    fa.path = f.path;
    fa.code = strip_comments(f.contents);
    fa.orig_lines = split_lines(f.contents);
    fa.code_lines = split_lines(fa.code);
    fa.waivers = collect_waivers(fa.orig_lines);
    for (std::string& id : unordered_identifiers(fa.code)) {
      unordered_ids.insert(std::move(id));
    }
    analyses.push_back(std::move(fa));
  }

  for (FileAnalysis& fa : analyses) {
    // Pass 1: include graph + layer rules.
    const std::string from_layer = layer_of(fa.path);
    for (const IncludeEdge& edge :
         extract_includes(fa.code_lines, fa.orig_lines, known)) {
      result.include_graph[fa.path].insert(edge.to);
      if (from_layer.empty()) continue;  // umbrella header etc.
      const std::string to_layer = layer_of(edge.to);
      if (to_layer.empty()) continue;

      const auto from_rank = layers.rank.find(from_layer);
      const auto to_rank = layers.rank.find(to_layer);
      if (from_rank == layers.rank.end()) {
        add(fa, edge.line, "layer-unknown",
            "layer '" + from_layer +
                "' is not in the declared DAG; add it to the LayerSpec "
                "(tools/analyze) and DESIGN.md §11");
        continue;
      }
      if (to_rank == layers.rank.end()) continue;  // reported at its files

      const bool forbidden =
          std::find(layers.forbidden.begin(), layers.forbidden.end(),
                    std::make_pair(from_layer, to_layer)) !=
          layers.forbidden.end();
      const LayerSpec::InterfaceEdge* iface = nullptr;
      for (const auto& e : layers.interface_only) {
        if (e.from == from_layer && e.to == to_layer) {
          iface = &e;
          break;
        }
      }
      if (forbidden) {
        add(fa, edge.line, "layer-violation",
            "forbidden edge " + from_layer + " -> " + to_layer +
                ": core must stay runnable without the " + to_layer +
                " layer (Transport extraction precondition); depend on the "
                "util abstraction instead");
      } else if (iface != nullptr &&
                 iface->headers.find(edge.to) == iface->headers.end()) {
        add(fa, edge.line, "layer-violation",
            "edge " + from_layer + " -> " + to_layer +
                " is interface-only: '" + edge.to +
                "' is a concrete header; include only the abstract "
                "interface (" + *iface->headers.begin() + ")");
      } else if (to_rank->second > from_rank->second) {
        add(fa, edge.line, "layer-violation",
            "include of '" + edge.to + "' climbs the layer DAG (" +
                from_layer + " rank " + std::to_string(from_rank->second) +
                " -> " + to_layer + " rank " +
                std::to_string(to_rank->second) +
                "); invert the dependency or move the shared type down");
      }
    }

    // Pass 2: shared-state census.
    census_pass(fa);

    // Pass 3: per-line determinism rules.
    determinism_pass(fa, unordered_ids);
  }

  // Include cycles are a whole-graph property; attribute each to the file
  // that closes the cycle (line 0 — a cycle has no single line).
  std::vector<Finding> cycle_findings;
  find_cycles(result.include_graph, cycle_findings);

  // Apply waivers and collect.
  for (FileAnalysis& fa : analyses) {
    std::sort(fa.raw.begin(), fa.raw.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    for (Finding& f : fa.raw) {
      auto it = fa.waivers.find(f.line);
      if (it != fa.waivers.end() && it->second.rule == f.rule) {
        it->second.used = true;
        result.waivers.push_back(
            Waiver{f.file, f.line, f.rule, it->second.reason});
      } else {
        result.findings.push_back(std::move(f));
      }
    }
    // A waiver that matches nothing is itself a finding: stale annotations
    // hide real debt and rot fast.
    for (const auto& [line, site] : fa.waivers) {
      if (!site.used) {
        result.findings.push_back(Finding{
            fa.path, line, "stale-waiver",
            "analyze:allow(" + site.rule +
                ") does not match any finding on this line; remove it"});
      }
    }
  }
  for (Finding& f : cycle_findings) result.findings.push_back(std::move(f));

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  std::sort(result.waivers.begin(), result.waivers.end(),
            [](const Waiver& a, const Waiver& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

std::string to_dot(const std::map<std::string, std::set<std::string>>& graph) {
  // Group nodes into per-layer clusters so the DAG reads top-to-bottom.
  std::map<std::string, std::vector<std::string>> by_layer;
  std::set<std::string> nodes;
  for (const auto& [from, tos] : graph) {
    nodes.insert(from);
    for (const std::string& to : tos) nodes.insert(to);
  }
  for (const std::string& n : nodes) {
    by_layer[layer_of(n).empty() ? "(root)" : layer_of(n)].push_back(n);
  }

  std::ostringstream os;
  os << "digraph includes {\n  rankdir=BT;\n  node [shape=box, "
        "fontsize=10];\n";
  for (const auto& [layer, members] : by_layer) {
    os << "  subgraph \"cluster_" << layer << "\" {\n    label=\"" << layer
       << "\";\n";
    for (const std::string& n : members) {
      os << "    \"" << n << "\";\n";
    }
    os << "  }\n";
  }
  for (const auto& [from, tos] : graph) {
    for (const std::string& to : tos) {
      os << "  \"" << from << "\" -> \"" << to << "\";\n";
    }
  }
  os << "}\n";
  return os.str();
}

Ratchet count(const AnalysisResult& result) {
  Ratchet r;
  for (const Finding& f : result.findings) ++r.findings[f.rule];
  for (const Waiver& w : result.waivers) ++r.waivers[w.rule];
  return r;
}

std::string to_json(const AnalysisResult& result) {
  const Ratchet r = count(result);
  std::ostringstream os;
  // One report entry: {"file": ..., "line": N, "rule": ..., "<key>": ...}.
  auto entry = [&os](const std::string& file, int line,
                     const std::string& rule, const char* key,
                     const std::string& text, bool last) {
    os << "    {\"file\": ";
    util::write_json_string(os, file);
    os << ", \"line\": " << line << ", \"rule\": ";
    util::write_json_string(os, rule);
    os << ", \"" << key << "\": ";
    util::write_json_string(os, text);
    os << "}" << (last ? "" : ",") << "\n";
  };
  os << "{\n  \"findings\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    entry(f.file, f.line, f.rule, "message", f.message,
          i + 1 == result.findings.size());
  }
  os << "  ],\n  \"waivers\": [\n";
  for (std::size_t i = 0; i < result.waivers.size(); ++i) {
    const Waiver& w = result.waivers[i];
    entry(w.file, w.line, w.rule, "reason", w.reason,
          i + 1 == result.waivers.size());
  }
  os << "  ],\n  \"counts\": " << ratchet_to_json(r) << "\n}\n";
  return os.str();
}

std::string ratchet_to_json(const Ratchet& r) {
  auto emit_map = [](std::ostringstream& os,
                     const std::map<std::string, int>& m) {
    os << "{";
    bool first = true;
    for (const auto& [rule, n] : m) {
      if (!first) os << ", ";
      first = false;
      util::write_json_string(os, rule);
      os << ": " << n;
    }
    os << "}";
  };
  std::ostringstream os;
  os << "{\"findings\": ";
  emit_map(os, r.findings);
  os << ", \"waivers\": ";
  emit_map(os, r.waivers);
  os << "}";
  return os.str();
}

namespace {

// One per-rule count map of the baseline; nullopt unless every value is
// an integer in [0, INT_MAX].
std::optional<std::map<std::string, int>> count_map(const util::Json& v) {
  if (v.type != util::Json::Type::kObject) return std::nullopt;
  std::map<std::string, int> out;
  for (const auto& [rule, n] : v.members) {
    if (n.type != util::Json::Type::kNumber) return std::nullopt;
    const auto* count = std::get_if<std::uint64_t>(&n.number);
    if (count == nullptr || !std::in_range<int>(*count)) return std::nullopt;
    out[rule] = static_cast<int>(*count);
  }
  return out;
}

}  // namespace

// The baseline shape is exactly {"findings": {"rule": n, ...}, "waivers":
// {...}}. Anything else returns nullopt: the gate fails closed on a
// mangled baseline rather than silently passing.
std::optional<Ratchet> ratchet_from_json(std::string_view json) {
  util::Json root;
  try {
    root = util::parse_json(std::string(json), "analysis baseline");
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  if (root.type != util::Json::Type::kObject) return std::nullopt;
  Ratchet r;
  bool saw_findings = false;
  bool saw_waivers = false;
  for (const auto& [key, value] : root.members) {
    auto m = count_map(value);
    if (!m) return std::nullopt;
    if (key == "findings") {
      r.findings = std::move(*m);
      saw_findings = true;
    } else if (key == "waivers") {
      r.waivers = std::move(*m);
      saw_waivers = true;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_findings || !saw_waivers) return std::nullopt;
  return r;
}

RatchetDiff compare_ratchet(const Ratchet& baseline, const Ratchet& current) {
  RatchetDiff diff;
  auto compare_maps = [&](const std::map<std::string, int>& base,
                          const std::map<std::string, int>& cur,
                          const char* what) {
    std::set<std::string> rules;
    for (const auto& [r, _] : base) rules.insert(r);
    for (const auto& [r, _] : cur) rules.insert(r);
    for (const std::string& rule : rules) {
      const auto b = base.find(rule);
      const auto c = cur.find(rule);
      const int bn = b == base.end() ? 0 : b->second;
      const int cn = c == cur.end() ? 0 : c->second;
      if (cn > bn) {
        diff.regressed = true;
        diff.lines.push_back("REGRESSION " + std::string(what) + " " + rule +
                             ": " + std::to_string(bn) + " -> " +
                             std::to_string(cn));
      } else if (cn < bn) {
        diff.improved = true;
        diff.lines.push_back("improved " + std::string(what) + " " + rule +
                             ": " + std::to_string(bn) + " -> " +
                             std::to_string(cn) +
                             " (shrink the baseline: --update-baseline)");
      }
    }
  };
  compare_maps(baseline.findings, current.findings, "findings");
  compare_maps(baseline.waivers, current.waivers, "waivers");
  return diff;
}

}  // namespace rbcast::analyze
