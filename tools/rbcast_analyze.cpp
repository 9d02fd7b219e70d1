// rbcast_analyze — the repo's static gate, ratcheted.
//
// Runs the three passes documented in tools/analyze/analyze_engine.h
// (layer DAG over the include graph, shared-mutable-state census,
// per-line determinism rules) over src/ and compares per-rule counts
// against the committed baseline (ANALYSIS_baseline.json). The gate is a
// ratchet: any count rising over the baseline fails; counts falling
// prints a reminder to shrink the baseline, and --update-baseline refuses
// to raise any number, so the baseline can only ever go down.
//
// Usage:
//   rbcast_analyze [repo-root] [options]
//     --baseline FILE    compare against a committed ratchet (gate mode)
//     --update-baseline  rewrite --baseline FILE with the (lower) counts
//     --json FILE        write the full findings report
//     --dot FILE         write the include graph as Graphviz DOT
//     --quiet            suppress per-finding output
//
// Exit codes: 0 clean (or no regression in gate mode), 1 findings or
// ratchet regression, 2 usage/IO error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze_engine.h"

namespace fs = std::filesystem;

namespace {

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const fs::path& p, const std::string& contents) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string baseline_path;
  std::string json_path;
  std::string dot_path;
  bool update_baseline = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "rbcast_analyze: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline_path = value("--baseline");
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--json") {
      json_path = value("--json");
    } else if (arg == "--dot") {
      dot_path = value("--dot");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rbcast_analyze: unknown option " << arg << "\n";
      return 2;
    } else {
      root = arg;
    }
  }
  if (update_baseline && baseline_path.empty()) {
    std::cerr << "rbcast_analyze: --update-baseline needs --baseline FILE\n";
    return 2;
  }

  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::cerr << "rbcast_analyze: no src/ under " << root << "\n";
    return 2;
  }

  // Deterministic file order (directory iteration order is OS-dependent).
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && analyzable(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<rbcast::analyze::FileInput> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    files.push_back(rbcast::analyze::FileInput{
        fs::relative(p, root).generic_string(), read_file(p)});
  }

  const rbcast::analyze::AnalysisResult result = rbcast::analyze::analyze(
      files, rbcast::analyze::default_layer_spec());
  const rbcast::analyze::Ratchet current = rbcast::analyze::count(result);

  if (!quiet) {
    for (const auto& f : result.findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }

  if (!json_path.empty() &&
      !write_file(json_path, rbcast::analyze::to_json(result))) {
    std::cerr << "rbcast_analyze: cannot write " << json_path << "\n";
    return 2;
  }
  if (!dot_path.empty() &&
      !write_file(dot_path, rbcast::analyze::to_dot(result.include_graph))) {
    std::cerr << "rbcast_analyze: cannot write " << dot_path << "\n";
    return 2;
  }

  std::cout << "rbcast_analyze: " << files.size() << " files, "
            << result.findings.size() << " finding(s), "
            << result.waivers.size() << " waiver(s)\n";

  if (baseline_path.empty()) {
    return result.findings.empty() ? 0 : 1;
  }

  // Gate mode: compare against the committed ratchet.
  const std::string baseline_text = read_file(baseline_path);
  if (baseline_text.empty()) {
    std::cerr << "rbcast_analyze: cannot read baseline " << baseline_path
              << "\n";
    return 2;
  }
  const auto baseline = rbcast::analyze::ratchet_from_json(baseline_text);
  if (!baseline) {
    std::cerr << "rbcast_analyze: malformed baseline " << baseline_path
              << " — the gate fails closed\n";
    return 2;
  }

  const rbcast::analyze::RatchetDiff diff =
      rbcast::analyze::compare_ratchet(*baseline, current);
  for (const std::string& line : diff.lines) {
    std::cout << "rbcast_analyze: " << line << "\n";
  }

  if (update_baseline) {
    if (diff.regressed) {
      std::cerr << "rbcast_analyze: refusing to update baseline: the "
                   "ratchet only shrinks — fix or waive the regressions "
                   "first\n";
      return 1;
    }
    if (!write_file(baseline_path,
                    rbcast::analyze::ratchet_to_json(current) + "\n")) {
      std::cerr << "rbcast_analyze: cannot write " << baseline_path << "\n";
      return 2;
    }
    std::cout << "rbcast_analyze: baseline updated\n";
    return 0;
  }

  if (diff.regressed) {
    std::cout << "rbcast_analyze: RATCHET REGRESSION vs " << baseline_path
              << "\n";
    return 1;
  }
  if (diff.improved) {
    std::cout << "rbcast_analyze: improved vs baseline; shrink it with "
                 "--update-baseline\n";
  }
  std::cout << "rbcast_analyze: no ratchet regression\n";
  return 0;
}
