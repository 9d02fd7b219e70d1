// Source scanning shared by the rbcast_analyze passes: the comment and
// string stripper every pass reads through, the unordered-identifier
// harvest behind the unordered-range-for rule, and a scope scanner.
//
// The scope scanner walks comment-stripped C++ tracking a stack
// of lexical scopes — namespace, type, function, plain block — classified
// from the statement head that precedes each '{'. This is deliberately a
// heuristic, not a parser: it is accurate for the style this codebase
// writes (clang-format, one declaration per statement) and the
// tests/analyze_engine_test.cpp snippets pin the cases that matter
// (member functions, constructor init lists, lambdas, control flow).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rbcast::analyze {

// Replaces // and /* */ comments with spaces, preserving newlines so line
// numbers computed on the result match the original. String and character
// literals are also blanked (a "rand()" inside a string is not a call).
[[nodiscard]] std::string strip_comments(std::string_view source);

// Identifiers declared (or bound) with std::unordered_map /
// std::unordered_set type in `code`, which must already be
// comment/string-stripped. Feeds the unordered-range-for rule.
[[nodiscard]] std::vector<std::string> unordered_identifiers(
    std::string_view code);

enum class ScopeKind { kNamespace, kType, kFunction, kBlock };

struct Scope {
  ScopeKind kind;
  // Class name, or the (possibly Class::qualified) function name; empty
  // for namespaces and plain blocks.
  std::string name;
};

class ScopeScanner {
 public:
  // Called per ';'-terminated statement (whitespace-collapsed) with the
  // line it started on; the enclosing_* queries describe its scope.
  using StatementFn = std::function<void(const std::string& stmt, int line)>;

  // `code` must already be comment/string-stripped.
  explicit ScopeScanner(std::string_view code);

  // Runs the walk to completion.
  void run(const StatementFn& on_statement);

  // Innermost enclosing function name ("" when not inside a function).
  // For member functions defined inside a class body, the name is
  // qualified with the innermost enclosing type ("EventQueue::pop").
  [[nodiscard]] std::string enclosing_function() const;

  // True when the walk position is at namespace scope (only namespace
  // scopes on the stack).
  [[nodiscard]] bool at_namespace_scope() const;

  // Innermost enclosing type name ("" when none).
  [[nodiscard]] std::string enclosing_type() const;

 private:
  std::string_view code_;
  std::vector<Scope> stack_;
};

// True when `word` occurs in `s` with no identifier character on either
// side ("static" matches "static int", not "static_assert").
[[nodiscard]] bool contains_word(std::string_view s, std::string_view word);

// Classifies the statement head preceding a '{'. Exposed for tests.
// `head` is everything after the previous ';', '{' or '}'.
[[nodiscard]] Scope classify_head(const std::string& head,
                                  const std::vector<Scope>& stack);

}  // namespace rbcast::analyze
