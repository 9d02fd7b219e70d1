#include "analyze/source_scanner.h"

#include <cctype>
#include <regex>

namespace rbcast::analyze {

namespace {

// Collapses runs of whitespace to single spaces and trims the ends.
std::string collapse(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
    } else {
      if (pending_space) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

bool contains_word(std::string_view s, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string_view::npos) {
    const bool left_ok =
        pos == 0 || !(std::isalnum(static_cast<unsigned char>(s[pos - 1])) ||
                      s[pos - 1] == '_');
    const std::size_t end = pos + word.size();
    const bool right_ok =
        end >= s.size() ||
        !(std::isalnum(static_cast<unsigned char>(s[end])) || s[end] == '_');
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

Scope classify_head(const std::string& raw_head,
                    const std::vector<Scope>& stack) {
  const std::string head = collapse(raw_head);

  if (contains_word(head, "namespace")) {
    return Scope{ScopeKind::kNamespace, ""};
  }

  if (contains_word(head, "class") || contains_word(head, "struct") ||
      contains_word(head, "union") || contains_word(head, "enum")) {
    // Take the identifier right after the keyword, skipping attributes.
    static const std::regex name_re(
        R"((?:class|struct|union|enum)(?:\s+class|\s+struct)?\s+(?:\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*))");
    std::smatch m;
    std::string name;
    if (std::regex_search(head, m, name_re)) name = m.str(1);
    return Scope{ScopeKind::kType, name};
  }

  // Control flow and try/catch open plain blocks, as do lambdas ("...] {"
  // or "...]() {") and bare "{" compound statements.
  if (contains_word(head, "if") || contains_word(head, "for") ||
      contains_word(head, "while") || contains_word(head, "switch") ||
      contains_word(head, "do") || contains_word(head, "else") ||
      contains_word(head, "try") || contains_word(head, "catch")) {
    return Scope{ScopeKind::kBlock, ""};
  }

  // A function definition head contains a parameter list. Take the last
  // "name(" group before the parameters' closing paren — this skips
  // return types like "EventQueue::Fired" and matches "Class::method" or
  // plain "method". Constructor init lists ("): a_(x), b_(y)") still
  // resolve to the constructor name because we search the whole head.
  if (head.find('(') != std::string::npos) {
    static const std::regex fn_re(
        R"(([A-Za-z_][\w]*(?:::~?[A-Za-z_][\w]*)*|operator\s*[^\s(]+)\s*\()");
    std::string name;
    for (std::sregex_iterator it(head.begin(), head.end(), fn_re), end;
         it != end; ++it) {
      std::string candidate = it->str(1);
      if (candidate == "decltype" || candidate == "noexcept" ||
          candidate == "sizeof" || candidate == "alignof") {
        continue;
      }
      // A candidate preceded by '.' or '->' is a member call in an
      // expression (e.g. a lambda argument: "queue_.schedule(t, [this]"),
      // not a definition head — the brace opens a block, not a function.
      const auto pos = static_cast<std::size_t>(it->position(1));
      if (pos > 0 && (head[pos - 1] == '.' || head[pos - 1] == '>')) {
        continue;
      }
      name = std::move(candidate);
      break;
    }
    if (!name.empty()) {
      // Member function defined inside its class body: qualify with the
      // innermost enclosing type ("EventQueue::pop"), as an out-of-class
      // definition would spell it.
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->kind == ScopeKind::kType && !it->name.empty() &&
            name.find("::") == std::string::npos) {
          name = it->name + "::" + name;
          break;
        }
        if (it->kind == ScopeKind::kFunction) break;
      }
      return Scope{ScopeKind::kFunction, name};
    }
  }

  // Inside a function everything else is a plain block; at namespace or
  // class scope an unrecognized head ("= default" oddities, array
  // initializers) is treated as a block too — it nests transparently.
  return Scope{ScopeKind::kBlock, ""};
}

ScopeScanner::ScopeScanner(std::string_view code) : code_(code) {}

void ScopeScanner::run(const StatementFn& on_statement) {
  stack_.clear();
  int line = 1;
  int stmt_line = 1;
  std::string head;  // text since the last ';', '{' or '}'
  bool head_dirty = false;

  for (std::size_t i = 0; i < code_.size(); ++i) {
    const char c = code_[i];
    if (c == '\n') ++line;

    if (c == '{') {
      stack_.push_back(classify_head(head, stack_));
      head.clear();
      head_dirty = false;
      stmt_line = line;
      continue;
    }
    if (c == '}') {
      if (!stack_.empty()) stack_.pop_back();
      head.clear();
      head_dirty = false;
      stmt_line = line;
      continue;
    }
    if (c == ';') {
      if (head_dirty && on_statement) on_statement(collapse(head), stmt_line);
      head.clear();
      head_dirty = false;
      stmt_line = line;
      continue;
    }

    if (!head_dirty && !std::isspace(static_cast<unsigned char>(c))) {
      head_dirty = true;
      stmt_line = line;
    }
    head.push_back(c);
  }
}

std::string ScopeScanner::enclosing_function() const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->kind == ScopeKind::kFunction) return it->name;
  }
  return "";
}

bool ScopeScanner::at_namespace_scope() const {
  for (const Scope& s : stack_) {
    if (s.kind != ScopeKind::kNamespace) return false;
  }
  return true;
}

std::string ScopeScanner::enclosing_type() const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->kind == ScopeKind::kFunction) return "";
    if (it->kind == ScopeKind::kType) return it->name;
  }
  return "";
}

}  // namespace rbcast::analyze
