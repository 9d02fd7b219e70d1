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

// True when the '"' at `quote` opens a raw string literal: it is preceded
// by R with an optional encoding prefix (u8R", uR", UR", LR") that is not
// just the tail of a longer identifier (FooR"..." is not raw).
bool is_raw_string_open(std::string_view source, std::size_t quote) {
  if (quote == 0 || source[quote - 1] != 'R') return false;
  std::size_t p = quote - 1;  // index of 'R'
  if (p >= 2 && source[p - 2] == 'u' && source[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 && (source[p - 1] == 'u' || source[p - 1] == 'U' ||
                        source[p - 1] == 'L')) {
    p -= 1;
  }
  if (p == 0) return true;
  const char before = source[p - 1];
  return !(std::isalnum(static_cast<unsigned char>(before)) ||
           before == '_');
}

}  // namespace

std::string strip_comments(std::string_view source) {
  std::string out(source);
  enum class State { kCode, kLine, kBlock, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"' && is_raw_string_open(source, i)) {
          // Raw string literal R"delim(...)delim": no escapes apply, so
          // scan for the exact close sequence and blank the payload
          // (newlines preserved). Unterminated raw strings blank to EOF.
          std::size_t d = i + 1;
          while (d < out.size() && out[d] != '(') ++d;
          const std::string close =
              ")" + std::string(source.substr(i + 1, d - (i + 1))) + "\"";
          const std::size_t end = source.find(close, d);
          const std::size_t stop =
              end == std::string_view::npos ? out.size()
                                            : end + close.size();
          for (std::size_t j = i + 1; j < stop; ++j) {
            if (out[j] != '\n') out[j] = ' ';
          }
          i = stop - 1;  // resume after the closing quote
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          // A ' between alphanumerics is a digit separator (1'000'000),
          // not a character literal.
          const bool separator =
              i > 0 &&
              std::isalnum(static_cast<unsigned char>(out[i - 1])) &&
              std::isalnum(static_cast<unsigned char>(next));
          if (!separator) state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          // A backslash immediately before the newline splices the next
          // line into this comment (phase-2 line continuation).
          const bool spliced =
              (i >= 1 && source[i - 1] == '\\') ||
              (i >= 2 && source[i - 1] == '\r' && source[i - 2] == '\\');
          if (!spliced) state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          if (i + 1 < out.size() && next != '\n') out[i + 1] = ' ';
          out[i] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (i + 1 < out.size() && next != '\n') out[i + 1] = ' ';
          out[i] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> unordered_identifiers(std::string_view code) {
  std::vector<std::string> ids;
  static const std::regex decl(R"(std::unordered_(map|set)\s*<)");
  for (std::cregex_iterator it(code.data(), code.data() + code.size(), decl),
       end;
       it != end; ++it) {
    // Walk past the balanced template argument list.
    std::size_t i = static_cast<std::size_t>(it->position(0)) +
                    it->str(0).size();
    int depth = 1;
    while (i < code.size() && depth > 0) {
      if (code[i] == '<') ++depth;
      else if (code[i] == '>') --depth;
      ++i;
    }
    if (depth != 0) continue;
    while (i < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[i])) ||
            code[i] == '&' || code[i] == '*')) {
      ++i;
    }
    if (i < code.size() && code[i] == ':') continue;  // ::iterator etc.
    std::string name;
    while (i < code.size() &&
           (std::isalnum(static_cast<unsigned char>(code[i])) ||
            code[i] == '_')) {
      name.push_back(code[i]);
      ++i;
    }
    if (!name.empty() &&
        !std::isdigit(static_cast<unsigned char>(name.front()))) {
      ids.push_back(std::move(name));
    }
  }
  return ids;
}

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
