#include "tools/detlint/detlint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fsbench::detlint {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind : uint8_t { kIdent, kNumber, kPunct };

struct Token {
  std::string text;
  int line = 0;
  TokKind kind = TokKind::kPunct;
};

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Pulls "tag-a, tag-b" tags out of a comment containing "detlint:".
void ParseAnnotationTags(const std::string& comment, std::vector<std::string>* tags) {
  const size_t at = comment.find("detlint:");
  if (at == std::string::npos) {
    return;
  }
  size_t i = at + 8;
  while (i < comment.size()) {
    while (i < comment.size() && (comment[i] == ' ' || comment[i] == ',')) {
      ++i;
    }
    size_t start = i;
    while (i < comment.size() &&
           ((comment[i] >= 'a' && comment[i] <= 'z') || comment[i] == '-')) {
      ++i;
    }
    if (i == start) {
      break;
    }
    tags->push_back(comment.substr(start, i - start));
  }
}

struct LexedFile {
  std::vector<Token> tokens;
  // Annotation tags keyed by the code line they apply to (comment's own line
  // if it has code, else the next line with code).
  std::map<int, std::set<std::string>> annotations;
  std::set<int> code_lines;
};

LexedFile Lex(const std::string& text) {
  LexedFile out;
  // (line, tags) pending attachment to a code line.
  std::vector<std::pair<int, std::vector<std::string>>> raw_annotations;

  size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  const size_t n = text.size();

  auto newline = [&] {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: skip whole logical line (with continuations).
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') {
          break;
        }
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const size_t start = i;
      while (i < n && text[i] != '\n') {
        ++i;
      }
      std::vector<std::string> tags;
      ParseAnnotationTags(text.substr(start, i - start), &tags);
      if (!tags.empty()) {
        raw_annotations.emplace_back(line, std::move(tags));
      }
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      const size_t start = i;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          ++line;
        }
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      std::vector<std::string> tags;
      ParseAnnotationTags(text.substr(start, i - start), &tags);
      if (!tags.empty()) {
        raw_annotations.emplace_back(start_line, std::move(tags));
      }
      continue;
    }
    if (c == '"') {
      // Raw string? The opener R was already emitted as an ident; pop it.
      bool raw = false;
      if (!out.tokens.empty() && out.tokens.back().kind == TokKind::kIdent) {
        const std::string& prev = out.tokens.back().text;
        if (prev == "R" || prev == "u8R" || prev == "uR" || prev == "UR" || prev == "LR") {
          raw = true;
          out.tokens.pop_back();
        }
      }
      if (raw) {
        ++i;  // past the quote
        std::string delim;
        while (i < n && text[i] != '(') {
          delim += text[i++];
        }
        const std::string closer = ")" + delim + "\"";
        const size_t end = text.find(closer, i);
        const size_t stop = (end == std::string::npos) ? n : end + closer.size();
        for (; i < stop; ++i) {
          if (text[i] == '\n') {
            ++line;
          }
        }
      } else {
        ++i;
        while (i < n && text[i] != '"') {
          if (text[i] == '\\' && i + 1 < n) {
            ++i;
          } else if (text[i] == '\n') {
            ++line;  // unterminated; be lenient
          }
          ++i;
        }
        if (i < n) {
          ++i;
        }
      }
      out.tokens.push_back({"\"\"", line, TokKind::kPunct});
      out.code_lines.insert(line);
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\' && i + 1 < n) {
          ++i;
        }
        ++i;
      }
      if (i < n) {
        ++i;
      }
      out.tokens.push_back({"''", line, TokKind::kPunct});
      out.code_lines.insert(line);
      continue;
    }
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(text[i])) {
        ++i;
      }
      out.tokens.push_back({text.substr(start, i - start), line, TokKind::kIdent});
      out.code_lines.insert(line);
      continue;
    }
    if (IsDigit(c)) {
      const size_t start = i;
      while (i < n && (IsIdentChar(text[i]) || text[i] == '.' || text[i] == '\'' ||
                       ((text[i] == '+' || text[i] == '-') && i > start &&
                        (text[i - 1] == 'e' || text[i - 1] == 'E' || text[i - 1] == 'p' ||
                         text[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back({text.substr(start, i - start), line, TokKind::kNumber});
      out.code_lines.insert(line);
      continue;
    }
    // Punctuation. Only "::" and "->" are fused (the rules key on them);
    // ">>" stays two tokens so template closers need no special casing.
    std::string punct(1, c);
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      punct = "::";
      ++i;
    } else if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      punct = "->";
      ++i;
    }
    ++i;
    out.tokens.push_back({std::move(punct), line, TokKind::kPunct});
    out.code_lines.insert(line);
  }

  for (auto& [annot_line, tags] : raw_annotations) {
    int target = annot_line;
    if (out.code_lines.count(annot_line) == 0) {
      auto it = out.code_lines.upper_bound(annot_line);
      if (it == out.code_lines.end()) {
        continue;  // trailing comment, nothing to attach to
      }
      target = *it;
    }
    out.annotations[target].insert(tags.begin(), tags.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Project-wide symbol collection (pass 1)
// ---------------------------------------------------------------------------

const std::set<std::string>& FundamentalTypes() {
  static const std::set<std::string> kTypes = {
      "bool", "char", "short", "int", "long", "unsigned", "signed", "float",
      "double", "wchar_t", "char8_t", "char16_t", "char32_t",
  };
  return kTypes;
}

const std::set<std::string>& StdScalarTypes() {
  static const std::set<std::string> kTypes = {
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",    "uint16_t",
      "uint32_t", "uint64_t", "size_t",   "ssize_t",  "ptrdiff_t",  "intptr_t",
      "uintptr_t", "intmax_t", "uintmax_t", "byte",
  };
  return kTypes;
}

// Containers whose iteration order is set by hashing. FlatIndex
// (src/sim/flat_index.h) is the simulator's own open-addressing index; it
// is not a template, so its declarations read `FlatIndex name`.
const std::set<std::string>& UnorderedContainerNames() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset", "FlatIndex",
  };
  return kNames;
}

// "src/sim/flash_tier.cc" -> "src/sim/flash_tier": .h/.cc pairs share a stem.
std::string Stem(const std::string& rel) {
  const size_t dot = rel.rfind('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

bool IsHeader(const std::string& rel) {
  return rel.size() >= 2 && rel.compare(rel.size() - 2, 2, ".h") == 0;
}

bool IsResultAffecting(const std::string& rel) {
  return rel.rfind("src/sim/", 0) == 0 || rel.rfind("src/core/", 0) == 0;
}

// Skips a balanced <...> starting at `i` (tokens[i] must be "<"). Returns
// the index one past the matching ">", or `end` if unbalanced.
size_t SkipAngles(const std::vector<Token>& ts, size_t i, size_t end) {
  int depth = 0;
  for (; i < end; ++i) {
    if (ts[i].text == "<") {
      ++depth;
    } else if (ts[i].text == ">") {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (ts[i].text == ";") {
      return end;  // runaway: this was a comparison, not a template
    }
  }
  return end;
}

struct Project {
  std::set<std::string> enum_names;
  std::set<std::string> scalar_aliases;     // using Nanos = int64_t;
  std::set<std::string> unordered_aliases;  // using PageMap = std::unordered_map<...>;
  // stem -> names of unordered_{map,set} variables declared in that stem.
  std::unordered_map<std::string, std::set<std::string>> unordered_vars;
};

bool TypeTokensAreScalar(const std::vector<std::string>& type, const Project& proj) {
  if (type.empty()) {
    return false;
  }
  if (type.back() == "*") {
    return true;  // pointer
  }
  bool any = false;
  for (const std::string& t : type) {
    if (t == "std" || t == "::" || t == "const" || t == "constexpr" || t == "inline" ||
        t == "mutable" || t == "volatile") {
      continue;
    }
    if (FundamentalTypes().count(t) || StdScalarTypes().count(t) ||
        proj.enum_names.count(t) || proj.scalar_aliases.count(t)) {
      any = true;
      continue;
    }
    return false;  // an unknown token: class type or something exotic
  }
  return any;
}

void CollectSymbols(const std::vector<std::pair<SourceFile, LexedFile>>& lexed,
                    Project* proj) {
  // Enums first (they feed the scalar-alias fixpoint).
  for (const auto& [file, lex] : lexed) {
    const auto& ts = lex.tokens;
    for (size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].text == "enum" && ts[i].kind == TokKind::kIdent) {
        size_t j = i + 1;
        if (j < ts.size() && (ts[j].text == "class" || ts[j].text == "struct")) {
          ++j;
        }
        if (j < ts.size() && ts[j].kind == TokKind::kIdent) {
          proj->enum_names.insert(ts[j].text);
        }
      }
    }
  }
  // `using X = <scalar>;` aliases, to a fixpoint so chains resolve in any
  // declaration order. Also `using X = std::unordered_map<...>;`.
  std::vector<std::pair<std::string, std::vector<std::string>>> alias_candidates;
  for (const auto& [file, lex] : lexed) {
    const auto& ts = lex.tokens;
    for (size_t i = 0; i + 3 < ts.size(); ++i) {
      if (ts[i].text != "using" || ts[i + 1].kind != TokKind::kIdent ||
          ts[i + 2].text != "=") {
        continue;
      }
      std::vector<std::string> rhs;
      for (size_t j = i + 3; j < ts.size() && ts[j].text != ";"; ++j) {
        rhs.push_back(ts[j].text);
      }
      if (!rhs.empty()) {
        alias_candidates.emplace_back(ts[i + 1].text, std::move(rhs));
      }
    }
  }
  for (int round = 0; round < 3; ++round) {
    for (const auto& [name, rhs] : alias_candidates) {
      for (const std::string& t : rhs) {
        if (UnorderedContainerNames().count(t)) {
          proj->unordered_aliases.insert(name);
          break;
        }
      }
      if (TypeTokensAreScalar(rhs, *proj)) {
        proj->scalar_aliases.insert(name);
      }
    }
  }
  // Unordered-container variable declarations, grouped by stem.
  for (const auto& [file, lex] : lexed) {
    const auto& ts = lex.tokens;
    std::set<std::string>& vars = proj->unordered_vars[Stem(file.rel)];
    for (size_t i = 0; i < ts.size(); ++i) {
      size_t after_type = 0;
      const bool container = UnorderedContainerNames().count(ts[i].text) != 0;
      if (container && i + 1 < ts.size() && ts[i + 1].text == "<") {
        // Not part of a `using` alias definition (those are tracked by name).
        after_type = SkipAngles(ts, i + 1, ts.size());
      } else if ((container || proj->unordered_aliases.count(ts[i].text)) &&
                 ts[i].kind == TokKind::kIdent && i + 1 < ts.size() &&
                 (ts[i + 1].kind == TokKind::kIdent || ts[i + 1].text == "&" ||
                  ts[i + 1].text == "*")) {
        // The name alone is the whole type: an alias or a non-template.
        after_type = i + 1;
      }
      if (after_type == 0 || after_type >= ts.size()) {
        continue;
      }
      // Optional & / * between type and name.
      size_t j = after_type;
      while (j < ts.size() && (ts[j].text == "&" || ts[j].text == "*")) {
        ++j;
      }
      if (j >= ts.size() || ts[j].kind != TokKind::kIdent) {
        continue;
      }
      // A declarator, not a function name: next token terminates a
      // declaration (or is a brace/equals initializer or parameter comma).
      if (j + 1 < ts.size()) {
        const std::string& next = ts[j + 1].text;
        if (next == ";" || next == "=" || next == "{" || next == "," || next == ")") {
          vars.insert(ts[j].text);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rules (pass 2)
// ---------------------------------------------------------------------------

const std::set<std::string>& KnownAnnotations() {
  static const std::set<std::string> kTags = {"order-insensitive", "base-clock"};
  return kTags;
}

class FileLinter {
 public:
  FileLinter(const SourceFile& file, const LexedFile& lex, const Project& proj,
             std::vector<Finding>* findings)
      : file_(file), lex_(lex), proj_(proj), findings_(findings) {
    auto it = proj.unordered_vars.find(Stem(file.rel));
    if (it != proj.unordered_vars.end()) {
      unordered_ = &it->second;
    }
  }

  void Run() {
    CheckAnnotations();
    RuleR1();
    if (IsResultAffecting(file_.rel)) {
      RuleR2();
      RuleR3();
    }
    if (IsHeader(file_.rel)) {
      RuleR4();
    }
    RuleR5();
  }

 private:
  void Report(const std::string& rule, int line, const std::string& message) {
    findings_->push_back({file_.rel, line, rule, message});
  }

  bool Annotated(int line, const std::string& tag) const {
    auto it = lex_.annotations.find(line);
    return it != lex_.annotations.end() && it->second.count(tag) != 0;
  }

  bool LineHasToken(int line, const std::string& text) const {
    for (const Token& t : lex_.tokens) {
      if (t.line == line && t.text == text) {
        return true;
      }
      if (t.line > line) {
        break;
      }
    }
    return false;
  }

  // R0: unknown annotation tags are findings — a typoed suppression must
  // not silently stop suppressing.
  void CheckAnnotations() {
    for (const auto& [line, tags] : lex_.annotations) {
      for (const std::string& tag : tags) {
        if (KnownAnnotations().count(tag) == 0) {
          Report("R0", line, "unknown detlint annotation '" + tag + "' (known: order-insensitive, base-clock)");
        }
      }
    }
  }

  bool IsUnorderedVar(const std::string& name) const {
    return unordered_ != nullptr && unordered_->count(name) != 0;
  }

  void ReportR1(int line, const std::string& name) {
    if (Annotated(line, "order-insensitive")) {
      return;
    }
    Report("R1", line,
           "iteration over unordered container '" + name +
               "' — hash order is implementation-defined; sort the keys first or "
               "annotate `// detlint: order-insensitive` if every effect is "
               "order-invariant");
  }

  void RuleR1() {
    const auto& ts = lex_.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      // Range-for: for ( decl : container )
      if (ts[i].text == "for" && i + 1 < ts.size() && ts[i + 1].text == "(") {
        int depth = 0;
        size_t colon = 0;
        size_t close = ts.size();
        for (size_t j = i + 1; j < ts.size(); ++j) {
          if (ts[j].text == "(") {
            ++depth;
          } else if (ts[j].text == ")") {
            if (--depth == 0) {
              close = j;
              break;
            }
          } else if (ts[j].text == ":" && depth == 1 && colon == 0) {
            colon = j;
          }
        }
        if (colon != 0 && close < ts.size()) {
          // Container expression: last identifier of the a.b->c chain.
          std::string name;
          for (size_t j = colon + 1; j < close; ++j) {
            if (ts[j].kind == TokKind::kIdent) {
              name = ts[j].text;
            }
          }
          if (IsUnorderedVar(name)) {
            ReportR1(ts[i].line, name);
          }
        }
      }
      // Iterator form: container.begin() / cbegin() / rbegin() / crbegin().
      if (ts[i].kind == TokKind::kIdent && IsUnorderedVar(ts[i].text) &&
          i + 3 < ts.size() && (ts[i + 1].text == "." || ts[i + 1].text == "->") &&
          (ts[i + 2].text == "begin" || ts[i + 2].text == "cbegin" ||
           ts[i + 2].text == "rbegin" || ts[i + 2].text == "crbegin") &&
          ts[i + 3].text == "(") {
        ReportR1(ts[i].line, ts[i].text);
      }
    }
  }

  void RuleR2() {
    static const std::set<std::string> kBannedIdents = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "random_device", "getenv",       "this_thread",
        "gettimeofday",  "clock_gettime", "localtime",
        "gmtime",        "mktime",
    };
    static const std::set<std::string> kBannedCalls = {
        "time", "rand", "srand", "random", "drand48", "clock",
    };
    // A banned-call identifier is a *call* (not a declaration or member
    // access) when the previous token is expression context. `&`, `*` and
    // `>` are deliberately absent: `Type& clock()`, `Type* time()` and
    // `Foo<T> rand()` are declarations of same-named members, not calls.
    static const std::set<std::string> kExprContext = {
        ";", "{", "}", "(", ",", "=", "return", "?", ":", "!",
        "+", "-", "/", "%", "<", "|", "^", "&&", "||",
    };
    const auto& ts = lex_.tokens;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != TokKind::kIdent) {
        continue;
      }
      if (kBannedIdents.count(ts[i].text)) {
        Report("R2", ts[i].line,
               "'" + ts[i].text +
                   "' is ambient entropy — results must be a pure function of "
                   "(config, seed); use VirtualClock / seeded Rng instead");
        continue;
      }
      if (kBannedCalls.count(ts[i].text) && i + 1 < ts.size() && ts[i + 1].text == "(") {
        bool flagged = false;
        if (i == 0) {
          flagged = true;
        } else if (ts[i - 1].text == "::") {
          flagged = i >= 2 && ts[i - 2].text == "std";  // std::rand yes, Foo::rand no
        } else if (ts[i - 1].text == "." || ts[i - 1].text == "->") {
          flagged = false;  // member call on our own objects
        } else {
          flagged = kExprContext.count(ts[i - 1].text) != 0;
        }
        if (flagged) {
          Report("R2", ts[i].line,
                 "call to '" + ts[i].text +
                     "()' — wall-clock/libc entropy is banned in result-affecting "
                     "code; use VirtualClock / seeded Rng");
        }
      }
    }
  }

  void RuleR3() {
    const auto& ts = lex_.tokens;
    for (size_t i = 2; i < ts.size(); ++i) {
      if (ts[i].text != "clock" || ts[i].kind != TokKind::kIdent) {
        continue;
      }
      if (ts[i - 1].text != "." && ts[i - 1].text != "->") {
        continue;
      }
      if (i + 2 >= ts.size() || ts[i + 1].text != "(" || ts[i + 2].text != ")") {
        continue;
      }
      const int line = ts[i].line;
      if (LineHasToken(line, "BindCursor") || LineHasToken(line, "BindClock") ||
          Annotated(line, "base-clock")) {
        continue;
      }
      Report("R3", line,
             "Machine::clock() outside a BindCursor/BindClock binding site — "
             "charge time against the bound cursor, or annotate "
             "`// detlint: base-clock` for deliberate single-threaded base-clock "
             "use");
    }
  }

  void RuleR4() {
    const auto& ts = lex_.tokens;
    for (size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].text != "struct" || ts[i].kind != TokKind::kIdent) {
        continue;
      }
      if (i > 0 && ts[i - 1].text == "enum") {
        continue;  // enum struct
      }
      if (ts[i + 1].kind != TokKind::kIdent) {
        continue;  // anonymous struct / `struct {` — skip
      }
      const std::string struct_name = ts[i + 1].text;
      // Find the opening brace; bail at ';' (forward declaration) and at
      // template-argument uses (`struct X<...>` never begins a definition
      // we care about here).
      size_t j = i + 2;
      while (j < ts.size() && ts[j].text != "{" && ts[j].text != ";") {
        ++j;
      }
      if (j >= ts.size() || ts[j].text == ";") {
        continue;
      }
      LintStructBody(struct_name, j);
    }
  }

  // Parses the member statements of a struct whose "{" is at `open`.
  void LintStructBody(const std::string& struct_name, size_t open) {
    const auto& ts = lex_.tokens;
    std::vector<size_t> stmt;  // token indices of the current statement
    bool has_init = false;     // saw '=' or a brace initializer in stmt
    int pdepth = 0;            // () depth within the statement

    auto skip_balanced_braces = [&](size_t k) {
      int d = 0;
      for (; k < ts.size(); ++k) {
        if (ts[k].text == "{") {
          ++d;
        } else if (ts[k].text == "}") {
          if (--d == 0) {
            return k;
          }
        }
      }
      return k;
    };

    auto reset = [&] {
      stmt.clear();
      has_init = false;
      pdepth = 0;
    };

    for (size_t k = open + 1; k < ts.size(); ++k) {
      const std::string& t = ts[k].text;
      if (t == "}") {
        return;  // end of struct (members after nested bodies were consumed)
      }
      if (t == "public" || t == "private" || t == "protected") {
        if (k + 1 < ts.size() && ts[k + 1].text == ":") {
          ++k;
          continue;
        }
      }
      if (stmt.empty() &&
          (t == "using" || t == "typedef" || t == "friend" || t == "template" ||
           t == "static" || t == "struct" || t == "class" || t == "enum")) {
        // Nested types, aliases, statics: skip to the end of the construct
        // (past a body if it has one, then the terminating ';').
        while (k < ts.size() && ts[k].text != ";" && ts[k].text != "{") {
          ++k;
        }
        if (k < ts.size() && ts[k].text == "{") {
          k = skip_balanced_braces(k);
          // Optional trailing declarator + ';' (`struct In {} x;`,
          // `enum E {...};`). A static member function's body has neither —
          // the next member begins right after its '}'.
          if (k + 1 < ts.size() && ts[k + 1].text == ";") {
            ++k;
          } else if (k + 2 < ts.size() && ts[k + 1].kind == TokKind::kIdent &&
                     ts[k + 2].text == ";") {
            k += 2;
          }
        }
        continue;
      }
      if (t == "(") {
        ++pdepth;
        stmt.push_back(k);
        continue;
      }
      if (t == ")") {
        --pdepth;
        stmt.push_back(k);
        continue;
      }
      if (t == "=") {
        has_init = true;
        stmt.push_back(k);
        continue;
      }
      if (t == "{") {
        // Brace initializer iff it follows a declarator or '='; otherwise a
        // function/ctor body.
        bool initializer = false;
        if (!stmt.empty()) {
          const Token& prev = ts[stmt.back()];
          bool stmt_has_paren = false;
          for (size_t idx : stmt) {
            if (ts[idx].text == "(") {
              stmt_has_paren = true;
              break;
            }
          }
          initializer = !stmt_has_paren &&
                        (has_init || prev.kind == TokKind::kIdent || prev.text == "]");
        }
        const size_t close = skip_balanced_braces(k);
        if (initializer) {
          has_init = true;
          k = close;
          continue;  // stmt continues to its ';'
        }
        // Function (or ctor) body: discard the statement.
        k = close;
        reset();
        continue;
      }
      if (t == ";" && pdepth == 0) {
        LintMemberStatement(struct_name, stmt, has_init);
        reset();
        continue;
      }
      stmt.push_back(k);
    }
  }

  void LintMemberStatement(const std::string& struct_name, const std::vector<size_t>& stmt,
                           bool has_init) {
    if (stmt.empty() || has_init) {
      return;
    }
    const auto& ts = lex_.tokens;
    // Any parenthesis at member level means function declaration (params) or
    // a constructor-style initializer; both are out of scope.
    for (size_t idx : stmt) {
      if (ts[idx].text == "(" || ts[idx].text == "operator" || ts[idx].text == "~") {
        return;
      }
    }
    // Declarator name: last identifier (array brackets may follow it).
    size_t name_pos = stmt.size();
    for (size_t p = stmt.size(); p > 0; --p) {
      const Token& tok = ts[stmt[p - 1]];
      if (tok.text == "]" || tok.text == "[" || tok.kind == TokKind::kNumber) {
        continue;
      }
      if (tok.kind == TokKind::kIdent) {
        name_pos = p - 1;
      }
      break;
    }
    if (name_pos == stmt.size() || name_pos == 0) {
      return;  // no name / no type tokens
    }
    std::vector<std::string> type;
    for (size_t p = 0; p < name_pos; ++p) {
      const std::string& t = ts[stmt[p]].text;
      if (t == "&") {
        return;  // reference member: no default initializer possible
      }
      type.push_back(t);
    }
    // Template types (vector<...>, optional<...>) are class types: exempt.
    for (const std::string& t : type) {
      if (t == "<") {
        return;
      }
    }
    if (!TypeTokensAreScalar(type, proj_)) {
      return;
    }
    const Token& name = ts[stmt[name_pos]];
    Report("R4", name.line,
           "struct " + struct_name + " member '" + name.text +
               "' has a scalar type but no default member initializer — "
               "uninitialized scalars break value comparison and run-twice "
               "digests; add `= 0` / `{}`");
  }

  void RuleR5() {
    static const std::set<std::string> kOrdered = {
        "map", "set", "multimap", "multiset", "priority_queue",
    };
    const auto& ts = lex_.tokens;
    for (size_t i = 2; i + 1 < ts.size(); ++i) {
      if (ts[i].kind == TokKind::kIdent && kOrdered.count(ts[i].text) &&
          ts[i + 1].text == "<" && ts[i - 1].text == "::" && ts[i - 2].text == "std") {
        // First template argument, at angle depth 1.
        int depth = 0;
        std::vector<std::string> arg;
        for (size_t j = i + 1; j < ts.size(); ++j) {
          const std::string& t = ts[j].text;
          if (t == "<") {
            ++depth;
            if (depth == 1) {
              continue;
            }
          } else if (t == ">") {
            if (--depth == 0) {
              break;
            }
          } else if (t == "," && depth == 1) {
            break;
          } else if (t == ";") {
            arg.clear();
            break;
          }
          arg.push_back(t);
        }
        if (!arg.empty() && arg.back() == "*") {
          Report("R5", ts[i].line,
                 "std::" + ts[i].text +
                     " keyed on a pointer — iteration/ordering follows allocator "
                     "addresses, different every run; key on a stable id instead");
        }
      }
      // std::sort / std::stable_sort with a lambda comparing pointer params.
      if (ts[i].kind == TokKind::kIdent &&
          (ts[i].text == "sort" || ts[i].text == "stable_sort") &&
          ts[i - 1].text == "::" && ts[i - 2].text == "std" && ts[i + 1].text == "(") {
        CheckPointerSort(i + 1);
      }
    }
  }

  // Inside a std::sort call starting at "(" index `open`, finds a lambda
  // whose parameters are pointers and whose body compares two of those
  // parameters directly.
  void CheckPointerSort(size_t open) {
    const auto& ts = lex_.tokens;
    int pdepth = 0;
    size_t end = ts.size();
    for (size_t j = open; j < ts.size(); ++j) {
      if (ts[j].text == "(") {
        ++pdepth;
      } else if (ts[j].text == ")") {
        if (--pdepth == 0) {
          end = j;
          break;
        }
      }
    }
    for (size_t j = open; j < end; ++j) {
      if (ts[j].text != "[") {
        continue;
      }
      // Lambda intro: skip capture list, then parameter list.
      size_t k = j;
      while (k < end && ts[k].text != "]") {
        ++k;
      }
      if (k + 1 >= end || ts[k + 1].text != "(") {
        continue;
      }
      std::set<std::string> ptr_params;
      size_t p = k + 2;
      int depth = 1;
      for (; p < end && depth > 0; ++p) {
        if (ts[p].text == "(") {
          ++depth;
        } else if (ts[p].text == ")") {
          --depth;
        } else if (ts[p].text == "*" && p + 1 < end && ts[p + 1].kind == TokKind::kIdent) {
          ptr_params.insert(ts[p + 1].text);
        }
      }
      if (ptr_params.size() < 2 || p >= end || ts[p].text != "{") {
        continue;
      }
      const size_t body_begin = p + 1;
      int bdepth = 1;
      for (size_t b = body_begin; b < end && bdepth > 0; ++b) {
        if (ts[b].text == "{") {
          ++bdepth;
        } else if (ts[b].text == "}") {
          --bdepth;
        } else if ((ts[b].text == "<" || ts[b].text == ">") && b > body_begin &&
                   b + 1 < end && ptr_params.count(ts[b - 1].text) &&
                   ptr_params.count(ts[b + 1].text)) {
          Report("R5", ts[b].line,
                 "sort comparator orders by raw pointer value — allocator "
                 "addresses differ across runs; compare a stable field instead");
          return;
        }
      }
    }
  }

  const SourceFile& file_;
  const LexedFile& lex_;
  const Project& proj_;
  const std::set<std::string>* unordered_ = nullptr;
  std::vector<Finding>* findings_;
};

}  // namespace

std::vector<Finding> Lint(const std::vector<SourceFile>& files) {
  std::vector<std::pair<SourceFile, LexedFile>> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& f : files) {
    lexed.emplace_back(f, Lex(f.text));
  }
  Project proj;
  CollectSymbols(lexed, &proj);

  std::vector<Finding> findings;
  for (const auto& [file, lex] : lexed) {
    FileLinter(file, lex, proj, &findings).Run();
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

std::string FormatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
}

}  // namespace fsbench::detlint
