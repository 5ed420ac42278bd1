// Copyright (c) 2026 The SOS Authors. MIT License.

#include "tools/soslint/soslint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

namespace sos::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexer: comments and string literals are stripped from the token stream
// (comments are kept separately so allow-directives can be parsed), multi-char
// operators are lexed as single tokens so "==" never reads as two "=".
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Comment {
  int line;  // line the comment starts on
  std::string text;
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Longest-match puncts that matter for the rules (assignment vs comparison,
// template closers, stream output). Everything else falls through as 1 char.
constexpr std::array<const char*, 24> kMultiPunct = {
    "<<=", ">>=", "...", "->*", "->", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>",  "++",  "--",  "+=",  "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

bool IsRawStringPrefix(const std::string& ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" || ident == "LR";
}

Lexed Lex(const std::string& src) {
  Lexed out;
  const size_t n = src.size();
  size_t i = 0;
  int line = 1;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t start = i;
      while (i < n && src[i] != '\n') {
        ++i;
      }
      out.comments.push_back({line, src.substr(start, i - start)});
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const size_t start = i;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          ++line;
        }
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      out.comments.push_back({start_line, src.substr(start, i - start)});
      continue;
    }
    // String literal (raw strings are handled from the identifier path below,
    // since the R prefix lexes as an identifier first).
    if (c == '"') {
      const size_t start = ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
        }
        if (src[i] == '\n') {
          ++line;  // unterminated string; keep line counts sane
        }
        ++i;
      }
      out.tokens.push_back({TokKind::kString, src.substr(start, i - start), line});
      i = i < n ? i + 1 : n;
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
        }
        ++i;
      }
      i = i < n ? i + 1 : n;
      continue;  // char literals carry no lint signal
    }
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(src[i])) {
        ++i;
      }
      std::string ident = src.substr(start, i - start);
      // Raw string literal: R"delim( ... )delim"
      if (i < n && src[i] == '"' && IsRawStringPrefix(ident)) {
        ++i;
        std::string delim;
        while (i < n && src[i] != '(') {
          delim += src[i++];
        }
        const std::string closer = ")" + delim + "\"";
        const size_t body_start = i < n ? i + 1 : n;
        const size_t end = src.find(closer, body_start);
        const size_t body_end = end == std::string::npos ? n : end;
        for (size_t k = body_start; k < body_end; ++k) {
          if (src[k] == '\n') {
            ++line;
          }
        }
        out.tokens.push_back({TokKind::kString, "", line});
        i = end == std::string::npos ? n : end + closer.size();
        continue;
      }
      out.tokens.push_back({TokKind::kIdent, std::move(ident), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const size_t start = i;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '.' || src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                         src[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back({TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation: longest multi-char operator first.
    bool matched = false;
    for (const char* op : kMultiPunct) {
      const size_t len = std::char_traits<char>::length(op);
      if (src.compare(i, len, op) == 0) {
        out.tokens.push_back({TokKind::kPunct, op, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Allow-directives (rule R5).
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 10> kRules = {"R1", "R2", "R3", "R4", "R5",
                                               "R6", "R7", "R8", "R9", "R10"};

bool IsKnownRule(const std::string& rule) {
  return std::find(kRules.begin(), kRules.end(), rule) != kRules.end();
}

struct AllowTable {
  // line -> rules allowed on that line and the next.
  std::map<int, std::set<std::string>> by_line;
  std::vector<Diagnostic> malformed;
};

AllowTable ParseAllows(const std::string& path, const std::vector<Comment>& comments) {
  AllowTable table;
  constexpr const char* kKey = "soslint:allow";
  for (const Comment& comment : comments) {
    size_t pos = 0;
    while ((pos = comment.text.find(kKey, pos)) != std::string::npos) {
      pos += std::char_traits<char>::length(kKey);
      const size_t open = comment.text.find_first_not_of(' ', pos);
      if (open == std::string::npos || comment.text[open] != '(') {
        table.malformed.push_back({path, comment.line, "R5",
                                   "malformed soslint:allow -- expected soslint:allow(<rule>) "
                                   "<reason>"});
        continue;
      }
      const size_t close = comment.text.find(')', open);
      if (close == std::string::npos) {
        table.malformed.push_back({path, comment.line, "R5",
                                   "malformed soslint:allow -- missing ')'"});
        continue;
      }
      const std::string rule = comment.text.substr(open + 1, close - open - 1);
      if (!IsKnownRule(rule)) {
        table.malformed.push_back({path, comment.line, "R5",
                                   "soslint:allow names unknown rule '" + rule + "'"});
        continue;
      }
      const size_t reason = comment.text.find_first_not_of(" \t", close + 1);
      if (reason == std::string::npos) {
        table.malformed.push_back({path, comment.line, "R5",
                                   "soslint:allow(" + rule +
                                       ") has no reason -- justify the suppression"});
        continue;
      }
      table.by_line[comment.line].insert(rule);
    }
  }
  return table;
}

bool IsAllowed(const AllowTable& table, int line, const std::string& rule) {
  for (const int l : {line, line - 1}) {
    auto it = table.by_line.find(l);
    if (it != table.by_line.end() && it->second.count(rule) > 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Small token-stream helpers.
// ---------------------------------------------------------------------------

// Index of the token matching the opener at `open_index` ('(' / '{' / '['),
// or tokens.size() when unbalanced.
size_t MatchingClose(const std::vector<Token>& tokens, size_t open_index) {
  const std::string& open = tokens[open_index].text;
  const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
  int depth = 0;
  for (size_t i = open_index; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) {
      continue;
    }
    if (tokens[i].text == open) {
      ++depth;
    } else if (tokens[i].text == close) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return tokens.size();
}

// After tokens[i] == "unordered_map"/"unordered_set"/"Result", skips the
// template argument list (handling ">>" closing two levels) and returns the
// index of the first token past it.
size_t SkipTemplateArgs(const std::vector<Token>& tokens, size_t i) {
  size_t j = i + 1;
  if (j >= tokens.size() || tokens[j].text != "<") {
    return j;
  }
  int depth = 0;
  for (; j < tokens.size(); ++j) {
    if (tokens[j].kind != TokKind::kPunct) {
      continue;
    }
    if (tokens[j].text == "<") {
      ++depth;
    } else if (tokens[j].text == "<<") {
      depth += 2;
    } else if (tokens[j].text == ">") {
      if (--depth == 0) {
        return j + 1;
      }
    } else if (tokens[j].text == ">>") {
      depth -= 2;
      if (depth <= 0) {
        return j + 1;
      }
    }
  }
  return j;
}

// For every token, the index of the '}' closing the innermost '{' scope it
// sits in (tokens.size() at file scope or in unbalanced code). This is the
// whole intra-procedural flow pass the Status rules need: "does variable X
// get read again before its scope closes" is a scan to scope_close[i].
std::vector<size_t> BuildScopeClose(const std::vector<Token>& tokens) {
  std::vector<size_t> close_of(tokens.size(), tokens.size());
  std::vector<size_t> stack;
  // First pass: match braces.
  std::vector<size_t> open_match(tokens.size(), tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) {
      continue;
    }
    if (tokens[i].text == "{") {
      stack.push_back(i);
    } else if (tokens[i].text == "}" && !stack.empty()) {
      open_match[stack.back()] = i;
      stack.pop_back();
    }
  }
  // Second pass: annotate every token with its innermost enclosing close.
  stack.clear();
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kPunct && tokens[i].text == "{") {
      stack.push_back(i);
    }
    close_of[i] = stack.empty() ? tokens.size() : open_match[stack.back()];
    if (tokens[i].kind == TokKind::kPunct && tokens[i].text == "}" && !stack.empty()) {
      stack.pop_back();
      close_of[i] = stack.empty() ? tokens.size() : open_match[stack.back()];
    }
  }
  return close_of;
}

bool IsUpper(const std::string& s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0])) != 0;
}

// ---------------------------------------------------------------------------
// R1: iteration over unordered containers.
// ---------------------------------------------------------------------------

const std::unordered_set<std::string>& SinkIdents() {
  static const std::unordered_set<std::string> kSinks = {
      "printf", "fprintf", "snprintf", "cout",  "cerr",        "AddRow",
      "Print",  "PrintTo", "push_back", "emplace_back", "append",
  };
  return kSinks;
}

void CheckUnorderedIteration(const SourceFile& file, const std::vector<Token>& tokens,
                             const std::set<std::string>& unordered_names,
                             std::vector<Diagnostic>* diags) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || tokens[i].text != "for") {
      continue;
    }
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") {
      continue;
    }
    const size_t close = MatchingClose(tokens, i + 1);
    if (close >= tokens.size()) {
      continue;
    }
    // Range-for: a ':' at paren depth 1 (the lexer emits '::' as one token,
    // so scope resolution cannot masquerade as the range separator).
    size_t colon = tokens.size();
    int depth = 0;
    for (size_t j = i + 1; j < close; ++j) {
      if (tokens[j].kind != TokKind::kPunct) {
        continue;
      }
      if (tokens[j].text == "(" || tokens[j].text == "[" || tokens[j].text == "{") {
        ++depth;
      } else if (tokens[j].text == ")" || tokens[j].text == "]" || tokens[j].text == "}") {
        --depth;
      } else if (tokens[j].text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == tokens.size()) {
      continue;  // classic for loop
    }
    if (colon + 1 < close && tokens[colon + 1].text == "{") {
      continue;  // braced init list: written order, deterministic
    }
    // Does the range expression name a known-unordered container? Wrapping
    // the container in the sanctioned sort helpers yields ordered keys, so
    // those loops are safe by construction.
    std::string container;
    bool sorted_wrapper = false;
    for (size_t j = colon + 1; j < close; ++j) {
      if (tokens[j].kind == TokKind::kIdent &&
          (tokens[j].text == "SortedKeys" || tokens[j].text == "SortedElements")) {
        sorted_wrapper = true;
        break;
      }
      if (tokens[j].kind == TokKind::kIdent &&
          (unordered_names.count(tokens[j].text) > 0 || tokens[j].text == "unordered_map" ||
           tokens[j].text == "unordered_set")) {
        container = tokens[j].text;
        break;
      }
    }
    if (sorted_wrapper || container.empty()) {
      continue;
    }
    // Enrich the message with any ordered-output sink in the loop body.
    std::string sinks;
    if (close + 1 < tokens.size() && tokens[close + 1].text == "{") {
      const size_t body_end = MatchingClose(tokens, close + 1);
      for (size_t j = close + 2; j < body_end && j < tokens.size(); ++j) {
        const bool is_sink =
            (tokens[j].kind == TokKind::kIdent && SinkIdents().count(tokens[j].text) > 0) ||
            (tokens[j].kind == TokKind::kPunct && tokens[j].text == "<<");
        if (is_sink && sinks.find(tokens[j].text) == std::string::npos) {
          sinks += sinks.empty() ? tokens[j].text : ", " + tokens[j].text;
        }
      }
    }
    std::string message = "iteration over unordered container '" + container + "'";
    if (!sinks.empty()) {
      message += " whose body feeds ordered output (" + sinks + ")";
    }
    message +=
        "; hash order is not portable across standard libraries -- iterate "
        "sorted keys (see SortedKeys in src/common/container_util.h) or "
        "justify with soslint:allow(R1) <reason>";
    diags->push_back({file.path, tokens[i].line, "R1", std::move(message)});
  }
}

// ---------------------------------------------------------------------------
// R2: ambient randomness / wall-clock time.
// ---------------------------------------------------------------------------

bool IsR2Exempt(const std::string& path) {
  return path == "src/common/rng.h" || path == "src/common/rng.cc" ||
         path == "src/common/sim_clock.h";
}

void CheckBannedEntropy(const SourceFile& file, const std::vector<Token>& tokens,
                        std::vector<Diagnostic>* diags) {
  if (IsR2Exempt(file.path)) {
    return;
  }
  static const std::unordered_set<std::string> kBanned = {
      "rand",         "srand",        "drand48",      "lrand48",
      "random_device", "system_clock", "gettimeofday", "clock_gettime",
      "localtime",    "gmtime",       "mt19937",      "mt19937_64",
      "default_random_engine",
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& t = tokens[i].text;
    const bool banned =
        kBanned.count(t) > 0 ||
        // `time` only as an explicit call through `::`/`std::`; a bare `time`
        // identifier is too common to ban outright.
        (t == "time" && i > 0 && tokens[i - 1].text == "::");
    if (banned) {
      diags->push_back({file.path, tokens[i].line, "R2",
                        "'" + t +
                            "' is a nondeterminism source; all entropy must come from "
                            "src/common/rng.h (DeriveSeed) and all time from SimClock"});
    }
  }
}

// ---------------------------------------------------------------------------
// R3: include style + header guards.
// ---------------------------------------------------------------------------

std::string ExpectedGuard(const std::string& path) {
  std::string guard = "SOS_";
  for (const char c : path) {
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

void CheckIncludes(const SourceFile& file, const std::vector<Token>& tokens,
                   std::vector<Diagnostic>* diags) {
  static const std::array<const char*, 5> kPrefixes = {"src/", "tests/", "bench/", "tools/",
                                                       "examples/"};
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text != "#" || tokens[i + 1].text != "include" ||
        tokens[i + 2].kind != TokKind::kString) {
      continue;
    }
    const std::string& inc = tokens[i + 2].text;
    const bool ok = std::any_of(kPrefixes.begin(), kPrefixes.end(), [&inc](const char* p) {
      return inc.rfind(p, 0) == 0;
    });
    if (!ok) {
      diags->push_back({file.path, tokens[i].line, "R3",
                        "#include \"" + inc +
                            "\" must use the full repository path (e.g. "
                            "#include \"src/common/status.h\")"});
    }
  }
}

void CheckHeaderGuard(const SourceFile& file, const std::vector<Token>& tokens,
                      std::vector<Diagnostic>* diags) {
  if (file.path.size() < 2 || file.path.compare(file.path.size() - 2, 2, ".h") != 0) {
    return;
  }
  const std::string expected = ExpectedGuard(file.path);
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "#") {
      continue;
    }
    if (tokens[i + 1].text == "pragma") {
      diags->push_back({file.path, tokens[i].line, "R3",
                        "use an include guard named " + expected + ", not #pragma once"});
      return;
    }
    if (tokens[i + 1].text == "ifndef") {
      if (i + 2 >= tokens.size() || tokens[i + 2].text != expected) {
        const std::string got = i + 2 < tokens.size() ? tokens[i + 2].text : "<missing>";
        diags->push_back({file.path, tokens[i].line, "R3",
                          "header guard '" + got + "' should be '" + expected + "'"});
      }
      return;
    }
  }
  diags->push_back({file.path, 1, "R3", "missing include guard " + expected});
}

// ---------------------------------------------------------------------------
// R4: assert with side effects.
// ---------------------------------------------------------------------------

void CheckAssertSideEffects(const SourceFile& file, const std::vector<Token>& tokens,
                            std::vector<Diagnostic>* diags) {
  static const std::unordered_set<std::string> kMutating = {
      "=",  "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || tokens[i].text != "assert" ||
        tokens[i + 1].text != "(") {
      continue;
    }
    const size_t close = MatchingClose(tokens, i + 1);
    for (size_t j = i + 2; j < close && j < tokens.size(); ++j) {
      if (tokens[j].kind == TokKind::kPunct && kMutating.count(tokens[j].text) > 0) {
        diags->push_back({file.path, tokens[i].line, "R4",
                          "assert() argument contains '" + tokens[j].text +
                              "'; side effects inside assert change behavior under NDEBUG"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Call-site classification shared by R6 and R7: given an indexed fallible
// call `recv.chain->Name(...)`, decide whether its result reaches a sink.
// ---------------------------------------------------------------------------

enum class CallUse {
  kUsed,      // returned / argument / condition / member access on the result
  kBare,      // expression statement, result dropped on the floor
  kVoidCast,  // (void)-laundered
  kAssigned,  // bound to a variable -- flow pass decides if it's ever read
};

struct CallSite {
  CallUse use = CallUse::kUsed;
  size_t head = 0;           // index of the first token of the full call expression
  std::string assigned_to;   // for kAssigned: the variable name
};

CallSite ClassifyCall(const std::vector<Token>& tokens, size_t name_index) {
  CallSite site;
  // Walk back over the receiver chain (`ftl_->`, `device.ftl().`) to the
  // statement head; what precedes it decides whether the result is used.
  size_t k = name_index;
  while (k > 0) {
    const std::string& prev = tokens[k - 1].text;
    if (prev == "." || prev == "->" || prev == "::") {
      k -= 1;
      if (k > 0) {
        --k;  // the receiver token itself (identifier, ')' or ']')
      }
      continue;
    }
    break;
  }
  site.head = k;
  if (k == 0) {
    site.use = CallUse::kBare;
    return site;
  }
  const Token& prev = tokens[k - 1];
  if (prev.text == ";" || prev.text == "{" || prev.text == "}" || prev.text == "else") {
    site.use = CallUse::kBare;
    return site;
  }
  if (k >= 3 && prev.text == ")" && tokens[k - 2].text == "void" && tokens[k - 3].text == "(") {
    site.use = CallUse::kVoidCast;
    return site;
  }
  if (prev.text == "=" && k >= 2 && tokens[k - 2].kind == TokKind::kIdent) {
    // Only a declaration (`Status s = F();` -- the variable name preceded by
    // a type) gets the assigned-never-read scan. A plain reassignment
    // (`s = F();`, the retry idiom) writes a variable declared in a scope
    // this pass cannot see, so it is conservatively treated as used.
    const bool is_decl =
        k >= 3 && (tokens[k - 3].kind == TokKind::kIdent || tokens[k - 3].text == ">" ||
                   tokens[k - 3].text == ">>" || tokens[k - 3].text == "*" ||
                   tokens[k - 3].text == "&");
    if (is_decl) {
      site.use = CallUse::kAssigned;
      site.assigned_to = tokens[k - 2].text;
    }
    return site;
  }
  return site;
}

// For kAssigned: does `var` get read again between the end of the assigning
// statement and the close of its scope? A (void)-cast of the variable is
// laundering, not a read.
bool VariableReadLater(const std::vector<Token>& tokens, const std::vector<size_t>& scope_close,
                       size_t call_index, const std::string& var) {
  // End of the assigning statement: first ';' at or after the call.
  size_t stmt_end = call_index;
  while (stmt_end < tokens.size() && tokens[stmt_end].text != ";") {
    ++stmt_end;
  }
  const size_t end = scope_close[call_index];
  for (size_t j = stmt_end + 1; j < end && j < tokens.size(); ++j) {
    if (tokens[j].kind != TokKind::kIdent || tokens[j].text != var) {
      continue;
    }
    const bool void_cast = j >= 3 && tokens[j - 1].text == ")" && tokens[j - 2].text == "void" &&
                           tokens[j - 3].text == "(";
    if (!void_cast) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// R6: swallowed Status/Result on recovery and fault-injection paths.
// ---------------------------------------------------------------------------
//
// [[nodiscard]] already rejects a plain discard at compile time; what it
// cannot catch is `(void)`-laundering or a refactor that drops the marker.
// On crash-recovery code a swallowed error is exactly the bug the subsystem
// exists to surface, so the recovery entry points get a dedicated lint:
// their Status must be assigned, tested, returned, or explicitly waived
// through IgnoreResult() (which is grep-able and reviewed). R7 generalizes
// this to every fallible function in the tree; R6 stays as the strict,
// unconditional rule for the recovery entry points themselves, now over the
// whole scan scope (a bench driver swallowing RecoverFromPowerLoss is no
// more acceptable than the FTL doing it).

bool IsR6Callee(const std::string& name) {
  return name.rfind("Recover", 0) == 0 || name == "DropBadBlock" || name == "GateOp";
}

void CheckSwallowedRecoveryStatus(const SourceFile& file, const std::vector<Token>& tokens,
                                  std::vector<Diagnostic>* diags) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsR6Callee(tokens[i].text) ||
        tokens[i + 1].text != "(") {
      continue;
    }
    const CallSite site = ClassifyCall(tokens, i);
    if (site.use == CallUse::kBare || site.use == CallUse::kVoidCast) {
      diags->push_back(
          {file.path, tokens[i].line, "R6",
           std::string(site.use == CallUse::kVoidCast ? "(void)-casting" : "discarding") +
               " the Status of '" + tokens[i].text +
               "' swallows a recovery/fault-path error; handle it, propagate it, or waive it "
               "explicitly with IgnoreResult(...)"});
    }
  }
}

// ---------------------------------------------------------------------------
// R7: cross-TU Status propagation.
// ---------------------------------------------------------------------------

void CheckStatusFlow(const SourceFile& file, const std::vector<Token>& tokens,
                     const std::vector<size_t>& scope_close, const SymbolIndex& index,
                     std::vector<Diagnostic>* diags) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || tokens[i + 1].text != "(") {
      continue;
    }
    const auto it = index.fallible_fns.find(tokens[i].text);
    if (it == index.fallible_fns.end()) {
      continue;
    }
    if (IsR6Callee(tokens[i].text)) {
      continue;  // R6 owns the recovery entry points with its stricter message
    }
    const CallSite site = ClassifyCall(tokens, i);
    const std::string origin = it->second.file + ":" + std::to_string(it->second.line);
    if (site.use == CallUse::kBare || site.use == CallUse::kVoidCast) {
      diags->push_back(
          {file.path, tokens[i].line, "R7",
           std::string(site.use == CallUse::kVoidCast ? "(void)-casting" : "discarding") +
               " the " + it->second.return_type + " of '" + tokens[i].text + "' (declared at " +
               origin +
               "); the result of a fallible call must reach a sink -- return it, check it, or "
               "waive it with IgnoreResult(...)"});
    } else if (site.use == CallUse::kAssigned &&
               !VariableReadLater(tokens, scope_close, i, site.assigned_to)) {
      diags->push_back({file.path, tokens[i].line, "R7",
                        "the " + it->second.return_type + " of '" + tokens[i].text +
                            "' (declared at " + origin + ") is assigned to '" +
                            site.assigned_to +
                            "' which is never read afterwards; check it or drop it explicitly "
                            "with IgnoreResult(...)"});
    }
  }
}

// ---------------------------------------------------------------------------
// R8: shared-mutable captures in thread-pool lambdas.
// ---------------------------------------------------------------------------

bool IsPoolEntryPoint(const std::string& name) {
  return name == "Submit" || name == "ParallelFor" || name == "ParallelMap";
}

const std::unordered_set<std::string>& MutatingMethods() {
  static const std::unordered_set<std::string> kMethods = {
      "push_back", "emplace_back", "insert", "emplace", "erase",  "clear",
      "resize",    "append",       "assign", "Add",     "Set",    "Observe",
      "Record",    "Append",       "Increment",
      // Queue verbs: a bare struct's Push/Pop from a pool lambda is exactly
      // the race R8 exists for. Writes through an identifier of an
      // internally synchronized type (see SymbolIndex::sync_idents) are
      // exempted at the check site instead.
      "Push", "Pop", "TryPush", "TryPop", "Enqueue", "Dequeue",
  };
  return kMethods;
}

const std::unordered_set<std::string>& LockIdents() {
  static const std::unordered_set<std::string> kLocks = {
      "lock_guard", "unique_lock", "scoped_lock", "atomic", "mutex", "Mutex",
  };
  return kLocks;
}

bool IsAssignOp(const std::string& t) {
  static const std::unordered_set<std::string> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  return kOps.count(t) > 0;
}

void CheckThreadPoolCaptures(const SourceFile& file, const std::vector<Token>& tokens,
                             const SymbolIndex& index, std::vector<Diagnostic>* diags) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPoolEntryPoint(tokens[i].text) ||
        tokens[i + 1].text != "(") {
      continue;
    }
    const size_t args_close = MatchingClose(tokens, i + 1);
    // Find lambdas among the arguments: '[' introducing a capture list.
    for (size_t j = i + 2; j < args_close && j < tokens.size(); ++j) {
      if (tokens[j].text != "[" ||
          (tokens[j - 1].text != "(" && tokens[j - 1].text != ",")) {
        continue;
      }
      const size_t cap_close = MatchingClose(tokens, j);
      if (cap_close >= tokens.size()) {
        continue;
      }
      // Parse the capture list.
      bool default_ref = false;
      std::set<std::string> ref_captures;
      for (size_t k = j + 1; k < cap_close; ++k) {
        if (tokens[k].text != "&") {
          continue;
        }
        if (k + 1 < cap_close && tokens[k + 1].kind == TokKind::kIdent) {
          ref_captures.insert(tokens[k + 1].text);
        } else {
          default_ref = true;
        }
      }
      if (!default_ref && ref_captures.empty()) {
        j = cap_close;
        continue;  // by-value lambda cannot share mutable state
      }
      // Parameters (every identifier in the parameter list counts; the last
      // one of each declarator is the name, the rest are types -- treating
      // types as parameter names only ever widens the per-index exemption).
      std::set<std::string> params;
      size_t body_open = cap_close + 1;
      if (body_open < tokens.size() && tokens[body_open].text == "(") {
        const size_t params_close = MatchingClose(tokens, body_open);
        for (size_t k = body_open + 1; k < params_close; ++k) {
          if (tokens[k].kind == TokKind::kIdent) {
            params.insert(tokens[k].text);
          }
        }
        body_open = params_close + 1;
      }
      while (body_open < tokens.size() && tokens[body_open].text != "{" &&
             tokens[body_open].text != ";") {
        ++body_open;  // skip mutable / noexcept / -> ReturnType
      }
      if (body_open >= tokens.size() || tokens[body_open].text != "{") {
        continue;
      }
      const size_t body_close = MatchingClose(tokens, body_open);
      // A lock or atomic in the body is the sanctioned synchronization.
      bool synchronized = false;
      for (size_t k = body_open; k < body_close && k < tokens.size(); ++k) {
        if (tokens[k].kind == TokKind::kIdent && LockIdents().count(tokens[k].text) > 0) {
          synchronized = true;
          break;
        }
      }
      if (synchronized) {
        j = cap_close;
        continue;
      }
      // Scan the body for writes through captured names.
      std::set<std::string> flagged;
      for (size_t k = body_open + 1; k < body_close && k < tokens.size(); ++k) {
        if (tokens[k].kind != TokKind::kIdent) {
          continue;
        }
        const std::string& name = tokens[k].text;
        if (params.count(name) > 0 || flagged.count(name) > 0) {
          continue;
        }
        const bool captured = ref_captures.count(name) > 0 || default_ref;
        if (!captured) {
          continue;
        }
        const Token& next = tokens[k + 1];
        bool write = false;
        bool slot_write = false;
        if (next.kind == TokKind::kPunct && (IsAssignOp(next.text) || next.text == "++" ||
                                             next.text == "--")) {
          write = true;
        } else if (k > 0 && tokens[k - 1].kind == TokKind::kPunct &&
                   (tokens[k - 1].text == "++" || tokens[k - 1].text == "--")) {
          write = true;
        } else if (next.text == "[") {
          const size_t idx_close = MatchingClose(tokens, k + 1);
          if (idx_close + 1 < tokens.size() && IsAssignOp(tokens[idx_close + 1].text)) {
            write = true;
            for (size_t m = k + 2; m < idx_close; ++m) {
              if (tokens[m].kind == TokKind::kIdent && params.count(tokens[m].text) > 0) {
                slot_write = true;  // out[i] = ...: the ParallelMap contract
                break;
              }
            }
          }
        } else if ((next.text == "." || next.text == "->") && k + 3 < tokens.size() &&
                   tokens[k + 2].kind == TokKind::kIdent &&
                   MutatingMethods().count(tokens[k + 2].text) > 0 &&
                   tokens[k + 3].text == "(") {
          // The hand-off idiom (as in `AsyncBlockService::Submit`): a
          // mutating call through an identifier declared (anywhere in the
          // tree) with an internally synchronized type -- a class carrying
          // its own mutex/cv/atomic -- is the sanctioned cross-thread
          // channel, not a race.
          write = index.sync_idents.count(name) == 0;
        }
        if (write && !slot_write && default_ref && ref_captures.count(name) == 0) {
          // Under [&] we cannot see the capture set; only treat the name as
          // shared if it also appears outside the lambda in this file.
          bool outside = false;
          for (size_t m = 0; m < tokens.size(); ++m) {
            if (m >= j && m <= body_close) {
              m = body_close;
              continue;
            }
            if (tokens[m].kind == TokKind::kIdent && tokens[m].text == name) {
              outside = true;
              break;
            }
          }
          if (!outside) {
            continue;
          }
        }
        if (write && !slot_write) {
          flagged.insert(name);
          diags->push_back(
              {file.path, tokens[k].line, "R8",
               "thread-pool lambda writes shared by-reference capture '" + name +
                   "' without a per-index slot or a lock; this is a data race the bench "
                   "drivers never run under TSan -- use a per-index slot (out[i] = ...), "
                   "synchronize, or justify with soslint:allow(R8) <reason>"});
        }
      }
      j = cap_close;
    }
  }
}

// ---------------------------------------------------------------------------
// R9: golden-output float stability.
// ---------------------------------------------------------------------------

bool IsR9Exempt(const std::string& path) {
  // gtest assertion messages are not golden bytes; everything else that
  // renders text is in scope.
  return path.rfind("tests/", 0) == 0;
}

const std::unordered_set<std::string>& SanctionedFormatters() {
  static const std::unordered_set<std::string> kFormatters = {
      "FormatDouble", "FormatPercent", "FormatBytes", "FormatCount", "FormatJsonDouble",
      "snprintf",     "printf",        "fprintf",
  };
  return kFormatters;
}

bool IsFloatLiteral(const Token& tok) {
  if (tok.kind != TokKind::kNumber || tok.text.rfind("0x", 0) == 0 ||
      tok.text.rfind("0X", 0) == 0) {
    return false;
  }
  return tok.text.find('.') != std::string::npos || tok.text.find('e') != std::string::npos ||
         tok.text.find('E') != std::string::npos;
}

void CheckFloatFormatting(const SourceFile& file, const std::vector<Token>& tokens,
                          const SymbolIndex& index, std::vector<Diagnostic>* diags) {
  if (IsR9Exempt(file.path)) {
    return;
  }
  auto is_double_ident = [&index](const Token& tok) {
    return tok.kind == TokKind::kIdent && index.double_idents.count(tok.text) > 0;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    // `<< double_expr`: a left shift cannot take a floating operand, so any
    // `<<` whose right-hand expression involves a known double is a stream
    // insertion of one.
    if (tokens[i].kind == TokKind::kPunct && tokens[i].text == "<<") {
      std::string offender;
      bool sanctioned = false;
      int depth = 0;
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        const Token& tok = tokens[j];
        if (tok.kind == TokKind::kPunct) {
          if (tok.text == "(" || tok.text == "[" || tok.text == "{") {
            ++depth;
          } else if (tok.text == ")" || tok.text == "]" || tok.text == "}") {
            if (--depth < 0) {
              break;
            }
          } else if (depth == 0 && (tok.text == ";" || tok.text == "," || tok.text == "<<")) {
            break;
          }
          continue;
        }
        if (tok.kind == TokKind::kIdent && SanctionedFormatters().count(tok.text) > 0) {
          sanctioned = true;
          break;
        }
        if (offender.empty() && (is_double_ident(tok) || IsFloatLiteral(tok))) {
          offender = tok.text;
        }
      }
      if (!offender.empty() && !sanctioned) {
        diags->push_back(
            {file.path, tokens[i].line, "R9",
             "streaming double '" + offender +
                 "' through operator<<; locale and shortest-round-trip formatting move "
                 "golden bytes between toolchains -- use FormatDouble/FormatJsonDouble or "
                 "snprintf(\"%.*f\") instead"});
      }
      continue;
    }
    // std::to_string(double): %f-like, locale-dependent, and precision-fixed
    // at 6 -- never what a golden file wants.
    if (tokens[i].kind == TokKind::kIdent && tokens[i].text == "to_string" &&
        i + 1 < tokens.size() && tokens[i + 1].text == "(") {
      const size_t close = MatchingClose(tokens, i + 1);
      for (size_t j = i + 2; j < close && j < tokens.size(); ++j) {
        if (is_double_ident(tokens[j]) || IsFloatLiteral(tokens[j])) {
          diags->push_back(
              {file.path, tokens[i].line, "R9",
               "std::to_string on double '" + tokens[j].text +
                   "' is locale-dependent with fixed precision 6 -- use FormatDouble/"
                   "FormatJsonDouble or snprintf(\"%.*f\") instead"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R10: unit hygiene.
// ---------------------------------------------------------------------------

bool IsR10Exempt(const std::string& path) { return path == "src/common/units.h"; }

// Strips digit separators and integer/float suffixes: "1'048'576ull" ->
// "1048576", "1024.0" -> "1024".
std::string NormalizeNumber(const std::string& text) {
  std::string digits;
  for (const char c : text) {
    if (c == '\'') {
      continue;
    }
    digits += c;
  }
  while (!digits.empty() && std::isalpha(static_cast<unsigned char>(digits.back())) != 0) {
    digits.pop_back();
  }
  if (digits.size() > 2 && digits.compare(digits.size() - 2, 2, ".0") == 0) {
    digits.resize(digits.size() - 2);
  }
  return digits;
}

bool IsUnitMagnitude(const std::string& normalized) {
  static const std::unordered_set<std::string> kMagnitudes = {
      "1024",          "1048576",        "1073741824",    "1099511627776",
      "1000000",       "1000000000",     "1000000000000",
  };
  return kMagnitudes.count(normalized) > 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void CheckUnitHygiene(const SourceFile& file, const std::vector<Token>& tokens,
                      std::vector<Diagnostic>* diags) {
  if (IsR10Exempt(file.path)) {
    return;
  }
  static const std::unordered_set<std::string> kBinary = {"kKiB", "kMiB", "kGiB", "kTiB"};
  static const std::unordered_set<std::string> kDecimal = {"kKB", "kMB", "kGB",
                                                           "kTB", "kPB", "kEB"};
  static const std::unordered_set<std::string> kMicros = {"kUsPerMs", "kUsPerSecond",
                                                          "kUsPerMinute", "kUsPerHour"};
  static const std::unordered_set<std::string> kConverters = {
      "BytesToGiB", "BytesToMiB", "BytesToGB", "UsToDays",  "UsToYears",
      "DaysToUs",   "YearsToUs",  "kUsPerDay", "kUsPerYear",
      "AgeDays",  // src/classify/features.cc: UsToDays with a subtraction
  };
  // Expression-granular family mixing. Segments are delimited by ; { } and
  // ',' -- a comma separates parameters/arguments, each of which is its own
  // expression (a signature taking both an *_us and a *_days parameter is
  // fine; dividing one by the other is not).
  size_t stmt_start = 0;
  const Token* binary = nullptr;
  const Token* decimal = nullptr;
  const Token* micros = nullptr;
  const Token* days = nullptr;
  bool converter = false;
  auto flush = [&](size_t /*end*/) {
    if (!converter && binary != nullptr && decimal != nullptr) {
      diags->push_back(
          {file.path, binary->line, "R10",
           "one expression mixes binary '" + binary->text + "' and decimal '" + decimal->text +
               "' size units; convert explicitly through a units.h helper (BytesToGiB, "
               "BytesToGB, ...) or split the expression"});
    }
    if (!converter && micros != nullptr && days != nullptr) {
      diags->push_back(
          {file.path, micros->line, "R10",
           "one expression mixes microsecond quantity '" + micros->text + "' and day quantity '" +
               days->text +
               "'; convert explicitly through a units.h helper (UsToDays, DaysToUs, kUsPerDay)"});
    }
    binary = decimal = micros = days = nullptr;
    converter = false;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind == TokKind::kPunct &&
        (tok.text == ";" || tok.text == "{" || tok.text == "}" || tok.text == ",")) {
      flush(i);
      stmt_start = i + 1;
      continue;
    }
    if (tok.kind == TokKind::kNumber) {
      const std::string normalized = NormalizeNumber(tok.text);
      if (IsUnitMagnitude(normalized)) {
        diags->push_back(
            {file.path, tok.line, "R10",
             "raw unit literal " + tok.text +
                 " outside src/common/units.h; spell it with the named constant (kKiB, kMiB, "
                 "kGiB, kMB, ...) or justify with soslint:allow(R10) <reason>"});
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) {
      continue;
    }
    if (kConverters.count(tok.text) > 0) {
      converter = true;
    } else if (kBinary.count(tok.text) > 0) {
      if (binary == nullptr) {
        binary = &tok;
      }
    } else if (kDecimal.count(tok.text) > 0) {
      if (decimal == nullptr) {
        decimal = &tok;
      }
    } else if (kMicros.count(tok.text) > 0 || EndsWith(tok.text, "_us")) {
      if (micros == nullptr) {
        micros = &tok;
      }
    } else if (EndsWith(tok.text, "_days")) {
      if (days == nullptr) {
        days = &tok;
      }
    }
  }
  flush(tokens.size());
  (void)stmt_start;
}

// ---------------------------------------------------------------------------
// JSON emission.
// ---------------------------------------------------------------------------

void AppendJsonString(std::string* out, const std::string& s) {
  *out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

SymbolIndex BuildIndex(const std::vector<SourceFile>& files) {
  SymbolIndex index;
  static const std::unordered_set<std::string> kDeclQualifiers = {"&", "*", "const"};
  static const std::unordered_set<std::string> kFnTails = {
      "{", ";", "const", "override", "final", "noexcept", "=", ":",
  };
  for (const SourceFile& file : files) {
    const Lexed lexed = Lex(file.content);
    const std::vector<Token>& tokens = lexed.tokens;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind != TokKind::kIdent) {
        continue;
      }
      const std::string& t = tokens[i].text;
      // --- unordered container declarations (R1) ---
      if (t == "unordered_map" || t == "unordered_set") {
        size_t j = SkipTemplateArgs(tokens, i);
        while (j < tokens.size() && tokens[j].kind == TokKind::kPunct &&
               kDeclQualifiers.count(tokens[j].text) > 0) {
          ++j;
        }
        if (j < tokens.size() && tokens[j].text == "const") {
          ++j;
        }
        if (j < tokens.size() && tokens[j].kind == TokKind::kIdent) {
          index.unordered_names.insert(tokens[j].text);
        }
        continue;
      }
      // --- fallible function signatures (R7) ---
      if (t == "Status" || t == "Result") {
        size_t j = i + 1;
        if (t == "Result") {
          if (j >= tokens.size() || tokens[j].text != "<") {
            continue;  // plain `Result` identifier, not the template
          }
          j = SkipTemplateArgs(tokens, i);
        }
        // Skip `Class::` qualifiers on out-of-line definitions.
        while (j + 1 < tokens.size() && tokens[j].kind == TokKind::kIdent &&
               tokens[j + 1].text == "::") {
          j += 2;
        }
        if (j + 1 >= tokens.size() || tokens[j].kind != TokKind::kIdent ||
            tokens[j + 1].text != "(") {
          continue;
        }
        // Project style: functions are PascalCase, variables snake_case --
        // the cheap filter that keeps `Status s(...)` out of the index.
        const std::string& name = tokens[j].text;
        if (!IsUpper(name)) {
          continue;
        }
        const size_t close = MatchingClose(tokens, j + 1);
        if (close + 1 >= tokens.size() || kFnTails.count(tokens[close + 1].text) == 0) {
          continue;
        }
        index.fallible_fns.emplace(name, FallibleFn{file.path, tokens[j].line, t});
        continue;
      }
      // --- double-typed names (R9) ---
      if (t == "double" || t == "float") {
        size_t j = i + 1;
        while (j < tokens.size() && tokens[j].kind == TokKind::kPunct &&
               kDeclQualifiers.count(tokens[j].text) > 0) {
          ++j;
        }
        if (j < tokens.size() && tokens[j].kind == TokKind::kIdent &&
            tokens[j].text.size() >= 2) {
          index.double_idents.insert(tokens[j].text);
        }
        continue;
      }
      // --- internally synchronized class types (R8) ---
      if (t == "class" || t == "struct") {
        // Skip `template <class T>` parameters and `enum class`.
        if (i > 0 && (tokens[i - 1].text == "<" || tokens[i - 1].text == "," ||
                      tokens[i - 1].text == "enum")) {
          continue;
        }
        if (i + 1 >= tokens.size() || tokens[i + 1].kind != TokKind::kIdent) {
          continue;
        }
        const std::string& name = tokens[i + 1].text;
        size_t j = i + 2;  // scan past `final` / base clause to the body
        while (j < tokens.size() && tokens[j].text != "{" && tokens[j].text != ";") {
          ++j;
        }
        if (j >= tokens.size() || tokens[j].text != "{") {
          continue;  // forward declaration
        }
        const size_t close = MatchingClose(tokens, j);
        for (size_t m = j + 1; m < close && m < tokens.size(); ++m) {
          if (tokens[m].kind == TokKind::kIdent &&
              (tokens[m].text == "mutex" || tokens[m].text == "condition_variable" ||
               tokens[m].text == "atomic" || tokens[m].text == "Mutex")) {
            index.synchronized_types.insert(name);
            break;
          }
        }
        continue;
      }
    }
  }
  // Second sub-pass: now that every synchronized type is known, collect the
  // identifiers declared with one anywhere in the tree (members, locals,
  // parameters). Cross-TU on purpose: the queue class lives in src/serve,
  // its instances in whoever hands work to a pool.
  if (!index.synchronized_types.empty()) {
    for (const SourceFile& file : files) {
      const Lexed lexed = Lex(file.content);
      const std::vector<Token>& tokens = lexed.tokens;
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != TokKind::kIdent ||
            index.synchronized_types.count(tokens[i].text) == 0) {
          continue;
        }
        size_t j = SkipTemplateArgs(tokens, i);
        while (j < tokens.size() && tokens[j].kind == TokKind::kPunct &&
               kDeclQualifiers.count(tokens[j].text) > 0) {
          ++j;
        }
        if (j < tokens.size() && tokens[j].kind == TokKind::kIdent &&
            tokens[j].text.size() >= 2) {
          index.sync_idents.insert(tokens[j].text);
        }
      }
    }
  }
  return index;
}

std::vector<Diagnostic> LintFile(const SourceFile& file, const SymbolIndex& index) {
  const Lexed lexed = Lex(file.content);
  const AllowTable allows = ParseAllows(file.path, lexed.comments);
  const std::vector<size_t> scope_close = BuildScopeClose(lexed.tokens);

  std::vector<Diagnostic> raw;
  CheckUnorderedIteration(file, lexed.tokens, index.unordered_names, &raw);
  CheckBannedEntropy(file, lexed.tokens, &raw);
  CheckIncludes(file, lexed.tokens, &raw);
  CheckHeaderGuard(file, lexed.tokens, &raw);
  CheckAssertSideEffects(file, lexed.tokens, &raw);
  CheckSwallowedRecoveryStatus(file, lexed.tokens, &raw);
  CheckStatusFlow(file, lexed.tokens, scope_close, index, &raw);
  CheckThreadPoolCaptures(file, lexed.tokens, index, &raw);
  CheckFloatFormatting(file, lexed.tokens, index, &raw);
  CheckUnitHygiene(file, lexed.tokens, &raw);

  std::vector<Diagnostic> diags;
  for (Diagnostic& diag : raw) {
    if (!IsAllowed(allows, diag.line, diag.rule)) {
      diags.push_back(std::move(diag));
    }
  }
  diags.insert(diags.end(), allows.malformed.begin(), allows.malformed.end());
  return diags;
}

std::vector<Diagnostic> LintTree(const std::vector<SourceFile>& files) {
  const SymbolIndex index = BuildIndex(files);
  std::vector<Diagnostic> diags;
  for (const SourceFile& file : files) {
    std::vector<Diagnostic> file_diags = LintFile(file, index);
    diags.insert(diags.end(), std::make_move_iterator(file_diags.begin()),
                 std::make_move_iterator(file_diags.end()));
  }
  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  return diags;
}

std::string FormatDiagnostic(const Diagnostic& diag) {
  return diag.file + ":" + std::to_string(diag.line) + ": [" + diag.rule + "] " + diag.message;
}

std::string FormatReportJson(const std::vector<Diagnostic>& diags, size_t files_scanned) {
  std::string out = "{\n  \"schema\": 1,\n  \"files_scanned\": " +
                    std::to_string(files_scanned) + ",\n  \"diagnostics\": [";
  for (size_t i = 0; i < diags.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": ";
    AppendJsonString(&out, diags[i].file);
    out += ", \"line\": " + std::to_string(diags[i].line) + ", \"rule\": ";
    AppendJsonString(&out, diags[i].rule);
    out += ", \"message\": ";
    AppendJsonString(&out, diags[i].message);
    out += "}";
  }
  out += diags.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace sos::lint
